"""``tools/scale.py`` runs and reports both split pools (smoke size), with
the seconds of each ``global_split`` stage, alone and against a second
checkout."""

import os
import pathlib
import re
import subprocess
import sys

from halfhandle import normal_form

SCALE = pathlib.Path(__file__).resolve().parent.parent / "tools" / "scale.py"


def test_scale_script_reports_both_pools_at_160_points():
    # and at 80 points before, for the growth column of the 160-point rows
    # -B: no bytecode cache is written next to the benchmark's corpus module
    proc = subprocess.run(
        [sys.executable, "-B", str(SCALE), "--points", "80", "160"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    header, *rows = proc.stdout.splitlines()
    assert header.split() == [
        "pool", "P", "splits", "moves", "global_split_s", "apply_script_s",
        "replay_text_s", "parse_text_s", "growth"]
    assert [row.split()[:2] for row in rows] == [
        ["split_deep", "80"], ["split_deep", "160"],
        ["split_codim1", "80"], ["split_codim1", "160"]]
    for row in rows:
        splits, moves, split_s, replay_s, text_s, parse_s, growth = row.split()[2:]
        assert int(splits) > 0 and int(moves) > int(splits)
        assert float(split_s) > 0 and float(replay_s) > 0 and float(text_s) > 0
        # each run's parse is part of its text replay, so their medians order alike
        assert 0 < float(parse_s) <= float(text_s)
        if row.split()[1] == "80":  # the first size of its pool
            assert growth == "-"
        else:  # the three times over those of the row above
            assert re.fullmatch(r"\d+\.\dx/\d+\.\dx/\d+\.\dx", growth), growth


def test_scale_script_reports_the_seconds_of_each_stage():
    # one line on stderr after each row: the stages of the driver's table
    # for the pool, then its closing derive and verify, each timed, together
    # within the row's global_split_s; then the two parses of the text
    # replay, which lie outside global_split and its sum
    tables = {"split_deep": normal_form._DEEP_STAGES,
              "split_codim1": normal_form._CODIM_ONE_STAGES}
    proc = subprocess.run(
        [sys.executable, "-B", str(SCALE), "--points", "80"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = proc.stdout.splitlines()[1:]
    lines = proc.stderr.splitlines()
    assert [line.split()[:3] for line in lines] == [
        [pool, "80", "stages"] for pool in ("split_deep", "split_codim1")]
    for row, line in zip(rows, lines):
        cells = [cell.split("=") for cell in line.split()[3:]]
        assert [name for name, _ in cells] == [
            stage for stage, _ in tables[row.split()[0]]] + [
            "derive", "verify", "parse_datum", "parse_script"]
        seconds = [float(value) for _, value in cells]
        assert all(s > 0 for s in seconds)
        assert sum(seconds[:-2]) <= float(row.split()[4])


def test_against_times_both_checkouts_and_prints_their_ratio():
    # this checkout against itself: a row per side and a ratio row per size
    root = str(SCALE.parent.parent)
    proc = subprocess.run(
        [sys.executable, "-B", str(SCALE), "--points", "80", "--against", root],
        capture_output=True, text=True, timeout=120, check=True,
    )
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["growth", "side"]
    assert [row.split()[:2] + row.split()[-1:] for row in rows] == [
        [pool, "80", side] for pool in ("split_deep", "split_codim1")
        for side in ("against", "this", "ratio")]
    for against, this, ratio in zip(rows[::3], rows[1::3], rows[2::3]):
        assert against.split()[2:4] == this.split()[2:4]  # splits and moves
        assert ratio.split()[2:4] == ["-", "-"] and ratio.split()[-2] == "-"
        for cell in ratio.split()[4:8]:
            assert re.fullmatch(r"\d+\.\d{3}x", cell), cell


def test_against_refuses_a_directory_whose_package_was_not_imported(tmp_path):
    # tmp_path has no src/halfhandle, so its runs would import the package
    # from the path this checkout's src/ is on
    env = dict(os.environ, PYTHONPATH=str(SCALE.parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-B", str(SCALE), "--points", "80", "--against", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode != 0
    assert "halfhandle came from" in proc.stderr
