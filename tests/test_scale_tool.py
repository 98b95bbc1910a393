"""``tools/scale.py`` runs and reports both split pools (smoke size), with
the seconds of each ``global_split`` stage, alone and against a second
checkout, where it also prints both sides' stage medians and their
ratios."""

import os
import pathlib
import re
import subprocess
import sys

from halfhandle import normal_form

SCALE = pathlib.Path(__file__).resolve().parent.parent / "tools" / "scale.py"
PER_SPLIT = ["splits", "us_per_split"]  # the cells after split=, not seconds


def stage_names(table):
    """The names of a stage line's cells for a stage table: each stage,
    the split count and the microseconds per split after ``split``, then
    the closing and outside parts."""
    names = []
    for stage, _ in table:
        names += [stage] + (PER_SPLIT if stage == "split" else [])
    return names + ["derive", "verify", "parse_datum", "parse_script", "validate"]


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
    # replay and one validation, which lie outside that sum
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
        assert [name for name, _ in cells] == stage_names(tables[row.split()[0]])
        seconds = [float(value) for name, value in cells if name not in PER_SPLIT]
        assert all(s > 0 for s in seconds)
        assert sum(seconds[:-3]) <= float(row.split()[4])


def test_against_times_both_checkouts_and_prints_their_ratio():
    # this checkout against itself, in one process: a row per side and a
    # ratio row per size; each side's replays reproduced its normal form
    # (else the run exits), and both count the same splits and moves.  The
    # stage lines of both sides and their ratio come from the same runs
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
    # on stderr, each side's stage medians from the same runs, then their
    # ratio, stage by stage, in the stage order of the one-checkout line
    tables = {"split_deep": normal_form._DEEP_STAGES,
              "split_codim1": normal_form._CODIM_ONE_STAGES}
    lines = proc.stderr.splitlines()
    assert [line.split()[:3] + line.split()[-1:] for line in lines] == [
        [pool, "80", "stages", side] for pool in tables
        for side in ("against", "this", "ratio")]
    for line in lines:
        pool, side = line.split()[0], line.split()[-1]
        cells = [cell.split("=") for cell in line.split()[3:-1]]
        names = stage_names(tables[pool])
        if side == "ratio":  # the split count and per-split cost only per side
            names = [name for name in names if name not in PER_SPLIT]
        assert [name for name, _ in cells] == names
        for _, value in cells:
            if side == "ratio":
                assert re.fullmatch(r"\d+\.\d{3}x", value), value
            else:
                assert float(value) > 0


def test_the_stage_line_gives_the_splits_and_the_cost_of_one():
    # beside split=: the row's split count, and the split stage's median
    # microseconds over it, to the tenth of a microsecond
    proc = subprocess.run(
        [sys.executable, "-B", str(SCALE), "--points", "80"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = proc.stdout.splitlines()[1:]
    lines = proc.stderr.splitlines()
    assert len(rows) == len(lines) == 2
    for row, line in zip(rows, lines):
        cells = line.split()[3:]
        at = cells.index(next(c for c in cells if c.startswith("split=")))
        split_s = float(cells[at].partition("=")[2])
        assert cells[at + 1] == "splits=" + row.split()[2]
        name, _, per_split = cells[at + 2].partition("=")
        assert name == "us_per_split"
        splits = int(row.split()[2])
        # rounding: per_split to 0.1 us, split= to the microsecond
        assert abs(float(per_split) - split_s * 1e6 / splits) <= 0.05 + 0.5 / splits + 1e-6


SIDES = """
import sys
sys.path.insert(0, sys.argv[1])
import scale
texts, _ = scale.load_corpus()
sides = [scale.Side(scale.ROOT / "src", texts) for _ in range(2)]
mine = [side.modules["halfhandle.morse_data"] for side in sides]
assert mine[0] is not mine[1]
outputs = []
for side, morse_data in zip(sides, mine):
    side.enter()
    assert sys.modules["halfhandle.morse_data"] is morse_data
    union = scale.union_of(side.pools["split_deep"], 80, side.union)
    assert all(type(p) is morse_data.CriticalPoint for p in union.points)
    out, _, script = side.normal_form.global_split(union)
    again = scale.union_of(side.pools["split_deep"], 80, side.union)
    assert side.moves.apply_script(again, script) == out
    outputs.append(side.cli_io.serialize_datum(out) + side.cli_io.serialize_script(script))
    print(scale.measure(side.pools["split_codim1"], 80, runs=1, side=side)[:3])
assert outputs[0] == outputs[1]
"""


def test_against_runs_each_side_on_modules_of_its_own():
    # two sides of this checkout, in one process: each has its own module
    # objects, swapped into sys.modules while it runs, and builds its
    # unions with its own classes; the two replay to the same bytes and
    # count the same points, splits and moves
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SIDES, str(SCALE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 2 and rows[0] == rows[1], rows


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
