"""``tools/scale.py`` runs and reports both split pools (smoke size)."""

import pathlib
import re
import subprocess
import sys

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
