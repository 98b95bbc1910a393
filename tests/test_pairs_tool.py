"""``tools/pairs.py`` summarizes paired benchmark results (canned results;
no benchmark is started)."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result(op_ms, rss_mb, failed=0, correct=True):
    values = {"setup_s": 0.5, "op_mid_ms": op_ms, "replay_mid_s": 0.03,
              "peak_rss_mb": rss_mb}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def row(lines, name):
    return next(line for line in lines if line.split()[0] == name).split()


def test_summary_reports_medians_changes_and_wins():
    parent = [result(30.0, 20.0), result(29.0, 20.0), result(31.0, 20.0),
              result(30.0, 20.0)]
    change = [result(24.0, 20.2), result(25.0, 20.2), result(32.0, 20.0),
              result(24.0, 20.2)]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == []
    assert lines[0].split()[:2] == ["metric", "unit"]
    op = row(lines, "op_mid_ms")
    assert op[2:5] == ["30", "[29.75,", "30.25]"]  # parent median [q1, q3]
    assert op[5] == "24.5" and op[-2:] == ["-18.3%", "3/4"]
    assert row(lines, "setup_s")[-2:] == ["+0.0%", "0/4"]  # ties are no wins
    assert row(lines, "peak_rss_mb")[-2] == "+1.0%"


def test_summary_flags_a_metric_past_its_bound_and_bad_runs():
    parent = [result(30.0, 20.0), result(30.0, 20.0), result(30.0, 20.0)]
    change = [result(36.0, 23.0), result(36.0, 23.0, failed=1),
              result(36.0, 23.0, correct=False)]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == [
        "change run 1: failed 1, correct True",
        "change run 2: failed 0, correct False",
        "op_mid_ms: median +20.0% against the parent, past its bound of 18%",
        "peak_rss_mb: median +15.0% against the parent, past its bound of 10%",
    ]
    assert row(lines, "op_mid_ms")[-1] == "0/3"


def test_a_run_without_a_result_is_flagged_and_left_out():
    assert pairs.last_json("workload x\nnot json\n") is None
    assert pairs.last_json('lines\n{"correct": true}\n\n') == {"correct": True}
    parent = [result(30.0, 20.0), None]
    change = [result(27.0, 20.0), result(27.0, 20.0)]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == ["parent run 1 gave no JSON result"]
    assert row(lines, "op_mid_ms")[-1] == "1/1"
