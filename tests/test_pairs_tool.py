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
    assert op[5] == "24.5" and op[-3:] == ["-18.3%", "3/4", "-"]
    assert row(lines, "setup_s")[-3:] == ["+0.0%", "0/4", "-"]  # ties are no wins
    assert row(lines, "peak_rss_mb")[-3] == "+1.0%"


PARENT = [30, 31, 29, 30, 32, 28, 30, 31, 29, 30]  # median 30, q1 29.25, q3 30.75


def test_verdict_is_a_gain_on_9_of_10_wins_past_the_parents_spread():
    def op(parent, change):  # op_mid_ms: bound 0.18, lower is better
        return pairs.verdict(list(zip(parent, change)), 0.18, True)

    better = [p - 5 for p in PARENT]
    assert op(PARENT, better) == "gain"
    assert op(PARENT, better[:9] + [31]) == "gain"  # 9/10
    assert op(PARENT, better[:9] + [30]) == "gain"  # a tie is no win and no loss
    assert op(PARENT, better[:8] + [31, 32]) == "-"  # 8/10
    assert op(PARENT, better[:8] + [29, 30]) == "-"  # 8 wins and 2 ties
    # 10/10 wins, but the median moves by no more than the parent's spread
    assert op(PARENT, [p - 1.5 for p in PARENT]) == "-"
    assert op(PARENT, [p - 1.6 for p in PARENT]) == "gain"
    # a higher-is-better metric is read the other way round
    assert pairs.verdict(list(zip(PARENT, better)), 0.18, False) == "-"
    assert pairs.verdict(list(zip(better, PARENT)), 0.18, False) == "gain"


def test_verdict_is_unresolved_when_the_parent_spreads_past_the_bound():
    noisy = [20, 40, 20, 40, 20, 40, 20, 40, 20, 40]  # q1 20, median 30, q3 40
    assert pairs.verdict(list(zip(noisy, [p - 1 for p in noisy])), 0.18, True) \
        == "unresolved"
    # the same spread within a wider bound reads as no verdict
    assert pairs.verdict(list(zip(noisy, [p - 1 for p in noisy])), 0.7, True) == "-"
    # every change run better than every parent run: resolved, though no gain
    assert pairs.verdict(list(zip(noisy, [19] * 10)), 0.18, True) == "-"
    # the column in the table: a noisy parent's op_mid_ms, and a steady
    # peak_rss_mb that the change cuts in every pair
    parent = [result(p, 20.0) for p in noisy]
    change = [result(p - 1, 19.0) for p in noisy]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == [] and lines[0].split()[-1] == "verdict"
    assert row(lines, "op_mid_ms")[-3:] == ["-3.3%", "10/10", "unresolved"]
    assert row(lines, "peak_rss_mb")[-3:] == ["-5.0%", "10/10", "gain"]
    assert row(lines, "setup_s")[-1] == "-"


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
    assert row(lines, "op_mid_ms")[-2:] == ["0/3", "-"]


def test_a_run_without_a_result_is_flagged_and_left_out():
    assert pairs.last_json("workload x\nnot json\n") is None
    assert pairs.last_json('lines\n{"correct": true}\n\n') == {"correct": True}
    parent = [result(30.0, 20.0), None]
    change = [result(27.0, 20.0), result(27.0, 20.0)]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == ["parent run 1 gave no JSON result"]
    assert row(lines, "op_mid_ms")[-2:] == ["1/1", "gain"]


def test_a_run_that_times_out_is_flagged_and_the_series_kept(
        monkeypatch, capsys, tmp_path):
    # subprocess.run is replaced, so no benchmark is started: the parent's
    # second run hangs, every other run gives its result
    parent_runs = []

    def run(command, cwd, timeout, **kwargs):
        if cwd == ROOT:
            parent_runs.append(command)
            if len(parent_runs) == 2:
                raise pairs.subprocess.TimeoutExpired(command, timeout)
        value = 30.0 if cwd == ROOT else 27.0
        return pairs.subprocess.CompletedProcess(
            command, 0, json.dumps(result(value, 20.0)) + "\n", "")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    argv = [str(ROOT), str(tmp_path), "--pairs", "3", "--seconds", "1",
            "--workload", "split_deep"]
    assert pairs.main(argv) == 1
    captured = capsys.readouterr()
    assert "%s: split_deep timed out after 610 s" % (ROOT,) in captured.err
    out = captured.out.splitlines()
    assert "FLAG: parent run 1 gave no JSON result" in out
    assert row(out, "op_mid_ms")[-3:] == ["-10.0%", "2/2", "gain"]


def test_several_workloads_print_one_table_each_and_any_flag_fails(
        monkeypatch, capsys, tmp_path):
    canned = {  # (workload, side) -> the result of every run
        ("split_deep", "parent"): result(30.0, 20.0),
        ("split_deep", "change"): result(27.0, 20.0),
        ("small_batch", "parent"): result(10.0, 20.0),
        ("small_batch", "change"): result(10.0, 23.0),  # memory past its bound
    }
    started = []

    def bench(checkout, workload, args):
        side = "parent" if checkout == ROOT else "change"
        started.append((workload, side))
        return canned[workload, side]

    monkeypatch.setattr(pairs, "bench", bench)
    argv = [str(ROOT), str(tmp_path), "--pairs", "2", "--seconds", "1",
            "--workload"]
    assert pairs.main(argv + ["split_deep", "small_batch"]) == 1
    assert started == [
        ("split_deep", "parent"), ("split_deep", "change"),
        ("split_deep", "change"), ("split_deep", "parent"),
        ("small_batch", "parent"), ("small_batch", "change"),
        ("small_batch", "change"), ("small_batch", "parent"),
    ]
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert [out[i] for i in heads] == [
        "workload split_deep seed 1, 2 pairs of 1 s",
        "workload small_batch seed 1, 2 pairs of 1 s",
    ]
    deep, small = out[heads[0]:heads[1]], out[heads[1]:]
    assert row(deep, "op_mid_ms")[-3:] == ["-10.0%", "2/2", "gain"]
    assert not any(line.startswith("FLAG:") for line in deep)
    assert [line for line in small if line.startswith("FLAG:")] == [
        "FLAG: peak_rss_mb: median +15.0% against the parent, past its bound of 10%",
    ]
    # the same workload alone, with nothing flagged, exits 0
    assert pairs.main(argv + ["split_deep"]) == 0


def run_output(op_ms, digest):
    """What a benchmark run prints, as far as the tool reads it."""
    return ("workload split_deep seed 1: 9 attempted, 0 failed; timed operation: x\n"
            "failed_ratio 0.000000\noutput_sha256 %s\nop_mid_ms %r ms\n%s\n"
            % (digest, op_ms, json.dumps(result(op_ms, 20.0))))


def test_each_run_reads_its_output_digest_beside_its_result():
    got = pairs.run_result(run_output(30.0, "ab12"))
    assert got == dict(result(30.0, 20.0), output_sha256="ab12")
    assert pairs.run_result(json.dumps(result(30.0, 20.0)) + "\n")["output_sha256"] is None
    assert pairs.run_result("output_sha256 ab12\nnot json\n") is None


def test_a_pair_whose_outputs_differ_is_flagged():
    parent = [pairs.run_result(run_output(30.0, "aa")) for _ in range(3)]
    change = [pairs.run_result(run_output(27.0, digest)) for digest in ("aa", "bb", "aa")]
    lines, flags = pairs.summarize(parent, change, END_TO_END)
    assert flags == ["pair 1: output_sha256 aa (parent) != bb (change)"]
    assert row(lines, "op_mid_ms")[-3:] == ["-10.0%", "3/3", "gain"]
    # equal digests, or none on either side, raise no flag
    assert pairs.summarize(parent, parent, END_TO_END)[1] == []
    bare = [result(30.0, 20.0)] * 3
    assert pairs.summarize(bare, bare, END_TO_END)[1] == []


def test_a_run_of_other_output_fails_the_workload(monkeypatch, capsys, tmp_path):
    # subprocess.run is replaced, so no benchmark is started: the change's
    # second run prints another digest than the parent's
    changed = []

    def run(command, cwd, timeout, **kwargs):
        digest = "aa"
        if cwd != ROOT:
            changed.append(command)
            digest = "bb" if len(changed) == 2 else "aa"
        return pairs.subprocess.CompletedProcess(
            command, 0, run_output(30.0 if cwd == ROOT else 27.0, digest), "")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    argv = [str(ROOT), str(tmp_path), "--pairs", "3", "--seconds", "1",
            "--workload", "split_deep"]
    assert pairs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FLAG:")] == [
        "FLAG: pair 1: output_sha256 aa (parent) != bb (change)"]
