"""Smoke-size self-test of the benchmark harness; finishes in about 20 s.

    python3 perfbench/selftest.py

Checks the corpus digest guard, the union builder, the host-speed clock,
one small step of every workload with its correctness checks, that the
tracer puts every wrapped attribute back, and that a real run prints
exactly the metric names that ``BENCHMARK.json`` declares.  It is kept out of the package's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import halfhandle  # noqa: E402
import run  # noqa: E402
from clock import Clock, probe  # noqa: E402
from corpus import CORPUS_DIR, CorpusError, disjoint_union, load_corpus  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CheckedMoves, Recorder, SmallBatch, SplitUnion  # noqa: E402

TEXTS, PLANTED = load_corpus()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_corpus_digest_guard():
    scratch = HERE / "out" / "corpus-selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(CORPUS_DIR, scratch)
    try:
        path = scratch / "split_deep.data"
        path.write_text(path.read_text().replace("value=", "value= ", 1))
        try:
            load_corpus(scratch)
        except CorpusError:
            pass
        else:
            raise AssertionError("a changed corpus file passed the digest check")
    finally:
        shutil.rmtree(scratch)


def test_disjoint_union():
    a, b = (halfhandle.parse_datum(t) for t in TEXTS["split_deep"][:2])
    u = disjoint_union(a, b)
    assert halfhandle.validate_datum(u) == []
    assert len(u.points) == len(a.points) + len(b.points)
    assert len(u.graph.edges) == len(a.graph.edges) + len(b.graph.edges)
    assert {p.id for p in u.points} == (
        {"u00_" + p.id for p in a.points} | {"u01_" + p.id for p in b.points})


def test_clock_leaves_out_probes():
    clock = Clock()
    clock.start()
    start = perf_counter()
    while len(clock.ticks) < 20:
        probe()
    end = perf_counter()
    clock.stop()
    inside = [(t, t + d) for t, d in clock.ticks if start < t and t + d < end]
    assert inside and all(clock.seconds(a, b) == 0 for a, b in inside)
    points = sorted([start, end] + [t for t, _ in clock.ticks])
    refs = [clock.reference(t) for t in points]
    assert refs == sorted(refs) and clock.seconds(start, end) > 0


def _one_step(workload):
    rec = Recorder()
    assert workload.input_problems() == []
    workload.step(rec)
    assert rec.attempted > 0 and rec.failed == 0, rec.problems
    return rec


def test_split_workloads():
    for name in ("split_deep", "split_codim1"):
        workload = SplitUnion(TEXTS[name][:8], PLANTED, seed=1)
        _one_step(workload)
        assert workload.coverage_problems() == []


def test_small_batch():
    texts = TEXTS["small_batch"]
    subset = texts[::25] + texts[45::50]  # both halves of every (n, m) block
    workload = SmallBatch(subset, PLANTED, seed=1)
    _one_step(workload)
    assert workload.coverage_problems() == []


def test_checked_moves_planted_outcomes():
    first = min(entry["piece"] for entry in PLANTED)
    planted = [dict(entry, piece=entry["piece"] - first) for entry in PLANTED]
    workload = CheckedMoves(TEXTS["checked_moves"][first:], planted, seed=1)
    _one_step(workload)
    assert workload.coverage_problems() == []


def test_tracer_restores_every_attribute():
    modules = [m for k, m in sys.modules.items() if k.startswith("halfhandle")]
    before = {id(m): dict(vars(m)) for m in modules}
    post_init = halfhandle.CriticalPoint.__post_init__
    tracer = Tracer()
    spans = [(getattr(halfhandle, mod), attr, None)
             for mod, attrs in run.SPANNED.items() for attr in attrs]
    tracer.install(spans, [(halfhandle.CriticalPoint, "__post_init__", "point_checks")])
    assert halfhandle.normal_form.realize_configuration is not before[
        id(halfhandle.normal_form)]["realize_configuration"]
    tracer.active = True
    halfhandle.global_split(halfhandle.parse_datum(TEXTS["split_deep"][0]))
    tracer.restore()
    names = {r[2] for r in tracer.spans}
    assert {"normal_form.global_split", "moves.realize_configuration"} <= names
    assert tracer.counts["point_checks"] > 0
    assert halfhandle.CriticalPoint.__post_init__ is post_init
    for m in modules:
        assert dict(vars(m)) == before[id(m)], m.__name__


def _run(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "small_batch",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_declared_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("selftest: %d passed" % len(tests))


if __name__ == "__main__":
    main()
