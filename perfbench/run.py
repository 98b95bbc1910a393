"""halfhandle benchmark: normal form, script replay and checked moves.

    python3 perfbench/run.py --workload split_deep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Each run is one closed loop in this
process: one caller, no threads, every operation starting after the last
one ended.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, plus the output
digest.  See ``perfbench/README.md`` for the workloads and metrics.

Every duration is in reference seconds (see ``clock.py``): wall time
rescaled by the host's speed, which a probe samples every few milliseconds
while the run measures, so that the figures follow the program and not the
load of the host's other tenants.  The plain wall-clock figure is printed
beside them.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first half of the run is untraced, the second half traced; the metrics
are the per-layer ones (including the tracing overhead), and the span
records are written to ``perfbench/out/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 97  # kept for confirming a claimed gain; never tune against it
SETUP_REPEATS = 9
CLI_REPEATS = 5
SUBPROCESS_TIMEOUT = 60
IMPORT_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; from time import perf_counter; "
    "from clock import Clock; c = Clock(); c.start(); t = perf_counter(); "
    "import halfhandle; e = perf_counter(); c.stop(); print(c.seconds(t, e))"
)
CLI_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from halfhandle.cli_io import main; "
    "sys.exit(main(['normal-form', '-', '-o', '-', '--script', '-', '--report', '-']))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_mid_ms": "ms",
    "replay_mid_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = ("schedule", "bands", "joinability", "split", "final", "verify", "order")
STAGE_OF = {
    "normal_form.tsa_check": "bands",
    "normal_form.ensure_joinable": "joinability",
    "moves.split_interior": "split",
    "normal_form.derive_half_handle_decomposition": "verify",
    "normal_form.derive_monotone_decomposition": "verify",
    "normal_form.verify_decomposition": "verify",
}
SPANNED = {
    "normal_form": ("global_split", "tsa_check", "ensure_joinable",
                    "derive_half_handle_decomposition", "derive_monotone_decomposition",
                    "verify_decomposition"),
    "moves": ("realize_configuration", "assign_values", "apply_script", "split_interior",
              "cancel_pair", "rearrange_pair"),
    "slice_topology": ("replay", "joinable_to_wall"),
    "morse_data": ("validate_datum",),
    "trajectory": ("broken_closure", "has_broken_path", "can_rearrange"),
    "cli_io": ("parse_datum", "serialize_datum", "parse_script", "serialize_script"),
}
TIMED = {  # span name -> reported with _s and _calls (True) or _s only
    "moves.realize_configuration": True, "moves.assign_values": True,
    "moves.apply_script": False, "moves.split_interior": True, "moves.cancel_pair": True,
    "moves.rearrange_pair": True, "slice_topology.replay": True,
    "slice_topology.joinable_to_wall": True, "morse_data.validate_datum": True,
    "trajectory.broken_closure": True, "trajectory.has_broken_path": True,
    "trajectory.can_rearrange": True, "cli_io.parse_datum": False,
    "cli_io.serialize_datum": False, "cli_io.parse_script": False,
    "cli_io.serialize_script": False,
}
REFUSALS = {
    "cancel": ("KindMismatch", "IndexMismatch", "NotSingleTrajectory", "LocusViolation",
               "BrokenTrajectoryExists", "InvalidEffect"),
    "rearrange": ("Blocked", "EdgeOrderViolation", "InvalidEffect"),
    "split": ("NotJoinable", "MoveError", "InvalidEffect"),
}
MOVE_SPAN = {"cancel": "moves.cancel_pair", "rearrange": "moves.rearrange_pair",
             "split": "moves.split_interior"}


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"normal_form.%s_s" % s: "s" for s in STAGES + ("other",)}
    for count in ("moves", "splits", "park_moves", "points_in", "points_out"):
        units["normal_form." + count] = "count"
    for name, with_calls in TIMED.items():
        units[name + "_s"] = "s"
        if with_calls:
            units[name + "_calls"] = "count"
    units["moves.cancel_accept_ratio"] = "ratio"
    for kind, reasons in REFUSALS.items():
        units["moves.%s_accepted" % kind] = "count"
        for reason in reasons + ("other",):
            units["moves.%s_refused.%s" % (kind, reason)] = "count"
    units["slice_topology.effect_lookups"] = "count"
    units["morse_data.point_checks"] = "count"
    units["cli_io.main_ms"] = "ms"
    for module in SPANNED:
        units[module + ".self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.op_mid_overhead_ms"] = "ms"
    return units


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def middle(values):
    """Mean of the middle fifth of the sorted values (40th to 60th
    percentile): a median that does not jump from one sample to the next.
    With six values or fewer it is the median itself."""
    xs = sorted(values)
    return statistics.fmean(xs[2 * len(xs) // 5:-(-3 * len(xs) // 5)])


def op_stats(rec, seconds):
    """Operation and replay times of a recorder, with ``seconds(start, end)``
    measuring each interval."""
    ops = rec.durations("op", seconds)
    out = {
        "op_mid_ms": middle(ops) * 1e3,
        "op_p50_ms": quantile(ops, 0.5) * 1e3,
        "op_p90_ms": quantile(ops, 0.9) * 1e3,
    }
    replays = rec.durations("replay", seconds)
    if replays:
        out["replay_mid_s"] = middle(replays)
    return out


def wall_seconds(start, end):
    return end - start


def run_python(code, stdin=None):
    """Run ``python -c code SRC PERFBENCH`` in the checkout, wait for it,
    return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT, input=stdin,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True,
    )
    return proc.stdout


def measure(step, rec, seconds, min_steps):
    """Closed loop: step until ``min_steps`` steps (at least 1) have run and
    one more step as long as the last would overrun ``seconds``."""
    start = perf_counter()
    steps, last = 0, 0.0
    while True:
        now = perf_counter()
        if steps >= min_steps and now - start + last > seconds:
            return
        step(rec)
        last = perf_counter() - now
        steps += 1


def layer_metrics(tracer, rec):
    """Per-operation layer figures from the span records and counters."""
    from tracing import summarize

    spans = tracer.spans
    ops = max(len(rec.samples["op"]), 1)
    inclusive, calls, self_time = summarize(spans)
    out = dict.fromkeys(layer_units(), 0.0)
    for name, with_calls in TIMED.items():
        out[name + "_s"] = inclusive[name] / ops
        if with_calls:
            out[name + "_calls"] = calls[name] / ops
    for module in SPANNED:
        out[module + ".self_s"] = self_time[module] / ops

    children = {}
    for r in spans:
        if r[5] is not None:
            children.setdefault(r[5], []).append(r)
    for r in spans:
        if r[2] != "normal_form.global_split":
            continue
        attributed = 0.0
        realize = 0
        for c in children.get(r[0], ()):
            stage = STAGE_OF.get(c[2])
            if c[2] == "moves.realize_configuration":
                if (r[7] or {}).get("codim") == 1:
                    stage = "order"
                else:
                    stage = "schedule" if realize == 0 else "final"
                realize += 1
            if stage is not None:
                out["normal_form.%s_s" % stage] += (c[4] - c[3]) / ops
                attributed += c[4] - c[3]
        out["normal_form.other_s"] += (r[4] - r[3] - attributed) / ops
        if r[7] is not None:
            for key in ("moves", "splits", "park_moves", "points_in", "points_out"):
                out["normal_form." + key] += r[7][key] / ops

    accepted = attempted = 0
    for r in spans:
        if r[5] is not None:
            continue
        for kind, name in MOVE_SPAN.items():
            if r[2] != name:
                continue
            if r[6] is None:
                out["moves.%s_accepted" % kind] += 1 / ops
            else:
                reason = r[6] if r[6] in REFUSALS[kind] else "other"
                out["moves.%s_refused.%s" % (kind, reason)] += 1 / ops
            if kind == "cancel":
                attempted += 1
                accepted += r[6] is None
    out["moves.cancel_accept_ratio"] = accepted / attempted if attempted else 0.0
    out["slice_topology.effect_lookups"] = tracer.counts["effect_lookups"] / ops
    out["morse_data.point_checks"] = tracer.counts["point_checks"] / ops
    out["trace.spans"] = len(spans) / ops
    return out


def global_split_meta(args, result):
    datum, (out, _, script) = args[0], result
    return {
        "codim": min(datum.ambient.codim, 2),
        "points_in": len(datum.points),
        "points_out": len(out.points),
        "moves": len(script),
        "splits": sum(1 for r in script if r.kind == "split"),
        "park_moves": sum(1 for r in script if r.note == "park"),
    }


def traced_phase(workload, seconds):
    """Run the workload with every layer wrapped; returns (tracer, recorder)."""
    import halfhandle
    from halfhandle.morse_data import CriticalPoint
    from halfhandle.slice_topology import SliceComplex
    from tracing import Tracer
    from workloads import Recorder

    tracer = Tracer()
    rec = Recorder(tracer)
    spans = []
    for module, attrs in SPANNED.items():
        mod = getattr(halfhandle, module)
        for attr in attrs:
            meta = global_split_meta if attr == "global_split" else None
            spans.append((mod, attr, meta))
    counters = [(SliceComplex, "effect_for", "effect_lookups"),
                (CriticalPoint, "__post_init__", "point_checks")]
    tracer.install(spans, counters)
    try:
        measure(workload.step, rec, seconds, workload.min_steps)
    finally:
        tracer.restore()
    return tracer, rec


def setup(name, seed):
    """Import probes in fresh interpreters plus in-process corpus loads and
    compositions, each repeated; returns (workload, setup seconds)."""
    from clock import Clock
    from corpus import load_corpus
    from workloads import build

    imports = [float(run_python(IMPORT_PROBE)) for _ in range(SETUP_REPEATS)]
    clock, windows, workload = Clock(), [], None
    clock.start()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        texts, planted = load_corpus()
        workload = build(name, texts, planted, seed)
        windows.append((start, perf_counter()))
    clock.stop()
    composes = [clock.seconds(s, e) for s, e in windows]
    return workload, statistics.median(imports) + statistics.median(composes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("split_deep", "split_codim1", "small_batch", "checked_moves"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import halfhandle
    except ImportError as exc:
        print("perfbench: cannot import halfhandle from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if Path(halfhandle.__file__).resolve().parent.parent != SRC:
        print("perfbench: halfhandle came from %s, not %s" % (halfhandle.__file__, SRC),
              file=sys.stderr)
        return 2
    from clock import Clock
    from corpus import CorpusError, load_corpus
    from workloads import Recorder

    try:
        workload, setup_s = setup(args.workload, args.seed)
    except CorpusError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    rec = Recorder()
    problems = workload.input_problems()
    seconds = args.seconds / 2 if args.trace else args.seconds
    clock = Clock()
    clock.start()
    try:
        measure(workload.step, rec, seconds, workload.min_steps)
        if args.trace:
            tracer, traced = traced_phase(workload, args.seconds - seconds)
    finally:
        clock.stop()
    stats = op_stats(rec, clock.seconds)
    wall = op_stats(rec, wall_seconds)
    if args.trace:
        for r in tracer.spans:
            r[3], r[4] = clock.reference(r[3]), clock.reference(r[4])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
        metrics = layer_metrics(tracer, traced)
        metrics["trace.op_mid_overhead_ms"] = (
            op_stats(traced, clock.seconds)["op_mid_ms"] - stats["op_mid_ms"])
        fixture = load_corpus()[0]["split_deep"][0]
        cli = []
        for _ in range(CLI_REPEATS):
            start = perf_counter()
            run_python(CLI_PROBE, stdin=fixture)
            cli.append(perf_counter() - start)
        metrics["cli_io.main_ms"] = statistics.median(cli) * 1e3
        units = layer_units()
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
        problems += traced.problems
    else:
        metrics = dict(stats, setup_s=setup_s,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
        attempted, failed = rec.attempted, rec.failed
    problems = rec.problems + problems + workload.coverage_problems()

    print("workload %s seed %d: %d attempted, %d failed; timed operation: %s"
          % (args.workload, args.seed, attempted, failed, workload.unit))
    for line in problems:
        print("problem: %s" % line)
    for key, count in sorted(rec.outcomes.items(), key=str):
        print("outcome %s %d" % (key, count))
    print("failed_ratio %.6f" % (failed / max(attempted, 1)))
    print("output_sha256 %s" % rec.digest.hexdigest())
    print("host_slowdown %.3f (median probe over the reference probe; printed only)"
          % clock.slowdown())
    print("op_mid_wall_ms %r ms (wall clock; printed only)" % wall["op_mid_ms"])
    for alias, (value, unit) in workload.aliases(stats).items():
        print("%s %r %s (printed only)" % (alias, value, unit))
    for key, unit in units.items():
        print("%s %r %s" % (key, metrics[key], unit))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
