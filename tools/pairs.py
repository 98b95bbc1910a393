"""Alternating pairs of benchmark runs of two checkouts, summarized.

Runs ``perfbench/run.py --trace 0`` in a parent checkout and in a changed
one, N times each, and compares their end-to-end metrics, for one or more
workloads::

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload split_deep \\
        split_codim1 --seed 1 --pairs 10 --seconds 20

The workloads are measured one after another, each in its own pairs.  Pair
i runs the parent first when i is even and the change first when it is
odd, so a drift of the host's speed falls on both sides alike.  The last
line of each run's output is its JSON result; a run that fails or times
out has none.  For every end-to-end metric of the parent's
``BENCHMARK.json`` the summary prints, one table per workload, the median
and the quartiles of each side, the change of the median in percent, and
the pairs in which the change is better in the metric's ``better``
direction, and a verdict:

* ``gain``: the change is better in at least 9 of 10 pairs (a tie is a win
  for neither side), and its median is better than the parent's by more
  than the parent's interquartile range;
* ``unresolved``: no gain, the parent's interquartile range is wider than
  the metric's bound times the parent's median, and not every run of the
  change is better than every run of the parent;
* ``-``: neither.

It flags a metric whose median is worse than the parent's by more than its
bound, any run that failed, had failed operations or was not correct, and
any pair whose two runs printed different ``output_sha256`` lines (the
digest of what the workload's operations returned), so a change that
claims to keep every output byte-identical is checked in every pair; the
exit status is 1 when anything is flagged in any workload.

Standard library only.  The runs are started with ``-B``, so they
leave no bytecode cache in either checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(xs):
    """(q1, median, q3) of the samples."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, median, q3


def run_flags(side, i, result):
    """Why run ``i`` of ``side`` cannot be trusted, if it cannot."""
    if result is None:
        return ["%s run %d gave no JSON result" % (side, i)]
    if result.get("failed", 0) > 0 or result.get("correct") is not True:
        return ["%s run %d: failed %s, correct %s"
                % (side, i, result.get("failed"), result.get("correct"))]
    return []


def verdict(got, bound, lower):
    """``gain``, ``unresolved`` or ``-`` (see the module docstring) for the
    (parent, change) value pairs ``got`` of a metric with this ``bound``,
    where ``lower`` says a lower value is better."""
    sign = -1 if lower else 1
    q1, median, q3 = quartiles([p for p, _ in got])
    change = quartiles([c for _, c in got])[1]
    wins = sum(1 for p, c in got if sign * (c - p) > 0)
    if 10 * wins >= 9 * len(got) and sign * (change - median) > q3 - q1:
        return "gain"
    beats_all = min(sign * c for _, c in got) > max(sign * p for p, _ in got)
    if q3 - q1 > bound * median and not beats_all:
        return "unresolved"
    return "-"


def summarize(parent, change, end_to_end):
    """(table lines, flags) for the paired results ``parent[i]`` and
    ``change[i]`` (None for a run without a result; see ``run_result``)
    under the ``end_to_end`` metric list of BENCHMARK.json."""
    flags = []
    for side, results in (("parent", parent), ("change", change)):
        for i, result in enumerate(results):
            flags += run_flags(side, i, result)
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    for i, (p, c) in enumerate(zip(parent, change)):
        if p is not None and c is not None and p.get(DIGEST) != c.get(DIGEST):
            flags.append("pair %d: output_sha256 %s (parent) != %s (change)"
                         % (i, p.get(DIGEST), c.get(DIGEST)))
    lines = ["%-13s %-5s %28s %28s %9s %7s %s" % (
        "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "verdict")]
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
               for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
        if not got:
            flags.append("%s: no paired values" % name)
            continue
        before, after = quartiles([p for p, _ in got]), quartiles([c for _, c in got])
        change_pct = 100.0 * (after[1] - before[1]) / before[1] if before[1] else 0.0
        wins = sum(1 for p, c in got if (c < p if lower else c > p))
        lines.append("%-13s %-5s %28s %28s %+8.1f%% %3d/%-3d %s" % (
            name, metric["unit"],
            "%.4g [%.4g, %.4g]" % (before[1], before[0], before[2]),
            "%.4g [%.4g, %.4g]" % (after[1], after[0], after[2]),
            change_pct, wins, len(got), verdict(got, metric["bound"], lower)))
        worse = change_pct if lower else -change_pct
        if worse > 100.0 * metric["bound"]:
            flags.append("%s: median %+.1f%% against the parent, past its bound of %g%%"
                         % (name, change_pct, 100.0 * metric["bound"]))
    return lines, flags


def last_json(text):
    """The JSON object on the last non-empty line of ``text``, or None."""
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


DIGEST = "output_sha256"


def run_result(text):
    """The JSON result of a run's output ``text`` (``last_json``), with the
    digest its ``output_sha256`` line printed under that key (None when it
    printed none); None for an output without a result."""
    result = last_json(text)
    if result is not None:
        result[DIGEST] = next((line.partition(" ")[2].strip() for line in
                               text.splitlines() if line.startswith(DIGEST + " ")), None)
    return result


def bench(checkout, workload, args):
    command = [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=10 * args.seconds + 600)
    except subprocess.TimeoutExpired as exc:  # a run without a result
        print("%s: %s timed out after %g s" % (checkout, workload, exc.timeout),
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        return None
    return run_result(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    flagged = False
    for workload in args.workload:
        parent, change = [], []
        for i in range(args.pairs):
            sides = [("parent", args.parent, parent), ("change", args.change, change)]
            for side, checkout, results in sides[:: 1 if i % 2 == 0 else -1]:
                results.append(bench(checkout, workload, args))
                value = (results[-1] or {}).get("metrics", {}).get("op_mid_ms", {})
                print("%s pair %d %s op_mid_ms %s" % (
                    workload, i, side, value.get("value")), file=sys.stderr, flush=True)
        lines, flags = summarize(parent, change, end_to_end)
        print("workload %s seed %d, %d pairs of %g s" % (
            workload, args.seed, args.pairs, args.seconds))
        for line in lines:
            print(line)
        for flag in flags:
            print("FLAG: " + flag)
        flagged = flagged or bool(flags)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
