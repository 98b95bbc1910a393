"""How the normal form driver and script replay scale with the datum size.

Builds disjoint unions of the frozen benchmark pieces (``perfbench/corpus``,
digest checked), each split pool in file order and repeated until the union
has P points, and times on each, by the wall clock, the median of ``RUNS``
runs:

* ``global_split`` of a freshly built union, its validation included;
* ``apply_script`` of the script it returned, onto another fresh union;
* the text replay the benchmark's ``replay_mid_s`` times: the union and
  the script are serialized (untimed), then both texts are parsed and the
  script applied;
* the parse within that replay: ``parse_datum`` and ``parse_script`` on
  the two texts.

Standard library only.  Run from the root of a source checkout::

    python3 tools/scale.py                  # P = 320, 1280, 5120
    python3 tools/scale.py --points 160

Prints one line per pool and size, and checks that both replays reproduce
the driver's result.  The ``growth`` column holds the ``global_split``,
``apply_script`` and text replay times over those of the previous size of
the same pool (``-`` for the first size).  After each row a second line,
on standard error so that standard output stays the table, gives the
median seconds of each ``global_split`` stage, in the driver's order, then
of the closing derive and verify of the decomposition, and last of the two
parses of the text replay::

    split_deep 1280 stages schedule=0.012345 ... verify=0.000234 parse_datum=0.01 parse_script=0.02

The stages are the entries of ``normal_form._DEEP_STAGES`` and
``_CODIM_ONE_STAGES``; ``derive`` is a call of
``derive_half_handle_decomposition`` or ``derive_monotone_decomposition``
and ``verify`` one of ``verify_decomposition``.  Each is wrapped in a timer
while the pool is measured, and so are ``cli_io.parse_datum`` and
``parse_script``.  The parses lie outside ``global_split`` and its stage
sum.  ``replay_text_s`` less ``parse_datum`` is the text replay without
the parse of the input, which ``global_split`` does not do.

To compare two checkouts, say a parent and a change, run the change's copy
of this script with the parent's root::

    python3 tools/scale.py --against PARENT_DIR --points 1280 5120

Each run is then a process of its own, on this checkout's corpus and
harness with the package of one side.  Run i of a size times ``DIR``
first when i is even and this checkout first when it is odd, as
``tools/pairs.py`` alternates its pairs, so a drift of the host's speed
falls on both sides alike.  Each size prints a row for ``DIR``
(``against``), one for this checkout (``this``), each the medians of its
runs, and a ``ratio`` row of this checkout's times over ``DIR``'s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corpus import disjoint_union, load_corpus  # noqa: E402
from halfhandle import cli_io, moves, normal_form  # noqa: E402

POOLS = ("split_deep", "split_codim1")
# the functions global_split closes with, timed under these names after the
# stages; it looks them up on its module when it runs, so a wrapper there
# sees every call
CLOSING = {
    "derive_half_handle_decomposition": "derive",
    "derive_monotone_decomposition": "derive",
    "verify_decomposition": "verify",
}
PARSES = ("parse_datum", "parse_script")  # of cli_io, in the text replay
RUNS = 5  # single runs of one size spread too widely to read a growth from
# one run of --against in a fresh interpreter: the package is imported from
# its side's src/ first, so the harness's own src/ entry never serves it
ONE_RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); import halfhandle; "
    "sys.path.insert(0, sys.argv[2]); import scale; scale.one_run(sys.argv[1], *sys.argv[3:])"
)
HEADER = "%-13s %6s %6s %6s %14s %14s %14s %14s %18s"
ROW = "%-13s %6d %6d %6d %14.3f %14.3f %14.3f %14.3f %18s"


def union_of(pieces, points):
    """The first pieces of the cycled pool that hold ``points`` points."""
    chosen, total = [], 0
    while total < points:
        piece = pieces[len(chosen) % len(pieces)]
        chosen.append(piece)
        total += len(piece.points)
    return disjoint_union(*chosen)


@contextmanager
def timed_stages():
    """Time every ``global_split`` stage while the block runs: yields a dict
    to which each stage call appends its seconds, under the stage's name,
    each call of a ``CLOSING`` function under its name there, and each call
    of a ``PARSES`` function under its own.  The entries of
    ``normal_form._DEEP_STAGES`` and ``_CODIM_ONE_STAGES`` and those
    functions are wrapped for the block and put back after it."""
    seconds = {}

    def wrap(stage, fn):
        def run(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds.setdefault(stage, []).append(perf_counter() - start)
        return run

    tables = normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES
    closing = {name: getattr(normal_form, name) for name in CLOSING}
    parses = {name: getattr(cli_io, name) for name in PARSES}
    normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES = (
        tuple((stage, wrap(stage, fn)) for stage, fn in table) for table in tables)
    for name, fn in closing.items():
        setattr(normal_form, name, wrap(CLOSING[name], fn))
    for name, fn in parses.items():
        setattr(cli_io, name, wrap(name, fn))
    try:
        yield seconds
    finally:
        normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES = tables
        for name, fn in closing.items():
            setattr(normal_form, name, fn)
        for name, fn in parses.items():
            setattr(cli_io, name, fn)


def measure(pieces, points, runs=RUNS):
    """(points, splits, moves, global_split seconds, apply_script seconds,
    text replay seconds, text parse seconds), the times the medians of
    ``runs`` runs."""
    split_s, replay_s, text_s, parse_s = [], [], [], []
    for _ in range(runs):
        datum = union_of(pieces, points)
        start = perf_counter()
        out, _, script = normal_form.global_split(datum)
        split_s.append(perf_counter() - start)
        again = union_of(pieces, points)
        start = perf_counter()
        replayed = moves.apply_script(again, script)
        replay_s.append(perf_counter() - start)
        texts = cli_io.serialize_datum(again), cli_io.serialize_script(script)
        start = perf_counter()
        parsed = cli_io.parse_datum(texts[0]), cli_io.parse_script(texts[1])
        parse_s.append(perf_counter() - start)
        from_text = moves.apply_script(*parsed)
        text_s.append(perf_counter() - start)
        want = cli_io.serialize_datum(out)
        if any(cli_io.serialize_datum(d) != want for d in (replayed, from_text)):
            raise SystemExit("replaying the script does not give the normal form")
    splits = sum(1 for r in script if r.kind == "split")
    return (len(datum.points), splits, len(script), statistics.median(split_s),
            statistics.median(replay_s), statistics.median(text_s),
            statistics.median(parse_s))


def one_run(src, pool, points):
    """Print one run of ``measure`` on ``pool`` at ``points`` as JSON, for
    the package in ``src``, which must be the one imported."""
    import halfhandle

    if Path(halfhandle.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit("halfhandle came from %s, not %s" % (halfhandle.__file__, src))
    texts, _ = load_corpus()
    pieces = [cli_io.parse_datum(t) for t in texts[pool]]
    print(json.dumps(measure(pieces, int(points), runs=1)))


def alternate(against, pool, points):
    """The rows of ``against`` and of this checkout at one size, from
    ``RUNS`` alternating runs of each in processes of their own."""
    sides = (("against", against / "src"), ("this", ROOT / "src"))
    got = {side: [] for side, _ in sides}
    for i in range(RUNS):
        for side, src in sides[:: 1 if i % 2 == 0 else -1]:
            proc = subprocess.run(
                [sys.executable, "-B", "-c", ONE_RUN, str(src), str(ROOT / "tools"),
                 pool, str(points)], capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit("%s run of %s at %d failed:\n%s"
                                 % (side, pool, points, proc.stderr))
            got[side].append(json.loads(proc.stdout))
    return [tuple(runs[0][:3]) + tuple(statistics.median(r[i] for r in runs)
                                       for i in range(3, 7))
            for runs in got.values()]


def growth(row, before):
    return "-" if before is None else "/".join(
        "%.1fx" % (row[i] / before[i]) for i in (3, 4, 5))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, nargs="+", default=[320, 1280, 5120])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="root of a second checkout, timed alternately with this one")
    args = parser.parse_args(argv)
    texts, _ = load_corpus()
    print(HEADER % (
        "pool", "P", "splits", "moves", "global_split_s", "apply_script_s",
        "replay_text_s", "parse_text_s", "growth") + ("" if args.against is None else " side"))
    for pool in POOLS:
        pieces = [cli_io.parse_datum(t) for t in texts[pool]]
        before = None
        for points in args.points:
            if args.against is None:
                with timed_stages() as stage_s:
                    row = measure(pieces, points)
                print(ROW % ((pool,) + row + (growth(row, before),)), flush=True)
                last = list(dict.fromkeys(CLOSING.values())) + list(PARSES)
                names = [stage for stage in stage_s if stage not in last] + last
                print(pool, points, "stages", *("%s=%.6f" % (name, statistics.median(stage_s[name]))
                                                for name in names),
                      file=sys.stderr, flush=True)
                before = row
                continue
            rows = alternate(args.against, pool, points)
            for side, row, last in zip(("against", "this"), rows, before or (None, None)):
                print(ROW % ((pool,) + row + (growth(row, last),)) + " " + side)
            ratio = tuple("%.3fx" % (rows[1][i] / rows[0][i]) for i in range(3, 7))
            print(HEADER % ((pool, points, "-", "-") + ratio + ("-",)) + " ratio", flush=True)
            before = rows
    return 0


if __name__ == "__main__":
    sys.exit(main())
