"""How the normal form driver and script replay scale with the datum size.

Builds disjoint unions of the frozen benchmark pieces (``perfbench/corpus``,
digest checked), each split pool in file order and repeated until the union
has P points, and times on each, by the wall clock:

* ``global_split`` of a freshly built union, its validation included;
* ``apply_script`` of the script it returned, onto another fresh union.

Standard library only.  Run from the root of a source checkout::

    python3 tools/scale.py                  # P = 320, 1280, 5120
    python3 tools/scale.py --points 160

Prints one line per pool and size, and checks that the replay reproduces
the driver's result.  The ``growth`` column holds the ``global_split`` and
the ``apply_script`` time over those of the previous size of the same
pool (``-`` for the first size).
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corpus import disjoint_union, load_corpus  # noqa: E402
from halfhandle import cli_io, moves, normal_form  # noqa: E402

POOLS = ("split_deep", "split_codim1")


def union_of(pieces, points):
    """The first pieces of the cycled pool that hold ``points`` points."""
    chosen, total = [], 0
    while total < points:
        piece = pieces[len(chosen) % len(pieces)]
        chosen.append(piece)
        total += len(piece.points)
    return disjoint_union(*chosen)


def measure(pieces, points):
    """(points, splits, moves, global_split seconds, apply_script seconds)."""
    datum = union_of(pieces, points)
    start = perf_counter()
    out, _, script = normal_form.global_split(datum)
    split_s = perf_counter() - start
    again = union_of(pieces, points)
    start = perf_counter()
    replayed = moves.apply_script(again, script)
    replay_s = perf_counter() - start
    if cli_io.serialize_datum(replayed) != cli_io.serialize_datum(out):
        raise SystemExit("replaying the script does not give the normal form")
    splits = sum(1 for r in script if r.kind == "split")
    return len(datum.points), splits, len(script), split_s, replay_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, nargs="+", default=[320, 1280, 5120])
    args = parser.parse_args(argv)
    texts, _ = load_corpus()
    print("%-13s %6s %6s %6s %14s %14s %12s" % (
        "pool", "P", "splits", "moves", "global_split_s", "apply_script_s", "growth"))
    for pool in POOLS:
        pieces = [cli_io.parse_datum(t) for t in texts[pool]]
        before = None
        for points in args.points:
            row = measure(pieces, points)
            growth = "-" if before is None else "%.1fx/%.1fx" % (
                row[3] / before[3], row[4] / before[4])
            print("%-13s %6d %6d %6d %14.3f %14.3f %12s"
                  % ((pool,) + row + (growth,)), flush=True)
            before = row
    return 0


if __name__ == "__main__":
    sys.exit(main())
