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
the same pool (``-`` for the first size).
"""

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corpus import disjoint_union, load_corpus  # noqa: E402
from halfhandle import cli_io, moves, normal_form  # noqa: E402

POOLS = ("split_deep", "split_codim1")
RUNS = 5  # single runs of one size spread too widely to read a growth from


def union_of(pieces, points):
    """The first pieces of the cycled pool that hold ``points`` points."""
    chosen, total = [], 0
    while total < points:
        piece = pieces[len(chosen) % len(pieces)]
        chosen.append(piece)
        total += len(piece.points)
    return disjoint_union(*chosen)


def measure(pieces, points):
    """(points, splits, moves, global_split seconds, apply_script seconds,
    text replay seconds, text parse seconds), the times the medians of
    ``RUNS`` runs."""
    split_s, replay_s, text_s, parse_s = [], [], [], []
    for _ in range(RUNS):
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, nargs="+", default=[320, 1280, 5120])
    args = parser.parse_args(argv)
    texts, _ = load_corpus()
    print("%-13s %6s %6s %6s %14s %14s %14s %14s %18s" % (
        "pool", "P", "splits", "moves", "global_split_s", "apply_script_s",
        "replay_text_s", "parse_text_s", "growth"))
    for pool in POOLS:
        pieces = [cli_io.parse_datum(t) for t in texts[pool]]
        before = None
        for points in args.points:
            row = measure(pieces, points)
            growth = "-" if before is None else "/".join(
                "%.1fx" % (row[i] / before[i]) for i in (3, 4, 5))
            print("%-13s %6d %6d %6d %14.3f %14.3f %14.3f %14.3f %18s"
                  % ((pool,) + row + (growth,)), flush=True)
            before = row
    return 0


if __name__ == "__main__":
    sys.exit(main())
