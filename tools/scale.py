"""How the normal form driver and script replay scale with the datum size.

Builds disjoint unions of the frozen benchmark pieces (``perfbench/corpus``,
digest checked), each split pool in file order and repeated until the union
has P points, and times on each, by the wall clock, the median of ``RUNS``
runs, each part after a full collection, so that it starts from the same
collector state whatever ran before it:

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
of the closing derive and verify of the decomposition, then of the two
parses of the text replay, and last of one validation of a datum.  Beside
the ``split`` stage it gives the number of splits of the run and the
median microseconds of the stage per split::

    split_deep 1280 stages schedule=0.012345 ... split=0.003456 splits=120 us_per_split=28.8 ... verify=0.000234 parse_datum=0.01 parse_script=0.02 validate=0.003

The stages are the entries of ``normal_form._DEEP_STAGES`` and
``_CODIM_ONE_STAGES``; ``derive`` is a call of
``derive_half_handle_decomposition`` or ``derive_monotone_decomposition``
and ``verify`` one of ``verify_decomposition``.  Each is wrapped in a timer
while the pool is measured, and so are ``cli_io.parse_datum`` and
``parse_script`` and, as ``validate``, ``morse_data.validate_datum``.  The
parses lie outside ``global_split``, and all three outside its stage sum.
Each run validates three fresh data of one size, the inputs of
``global_split``, of ``apply_script`` and of the text replay, so
``validate`` is the time of one of them.  ``replay_text_s`` less
``parse_datum`` and ``validate`` is the text replay without the parse and
the check of its input, the like-for-like reading against
``global_split``'s own moves.

To compare two checkouts, say a parent and a change, run the change's copy
of this script with the parent's root::

    python3 tools/scale.py --against PARENT_DIR --points 1280 5120

Both packages are then loaded into this one process, each under module
objects of its own (``Side``), and the runs alternate inside it: a
separate process per run would put each side on a host of its own speed.
Before each of its runs a side's ``halfhandle`` modules are swapped into
``sys.modules``, so the imports the package makes as it runs find its
own, and its unions are built by this checkout's corpus module loaded
against its classes, from the pools its own parser read.  Run i of a size
times ``DIR`` first when i is even and this checkout first when it is
odd, as ``tools/pairs.py`` alternates its pairs, so a drift of the host's
speed falls on both sides alike.  Each size prints a row for ``DIR``
(``against``), one for this checkout (``this``), each the medians of its
runs, and a ``ratio`` row of this checkout's times over ``DIR``'s.  On
standard error it prints each side's stage line, timed in the same
alternating runs and ended by the side's name, and a ``ratio`` line of
this checkout's stage medians over ``DIR``'s, stage by stage::

    split_codim1 1280 stages order=0.934x split=0.957x ... validate=0.962x ratio

so that a claim about a stage rests on the runs its end-to-end row does.
"""

import argparse
import gc
import importlib
import importlib.util
import pkgutil
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from corpus import disjoint_union, load_corpus  # noqa: E402
from halfhandle import cli_io, morse_data, moves, normal_form  # noqa: E402

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
HEADER = "%-13s %6s %6s %6s %14s %14s %14s %14s %18s"
ROW = "%-13s %6d %6d %6d %14.6f %14.6f %14.6f %14.6f %18s"  # to the microsecond, as the stage lines


# the package this script imported, and the union builder of its classes
HERE = SimpleNamespace(cli_io=cli_io, moves=moves, normal_form=normal_form,
                       morse_data=morse_data, union=disjoint_union)


def union_of(pieces, points, union=disjoint_union):
    """The first pieces of the cycled pool that hold ``points`` points,
    joined by ``union``."""
    chosen, total = [], 0
    while total < points:
        piece = pieces[len(chosen) % len(pieces)]
        chosen.append(piece)
        total += len(piece.points)
    return union(*chosen)


def _own(name):
    return name == "halfhandle" or name.startswith("halfhandle.")


def _drop_package():
    """Take every ``halfhandle`` module out of ``sys.modules``."""
    for name in [name for name in sys.modules if _own(name)]:
        del sys.modules[name]


class Side:
    """The package in ``src``, loaded under module objects of its own.

    ``modules`` holds every ``halfhandle`` module of it by name,
    ``__main__`` aside; ``cli_io``, ``moves``, ``normal_form`` and
    ``morse_data`` are four of them, ``union`` is ``disjoint_union`` of
    this checkout's corpus module loaded against its classes, and ``pools``
    has each split pool parsed by its ``parse_datum``.  A package that is not the one in
    ``src`` is refused.  ``enter`` puts the modules into ``sys.modules``.
    """

    def __init__(self, src, texts):
        src = Path(src).resolve()
        _drop_package()
        sys.path.insert(0, str(src))
        try:
            package = importlib.import_module("halfhandle")
            for info in pkgutil.iter_modules(package.__path__):
                if info.name != "__main__":
                    importlib.import_module("halfhandle." + info.name)
        finally:
            sys.path.remove(str(src))
        if Path(package.__file__).resolve().parent.parent != src:
            raise SystemExit("halfhandle came from %s, not %s" % (package.__file__, src))
        self.modules = {name: sys.modules[name] for name in sys.modules if _own(name)}
        spec = importlib.util.spec_from_file_location(
            "corpus_%d" % id(self), ROOT / "perfbench" / "corpus.py")
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        self.union = corpus.disjoint_union
        self.cli_io, self.moves, self.normal_form, self.morse_data = (
            self.modules["halfhandle." + name]
            for name in ("cli_io", "moves", "normal_form", "morse_data"))
        self.pools = {pool: [self.cli_io.parse_datum(t) for t in texts[pool]]
                      for pool in POOLS}

    def enter(self):
        _drop_package()
        sys.modules.update(self.modules)


@contextmanager
def timed_stages(side=HERE):
    """Time every ``global_split`` stage of the package of ``side`` (by
    default this script's) while the block runs: yields a dict
    to which each stage call appends its seconds, under the stage's name,
    each call of a ``CLOSING`` function under its name there, each call
    of a ``PARSES`` function under its own and each validation under
    ``validate``.  The entries of ``normal_form._DEEP_STAGES`` and
    ``_CODIM_ONE_STAGES`` and those functions are wrapped for the block and
    put back after it."""
    seconds = {}

    def wrap(stage, fn):
        def run(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds.setdefault(stage, []).append(perf_counter() - start)
        return run

    normal_form, cli_io, morse_data = side.normal_form, side.cli_io, side.morse_data
    tables = normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES
    closing = {name: getattr(normal_form, name) for name in CLOSING}
    parses = {name: getattr(cli_io, name) for name in PARSES}
    # the gate of the timed paths, MorseDatum.valid (and require_valid),
    # looks validate_datum up on morse_data when it runs, so a wrapper there
    # sees their validations; modules that imported the name (cli_io's
    # validate command, the generator) keep the unwrapped function
    validate = morse_data.validate_datum
    normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES = (
        tuple((stage, wrap(stage, fn)) for stage, fn in table) for table in tables)
    for name, fn in closing.items():
        setattr(normal_form, name, wrap(CLOSING[name], fn))
    for name, fn in parses.items():
        setattr(cli_io, name, wrap(name, fn))
    morse_data.validate_datum = wrap("validate", validate)
    try:
        yield seconds
    finally:
        normal_form._DEEP_STAGES, normal_form._CODIM_ONE_STAGES = tables
        for name, fn in closing.items():
            setattr(normal_form, name, fn)
        for name, fn in parses.items():
            setattr(cli_io, name, fn)
        morse_data.validate_datum = validate


def measure(pieces, points, runs=RUNS, side=HERE):
    """(points, splits, moves, global_split seconds, apply_script seconds,
    text replay seconds, text parse seconds), the times the medians of
    ``runs`` runs of the package of ``side`` (by default this script's)."""
    cli, split_s, replay_s, text_s, parse_s = side.cli_io, [], [], [], []
    for _ in range(runs):
        datum = union_of(pieces, points, side.union)
        gc.collect()  # each timed part starts from the same collector state
        start = perf_counter()
        out, _, script = side.normal_form.global_split(datum)
        split_s.append(perf_counter() - start)
        again = union_of(pieces, points, side.union)
        gc.collect()
        start = perf_counter()
        replayed = side.moves.apply_script(again, script)
        replay_s.append(perf_counter() - start)
        texts = cli.serialize_datum(again), cli.serialize_script(script)
        gc.collect()
        start = perf_counter()
        parsed = cli.parse_datum(texts[0]), cli.parse_script(texts[1])
        parse_s.append(perf_counter() - start)
        from_text = side.moves.apply_script(*parsed)
        text_s.append(perf_counter() - start)
        want = cli.serialize_datum(out)
        if any(cli.serialize_datum(d) != want for d in (replayed, from_text)):
            raise SystemExit("replaying the script does not give the normal form")
    splits = sum(1 for r in script if r.kind == "split")
    return (len(datum.points), splits, len(script), statistics.median(split_s),
            statistics.median(replay_s), statistics.median(text_s),
            statistics.median(parse_s))


def alternate(sides, pool, points):
    """The rows of the two ``sides`` (``DIR``'s, then this checkout's) at
    one size, from ``RUNS`` alternating runs of each in this process, and
    each side's stage seconds (``timed_stages``) over its runs."""
    got, seconds = [[], []], [{}, {}]
    for i in range(RUNS):
        for j in (0, 1) if i % 2 == 0 else (1, 0):
            sides[j].enter()
            with timed_stages(sides[j]) as stage_s:
                got[j].append(measure(sides[j].pools[pool], points, runs=1, side=sides[j]))
            for stage, times in stage_s.items():
                seconds[j].setdefault(stage, []).extend(times)
    rows = [tuple(runs[0][:3]) + tuple(statistics.median(r[i] for r in runs)
                                       for i in range(3, 7))
            for runs in got]
    return rows, seconds


def stage_medians(seconds):
    """(name, median seconds) of each timed part: the stages in the order
    they ran, then the closing derive and verify, the parses and
    ``validate``."""
    last = list(dict.fromkeys(CLOSING.values())) + list(PARSES) + ["validate"]
    names = [stage for stage in seconds if stage not in last] + last
    return [(name, statistics.median(seconds[name])) for name in names]


def stage_cells(medians, splits):
    """The ``name=seconds`` cells of a stage line, from ``stage_medians``,
    with the number of splits and the microseconds of the ``split`` stage
    per split after its own cell."""
    cells = []
    for name, seconds in medians:
        cells.append("%s=%.6f" % (name, seconds))
        if name == "split":
            cells += ["splits=%d" % splits, "us_per_split=%.1f" % (seconds * 1e6 / splits)]
    return cells


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
    if args.against is not None:
        sides = [Side(args.against / "src", texts), Side(ROOT / "src", texts)]
    print(HEADER % (
        "pool", "P", "splits", "moves", "global_split_s", "apply_script_s",
        "replay_text_s", "parse_text_s", "growth") + ("" if args.against is None else " side"))
    for pool in POOLS:
        before = None
        for points in args.points:
            if args.against is None:
                pieces = [cli_io.parse_datum(t) for t in texts[pool]]
                with timed_stages() as stage_s:
                    row = measure(pieces, points)
                print(ROW % ((pool,) + row + (growth(row, before),)), flush=True)
                print(pool, points, "stages", *stage_cells(stage_medians(stage_s), row[1]),
                      file=sys.stderr, flush=True)
                before = row
                continue
            rows, seconds = alternate(sides, pool, points)
            for side, row, last in zip(("against", "this"), rows, before or (None, None)):
                print(ROW % ((pool,) + row + (growth(row, last),)) + " " + side)
            ratio = tuple("%.3fx" % (rows[1][i] / rows[0][i]) for i in range(3, 7))
            print(HEADER % ((pool, points, "-", "-") + ratio + ("-",)) + " ratio", flush=True)
            medians = [stage_medians(side_s) for side_s in seconds]
            for side, cells, row in zip(("against", "this"), medians, rows):
                print(pool, points, "stages", *stage_cells(cells, row[1]), side,
                      file=sys.stderr)
            theirs = dict(medians[0])
            print(pool, points, "stages", *("%s=%.3fx" % (name, mine / theirs[name])
                                            for name, mine in medians[1] if name in theirs),
                  "ratio", file=sys.stderr, flush=True)
            before = rows
    return 0


if __name__ == "__main__":
    sys.exit(main())
