"""Rebuild the frozen benchmark corpus in ``perfbench/corpus/``.

    python3 perfbench/make_corpus.py

Pieces come from ``halfhandle.generate`` with fixed seeds; the planted
cancellation pairs are built by hand below.  The benchmark never calls
this script: it reads the committed files and checks them against
``SHA256SUMS``, so rerunning it after a generator change is a deliberate
corpus update, to be recorded with its reason.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from halfhandle import (  # noqa: E402
    Ambient,
    ComponentEffect,
    CriticalPoint,
    EffectKind,
    FlowEdge,
    GeneratorSpec,
    InfeasibleSpec,
    Kind,
    Locus,
    MorseDatum,
    SliceComplex,
    SliceComponent,
    TrajectoryGraph,
    generate,
    global_split,
    serialize_datum,
    validate_datum,
)

UNION_PAIRS = 20  # a split union takes one piece of each matched pair
SMALL_COMBOS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6))
SMALL_GENERATED = 45  # per (n, m) combo
SMALL_NORMAL = 5  # per combo: normal-form outputs, already in normal form
PLANTED_COPIES = 3

I, S, U = Kind.INTERIOR, Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE
EK = EffectKind


def piece(n, m, seed, allow_boundary=True, points=8):
    return generate(
        GeneratorSpec(n=n, m=m, points=points, seed=seed, allow_boundary=allow_boundary)
    )


def matched_pairs(n, m, split_range, **knobs):
    """Pieces from seeds 0, 1, ... paired in generation order by how many
    interior points the driver will split, so that whichever piece of each
    pair a seed picks, every union does the same amount of work."""
    waiting, pool = {}, []
    seed = -1
    while len(pool) < 2 * UNION_PAIRS:
        seed += 1
        d = piece(n, m, seed, **knobs)
        key = len(d.interior_points(*split_range))
        if key in waiting:
            pool += [waiting.pop(key), d]
        else:
            waiting[key] = d
    return pool


def small_batch():
    out = []
    for n, m in SMALL_COMBOS:
        rng = random.Random(100 * n + m)
        made = []
        seed = 10000 * n + 100 * m
        while len(made) < SMALL_GENERATED:
            seed += 1
            spec = GeneratorSpec(
                n=n,
                m=m,
                points=rng.randint(4, 12),
                seed=seed,
                allow_boundary=rng.random() < 0.7,
            )
            try:
                made.append(generate(spec))
            except InfeasibleSpec:
                continue  # a spec the generator cannot meet is no input
        normal = [global_split(d)[0] for d in made[:SMALL_NORMAL]]
        out += made + normal
    return out


# ---------------------------------------------------------------------------
# planted cancellation pairs, all at n = 2, m = 4 like the generated pieces


def _pair(points, edges, effects, bottom=("c0",)):
    return MorseDatum(
        Ambient(4, 2),
        tuple(CriticalPoint(pid, kind, k, v) for pid, kind, k, v in points),
        TrajectoryGraph(tuple(FlowEdge(*e) for e in edges)),
        SliceComplex(
            tuple(SliceComponent(c, True) for c in bottom),
            tuple(
                ComponentEffect(at, kind, ins, tuple(SliceComponent(*o) for o in outs))
                for at, kind, ins, outs in effects
            ),
        ),
    )


def _birth_merge(lo, hi, count=1, locus=Locus.INNER):
    return _pair(
        [("p", I, 0, lo), ("q", I, 1, hi)],
        [("p", "q", count, locus)],
        [("p", EK.BIRTH, (), [("c1", False)]),
         ("q", EK.MERGE, ("c0", "c1"), [("c2", True)])],
    )


def _chain(kp, kq, lo, hi, locus=Locus.WALL):
    (kind_p, k), (kind_q, l) = kp, kq
    return _pair(
        [("p", kind_p, k, lo), ("q", kind_q, l, hi)],
        [("p", "q", 1, locus)],
        [("p", EK.BOUNDARY_ATTACH, ("c0",), [("c1", True)]),
         ("q", EK.BOUNDARY_ATTACH, ("c1",), [("c2", True)])],
    )


def planted_templates(lo, hi):
    """(expected outcome, datum) per template; the pair is always p, q."""
    mid = (lo + hi) / 2
    return [
        ("accept", _birth_merge(lo, hi)),
        ("accept", _pair(
            [("p", I, 1, lo), ("q", I, 2, hi)],
            [("p", "q", 1, Locus.INNER)],
            [("p", EK.INTERNAL, ("c0",), [("c1", True)]),
             ("q", EK.INTERNAL, ("c1",), [("c2", True)])])),
        ("accept", _pair(
            [("p", I, 2, lo), ("q", I, 3, hi)],
            [("p", "q", 1, Locus.INNER)],
            [("p", EK.SPLIT, ("c0",), [("c1", True), ("c2", False)]),
             ("q", EK.DEATH, ("c2",), [])])),
        ("accept", _chain((S, 1), (S, 2), lo, hi)),
        ("accept", _chain((U, 0), (U, 1), lo, hi)),
        ("KindMismatch", _chain((S, 1), (U, 2), lo, hi)),
        ("IndexMismatch", _chain((U, 0), (U, 2), lo, hi)),
        ("NotSingleTrajectory", _birth_merge(lo, hi, count=2)),
        ("NotSingleTrajectory", _birth_merge(lo, hi, count=None)),
        ("LocusViolation", _birth_merge(lo, hi, locus=Locus.MEMBRANE)),
        ("LocusViolation", _chain((S, 1), (S, 2), lo, hi, locus=Locus.MEMBRANE)),
        ("BrokenTrajectoryExists", _pair(
            [("p", S, 1, lo), ("x", U, 1, mid), ("q", S, 2, hi)],
            [("p", "q", 1, Locus.WALL), ("p", "x", None, Locus.WALL),
             ("x", "q", None, Locus.WALL)],
            [("p", EK.BOUNDARY_ATTACH, ("c0",), [("c1", True)]),
             ("x", EK.BOUNDARY_ATTACH, ("c9",), [("c8", True)]),
             ("q", EK.BOUNDARY_ATTACH, ("c1",), [("c2", True)])],
            bottom=("c0", "c9"))),
        ("InvalidEffect", _pair(  # two internal surgeries on unrelated components
            [("p", I, 1, lo), ("q", I, 2, hi)],
            [("p", "q", 1, Locus.INNER)],
            [("p", EK.INTERNAL, ("c0",), [("c2", True)]),
             ("q", EK.INTERNAL, ("c1",), [("c3", True)])],
            bottom=("c0", "c1"))),
        ("InvalidEffect", _pair(  # a merge followed by a split
            [("p", I, 1, lo), ("q", I, 2, hi)],
            [("p", "q", 1, Locus.INNER)],
            [("p", EK.MERGE, ("c0", "c1"), [("c2", True)]),
             ("q", EK.SPLIT, ("c2",), [("c3", True), ("c4", True)])],
            bottom=("c0", "c1"))),
    ]


def planted():
    data, meta = [], []
    for copy in range(PLANTED_COPIES):
        lo = Fraction(2 * copy + 1, 4 * PLANTED_COPIES)
        hi = Fraction(1) - lo / 2
        for expect, d in planted_templates(lo, hi):
            meta.append({"piece": len(data), "pair": ["p", "q"], "expect": expect})
            data.append(d)
    return data, meta


def stagger(data):
    """Shift piece ``j`` up by ``(j + 1) * gap / (len + 2)``, ``gap`` being
    the smallest distance between distinct values (and 1) over all pieces.

    Order and ties inside a piece stay as they were, and no two pieces
    share a value any more, so a union of them has no shared critical
    values and every split attempt reaches the move's real side conditions.
    """
    levels = sorted({p.value for d in data for p in d.points} | {Fraction(1)})
    gap = min(b - a for a, b in zip(levels, levels[1:]))
    out = []
    for j, d in enumerate(data):
        shift = gap * (j + 1) / (len(data) + 2)
        out.append(d.replace(points=tuple(
            CriticalPoint(p.id, p.kind, p.index, p.value + shift) for p in d.points)))
    return out


def build():
    files = {
        "split_deep": matched_pairs(2, 4, (1, 2)),
        "split_codim1": matched_pairs(4, 5, (2, 3), allow_boundary=False),
        "small_batch": small_batch(),
    }
    generated = [piece(2, 4, 100 + s) for s in range(20)]
    pairs, meta = planted()
    files["checked_moves"] = stagger(generated + pairs)
    for entry in meta:
        entry["piece"] += len(generated)
    for name, data in files.items():
        for i, d in enumerate(data):
            issues = validate_datum(d)
            if issues:
                raise SystemExit("%s piece %d is invalid: %s" % (name, i, issues[0]))
    blobs = {name + ".data": "".join(serialize_datum(d) for d in data)
             for name, data in files.items()}
    blobs["planted.json"] = json.dumps(meta, indent=1) + "\n"
    return blobs


def main():
    out = HERE / "corpus"
    out.mkdir(exist_ok=True)
    lines = []
    for name, text in sorted(build().items()):
        blob = text.encode("utf-8")
        (out / name).write_bytes(blob)
        lines.append("%s  %s" % (hashlib.sha256(blob).hexdigest(), name))
    (out / "SHA256SUMS").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
