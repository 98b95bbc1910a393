"""Random valid data, for tests and benchmarks.

It is not part of the rewriting engine, so ``import halfhandle`` does not
load this module: the package's ``generate`` and ``GeneratorSpec`` and the
CLI's ``generate`` command import it on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import InfeasibleSpec, ValidationError
from .morse_data import Ambient, CriticalPoint, Flags, Kind, MorseDatum, validate_datum
from .normal_form import scheduled_rank
from .slice_topology import ComponentEffect, EffectKind, SliceComplex, SliceComponent
from .trajectory import FlowEdge, Locus, TrajectoryGraph, _edge_row


@dataclass
class GeneratorSpec:
    """Knobs for the random datum generator.

    The three no_closed flags are baked into the output datum; with all of
    them set the generator only emits data the normal form driver accepts.
    ``leave_closed_component`` asks for a closed component surviving to the
    top slice, which needs ``no_closed_top=False``.
    """

    n: int
    m: int
    points: int = 6
    seed: int = 0
    no_closed_cobordism: bool = True
    no_closed_bottom: bool = True
    no_closed_top: bool = True
    allow_boundary: bool = True
    leave_closed_component: bool = False
    edge_probability: float = 0.25


# the walk and the edge sprinkle are quadratic in the points (3 s at 2,000):
# a spec of more points is refused before anything is drawn
MAX_POINTS = 10_000
# each step of the walk offers one internal surgery per index 1..n (5 s for
# two points at n = 100,000): a spec of larger n is refused the same way
MAX_N = 100


class _Restart(Exception):
    pass


def generate(spec: GeneratorSpec) -> MorseDatum:
    """Build a random valid datum matching the requested knobs.

    Raises InfeasibleSpec when the knobs contradict each other, ask for more
    than MAX_POINTS points or an n above MAX_N, or no datum was found after
    many attempts.
    """
    if spec.points < 0:
        raise InfeasibleSpec("points must be nonnegative")
    if spec.points > MAX_POINTS:
        raise InfeasibleSpec("points must be at most %d" % (MAX_POINTS,))
    if not (0 <= spec.edge_probability <= 1):
        raise InfeasibleSpec("edge_probability must sit in [0, 1]")
    if spec.leave_closed_component and spec.no_closed_top:
        raise InfeasibleSpec(
            "a surviving closed component contradicts no_closed_top"
        )
    if spec.leave_closed_component and spec.points == 0:
        raise InfeasibleSpec("a closed component needs at least one point")
    try:
        ambient = Ambient(spec.m, spec.n)
    except ValidationError as exc:
        raise InfeasibleSpec(str(exc))
    if spec.n > MAX_N:
        raise InfeasibleSpec("n must be at most %d" % (MAX_N,))
    last: Optional[Exception] = None
    for attempt in range(80):
        rng = random.Random(spec.seed * 1000003 + attempt)
        try:
            datum = _generate_once(spec, ambient, rng)
        except _Restart as exc:
            last = exc
            continue
        issues = validate_datum(datum)
        if issues:
            last = _Restart("generated an invalid datum: " + issues[0])
            continue
        return datum
    raise InfeasibleSpec("no datum found for this spec (%s)" % (last,))


def _edge_rank(p: CriticalPoint, n: int, offset: int) -> int:
    # the rank a flow line's end counts at: an interior point of index 1..n
    # sends as late as its index's unstable cell (offset 3) and receives as
    # early as its stable cell (offset 1)
    if p.kind is Kind.INTERIOR and 1 <= p.index <= n:
        return 3 * p.index + offset
    return scheduled_rank(p.kind, p.index)


def _loci(z: CriticalPoint, w: CriticalPoint, m: int, n: int) -> list:
    """The loci a flow line from z up to w may take, in draw order: those
    whose validity row (``_edge_row``) is empty.  Genericity puts its issue
    on every row of a pair it holds apart, so the list is empty exactly
    when ``generic_disjoint`` holds."""
    return [locus for locus in (Locus.MEMBRANE, Locus.INNER, Locus.WALL)
            if not _edge_row(z.kind, z.index, w.kind, w.index, locus, m, n)]


def _generate_once(spec: GeneratorSpec, ambient: Ambient, rng) -> MorseDatum:
    n = ambient.n
    P = spec.points
    fc, fb, ft = spec.no_closed_cobordism, spec.no_closed_bottom, spec.no_closed_top
    born = "connect" if fc else "close"  # what a new closed sphere owes
    I, S, U = Kind.INTERIOR, Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE
    E = EffectKind

    bits: Dict[str, bool] = {}
    prs: Dict[str, int] = {}
    producer: Dict[str, Optional[str]] = {}
    live: set = set()
    pending: Dict[str, str] = {}  # closed component -> "connect" | "close"
    edges: List[FlowEdge] = []

    def new_comp(touch: bool, pr: int, made_by: Optional[str]) -> SliceComponent:
        cid = "c%d" % len(bits)
        bits[cid] = touch
        prs[cid] = pr
        producer[cid] = made_by
        live.add(cid)
        return SliceComponent(cid, touch)

    def below(pool: List[str], rank: int) -> List[str]:
        return [c for c in pool if prs[c] <= rank]

    def effect(kind, inputs, outputs, mode=None, swap=False) -> ComponentEffect:
        # the current point ``pid`` consumes ``inputs`` and makes one
        # component per (wall bit, rank) of ``outputs``, the last owing
        # ``mode``; ``swap`` draws the order of the pair among the inputs or
        # the outputs; a settled pending input gets a flow line from its maker
        outs = [new_comp(touch, pr, pid) for touch, pr in outputs]
        if mode is not None:
            pending[outs[-1].id] = mode
        if swap and rng.random() >= 0.5:
            inputs, outs = inputs[::-1], outs[::-1]
        for cid in inputs:
            live.discard(cid)
            if pending.pop(cid, None) and producer[cid] is not None:
                count = 1 if kind is E.MERGE else None
                edges.append(FlowEdge(producer[cid], pid, count, Locus.INNER))
        return ComponentEffect(pid, kind, tuple(inputs), tuple(outs))

    # merges: the touching input is the witness later splits route by, so
    # the merged component touches too
    def merge(others: List[str], witnesses: List[str]) -> ComponentEffect:
        other = rng.choice(others)
        witness = rng.choice([c for c in witnesses if c != other])
        return effect(E.MERGE, (witness, other), [(True, 6)], swap=True)

    # stable attaches; a second output only at index n
    def stable(pool: List[str], k: int) -> ComponentEffect:
        cid = rng.choice(pool)
        two = k == n and rng.random() < 0.3
        return effect(E.BOUNDARY_ATTACH, (cid,), [(True, 3 * k + 1)] * (1 + two))

    bottom: List[SliceComponent] = []
    for b in range(rng.randint(1, 3)):
        touch = True if (fb or b == 0) else rng.random() < 0.6
        bottom.append(new_comp(touch, 0, None))
        if not touch:
            pending[bottom[-1].id] = born

    points: List[CriticalPoint] = []
    effects: List[ComponentEffect] = []
    denom = 8 * P + 8
    nums = sorted(rng.sample(range(1, denom), P)) if P else []
    width = max(2, len(str(max(P - 1, 1))))
    last_rank = 0
    max_connect_rank = (3 * (n + 1) + 1) if spec.allow_boundary else 5
    want_leftover = spec.leave_closed_component

    for i in range(P):
        pid = "p%0*d" % (width, i)
        connects = sorted(c for c, mode in pending.items() if mode == "connect")
        closes = sorted(c for c, mode in pending.items() if mode == "close")
        touchers = sorted(c for c in live if bits[c])
        # a leftover closed component wants more sheds and fewer retirements
        shed_weight = 5 if (want_leftover and not closes) else 2
        retire_weight = 1 if want_leftover and len(closes) == 1 else 3
        keep_or_shed = ((3, 0, None), (shed_weight, 1, "close"))

        # one row (kind, index, weight, d_connect, d_close, build) per
        # option; the builds run after the table is made, so each binds
        # its loop variables as default arguments.  First the birth of a
        # closed sphere
        rows = [(I, 0, 3, int(fc), int(not fc),
                 lambda: effect(E.BIRTH, (), [(False, 3)], born))]

        # merges with a connecting, a closing or a touching other input
        witnesses = below(touchers, 6)
        for others, weight, d_connect, d_close, enough in (
            (connects, 6, -1, 0, witnesses),
            (below(closes, 4), 3, 0, -1, witnesses),
            # these others all touch, so they sit among the witnesses too
            (below(touchers, 4), 3, 0, 0, len(witnesses) >= 2),
        ):
            if others and enough:
                rows.append((I, 1, weight, d_connect, d_close,
                             lambda others=others: merge(others, witnesses)))

        # internal surgeries on a wall component
        for k in range(1, n + 1):
            pool = below(touchers, 3 * k + 1)
            if pool:
                rows.append((I, k, 4, 0, 0, lambda pool=pool, k=k: effect(
                    E.INTERNAL, (rng.choice(pool),), [(True, 3 * k + 3)])))

        # split at top interior index, optionally shedding a closed piece
        splittable = below(touchers, 3 * n + 1)
        for weight, d_close, mode in keep_or_shed if splittable else ():
            rows.append((I, n, weight, 0, d_close, lambda mode=mode: effect(
                E.SPLIT, (rng.choice(splittable),),
                [(True, 3 * n + 3), (mode is None, 3 * n + 3)], mode, swap=True)))

        # death of a closed component whose family already meets the wall
        if closes:
            rows.append((I, n + 1, retire_weight, 0, -1,
                         lambda: effect(E.DEATH, (rng.choice(closes),), [])))

        # stable attaches; the absorbing forms retire closed components
        for k in range(1, n + 2) if spec.allow_boundary else ():
            for pool, weight, d_connect, d_close in (
                (connects, 5, -1, 0),
                (closes, retire_weight, 0, -1),
                (touchers, 2, 0, 0),
            ):
                pool = below(pool, 3 * k + 1)
                if pool:
                    rows.append((S, k, weight, d_connect, d_close,
                                 lambda pool=pool, k=k: stable(pool, k)))

        # unstable attaches; a release sheds a wall component inward
        for k in range(0, n + 1) if spec.allow_boundary else ():
            pool = below(touchers, 3 * k + 3)
            for weight, d_close, mode in keep_or_shed if pool else ():
                rows.append((U, k, weight, 0, d_close,
                             lambda pool=pool, k=k, mode=mode: effect(
                                 E.BOUNDARY_ATTACH, (rng.choice(pool),),
                                 [(mode is None, 3 * k + 3)], mode)))
            if k == 1 and len(pool) >= 2:
                rows.append((U, 1, 2, 0, 0, lambda pool=pool: effect(
                    E.BOUNDARY_ATTACH, tuple(rng.sample(pool, 2)), [(True, 6)])))

        options = []
        for kind, index, weight, d_connect, d_close, build in rows:
            rank = scheduled_rank(kind, index)
            nc = len(connects) + d_connect
            need = nc + (len(closes) + d_close if ft else 0)
            if rank < last_rank or need > P - i - 1:
                continue
            if not (nc and rank > max_connect_rank):
                options.append((weight, rank, kind, index, build))
        if not options:
            raise _Restart("walk has no legal continuation at point %d" % i)
        pick = rng.random() * sum(option[0] for option in options)
        for weight, rank, kind, index, build in options:
            pick -= weight
            if pick <= 0:
                break
        effects.append(build())
        points.append(CriticalPoint(pid, kind, index, Fraction(nums[i], denom)))
        last_rank = rank

    if want_leftover and "close" not in pending.values():
        raise _Restart("no closed component survived to the top")

    # sprinkle extra flow edges wherever genericity allows them
    existing = {(e.src, e.dst) for e in edges}
    for i, z in enumerate(points):
        for w in points[i + 1 :]:
            if (z.id, w.id) in existing:
                continue
            menu = _loci(z, w, ambient.m, n)
            if not menu:  # genericity holds the pair apart
                continue
            if _edge_rank(z, n, 3) > _edge_rank(w, n, 1):
                continue
            if rng.random() >= spec.edge_probability:
                continue
            count = rng.choice([None, 1, 2])
            edges.append(FlowEdge(z.id, w.id, count, rng.choice(menu)))
            existing.add((z.id, w.id))

    return MorseDatum(
        ambient,
        tuple(points),
        TrajectoryGraph(tuple(edges)),
        SliceComplex(tuple(bottom), tuple(effects)),
        Flags(fc, fb, ft),
    )
