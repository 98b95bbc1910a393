"""Shared builders for hand-made test data, and slow references."""

import functools
import hashlib
import sys
import types
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from halfhandle import morse_data, moves
from halfhandle.cli_io import (
    DATUM_FORMAT,
    SCRIPT_FORMAT,
    _bool,
    _fraction,
    _int,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)
from halfhandle.errors import (
    BrokenTrajectoryExists,
    CycleDetected,
    ExtremalIndex,
    Inadmissible,
    IndexMismatch,
    InvalidEffect,
    KindMismatch,
    LocusViolation,
    MoveError,
    NotInterior,
    NotJoinable,
    NotSingleTrajectory,
    ParseError,
    PartialConfiguration,
    SwapBlocked,
    UnknownId,
    ValidationError,
)
from halfhandle.morse_data import (
    Ambient,
    CriticalPoint,
    Flags,
    Kind,
    MorseDatum,
    dimension_profile,
    exact,
    first_inversion,
    order_key,
    require_valid,
    validate_datum,
)
from halfhandle.moves import (
    MoveRecord,
    _inverse_pattern,
    apply_script,
    check_assignment,
)
from halfhandle.slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
    apply_effect,
)
from halfhandle.trajectory import (
    FlowEdge,
    Locus,
    TrajectoryGraph,
    generic_disjoint,
    has_broken_path,
)


def comp(cid, touch=True):
    return SliceComponent(cid, touch)


def pt(pid, kind, index, value):
    return CriticalPoint(pid, kind, index, Fraction(value))


def eff(at, kind, inputs, outputs):
    return ComponentEffect(at, kind, tuple(inputs), tuple(outputs))


def edge(src, dst, count, locus):
    return FlowEdge(src, dst, count, locus)


def replace_effects(slices, drop=(), add=()):
    """``slices`` without the effects at the point ids ``drop`` and with
    ``add``, through the public constructor (which re-sorts and re-checks)."""
    dropped = set(drop)
    kept = [e for e in slices.effects if e.at not in dropped]
    return SliceComplex(slices.bottom, tuple(kept) + tuple(add))


def datum(m, n, bottom, points, edges, effects, flags=None):
    return MorseDatum(
        Ambient(m, n),
        tuple(points),
        TrajectoryGraph(tuple(edges)),
        SliceComplex(tuple(bottom), tuple(effects)),
        flags if flags is not None else Flags(),
    )


def birth_merge_pair(n=1, m=None):
    """Minimal cancellable interior pair: a sphere born then absorbed."""
    m = m if m is not None else n + 2
    return datum(
        m,
        n,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.MERGE, ("c0", "c1"), (comp("c2", True),))],
    )


def internal_chain_pair(n=4, k=2, m=None):
    """Cancellable pair of internal surgeries at indices k, k+1."""
    m = m if m is not None else n + 2
    return datum(
        m,
        n,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, k, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, k + 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", True),))],
    )


def split_death_pair(n=2, m=None):
    """Cancellable pair: a split shedding a closed half that then dies."""
    m = m if m is not None else n + 2
    return datum(
        m,
        n,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, n, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, n + 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.SPLIT, ("c0",),
             (comp("c1", True), comp("c2", False))),
         eff("q", EffectKind.DEATH, ("c2",), ())],
    )


def attach_chain_pair(kind, k, n=3, m=None):
    """Cancellable boundary pair: two chained one-to-one attaches."""
    m = m if m is not None else n + 2
    return datum(
        m,
        n,
        [comp("c0", True)],
        [pt("p", kind, k, Fraction(1, 3)),
         pt("q", kind, k + 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.WALL)],
        [eff("p", EffectKind.BOUNDARY_ATTACH, ("c0",), (comp("c1", True),)),
         eff("q", EffectKind.BOUNDARY_ATTACH, ("c1",), (comp("c2", True),))],
    )


def assign_by_replay(datum, assignments):
    """Datum with new critical values; raises if the result is inconsistent.

    The reference for ``assign_values``: the whole assignment goes through
    ``check_assignment``, a full replay, and every point is rebuilt at its
    new value by the checking constructor.
    """
    for pid in assignments:
        if pid not in datum.point_index:
            raise UnknownId("no critical point with id %r" % (pid,))
    values = datum.values()
    for pid, v in assignments.items():
        v = exact(v)
        if not (0 < v < 1):
            raise MoveError("target value %s for %r outside (0,1)" % (v, pid))
        values[pid] = v
    problem = check_assignment(datum, values)
    if problem is not None:
        raise problem
    new_points = tuple(
        CriticalPoint(p.id, p.kind, p.index, values[p.id]) for p in datum.points
    )
    return datum.replace(points=new_points)


def _moves_locally(datum: MorseDatum, keys: Mapping[str, tuple]) -> bool:
    """Whether moving each point of ``keys`` to its (value, id) key there
    (``order_key``), all at once, keeps a valid datum valid.

    Looks only at what touches the moved points, in O(deg) index lookups
    each: their flow lines must stay uphill (the (float, value) prefixes of
    the keys, compared in place), the makers of their inputs must come
    before them and the users of their outputs after them (the whole keys).
    On a valid datum every component id is made once and used at most
    once, so nothing else pins the replay order.  The reference predicate
    that ``moves._rearrange_run`` checks each step by, inline.
    """
    points = datum.point_index
    key = keys.get
    edges = datum.graph.edge_index
    out_edges, in_edges = edges.out_edges, edges.in_edges
    effects = datum.slices.effect_index
    producer, consumer, _ = datum.slices.component_index
    for pid, at in keys.items():
        f, v = at[0], at[1]
        for e in out_edges.get(pid, ()):
            up = key(e.dst) or points[e.dst].sort_key()
            if not (f < up[0] or f == up[0] and v < up[1]):
                return False
        for e in in_edges.get(pid, ()):
            down = key(e.src) or points[e.src].sort_key()
            if not (down[0] < f or down[0] == f and down[1] < v):
                return False
        effect = effects[pid]
        for cid in effect.inputs:
            maker = producer[cid]
            if maker is None:
                continue
            if not (key(maker) or points[maker].sort_key()) < at:
                return False
        for c in effect.outputs:
            user = consumer.get(c.id)
            if user is None:
                continue
            if not at < (key(user) or points[user].sort_key()):
                return False
    return True


def rearrange_by_steps(datum, script):
    """The datum the rearrange records of ``script`` make, checked step by
    step: the reference for ``moves._rearrange_run``, which checks each
    step inline with the datum's indexes looked up once per run.

    Each step puts its (value, id) keys into one overlay, over those of the
    steps before it, and the overlay is checked whole by
    ``_moves_locally``, which looks the indexes up again on every step.  On
    a valid datum that is the verdict of the step's own points: what does
    not touch them held after the step before.  The gate, UnknownId for
    any id of a step, then MoveError for its first value outside (0, 1),
    and a refusal named by ``moves.check_assignment`` on the values of the
    datum the earlier steps made, updated with the record's, are the run's:
    the run names it on its input datum with the values of its whole
    overlay, the same value map.  It is called as an attribute of
    ``moves``, so that a test that patches it there sees these calls too.
    """
    overlay = {}
    for record in script:
        if not overlay:
            require_valid(datum)
        for pid in record.ids:
            if pid not in datum.point_index:
                raise UnknownId("no critical point with id %r" % (pid,))
        before = {}
        for pid, v in zip(record.ids, record.values):
            v = exact(v)
            if not 0 < v < 1:
                raise MoveError("target value %s for %r outside (0,1)" % (v, pid))
            before[pid] = overlay.get(pid)
            overlay[pid] = order_key(v, pid)
        if not _moves_locally(datum, overlay):
            for pid, key in before.items():
                if key is None:
                    del overlay[pid]
                else:
                    overlay[pid] = key
            made = moved_to(datum, overlay)
            values = made.values()
            values.update(zip(record.ids, record.values))
            raise moves.check_assignment(made, values)
    return moved_to(datum, overlay)


def moved_to(datum, keys):
    """``datum`` with each point named in ``keys`` moved to the value of
    its (value, id) key there (``order_key``), built by the checked
    ``replace``; the datum itself when nothing moves."""
    if not keys:
        return datum
    return datum.replace(points=tuple(
        CriticalPoint(p.id, p.kind, p.index, keys[p.id][1]) if p.id in keys else p
        for p in datum.points))


def starving_pair(datum, values):
    """First (consumer, producer) pair out of order under ``values``: the
    first point, in (value, id) order, with an input no point below it or
    the bottom slice made."""
    producers = datum.slices.component_index.producer
    seen = {c.id for c in datum.slices.bottom}
    for p in sorted(datum.points, key=lambda p: (values[p.id], p.id)):
        effect = datum.slices.effect_for(p.id)
        for cid in effect.inputs:
            if cid not in seen:
                return p.id, producers[cid]
        for c in effect.outputs:
            seen.add(c.id)
    return None


def is_admissible(
    points: Sequence[CriticalPoint],
    values: Optional[Mapping[str, Fraction]] = None,
) -> bool:
    """Whether the point values follow the admissible order.

    Lower index must sit at a strictly lower value, and when a boundary
    stable and a boundary unstable point share an index the stable one must
    sit strictly lower.  Equal-index, equal-value pairs are fine otherwise.
    With ``values`` given, judge that assignment instead of the stored
    values; it must cover every point, each value below 2**1024 in size
    (they are compared by their ``order_key``s).
    """
    keys = {}
    for p in points:
        if values is None:
            keys[p.id] = p.sort_key()[:2]
        elif p.id in values:
            keys[p.id] = order_key(exact(values[p.id]))
        else:
            raise PartialConfiguration("no target value for point %r" % (p.id,))
    return admissible_keys(points, keys)


def first_inversion_by_pairs(points, values, rank=lambda p: p.index):
    """The reference for ``morse_data.first_inversion``: the first pair
    (z, w) of a double loop over ``points`` with rank(z) < rank(w) but not
    values[z] < values[w], every pair compared; None when there is none."""
    return next(((z, w) for z in points for w in points
                 if rank(z) < rank(w) and not values[z.id] < values[w.id]), None)


def _widen(low: dict, high: dict, rank, at) -> None:
    """Take the key ``at`` into the lowest and highest key of ``rank``."""
    if rank not in low:
        low[rank] = high[rank] = at
    elif at < low[rank]:
        low[rank] = at
    elif high[rank] < at:
        high[rank] = at


def _ascending(low: dict, high: dict) -> bool:
    """Whether every rank's lowest key lies strictly above the highest key
    of every lower rank, the ranks' lowest and highest keys read by
    ``_widen``: the keys are strictly monotone in the rank."""
    top = None
    for rank in sorted(low):
        if top is not None and not top < low[rank]:
            return False
        if top is None or top < high[rank]:
            top = high[rank]
    return True


def admissible_keys(points: Sequence[CriticalPoint], keys: Mapping[str, tuple]) -> bool:
    """Whether the points, each at its ``order_key`` in ``keys``, follow the
    admissible order: a lower index sits strictly lower, and so does a
    boundary stable point below a boundary unstable one of equal index.
    Equal-index, equal-value pairs are fine otherwise.  The reference for
    ``moves._ordered``, which reads the same verdict along the sorted keys.

    One pass over the points reads each rank's lowest and highest key, for
    the index of every point and for (index, stable before unstable) of
    every boundary point; each order holds when no rank's lowest key lies
    at or below a lower rank's highest (``_ascending``)."""
    index_low, index_high, wall_low, wall_high = {}, {}, {}, {}
    for p in points:
        at, kind = keys[p.id], p.kind
        _widen(index_low, index_high, p.index, at)
        if kind is not Kind.INTERIOR:
            _widen(wall_low, wall_high, (p.index, kind is Kind.BOUNDARY_UNSTABLE), at)
    return _ascending(index_low, index_high) and _ascending(wall_low, wall_high)


def admissible_keys_by_two_passes(points, keys) -> bool:
    """The reference for ``admissible_keys``: an inversion
    search over every pair of points by index, then over every pair of
    boundary points by (index, stable before unstable)."""
    if first_inversion_by_pairs(points, keys) is not None:
        return False
    boundary = [p for p in points if p.kind.is_boundary]
    return first_inversion_by_pairs(
        boundary, keys, lambda p: (p.index, p.kind is Kind.BOUNDARY_UNSTABLE)) is None


def splice_by_bisection(items: tuple, drop, add, key) -> tuple:
    """The reference for ``morse_data.splice``: the same drops, and each
    added item placed by bisection, however many there are."""
    if 100 * len(drop) < len(items):
        kept, start = [], 0
        for i in sorted(bisect_left(items, key(x), key=key) for x in drop):
            kept += items[start:i]
            start = i + 1
        kept += items[start:]
    else:
        gone = set(map(id, drop))
        kept = [x for x in items if id(x) not in gone]
    out, start = [], 0
    for x in sorted(add, key=key):
        i = bisect_left(kept, key(x), start, key=key)
        out += kept[start:i]
        out.append(x)
        start = i
    out += kept[start:]
    return tuple(out)


def spaced_by_between(lo, hi, k: int) -> list:
    """The reference for ``morse_data.spaced``: one ``between`` a value."""
    return [morse_data.between(lo, hi, t, k) for t in range(1, k)]


def realize_by_replay(d, targets):
    """``realize_configuration`` with the whole target map checked up front,
    its flow lines here and its surgery order by a full replay
    (``check_assignment``): the reference for its park and place run, which
    alone accepts or refuses the map.

    The same gate, ids, range and admissibility come first.  The park slots
    are worked out by plain Fraction arithmetic, and every park and place
    step is applied by ``assign_by_replay``, one full replay each.
    """
    require_valid(d)
    want = {}
    for pid, v in targets.items():
        if pid not in d.point_index:
            raise UnknownId("no critical point with id %r" % (pid,))
        want[pid] = Fraction(v)
    for p in d.points:
        if p.id not in want:
            raise PartialConfiguration("no target value for point %r" % (p.id,))
    for pid, v in want.items():
        if not (0 < v < 1):
            raise Inadmissible("target value %s for %r outside (0,1)" % (v, pid))
    if d.ambient.codim >= 2:
        if not is_admissible(d.points, want):
            raise Inadmissible("target configuration violates the index order")
    elif first_inversion(d.points, want) is not None:
        z, w = first_inversion(d.points, want)
        raise Inadmissible(
            "codimension one targets must be index monotone (%s vs %s)" % (z.id, w.id))
    for e in d.graph.edges:
        if not want[e.src] < want[e.dst]:
            raise SwapBlocked(
                e.src, e.dst,
                "flow line %s->%s pins the order, targets invert it" % (e.src, e.dst))
    if check_assignment(d, want) is not None:
        consumer, producer = starving_pair(d, want)
        raise SwapBlocked(
            consumer, producer,
            "surgery at %s needs a component made at %s, targets put it below"
            % (consumer, producer))
    if all(want[p.id] == p.value for p in d.points):
        return d, []
    ceiling = max([p.value for p in d.points] + list(want.values()))
    count = len(d.points)
    script = [
        MoveRecord("rearrange", (p.id,),
                   (ceiling + (1 - ceiling) * Fraction(i + 1, count + 2),), "park")
        for i, p in reversed(list(enumerate(d.points)))
    ]
    script += [MoveRecord("rearrange", (pid,), (want[pid],), "place")
               for pid in sorted(want, key=lambda i: (want[i], i))]
    for record in script:
        d = assign_by_replay(d, dict(zip(record.ids, record.values)))
    return d, script


def brute_force_reachability(datum: MorseDatum, targets: Mapping[str, Fraction]) -> bool:
    """Whether single-point rearrangements can reach the target values.

    The reference ``realize_configuration`` is compared against, and with
    it ``halfhandle oracle``: the same question answered by breadth first
    search.  States assign each point either its original or its target
    value, moves change one point at a time, and every intermediate state
    must keep edges uphill and the slice replay consistent
    (``check_assignment``).  Targets must satisfy the same admissibility
    contract realize_configuration enforces, otherwise the answer is False.
    The search is uncapped: its callers give at most 7 points, so at most
    2^7 states.
    """
    ids = [p.id for p in datum.points]
    want: Dict[str, Fraction] = {}
    for pid, v in targets.items():
        if pid not in ids:
            raise UnknownId("no critical point with id %r" % (pid,))
        want[pid] = Fraction(v)
    for pid in ids:
        if pid not in want:
            raise PartialConfiguration("no target value for point %r" % (pid,))

    for v in want.values():
        if not (0 < v < 1):
            return False
    if datum.ambient.codim >= 2:
        keys = {pid: order_key(v) for pid, v in want.items()}
        if not admissible_keys(datum.points, keys):
            return False
    elif first_inversion(datum.points, want) is not None:
        return False

    goal = tuple(want[pid] for pid in ids)
    if check_assignment(datum, dict(zip(ids, goal))) is not None:
        return False
    start = tuple(p.value for p in datum.points)
    menu = [
        (start[i],) if start[i] == goal[i] else (start[i], goal[i])
        for i in range(len(ids))
    ]
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return True
        for i in range(len(ids)):
            for v in menu[i]:
                if v == state[i]:
                    continue
                succ = state[:i] + (v,) + state[i + 1 :]
                if succ in seen:
                    continue
                if check_assignment(datum, dict(zip(ids, succ))) is None:
                    seen.add(succ)
                    queue.append(succ)
    return False


def cancel_by_rebuild(datum, z_id, w_id):
    """``cancel_pair`` by rebuilding: the same side conditions, then every
    point, flow line and effect of the result goes through its checking
    constructor and the result through ``validate_datum``.  The reference
    for its patch and its local check of the induced flow lines."""
    require_valid(datum)
    z, w = datum.point(z_id), datum.point(w_id)
    if z_id == w_id:
        raise MoveError("cancel_pair wants two distinct points")
    if z.kind is not w.kind:
        raise KindMismatch(
            "cancelling pair must share a kind (%s vs %s)"
            % (z.kind.value, w.kind.value))
    if w.index != z.index + 1:
        raise IndexMismatch(
            "cancelling pair wants indices k, k+1; got %d, %d" % (z.index, w.index))
    link = datum.graph.edge(z_id, w_id)
    if link is None or link.count != 1:
        raise NotSingleTrajectory(
            "cancellation wants exactly one flow line %s->%s" % (z_id, w_id))
    expected_locus = Locus.INNER if z.kind is Kind.INTERIOR else Locus.WALL
    if link.locus is not expected_locus:
        raise LocusViolation(
            "the connecting flow line must run in locus %r, not %r"
            % (expected_locus.value, link.locus.value))
    if has_broken_path(datum.graph, z_id, w_id):
        raise BrokenTrajectoryExists(
            "a broken chain of flow lines also joins %s to %s" % (z_id, w_id))

    ez = datum.slices.effect_for(z_id)
    ew = datum.slices.effect_for(w_id)
    survivor, final = _inverse_pattern(z, ez, ew)
    bits = datum.slices.component_index.wall_bit
    if bits[survivor] != bits[final]:
        raise InvalidEffect(
            "effects at %s and %s are not inverse: wall bits of %r and %r differ"
            % (z_id, w_id, survivor, final))

    rename = {final: survivor}
    new_effects = [
        ComponentEffect(e.at, e.kind, tuple(rename.get(c, c) for c in e.inputs),
                        e.outputs)
        for e in datum.slices.effects if e.at not in (z_id, w_id)
    ]
    new_points = tuple(p for p in datum.points if p.id not in (z_id, w_id))
    by_id = datum.point_index
    base = [e for e in datum.graph.edges
            if not {e.src, e.dst} & {z_id, w_id}]
    taken = {(e.src, e.dst) for e in base}
    induced = []
    for into_w in (e for e in datum.graph.edges if e.dst == w_id):
        if into_w.src == z_id:
            continue
        for from_z in (e for e in datum.graph.edges if e.src == z_id):
            if from_z.dst == w_id:
                continue
            p, q = into_w.src, from_z.dst
            if p == q or (p, q) in taken:
                continue
            if any(e.src == p and e.dst == q for e in induced):
                continue
            if not (by_id[p].value < by_id[q].value):
                continue  # flow runs uphill, so such a chain cannot survive
            if generic_disjoint(by_id[p], by_id[q], datum.ambient):
                continue
            if into_w.locus is Locus.WALL and from_z.locus is Locus.WALL:
                locus = Locus.WALL
            elif into_w.locus is Locus.INNER and from_z.locus is Locus.INNER:
                locus = Locus.INNER
            else:
                locus = Locus.MEMBRANE
            induced.append(FlowEdge(p, q, None, locus))
    out = MorseDatum(datum.ambient, new_points,
                     TrajectoryGraph(tuple(base + induced)),
                     SliceComplex(datum.slices.bottom, tuple(new_effects)),
                     datum.flags)
    issues = validate_datum(out)
    if issues:
        raise InvalidEffect(
            "cancellation would leave inconsistent data: %s" % (issues[0],))
    return out, MoveRecord("cancel", (z_id, w_id))


def split_by_rebuild(datum, z_id):
    """``split_interior`` by rebuilding: the same side conditions, then the
    two halves, the moved flow lines, the attach effects and the result go
    through their checking constructors and the result through
    ``validate_datum``, whose first issue names a refusal.  Values are
    worked out by ``Fraction`` arithmetic, and makers and users looked up
    by scans of the effects.  The reference for ``moves._split_run``, one
    split at a time."""
    require_valid(datum)
    z = datum.point(z_id)
    if z.kind is not Kind.INTERIOR:
        raise NotInterior("point %r is not interior" % (z_id,))
    n = datum.ambient.n
    if not 1 <= z.index <= n:
        raise ExtremalIndex("split applies to indices 1..%d, point %r has index %d"
                            % (n, z_id, z.index))
    slices = datum.slices
    effect = slices.effect_for(z_id)
    bits = {c.id: c.touches_wall for c in slices.bottom}
    bits.update((c.id, c.touches_wall) for e in slices.effects for c in e.outputs)
    if not any(bits[cid] for cid in effect.inputs):
        raise NotJoinable("the surgery at %r happens away from the wall" % (z_id,))
    others = [p.value for p in datum.points if p.id != z_id]
    if z.value in others:
        raise MoveError("point %r shares its critical value; separate the points "
                        "first" % (z_id,))
    below = max([v for v in others if v < z.value], default=Fraction(0))
    above = min([v for v in others if v > z.value], default=Fraction(1))
    ids = set(datum.point_index)
    zs_id, zu_id = z_id + "s", z_id + "u"
    while zs_id in ids:
        zs_id += "_"
    while zu_id in ids:
        zu_id += "_"
    zs = CriticalPoint(zs_id, Kind.BOUNDARY_STABLE, z.index, (below + z.value) / 2)
    zu = CriticalPoint(zu_id, Kind.BOUNDARY_UNSTABLE, z.index,
                       z.value + (above - z.value) / 3)

    j = len(bits)  # the first c<j> from the number of components
    while "c%d" % j in bits:
        j += 1
    tongue = SliceComponent("c%d" % j, True)

    def key(pid, default):  # (value, id) of a point, or the default for None
        return default if pid is None else (datum.point(pid).value, pid)

    def maker(cid):
        return next((e.at for e in slices.effects if cid in e.output_ids()), None)

    def user(cid):
        return next((e.at for e in slices.effects if cid in e.inputs), None)

    if effect.kind is EffectKind.MERGE:  # the tongue grabs the older input
        witness = max((cid for cid in effect.inputs if bits[cid]),
                      key=lambda cid: (key(maker(cid), (Fraction(0), "")), cid))
        other, = (cid for cid in effect.inputs if cid != witness)
        attach = [(zs_id, [other], [tongue]), (zu_id, [witness, tongue.id], effect.outputs)]
    elif effect.kind is EffectKind.INTERNAL:
        attach = [(zs_id, effect.inputs, [tongue]), (zu_id, [tongue.id], effect.outputs)]
    else:  # a split: the one wall output, else the one used first, leaves at zs
        touching = [c for c in effect.outputs if c.touches_wall]
        direct = touching[0] if len(touching) == 1 else min(
            effect.outputs, key=lambda c: key(user(c.id), (Fraction(1), "")))
        other, = (c for c in effect.outputs if c is not direct)
        attach = [(zs_id, effect.inputs, [direct, tongue]), (zu_id, [tongue.id], [other])]
    halves = [ComponentEffect(at, EffectKind.BOUNDARY_ATTACH, list(inputs), [
        SliceComponent(c.id, c.touches_wall) for c in outputs])
        for at, inputs, outputs in attach]

    # lines out of z leave from zu, lines into z end at zs
    edges = [FlowEdge(zu_id if e.src == z_id else e.src, zs_id if e.dst == z_id else e.dst,
                      e.count, e.locus.value) for e in datum.graph.edges]
    edges.append(FlowEdge(zs_id, zu_id, 1, Locus.WALL))
    out = MorseDatum(
        datum.ambient,
        [p for p in datum.points if p.id != z_id] + [zs, zu],
        TrajectoryGraph(edges),
        SliceComplex(slices.bottom, [e for e in slices.effects if e.at != z_id] + halves),
        datum.flags)
    issues = validate_datum(out)
    if issues:
        raise InvalidEffect("splitting would leave inconsistent data: %s" % (issues[0],))
    return out, MoveRecord("split", (z_id,))


def apply_record(datum, record):
    """Replay one recorded move: the script of that one record."""
    return apply_script(datum, (record,))


def assert_records_as_checked(script):
    """Each record, trusted ones (``MoveRecord._trusted``) included, equals the
    record the checking constructor builds, down to its ``vars``."""
    for r in script:
        checked = MoveRecord(r.kind, r.ids, r.values, r.note)
        assert r == checked and vars(r) == vars(checked), r
        assert all(type(v) is Fraction for v in r.values), r


def assert_pieces_as_checked(datum) -> int:
    """Each point, edge, effect and component of ``datum`` equals the one
    its checking constructor builds, in hash and down to its ``vars``;
    returns how many were compared."""
    outputs = [c for e in datum.slices.effects for c in e.outputs]
    pairs = [(p, CriticalPoint(p.id, p.kind.value, p.index, p.value)) for p in datum.points]
    pairs += [(e, FlowEdge(e.src, e.dst, e.count, e.locus.value)) for e in datum.graph.edges]
    pairs += [(c, SliceComponent(c.id, c.touches_wall))
              for c in datum.slices.bottom + tuple(outputs)]
    pairs += [(e, ComponentEffect(e.at, e.kind.value, list(e.inputs), [
        SliceComponent(c.id, c.touches_wall) for c in e.outputs]))
        for e in datum.slices.effects]
    for got, checked in pairs:
        assert got == checked and hash(got) == hash(checked), got
        assert vars(got) == vars(checked), got
    assert all(p.sort_key() == order_key(p.value, p.id) for p in datum.points)
    return len(pairs)


PIECE_TYPES = (CriticalPoint, ComponentEffect, FlowEdge, SliceComponent)


def counting_post_inits(monkeypatch, types=PIECE_TYPES) -> Counter:
    """A Counter that gets one count by class name per ``__post_init__``
    run of one of ``types``, by default a point, effect, flow line or
    component."""
    runs = Counter()
    for cls in types:
        def counted(self, _name=cls.__name__, _check=cls.__post_init__):
            runs[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return runs


def dimension_sum_oracle(z, w, ambient):
    """Disjointness by dimension count, computed from the profiles alone.

    A generic intersection of the unstable set of z with the stable set of
    w is empty when the dimensions sum to less than the dimension of the
    space they meet in, for each of the three loci.  A locus with an empty
    piece contributes nothing.  The tests check ``generic_disjoint``
    exhaustively against it.
    """
    m, n = ambient.m, ambient.n
    pz = dimension_profile(z.kind, z.index, n)
    pw = dimension_profile(w.kind, w.index, n)
    checks = (
        (pz.unstable_membrane, pw.stable_membrane, m + 1),
        (pz.unstable_inner, pw.stable_inner, n + 1),
        (pz.unstable_wall, pw.stable_wall, n),
    )
    for du, ds, dim in checks:
        if du is None or ds is None:
            continue
        if du + ds > dim:
            return False
    return True


class RunDigests:
    """Pins of ``global_split`` runs that keep a result apart from its
    certificate: ``result`` is the sha256 of each run's serialized output
    datum and report, ``certificate`` the number of records and the sha256
    of each run's serialized script, each text followed by a zero byte.  A
    change to the scripts alone moves only the certificate pin."""

    def __init__(self):
        self._result, self._script, self._records = hashlib.sha256(), hashlib.sha256(), 0

    def add(self, out, dec, script):
        for digest, text in ((self._result, serialize_datum(out)),
                             (self._result, serialize_decomposition(dec)),
                             (self._script, serialize_script(script))):
            digest.update(text.encode("utf-8"))
            digest.update(b"\0")
        self._records += len(script)

    def pins(self):
        return {"result": self._result.hexdigest(),
                "certificate": (self._records, self._script.hexdigest())}


def flow_menu_by_profiles(kz, k, kw, l, n):
    """The loci, in (MEMBRANE, INNER, WALL) order, a flow line from a point
    of cell (kz, k) up to one of cell (kw, l) may take once genericity
    allows the pair, built from the cells' dimension profiles: the
    reference for the generator's menu, which reads the validity rows."""
    menu = [Locus.MEMBRANE]
    pz, pw = dimension_profile(kz, k, n), dimension_profile(kw, l, n)
    if pz.unstable_inner is not None and pw.stable_inner is not None:
        menu.append(Locus.INNER)
    if kz.is_boundary and kw.is_boundary:
        menu.append(Locus.WALL)
    return menu


def broken_closure_by_sets(graph):
    """The closure ``trajectory.broken_closure`` builds, or the
    ``CycleDetected`` it raises, from successor sets of its own: a sort at
    every visit, a post-order list and a second pass over it.  The
    reference for the one search over the graph's index."""
    succ = {}
    for e in graph.edges:
        succ.setdefault(e.src, set()).add(e.dst)

    order = []
    state = {}  # 0 visiting, 1 done

    def visit(node):
        stack = [(node, iter(sorted(succ.get(node, ()))))]
        state[node] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 0:
                    raise CycleDetected("flow graph cycle through %r" % (nxt,))
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                state[current] = 1
                order.append(current)
                stack.pop()

    nodes = set(succ)
    for e in graph.edges:
        nodes.add(e.dst)
    for node in sorted(nodes):
        if node not in state:
            visit(node)

    reach = {}
    for node in order:  # reverse topological order
        acc = set()
        for nxt in succ.get(node, ()):
            acc.add(nxt)
            acc |= reach.get(nxt, frozenset())
        reach[node] = frozenset(acc)
    return {k: v for k, v in reach.items() if v}


def invariants(datum):
    """(chi(Omega, Omega_0), chi(Y, Y_0), wall bits of the top state) of a
    datum, read off its points and effects without any move code; every
    legal move keeps all three.

    chi(Omega, Omega_0) sums (-1)^index over the interior and the stable
    boundary points; chi(Y, Y_0) sums (-1)^(index - 1) over the stable and
    (-1)^index over the unstable boundary points (Borodzik, Nemethi and
    Ranicki, *Morse theory for manifolds with boundary*).  The top state is
    every component, at the bottom or made by an effect, that no effect
    takes as input; its ``touches_wall`` bits are counted as a multiset.
    """
    omega = sum((-1) ** p.index for p in datum.points
                if p.kind is not Kind.BOUNDARY_UNSTABLE)
    wall = sum((-1) ** (p.index - (p.kind is Kind.BOUNDARY_STABLE))
               for p in datum.points if p.kind is not Kind.INTERIOR)
    made = {c.id: c.touches_wall for c in datum.slices.bottom}
    made.update((c.id, c.touches_wall)
                for e in datum.slices.effects for c in e.outputs)
    taken = {cid for e in datum.slices.effects for cid in e.inputs}
    return omega, wall, Counter(bit for cid, bit in made.items() if cid not in taken)


@dataclass(frozen=True)
class Slice:
    """Components of every level set in an open interval of regular values."""

    lo: Fraction
    hi: Fraction
    components: Tuple[SliceComponent, ...]


def level_slices(points, complex: SliceComplex):
    """All distinct slices, as intervals of regular values with components."""
    ordered = sorted(points, key=lambda p: p.sort_key())
    cuts = [Fraction(0)]
    for p in ordered:
        if p.value != cuts[-1]:
            cuts.append(p.value)
    if cuts[-1] != 1:
        cuts.append(Fraction(1))
    out = []
    state = {c.id: c.touches_wall for c in complex.bottom}
    idx = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while idx < len(ordered) and ordered[idx].value <= lo:
            apply_effect(state, complex.effect_for(ordered[idx].id))
            idx += 1
        comps = tuple(
            SliceComponent(cid, touches) for cid, touches in sorted(state.items())
        )
        out.append(Slice(lo, hi, comps))
    return tuple(out)


def no_closed_components(points, complex, level):
    """Whether every component of the level set at the regular ``level``
    touches the wall."""
    at = next(s for s in level_slices(points, complex) if s.lo < level < s.hi)
    return all(c.touches_wall for c in at.components)


def flag_issues_by_reference(complex, flags, final):
    """``slice_topology.flag_issues`` as it was before its one-pass
    no-closed-cobordism check: the wall bits gathered in their own pass,
    then nested ``find`` and ``union`` closures over every effect's inputs
    and outputs.  The reference for the one-pass union-find."""
    issues = []
    if flags.no_closed_bottom:
        for c in complex.bottom:
            if not c.touches_wall:
                issues.append(
                    "flag no_closed_bottom but bottom component %r is closed" % (c.id,))
    if flags.no_closed_top:
        for cid in sorted(cid for cid, touches in final.items() if not touches):
            issues.append("flag no_closed_top but top component %r is closed" % (cid,))

    if flags.no_closed_cobordism:
        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        wall_bit = {c.id: c.touches_wall for c in complex.bottom}
        for e in complex.effects:
            for c in e.outputs:
                wall_bit[c.id] = c.touches_wall
        for e in complex.effects:
            involved = list(e.inputs) + [c.id for c in e.outputs]
            for a, b in zip(involved, involved[1:]):
                union(a, b)
        open_roots = set()
        for c in complex.bottom:
            open_roots.add(find(c.id))
        for cid in final:
            open_roots.add(find(cid))
        for cid, touches in wall_bit.items():
            if touches:
                open_roots.add(find(cid))
        closed = sorted(cid for cid in wall_bit if find(cid) not in open_roots)
        for cid in closed:
            issues.append(
                "flag no_closed_cobordism but component %r sits in a closed piece"
                % (cid,))
    return issues


def flag_issues_by_find(complex, flags, final):
    """``slice_topology.flag_issues`` as it was before its roots became
    dict lookups: one pass over the effects, each root found by a call of
    ``_find``, which walks the ``parent`` chain and halves it.  The
    reference for the relabelling union-find."""
    issues = []
    if flags.no_closed_bottom:
        for c in complex.bottom:
            if not c.touches_wall:
                issues.append(
                    "flag no_closed_bottom but bottom component %r is closed" % (c.id,))
    if flags.no_closed_top:
        for cid in sorted(cid for cid, touches in final.items() if not touches):
            issues.append("flag no_closed_top but top component %r is closed" % (cid,))

    if flags.no_closed_cobordism:
        parent = {}
        wall_bit = {c.id: c.touches_wall for c in complex.bottom}
        for e in complex.effects:
            if not (e.inputs or e.outputs):  # at an unknown point: no glue
                continue
            glue = _find(parent, e.inputs[0] if e.inputs else e.outputs[0].id)
            for cid in e.inputs:
                root = _find(parent, cid)
                if root != glue:
                    parent[root] = glue
            for c in e.outputs:
                wall_bit[c.id] = c.touches_wall
                root = _find(parent, c.id)
                if root != glue:
                    parent[root] = glue
        root_of = {cid: _find(parent, cid) for cid in wall_bit}
        open_roots = {root_of[cid] for cid, touches in wall_bit.items() if touches}
        open_roots.update(root_of[c.id] for c in complex.bottom)
        open_roots.update(_find(parent, cid) for cid in final)
        closed = sorted(cid for cid, r in root_of.items() if r not in open_roots)
        for cid in closed:
            issues.append(
                "flag no_closed_cobordism but component %r sits in a closed piece"
                % (cid,))
    return issues


def _find(parent, cid):
    """The root of ``cid`` in the forest ``parent``, where an id without a
    parent is a root; the path is halved on the way."""
    up = parent.get(cid, cid)
    while up != cid:
        parent[cid] = top = parent.get(up, up)  # cid skips a step
        cid, up = top, parent.get(top, top)
    return cid


# ---------------------------------------------------------------------------
# the text parsers as they were before the one-pass tokenizer: the reference
# for ``cli_io.parse_datum`` and ``cli_io.parse_script``


def content_lines(text: str):
    """(line number, stripped line) of each line of ``text`` that is
    neither empty nor a ``#`` comment, split by ``str.splitlines``."""
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield num, line


def split_directive(line: str, num: int):
    tokens = line.split()
    attrs: Dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ParseError("expected key=value, got %r" % (tok,), num)
        key, _, val = tok.partition("=")
        if key in attrs:
            raise ParseError("repeated key %r" % (key,), num)
        attrs[key] = val
    return tokens[0], attrs


def need(attrs: Dict[str, str], keys, num: int, what: str):
    missing = [k for k in keys if k not in attrs]
    if missing:
        raise ParseError("%s line lacks %s" % (what, ", ".join(missing)), num)
    extra = [k for k in attrs if k not in keys]
    if extra:
        raise ParseError("%s line has stray %s" % (what, ", ".join(extra)), num)


def parse_datum_by_reference(text: str) -> MorseDatum:
    """The datum parser token by token, each line through ``split_directive``
    and ``need`` and each object through its checking constructor."""
    header: Dict[str, str] = {}
    bottom: List[SliceComponent] = []
    points: List[CriticalPoint] = []
    edges: List[FlowEdge] = []
    effects: List[ComponentEffect] = []
    saw_format = False
    header_keys = {
        "m",
        "n",
        "no_closed_cobordism",
        "no_closed_bottom",
        "no_closed_top",
    }

    for num, line in content_lines(text):
        if not saw_format:
            if line != "format=" + DATUM_FORMAT:
                raise ParseError("expected format=" + DATUM_FORMAT, num)
            saw_format = True
            continue
        directive, attrs = split_directive(line, num)
        if "=" in directive:
            key, _, val = directive.partition("=")
            if attrs:
                raise ParseError("stray tokens after %s" % (key,), num)
            if key not in header_keys:
                raise ParseError("unknown header %r" % (key,), num)
            if key in header:
                raise ParseError("repeated header %r" % (key,), num)
            header[key] = (val, num)
            continue
        try:
            if directive == "component":
                need(attrs, ("id", "touches_wall"), num, "component")
                bottom.append(
                    SliceComponent(attrs["id"], _bool(attrs["touches_wall"], num))
                )
            elif directive == "point":
                need(attrs, ("id", "kind", "index", "value"), num, "point")
                points.append(
                    CriticalPoint(
                        attrs["id"],
                        Kind(attrs["kind"]),
                        _int(attrs["index"], num),
                        _fraction(attrs["value"], num),
                    )
                )
            elif directive == "edge":
                need(attrs, ("src", "dst", "count", "locus"), num, "edge")
                count = None if attrs["count"] == "?" else _int(attrs["count"], num)
                edges.append(
                    FlowEdge(
                        attrs["src"], attrs["dst"], count, Locus(attrs["locus"])
                    )
                )
            elif directive == "effect":
                need(attrs, ("at", "kind", "inputs", "outputs"), num, "effect")
                inputs = ()
                if attrs["inputs"] != "-":
                    inputs = tuple(attrs["inputs"].split(","))
                outputs = []
                if attrs["outputs"] != "-":
                    for item in attrs["outputs"].split(","):
                        cid, _, bit = item.partition(":")
                        if not bit:
                            raise ParseError(
                                "output %r lacks its wall bit" % (item,), num
                            )
                        outputs.append(SliceComponent(cid, _bool(bit, num)))
                effects.append(
                    ComponentEffect(
                        attrs["at"],
                        EffectKind(attrs["kind"]),
                        inputs,
                        tuple(outputs),
                    )
                )
            else:
                raise ParseError("unknown directive %r" % (directive,), num)
        except ValidationError as exc:
            raise ParseError(str(exc), num)
        except ValueError as exc:
            raise ParseError(str(exc), num)

    if not saw_format:
        raise ParseError("missing format=" + DATUM_FORMAT)
    for key in ("m", "n"):
        if key not in header:
            raise ParseError("missing header %s" % (key,))
    flags = Flags(**{
        key: _bool(*header.get(key, ("true", None)))
        for key in ("no_closed_cobordism", "no_closed_bottom", "no_closed_top")
    })
    m, n = _int(*header["m"]), _int(*header["n"])
    try:
        ambient = Ambient(m, n)
    except ValidationError as exc:  # names n when n < 1, else m
        raise ParseError(
            "inconsistent datum: %s" % (exc,), header["n" if n < 1 else "m"][1]
        )
    try:
        return MorseDatum(
            ambient,
            tuple(points),
            TrajectoryGraph(tuple(edges)),
            SliceComplex(tuple(bottom), tuple(effects)),
            flags,
        )
    except ValidationError as exc:
        raise ParseError("inconsistent datum: %s" % (exc,))


def parse_script_by_reference(text: str) -> List[MoveRecord]:
    """The script parser token by token, each line through
    ``split_directive`` and ``need``; ids and values go to ``MoveRecord``
    as lists, so it converts and checks every one of them."""
    records: List[MoveRecord] = []
    saw_format = False
    for num, line in content_lines(text):
        if not saw_format:
            if line != "format=" + SCRIPT_FORMAT:
                raise ParseError("expected format=" + SCRIPT_FORMAT, num)
            saw_format = True
            continue
        directive, attrs = split_directive(line, num)
        if directive != "move":
            raise ParseError("unknown directive %r" % (directive,), num)
        need(attrs, ("kind", "ids", "values", "note"), num, "move")
        ids = attrs["ids"].split(",")
        values = []
        if attrs["values"] != "-":
            values = [_fraction(tok, num) for tok in attrs["values"].split(",")]
        note = attrs["note"]
        if note and not note.strip("-"):  # dashes only: one is the escape
            note = note[1:]
        try:
            records.append(MoveRecord(attrs["kind"], ids, values, note))
        except ValidationError as exc:
            raise ParseError(str(exc), num)
    if not saw_format:
        raise ParseError("missing format=" + SCRIPT_FORMAT)
    return records


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py as a module, compiled from its source so that no
    bytecode cache is written next to it; the top level of each of its
    modules defines names and runs nothing else."""
    path = PERFBENCH / (name + ".py")
    module = types.ModuleType("perfbench_" + name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


@functools.lru_cache(maxsize=None)
def _corpus():
    return perfbench_module("corpus")


def union(*data):
    """Cobordisms side by side in one datum, by the benchmark's own builder
    ``perfbench/corpus.disjoint_union``: the ids of piece i get the prefix
    ``u<ii>_`` (``u00_``, ``u01_``, ...); a flag holds when it holds for
    every piece.  All pieces share one ambient."""
    return _corpus().disjoint_union(*data)


def benchmark_workload(monkeypatch, name, seed):
    """(the workloads module, the benchmark's workload ``name`` built for
    ``seed`` from the frozen corpus), by the benchmark's own code."""
    corpus = perfbench_module("corpus")
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # workloads imports it
    workloads = perfbench_module("workloads")
    texts, planted = corpus.load_corpus()
    return workloads, workloads.build(name, texts, planted, seed)


def spy_on_value_builds(monkeypatch):
    """A list that gets ``("Fraction", args)`` for each ``Fraction.__new__``
    call and ``("ratio", args)`` for each ``morse_data.ratio`` call, by
    whichever name a loaded ``halfhandle`` module calls it; both still
    build their value."""
    calls, new, ratio = [], Fraction.__new__, morse_data.ratio
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                        calls.append(("Fraction", a)) or new(cls, *a, **k))

    def spy(num, den):
        calls.append(("ratio", (num, den)))
        return ratio(num, den)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "ratio", None)
        if name.partition(".")[0] == "halfhandle" and bound is ratio:
            monkeypatch.setattr(module, "ratio", spy)
    return calls
