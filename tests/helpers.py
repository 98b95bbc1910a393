"""Shared builders for hand-made test data."""

from fractions import Fraction

from halfhandle.errors import (
    Inadmissible,
    PartialConfiguration,
    SwapBlocked,
    UnknownId,
)
from halfhandle.morse_data import (
    Ambient,
    CriticalPoint,
    Flags,
    Kind,
    MorseDatum,
    dimension_profile,
    first_inversion,
    is_admissible,
    require_valid,
)
from halfhandle.moves import (
    MoveRecord,
    _starving_pair,
    assign_by_replay,
    check_assignment,
)
from halfhandle.slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
    state_at_level,
)
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph


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


def realize_by_replay(d, targets):
    """``realize_configuration`` with the whole target map checked by a full
    replay (``check_assignment``): the reference for its local check.

    The same gate, ids, range and admissibility come first.  The park slots
    are worked out by plain Fraction arithmetic, and every park and place
    step is applied by ``assign_by_replay``, one full replay each.
    """
    require_valid(d)
    want = {}
    for pid, v in targets.items():
        if not d.has_point(pid):
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
    problem = check_assignment(d, want)
    if problem is not None:
        kind, detail = problem
        if kind == "edge":
            raise SwapBlocked(
                detail.src, detail.dst,
                "flow line %s->%s pins the order, targets invert it"
                % (detail.src, detail.dst))
        consumer, producer = _starving_pair(d, want)
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
        d = assign_by_replay(d, record.assignments())
    return d, script


def assert_records_as_checked(script):
    """Each record, trusted ones (``MoveRecord._step``) included, equals the
    record the checking constructor builds, down to its ``vars``."""
    for r in script:
        checked = MoveRecord(r.kind, r.ids, r.values, r.note)
        assert r == checked and vars(r) == vars(checked), r
        assert all(type(v) is Fraction for v in r.values), r


def union(*data):
    """Cobordisms side by side in one datum: the point, edge endpoint and
    component ids of piece i get the prefix ``u<i>_``; a flag holds when it
    holds for every piece.  All pieces share the first one's ambient."""
    points, edges, bottom, effects = [], [], [], []
    for i, d in enumerate(data):
        pre = "u%d_" % i
        points += [pt(pre + p.id, p.kind, p.index, p.value) for p in d.points]
        edges += [edge(pre + e.src, pre + e.dst, e.count, e.locus)
                  for e in d.graph.edges]
        bottom += [comp(pre + c.id, c.touches_wall) for c in d.slices.bottom]
        effects += [
            eff(pre + e.at, e.kind, [pre + cid for cid in e.inputs],
                [comp(pre + c.id, c.touches_wall) for c in e.outputs])
            for e in d.slices.effects
        ]
    flags = Flags(*(all(getattr(d.flags, f) for d in data) for f in (
        "no_closed_cobordism", "no_closed_bottom", "no_closed_top")))
    return MorseDatum(data[0].ambient, tuple(points),
                      TrajectoryGraph(tuple(edges)),
                      SliceComplex(tuple(bottom), tuple(effects)), flags)


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


def no_closed_components(ambient, points, complex, level):
    """Whether every component of the level set at ``level`` touches the wall."""
    return all(state_at_level(ambient, points, complex, level).values())
