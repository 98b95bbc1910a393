"""The local checks and patches of the moves against whole-datum references.

The moves take valid data only and refuse anything else at the gate.  On a
valid datum ``assign_values`` decides a move of one or more points by
looking only at the moved points; ``assign_by_replay`` (in ``helpers``)
checks the whole assignment by a full replay.  The two must agree on every
move: the same accept or refuse, the same exception class and message, and
equal results, as objects and as serialized bytes.  ``assign_values`` must
accept exactly the moves, of one point, several or all, that the full
replay (``check_assignment``) accepts.
``split_interior`` judges a split by the pair alone; every split it
accepts must be valid by full validation, and it refuses as not joinable
exactly where ``joinable_to_wall`` says so.
A run of rearrangements (``_rearrange_run``) checks each step inline; it
must do what ``rearrange_by_steps`` (in ``helpers``), which checks every
step with the reference predicate ``_moves_locally``, does, and be the
fold of ``assign_values`` over its steps with the same records.  A run of
splits (``_split_run``) must be the fold of ``split_interior`` over its
points, and the indexes a split result builds on first use must be those
a fresh build gives.
``cancel_pair`` patches its result and checks only the flow lines it
induces; it must agree with ``cancel_by_rebuild``, which rebuilds the
result and validates it whole.
``realize_configuration`` accepts or refuses its target map by the map
check alone and must agree with ``realize_by_replay``, which checks it by a
full replay; the script of an accepted map must pass the step-checked run
(``apply_script``) to the same datum.  A point a move builds without
checking it must be the point the checked constructor builds.  So must
every unchecked builder of a point, flow line, effect or component
(``_trusted``, a moved point's too), down to its ``vars``, and every
piece of a split run's result.
``flag_issues`` joins the components in one pass over the effects and must
report what ``flag_issues_by_reference``, the union-find it replaced, does,
and what ``flag_issues_by_find``, which found each root by a call, does.
"""

import dataclasses
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import groupby

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from halfhandle import morse_data, moves, normal_form, slice_topology, trajectory
from halfhandle.cli_io import parse_datum, serialize_datum
from halfhandle.errors import (
    EdgeOrderViolation,
    EngineError,
    InfeasibleSpec,
    InvalidEffect,
    MoveError,
    NotJoinable,
    SwapBlocked,
    UnknownId,
    ValidationError,
)
from halfhandle.generator import GeneratorSpec, generate
from halfhandle.morse_data import (
    CriticalPoint,
    Flags,
    Kind,
    MorseDatum,
    validate_datum,
)
from halfhandle.moves import (
    MoveRecord,
    _rearrange_run,
    assign_values,
    cancel_pair,
    check_assignment,
    realize_configuration,
    rearrange_pair,
    split_interior,
)
from halfhandle.slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
    flag_issues,
    replay,
)
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph, generic_disjoint

from helpers import (
    _moves_locally,
    apply_record,
    assert_pieces_as_checked,
    assert_records_as_checked,
    assign_by_replay,
    attach_chain_pair,
    benchmark_workload,
    birth_merge_pair,
    cancel_by_rebuild,
    comp,
    datum,
    edge,
    eff,
    flag_issues_by_find,
    flag_issues_by_reference,
    internal_chain_pair,
    pt,
    realize_by_replay,
    rearrange_by_steps,
    replace_effects,
    splice_by_bisection,
    split_by_rebuild,
    split_death_pair,
    union,
)


def outcome(fn, d, assignment):
    try:
        out = fn(d, assignment)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


def fast(d, assignment):
    return assign_values(d, assignment)[0]


def reference(d, assignment):
    return assign_by_replay(d, assignment)


def related(d, pid):
    """Points whose order against pid the data pins: the makers of its
    inputs, the users of its outputs and its flow line neighbours."""
    effects = {e.at: e for e in d.slices.effects}
    mine = effects.get(pid)
    out = set()
    for e in d.graph.edges:
        if pid in (e.src, e.dst):
            out.add(e.dst if e.src == pid else e.src)
    if mine is not None:
        made = set(mine.output_ids())
        for e in effects.values():
            if set(e.output_ids()) & set(mine.inputs) or made & set(e.inputs):
                out.add(e.at)
    out.discard(pid)
    return sorted(out)


@st.composite
def generated(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    codim = draw(st.integers(min_value=1, max_value=3))
    spec = GeneratorSpec(
        n=n,
        m=n + codim,
        points=draw(st.integers(min_value=2, max_value=10)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        edge_probability=draw(st.sampled_from([0.25, 0.6, 1.0])),
    )
    try:
        d = generate(spec)
    except InfeasibleSpec:
        assume(False)
    # flow lines often run from a maker to its user; without them only the
    # slice effects pin the order, which the local check must get right
    if draw(st.booleans()):
        d = d.replace(graph=TrajectoryGraph(()))
    # generated ids follow the order of creation, so a maker nearly always
    # has the smaller id; renaming lets value ties fall either way
    ids = sorted(p.id for p in d.points)
    if draw(st.booleans()):
        return d
    return relabel(d, dict(zip(ids, draw(st.permutations(ids)))))


def relabel(d, name):
    return MorseDatum(
        d.ambient,
        tuple(CriticalPoint(name[p.id], p.kind, p.index, p.value)
              for p in d.points),
        TrajectoryGraph(tuple(
            FlowEdge(name[e.src], name[e.dst], e.count, e.locus)
            for e in d.graph.edges)),
        SliceComplex(d.slices.bottom, tuple(
            ComponentEffect(name[e.at], e.kind, e.inputs, e.outputs)
            for e in d.slices.effects)),
        d.flags,
    )


def target(draw, d):
    """A point id and a value: a tie with, or a place just past, a point
    the data pin it against; near any point; anywhere; outside (0, 1); or
    an id the datum does not have."""
    pid = draw(st.sampled_from([p.id for p in d.points] + ["nope"]))
    values = sorted({p.value for p in d.points} | {Fraction(0), Fraction(1)})
    way = draw(st.sampled_from(["tie", "past", "near", "anywhere", "outside"]))
    if way == "outside":
        return pid, draw(st.sampled_from(
            [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]))
    if way == "anywhere":
        return pid, draw(st.fractions(min_value=Fraction(1, 1000),
                                      max_value=Fraction(999, 1000)))
    pool = []
    if way in ("tie", "past") and pid in d.point_index:
        pool = [d.point(q) for q in related(d, pid)]
    other = draw(st.sampled_from(pool or d.points))
    if way == "tie":
        return pid, other.value
    i = values.index(other.value)
    side = draw(st.sampled_from([-1, 1]))
    return pid, (other.value + values[i + side]) / 2


def assignment_of(draw, d):
    """The points to move and their new values: one or two to three
    ``target`` draws; two to three points each nudged halfway to a
    neighbouring value; two points the data pin against each other, both
    moved into the gap between them, where they may tie or cross; or two
    points trading places as ``rearrange_pair`` moves them, each to the
    other's value or just past it."""
    way = draw(st.sampled_from(["one", "several", "nudge", "pinned", "swap"]))
    values = sorted({p.value for p in d.points} | {Fraction(0), Fraction(1)})
    if way == "pinned":
        p = draw(st.sampled_from(d.points))
        pool = related(d, p.id)
        if pool:
            q = d.point(draw(st.sampled_from(pool)))
            mid, step = (p.value + q.value) / 2, abs(p.value - q.value) / 4
            shifts = st.sampled_from([-step, Fraction(0), step])
            return {p.id: mid + draw(shifts), q.id: mid + draw(shifts)}
    if way == "swap" and len(d.points) >= 2:
        z, w = sorted(draw(st.permutations(d.points))[:2], key=CriticalPoint.sort_key)
        if draw(st.booleans()):
            return {z.id: w.value, w.id: z.value}
        above = values[values.index(w.value) + 1]
        below = values[values.index(z.value) - 1]
        return {z.id: (w.value + above) / 2, w.id: (z.value + below) / 2}
    count = 1 if way == "one" else draw(st.integers(min_value=2, max_value=3))
    if way == "nudge":
        moved = draw(st.permutations(d.points))[:count]
        return {p.id: (p.value + values[values.index(p.value)
                                        + draw(st.sampled_from([-1, 1]))]) / 2
                for p in moved}
    return dict(target(draw, d) for _ in range(count))


@settings(max_examples=150, deadline=None)
@given(generated(), st.data())
def test_single_point_moves_match_the_replay_reference(d, data):
    assume(d.valid)  # the moves take valid data only; the gate has its own test
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        assignment = assignment_of(data.draw, d)
        got = outcome(fast, d, assignment)
        assert got == outcome(reference, d, assignment), assignment
        if got[0] == "accepted":
            d = got[1]
            # the cached verdict and index agree with a fresh datum's
            fresh = dataclasses.replace(d)
            assert d.point_index == fresh.point_index
            if "valid" in vars(d):
                assert d.valid == fresh.valid


# ---------------------------------------------------------------------------
# invalid bases: the local check must not be trusted on them


def three_internal(effects, edges=()):
    return datum(
        4, 2,
        [comp("c0"), comp("c3"), comp("c5")],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 4)),
         pt("r", Kind.INTERIOR, 1, Fraction(3, 4))],
        edges,
        effects,
    )


def internal(at, src, dst):
    return eff(at, EffectKind.INTERNAL, (src,), (comp(dst),))


def unclean_bases():
    # c1 made at p, used at q, made again at r: the replay itself is clean
    yield "born twice", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c1", "c2"),
         internal("r", "c3", "c1")]), "q", Fraction(7, 8)
    yield "consumed twice", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c1", "c2"),
         internal("r", "c1", "c4")]), "q", Fraction(7, 8)
    yield "downhill edge elsewhere", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2"),
         internal("r", "c5", "c4")],
        edges=[edge("q", "p", None, Locus.MEMBRANE)]), "r", Fraction(1, 8)
    yield "point with no effect", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2")]), "q", Fraction(7, 8)


def genericity_base():
    # clean, but an index-2 point has a flow line into an index-1 one,
    # which genericity rules out
    d = three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2"),
         internal("r", "c5", "c4")],
        edges=[edge("p", "q", None, Locus.MEMBRANE)])
    d = d.replace(points=(pt("p", Kind.INTERIOR, 2, Fraction(1, 4)),) + d.points[1:])
    return "genericity", d, "r", Fraction(1, 8)


def gated_moves(d, pid, v):
    """Every entry point that takes valid data only, as (name, call)."""
    return [
        ("assign_values", lambda: assign_values(d, {pid: v})),
        ("rearrange_pair", lambda: rearrange_pair(d, "p", "q", v, Fraction(15, 16))),
        ("cancel_pair", lambda: cancel_pair(d, "p", "q")),
        ("split_interior", lambda: split_interior(d, "q")),
        ("realize_configuration", lambda: realize_configuration(d, d.values())),
        ("apply_script", lambda: moves.apply_script(
            d, [MoveRecord("rearrange", (pid,), (v,))])),
        ("ensure_joinable", lambda: normal_form.ensure_joinable(d)),
        ("global_split", lambda: normal_form.global_split(d)),
    ]


def assert_refused_at_the_gate(name, d, pid, v):
    """Every gated entry point refuses d with ``validate_datum``'s issues."""
    issues = validate_datum(d)
    for move, call in gated_moves(d, pid, v):
        try:
            call()
        except ValidationError as exc:
            assert str(exc) == "invalid datum", (name, move)
            assert exc.issues == issues, (name, move)
        else:
            raise AssertionError("%s accepted the %s base" % (move, name))


def test_a_move_keeps_an_invalid_datum_invalid():
    # no move turns the genericity base into a datum, valid or not
    name, d, pid, v = genericity_base()
    assert not d.valid
    assert_refused_at_the_gate(name, d, pid, v)
    assert vars(d)["valid"] is False


def test_unclean_bases_fall_back_to_the_reference():
    # the local check alone would let these moves through; the gate refuses
    # them by full validation, the reference
    for name, d, pid, v in unclean_bases():
        assert not d.valid, name
        if pid in d.slices.effect_index:
            assert _moves_locally(d, {pid: morse_data.order_key(v, pid)}), name
        assert_refused_at_the_gate(name, d, pid, v)


# ---------------------------------------------------------------------------
# splits: the local check against full validation


def split_outcome(d, z_id):
    try:
        out, _ = split_interior(d, z_id)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


@st.composite
def split_bases(draw):
    """Generated data, some changed: a closed piece added (whose middle
    point never joins the wall), two points tied, the names the pair of a
    point would take already in use, a point without its effect, or a flow
    line running downhill.  Returns the datum and a point worth splitting,
    or None."""
    d = draw(generated())
    way = draw(st.sampled_from(
        ["as is", "closed piece", "tie", "taken", "no effect", "downhill"]))
    inner = d.interior_points(1, d.ambient.n)
    hint = draw(st.sampled_from(inner)).id if inner else None
    if way == "closed piece":
        return with_closed_piece(d, draw), "cz"
    if way == "tie":
        a, b = draw(st.permutations(d.points))[:2]
        return dataclasses.replace(d, points=tuple(
            CriticalPoint(p.id, p.kind, p.index, b.value) if p is a else p
            for p in d.points)), a.id
    if way == "taken" and hint is not None:
        others = [p.id for p in d.points if p.id != hint]
        suffixes = draw(st.lists(st.sampled_from(["s", "s_", "u", "u_"]),
                                 min_size=1, max_size=min(4, len(others)),
                                 unique=True))
        name = {p.id: p.id for p in d.points}
        for pid, suffix in zip(draw(st.permutations(others)), suffixes):
            name[pid] = hint + suffix
        return relabel(d, name), hint
    if way == "no effect":
        gone = draw(st.sampled_from(d.points)).id
        return d.replace(slices=replace_effects(d.slices, drop=(gone,))), hint
    if way == "downhill":
        a, b = sorted(draw(st.permutations(d.points))[:2],
                      key=lambda p: p.sort_key(), reverse=True)
        if d.graph.edge(a.id, b.id) is None:
            return d.replace(graph=TrajectoryGraph(d.graph.edges + (
                FlowEdge(a.id, b.id, None, Locus.MEMBRANE),))), hint
    return d, hint


def with_closed_piece(d, draw):
    """d and a sphere born at cb, changed by an internal surgery at cz and
    dying at cd, away from the wall; valid once d no longer promises a
    cobordism without closed pieces."""
    n = d.ambient.n
    lo, mid, hi = sorted(draw(st.lists(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
        min_size=3, max_size=3, unique=True)))
    k = draw(st.integers(min_value=1, max_value=n))
    return MorseDatum(
        d.ambient,
        d.points + (pt("cb", Kind.INTERIOR, 0, lo), pt("cz", Kind.INTERIOR, k, mid),
                    pt("cd", Kind.INTERIOR, n + 1, hi)),
        d.graph,
        SliceComplex(d.slices.bottom, d.slices.effects + (
            eff("cb", EffectKind.BIRTH, (), (comp("x0", False),)),
            eff("cz", EffectKind.INTERNAL, ("x0",), (comp("x1", False),)),
            eff("cd", EffectKind.DEATH, ("x1",), ()))),
        dataclasses.replace(d.flags, no_closed_cobordism=False),
    )


def check_accepted_split(d, z_id, out):
    """What an accepted split must give, worked out from scratch."""
    z = d.point(z_id)
    others = [p for p in d.points if p.id != z_id]
    assert all(p.value != z.value for p in others), "a shared value went through"
    lower = max([p.value for p in others if p.value < z.value], default=Fraction(0))
    upper = min([p.value for p in others if p.value > z.value], default=Fraction(1))
    zs, zu = sorted((p for p in out.points if p.id not in d.point_index),
                    key=lambda p: p.kind.value)
    assert (zs.kind, zu.kind) == (Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE)
    assert zs.value == (lower + z.value) / 2
    assert zu.value == z.value + (upper - z.value) / 3
    assert set(out.points) == set(others) | {zs, zu}
    assert out == MorseDatum(out.ambient, out.points, out.graph, out.slices, out.flags)
    assert out.point_index == {p.id: p for p in out.points}
    if "valid" in vars(out):
        assert out.valid == dataclasses.replace(out).valid


def split_target(draw, d, hint):
    """The hinted point, an interior point of splittable index, any point,
    or an id the datum does not have."""
    inner = d.interior_points(1, d.ambient.n)
    pools = [[p.id for p in d.points], ["nope"]]
    if hint is not None and hint in d.point_index:
        pools.append([hint])
    if inner:
        pools += [[p.id for p in inner]] * 2
    return draw(st.sampled_from(draw(st.sampled_from(pools))))


@settings(max_examples=200, deadline=None)
@given(split_bases(), st.data())
def test_splits_match_the_full_validation_path(base, data):
    d, hint = base
    if not d.valid:
        z_id = split_target(data.draw, d, hint)
        assert split_outcome(d, z_id) == ("refused", ValidationError, "invalid datum")
        return
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        z_id = split_target(data.draw, d, hint)
        got = split_outcome(d, z_id)
        # a split of a valid datum is refused for its point, never for
        # leaving inconsistent data
        assert got[:2] != ("refused", InvalidEffect), got
        z = d.point(z_id) if z_id in d.point_index else None
        splittable = (z is not None and z.kind is Kind.INTERIOR
                      and 1 <= z.index <= d.ambient.n)
        if splittable:
            joins = slice_topology.joinable_to_wall(d.ambient, d.points, d.slices, z_id)
            assert (got[:2] == ("refused", NotJoinable)) is not joins, z_id
        if got[0] == "refused":
            continue
        out = got[1]
        assert vars(out)["valid"] is True, z_id
        check_accepted_split(d, z_id, out)
        d, hint = out, None


def lie_about(d, fault, z, draw):
    """d with a fault at z that the split carries over to its pair, and a
    cached ``valid`` that says it has none.  The local check must see the
    fault in the pair and leave the verdict to full validation."""
    if fault == "flow line from above":
        p = draw(st.sampled_from(
            [p for p in d.points if p.value > z.value]))
        bad = d.replace(graph=TrajectoryGraph(d.graph.edges + (
            FlowEdge(p.id, z.id, None, Locus.MEMBRANE),)))
    elif fault == "flow line to below":
        q = draw(st.sampled_from(
            [q for q in d.points if q.value < z.value]))
        bad = d.replace(graph=TrajectoryGraph(d.graph.edges + (
            FlowEdge(z.id, q.id, None, Locus.MEMBRANE),)))
    else:  # closed outputs: the attach pair cannot leave the wall
        e = d.slices.effect_for(z.id)
        closed = ComponentEffect(e.at, e.kind, e.inputs, tuple(
            SliceComponent(c.id, False) for c in e.outputs))
        bad = d.replace(
            slices=replace_effects(d.slices, drop=(z.id,), add=(closed,)))
    vars(bad)["valid"] = True
    return bad


@settings(max_examples=100, deadline=None)
@given(generated(), st.data())
def test_a_fault_at_the_pair_is_caught_even_when_the_cache_lies(d, data):
    assume(d.valid)
    bits = d.slices.component_index.wall_bit
    values = [p.value for p in d.points]
    splittable = [
        z for z in d.interior_points(1, d.ambient.n)
        if values.count(z.value) == 1
        and any(bits[cid] for cid in d.slices.effect_for(z.id).inputs)
    ]
    assume(splittable)
    z = data.draw(st.sampled_from(splittable))
    faults = []
    if any(p.value > z.value for p in d.points):
        faults.append("flow line from above")
    if any(q.value < z.value for q in d.points):
        faults.append("flow line to below")
    if d.slices.effect_for(z.id).kind in (EffectKind.MERGE, EffectKind.SPLIT):
        faults.append("closed outputs")
    assume(faults)
    bad = lie_about(d, data.draw(st.sampled_from(faults)), z, data.draw)
    got = split_outcome(bad, z.id)
    assert got[:2] == ("refused", InvalidEffect), got
    assert got[2].startswith("splitting would leave inconsistent data: ")


# ---------------------------------------------------------------------------
# split runs against the fold of single splits


@st.composite
def split_run_bases(draw):
    """A generated or ``split_bases`` datum, now and then side by side with
    one or two more generated pieces of its dimensions, so that a run has
    more to split."""
    d = draw(st.one_of(generated(), split_bases().map(lambda base: base[0])))
    more = []
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        spec = GeneratorSpec(
            n=d.ambient.n, m=d.ambient.m,
            points=draw(st.integers(min_value=4, max_value=10)),
            seed=draw(st.integers(min_value=0, max_value=10**6)))
        try:
            more.append(generate(spec))
        except InfeasibleSpec:
            pass
    return union(d, *more) if more else d


def split_run_ids(draw, d):
    """The interior points of splittable index, or those of them that
    join the wall at a value of their own, in random order; or a random
    list of ids: such points (repeated), any point, the names the halves of
    a point take, and an id the datum does not have."""
    inner = [p.id for p in d.interior_points(1, d.ambient.n)]
    way = draw(st.sampled_from(["all", "splittable", "drawn"]))
    if way == "splittable" and d.valid:
        values = Counter(p.value for p in d.points)
        bits = d.slices.component_index.wall_bit
        inner = [pid for pid in inner if values[d.point(pid).value] == 1
                 and any(bits[c] for c in d.slices.effect_for(pid).inputs)]
    if inner and way != "drawn":
        return draw(st.permutations(inner))
    pool = inner * 3 + [p.id for p in d.points] + ["nope"]
    pool += [pid + half for pid in inner for half in ("s", "u", "s_")]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@st.composite
def split_runs(draw):
    """A ``split_run_bases`` datum and the ids a run splits in it."""
    d = draw(split_run_bases())
    return d, split_run_ids(draw, d)


def lines_into_a_split_point():
    """Interior points y and yb, each joined by an inner flow line to z
    above them; each of the three can split."""
    return datum(
        6, 4,
        [comp("c0")],
        [pt("y", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("yb", Kind.INTERIOR, 1, Fraction(1, 2)),
         pt("z", Kind.INTERIOR, 2, Fraction(3, 4))],
        [edge("y", "z", 1, Locus.INNER), edge("yb", "z", None, Locus.INNER)],
        [eff("y", EffectKind.INTERNAL, ("c0",), (comp("c1"),)),
         eff("yb", EffectKind.INTERNAL, ("c1",), (comp("c2"),)),
         eff("z", EffectKind.INTERNAL, ("c2",), (comp("c3"),))],
    )


def split_fold_outcome(d, ids):
    """``split_interior`` over the ids one by one; the outcome and the
    records made up to the first refusal."""
    made = []
    try:
        for z_id in ids:
            d, record = split_interior(d, z_id)
            made.append(record)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc)), made
    return ("accepted", d, serialize_datum(d)), made


def split_run_outcome(fn, d, ids):
    try:
        out = fn(d, ids)
    except Exception as exc:
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


# two split points joined by a flow line, in both orders; the same with
# the ids y and yb, where y's half yu sorts past yb; z's lines in from y
# and yb, whose traded sources yu and ybu sort the other way round
SPLIT_RUN_EXAMPLES = (
    (internal_chain_pair(n=4, k=1), ["p", "q"]),
    (internal_chain_pair(n=4, k=1), ["q", "p"]),
    (relabel(internal_chain_pair(n=4, k=1), {"p": "y", "q": "yb"}), ["y", "yb"]),
    (relabel(internal_chain_pair(n=4, k=1), {"p": "y", "q": "yb"}), ["yb", "y"]),
    (lines_into_a_split_point(), ["y", "yb", "z"]),
    (lines_into_a_split_point(), ["z", "yb", "y"]),
)


def with_split_run_examples(test):
    """``test`` with an ``@example`` of each of ``SPLIT_RUN_EXAMPLES``."""
    for run in reversed(SPLIT_RUN_EXAMPLES):
        test = example(run)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(split_runs())
@with_split_run_examples
def test_split_runs_match_the_fold_of_single_splits(run):
    d, ids = run
    want, made = split_fold_outcome(d, ids)
    records = [MoveRecord("split", (z_id,)) for z_id in ids]
    assert made == records[:len(made)]
    got = split_run_outcome(moves._split_run, d, ids)
    assert got == want, ids
    # a script of the same splits is replayed as one grouped run
    assert split_run_outcome(moves.apply_script, d, records) == want, ids
    if got[0] == "refused":
        event("refused after %d: %s" % (min(len(made), 3), got[1].__name__))
        return
    event("accepted, %s splits" % (len(ids) if len(ids) < 3 else "3+"))
    out = got[1]
    assert vars(out)["valid"] is True and out.valid == dataclasses.replace(out).valid
    assert out.point_index == {p.id: p for p in out.points}
    assert_indexes_match_a_fresh_build(out)
    assert_pieces_as_checked(out)  # the unchecked halves, effects and lines


def split_kind(fn, d, ids):
    """Whether ``fn(d, ids)`` accepts, with the bytes of its datum, or
    refuses, with the class of its error; and the datum, None if refused."""
    try:
        out = fn(d, ids)
    except Exception as exc:  # the class is what is compared
        return ("refused", type(exc)), None
    return ("accepted", serialize_datum(out)), out


def rebuilt_split(d, z_id):
    return split_by_rebuild(d, z_id)[0]


@settings(max_examples=200, deadline=None)
@given(split_runs())
@with_split_run_examples
def test_split_runs_match_the_rebuilt_splits(run):
    # the independent reference: split_by_rebuild builds each split with
    # the checking constructors and validates the whole result.  One split
    # at a time, the run of that one split accepts or refuses as it does,
    # with the same class and bytes, and so does the run of them all
    d, ids = run
    for z_id in ids:
        want, rebuilt = split_kind(rebuilt_split, d, z_id)
        assert split_kind(moves._split_run, d, (z_id,))[0] == want, z_id
        if rebuilt is None:
            break
        d = rebuilt
    assert split_kind(moves._split_run, run[0], ids)[0] == want, ids
    event("%s: %s" % (want[0], want[1].__name__ if want[0] == "refused" else
                      "%s splits" % (len(ids) if len(ids) < 3 else "3+")))


@settings(max_examples=200, deadline=None)
@given(split_run_bases(), st.data())
def test_a_split_run_puts_each_pair_in_its_points_place(d, data):
    # the run builds its points in one pass, each split point replaced by
    # its pair; placing the same pairs by ``splice`` gives the same tuple
    ids = split_run_ids(data.draw, d)
    try:
        out = moves._split_run(d, ids)
    except EngineError:  # an invalid base, or a refused split
        event("refused")
        return
    split = [d.point(z_id) for z_id in ids]
    halves = [p for p in out.points if d.point_index.get(p.id) is not p]
    assert len(halves) == 2 * len(split)
    key = CriticalPoint.sort_key
    assert out.points == splice_by_bisection(d.points, split, halves, key)
    assert out.points == morse_data.splice(d.points, split, halves, key)
    assert out.point_index == {p.id: p for p in out.points}
    event("%s splits" % (len(ids) if len(ids) < 3 else "3+"))


def test_a_half_may_take_the_id_of_a_point_split_before_it_in_the_run():
    # q is named ps: split first, it frees the id that p's stable half
    # then takes, in the run as in the fold; the index keeps the half
    d = relabel(internal_chain_pair(n=4, k=1), {"p": "p", "q": "ps"})
    assert validate_datum(d) == []
    want, made = split_fold_outcome(d, ["ps", "p"])
    assert want[0] == "accepted" and len(made) == 2
    got = split_run_outcome(moves._split_run, d, ["ps", "p"])
    assert got == want
    out = got[1]
    assert out.point("ps").kind is Kind.BOUNDARY_STABLE
    assert out.point_index == {p.id: p for p in out.points}
    assert [p.id for p in out.points] == ["ps", "pu", "pss", "psu"]


def test_split_runs_read_makers_and_users_through_the_overlay():
    # z splits c0 into two wall components that y merges (n = 1, so both
    # have index 1).  Whichever splits first hands the two components to
    # different halves, and that decides the witness of y's merge, or the
    # output of z that leaves at its stable half: the run must read the
    # halves, not z and y, as makers and users
    d = datum(
        3, 1,
        [comp("c0")],
        [pt("z", Kind.INTERIOR, 1, Fraction(1, 3)),
         pt("y", Kind.INTERIOR, 1, Fraction(2, 3))],
        [],
        [eff("z", EffectKind.SPLIT, ("c0",), (comp("c2"), comp("c1"))),
         eff("y", EffectKind.MERGE, ("c1", "c2"), (comp("c3"),))],
    )
    assert validate_datum(d) == []
    for ids in (["z", "y"], ["y", "z"]):
        want, made = split_fold_outcome(d, ids)
        assert want[0] == "accepted" and len(made) == 2
        assert split_run_outcome(moves._split_run, d, ids) == want, ids


def test_split_runs_carry_a_flow_line_between_two_split_points():
    # an inner flow line p -> q between two joinable interior points: the
    # second split finds the line already moved to the first split's half,
    # as the line into q (p first) or the line out of p (q first)
    d = internal_chain_pair(n=4, k=1)
    assert validate_datum(d) == []
    for ids in (["q", "p"], ["p", "q"]):
        want, made = split_fold_outcome(d, ids)
        assert want[0] == "accepted" and len(made) == 2
        assert edge("pu", "qs", 1, Locus.INNER) in want[1].graph.edges
        assert split_run_outcome(moves._split_run, d, ids) == want, ids
        records = [MoveRecord("split", (z_id,)) for z_id in ids]
        assert split_run_outcome(moves.apply_script, d, records) == want, ids


def test_a_split_pair_that_does_not_apply_to_the_wall_bits_is_named():
    # _splits_locally replays the pair on the wall bits of z's inputs; a
    # stable half that consumes a component no input of z carries is named
    # by the replay's own message, not raised (a split of a valid datum
    # never builds such a pair)
    zs = pt("zs", Kind.BOUNDARY_STABLE, 1, "1/3")
    zu = pt("zu", Kind.BOUNDARY_UNSTABLE, 1, "2/3")
    e_s = eff("zs", EffectKind.BOUNDARY_ATTACH, ["c9"], [comp("c5")])
    e_u = eff("zu", EffectKind.BOUNDARY_ATTACH, ["c5"], [comp("c1")])
    got = moves._splits_locally(
        morse_data.Ambient(4, 2), (), ((zs, e_s), (zu, e_u)), {"c0": True})
    assert got == "effect at 'zs' consumes missing component 'c9'"


# ---------------------------------------------------------------------------
# the split stage by counts, and the cached verdicts by rebuilding


def pieces(n, m, seeds, allow_boundary=True):
    """Generated 8-point data for the seeds whose spec is feasible."""
    out = []
    for seed in seeds:
        try:
            out.append(generate(GeneratorSpec(
                n=n, m=m, points=8, seed=seed, allow_boundary=allow_boundary)))
        except InfeasibleSpec:
            pass
    return out


def pair_family(name, n, m, k=1):
    """The cancellable pair ``name`` of ``helpers`` at (n, m), p below q;
    ``k`` is the lower index of a chain, clamped to its range."""
    if name == "birth-merge":
        return birth_merge_pair(n, m)
    if name == "split-death":
        return split_death_pair(n, m)
    if name == "internal":
        return internal_chain_pair(n, min(max(k, 1), n - 1), m)
    if name == "stable attach":
        return attach_chain_pair(Kind.BOUNDARY_STABLE, min(max(k, 1), n), n, m)
    return attach_chain_pair(Kind.BOUNDARY_UNSTABLE, min(k, n - 1), n, m)


PAIR_FAMILIES = ("birth-merge", "internal", "split-death", "stable attach",
                 "unstable attach")


def pair_families(n, m):
    """Every pair family that exists at (n, m): an internal chain needs
    n >= 2."""
    return [pair_family(name, n, m) for name in PAIR_FAMILIES
            if name != "internal" or n >= 2]


def count_full_checks(monkeypatch, when=lambda: True):
    """Counts of the ``replay`` and ``validate_datum`` calls made while
    ``when()`` holds, from every module that refers to them."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if when():
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((slice_topology, "replay"), (morse_data, "validate_datum")):
        original = getattr(owner, name)
        for module in (morse_data, slice_topology, trajectory, moves, normal_form):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


def split_stage_counts(monkeypatch, d):
    """global_split of d; full validations and replays run inside its split
    runs, the points of its split records and the points its split runs
    were given."""
    inside, seen = [], []
    counts = count_full_checks(monkeypatch, lambda: bool(inside))
    run = normal_form._split_run

    def splitting(datum, ids):
        ids = list(ids)
        inside.append(ids)
        seen.extend(ids)
        try:
            return run(datum, ids)
        finally:
            inside.pop()

    monkeypatch.setattr(normal_form, "_split_run", splitting)
    _, _, script = normal_form.global_split(d)
    return counts, [r.ids[0] for r in script if r.kind == "split"], seen


def test_the_split_stage_validates_at_most_once(monkeypatch):
    unions = {
        "codim 1": union(*pieces(4, 5, (5, 7, 9), allow_boundary=False)),
        "codim 2": union(*pieces(2, 4, (0, 1, 6, 10, 12, 13))),
    }
    for name, d in unions.items():
        counts, splits, seen = split_stage_counts(monkeypatch, d)
        assert len(splits) >= 10, name
        assert seen == splits, name  # every split ran inside a split run
        assert counts["validate_datum"] <= 1, (name, counts)
        assert counts["replay"] <= 1, (name, counts)


def test_a_split_run_patches_each_structure_once(monkeypatch):
    # the split stage, and its replay, patch the flow graph and the slice
    # complex once and build one datum, whose points take no splice: each
    # pair is put in its point's place; each index of the result is built
    # once, on first use
    for d in (union(*pieces(4, 5, (5, 7, 9), allow_boundary=False)),
              union(*pieces(2, 4, (0, 1, 6, 10, 12, 13)))):
        staged = d
        for stage, fn in (normal_form._DEEP_STAGES if d.ambient.codim >= 2
                          else normal_form._CODIM_ONE_STAGES):
            if stage == "split":
                break
            staged, _ = fn(staged)
        calls = Counter()
        for owner, name, key in ((TrajectoryGraph, "_patched", "graph"),
                                 (SliceComplex, "_patched", "slices"),
                                 (moves, "splice", "points"),
                                 (MorseDatum, "_built", "datum")):
            counted(monkeypatch, owner, name, calls, key)
        builds = count_index_builds(monkeypatch)
        out, script = normal_form._split_all(staged)
        assert len(script) >= 10
        assert calls == dict.fromkeys(("graph", "slices", "datum"), 1)
        again = moves.apply_script(staged, script)
        assert calls == dict.fromkeys(("graph", "slices", "datum"), 2)
        # the input's place index: built by the first run, read by the second
        assert builds["place_index", id(staged)] == 1, builds
        for x in (out, again):
            assert_each_index_built_once_on_first_use(x, builds)
        monkeypatch.undo()
        assert serialize_datum(again) == serialize_datum(out)


def test_a_pair_move_of_a_validated_datum_runs_no_full_check(monkeypatch):
    d = union(*pieces(2, 4, (0, 1)), *pair_families(2, 4))
    assert validate_datum(d) == []
    counts = count_full_checks(monkeypatch)
    builds = Counter()
    counted(monkeypatch, MorseDatum, "_built", builds)
    cancelled = 0
    for e in d.graph.edges:  # the five pairs, and every other flow line
        counts.clear()
        try:
            out, _ = cancel_pair(d, e.src, e.dst)
        except MoveError:
            continue  # refused for a side condition, by no full check either
        finally:
            assert not counts, (e, counts)
        cancelled += 1
        assert builds["_built"] == cancelled, (e, builds)
        assert vars(out)["valid"] is True
    assert cancelled >= 5, cancelled
    first, second = [[p for p in d.points if p.id.startswith(pre)]
                     for pre in ("u00_", "u01_")]
    accepted = 0
    for z in first:
        for w in second:
            if not z.value < w.value:
                continue
            counts.clear()
            try:  # trade places, as rearrange_pair is used
                rearrange_pair(d, z.id, w.id, w.value, z.value)
            except MoveError:
                continue  # refusals go to the full replay
            accepted += 1
            assert not counts, (z.id, w.id, counts)
    assert accepted >= 10, accepted


def test_cached_verdicts_hold_on_every_intermediate_datum():
    checked = 0
    for n, m in ((1, 3), (2, 3), (2, 4), (3, 5), (4, 5)):
        for d in pieces(n, m, range(8)) + pieces(n, m, range(4), False):
            out, _, script = normal_form.global_split(d)
            steps = [d]
            for record in script:
                steps.append(apply_record(steps[-1], record))
            for x in steps + [out]:
                if "valid" in vars(x):
                    fresh = MorseDatum(x.ambient, x.points, x.graph, x.slices, x.flags)
                    assert x.valid == fresh.valid
                    checked += 1
    assert checked > 100, checked


# ---------------------------------------------------------------------------
# rearrangement runs against the fold of single moves


def fold_outcome(d, script):
    """``assign_values`` over the script's steps one by one; the outcome,
    the records made up to the first refusal, and the values of the datum
    they made, updated with the refused record's values (with those of the
    datum they made when none is refused)."""
    made = []
    try:
        for record in script:
            moved = dict(zip(record.ids, record.values))
            d, made_record = assign_values(d, moved, record.note)
            made.append(made_record)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc)), made, {**d.values(), **moved}
    return ("accepted", d, serialize_datum(d)), made, d.values()


def run_outcome(d, script, run=_rearrange_run):
    """``run`` (by default ``_rearrange_run``) over the script; the outcome
    and the value map the run names a refusal on: the one it hands to
    ``moves.check_assignment`` (None when it does not ask it)."""
    named = []
    original = moves.check_assignment

    def naming(datum, values):
        named.append(dict(values))
        return original(datum, values)

    moves.check_assignment = naming
    try:
        out = run(d, script)
    except Exception as exc:
        return ("refused", type(exc), str(exc)), (named or [None])[0]
    finally:
        moves.check_assignment = original
    return ("accepted", out, serialize_datum(out)), None


@settings(max_examples=150, deadline=None)
@given(generated(), st.data())
def test_runs_match_the_fold_of_single_moves(d, data):
    # each step is drawn against the datum the accepted steps before it
    # made; a refused step is kept in half the examples, so a run is either
    # accepted whole or refused partway
    keep_refused = data.draw(st.booleans())
    script, current = [], d
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        assignment = assignment_of(data.draw, current)
        ids = tuple(sorted(assignment))
        script.append(MoveRecord(
            "rearrange", ids, tuple(assignment[i] for i in ids),
            data.draw(st.sampled_from(["", "park", "place"]))))
        try:
            current, _ = assign_values(current, assignment)
        except EngineError:
            if not keep_refused:
                script.pop()
    assume(script)
    got, named = run_outcome(d, script)
    want, made, before = fold_outcome(d, script)
    assert got == want, script
    assert made == script[:len(made)]
    # a refused step is named on the values of the datum the steps before
    # it made, updated with its own
    assert named in (None, before), script
    if got[0] == "accepted":
        out = got[1]
        assert out.point_index == {p.id: p for p in out.points}
        assert out.valid == dataclasses.replace(out).valid


def test_a_refused_step_leaves_no_key_in_the_run_overlay():
    # p makes c1 for q, q makes c2 for r: p < q < r is pinned, nothing else
    d = three_internal([internal("p", "c0", "c1"), internal("q", "c1", "c2"),
                        internal("r", "c2", "c4")])
    assert d.valid

    def step(ids, values):
        return MoveRecord("rearrange", ids, tuple(map(Fraction, values)))

    runs = {
        # p moved, then moved again past its user q
        "moved, then refused": [step(("p",), ("1/8",)), step(("p",), ("5/8",))],
        # p passes, q then lands past its user r; p was moved before
        "second id refused": [step(("p",), ("1/8",)),
                              step(("p", "q"), ("1/16", "7/8"))],
        # the same with nothing moved before
        "first step refused": [step(("p", "q"), ("1/16", "7/8"))],
    }
    for name, script in runs.items():
        got, named = run_outcome(d, script)
        want, made, before = fold_outcome(d, script)
        assert got == want, name
        assert got[:2] == ("refused", InvalidEffect), name
        assert made == script[:-1], name
        assert named == before, name
        assert run_outcome(d, script, rearrange_by_steps) == (got, named), name


# ---------------------------------------------------------------------------
# rearrangement runs against the step-by-step reference


def planted_union():
    """Generated pieces side by side with every pair family at (2, 4)."""
    return union(*pieces(2, 4, (0, 1)), *pair_families(2, 4))


def unknown_and_outside(draw, d):
    """An id the datum does not have next to a value outside (0, 1) for one
    it has: the run must name the unknown id."""
    pid = draw(st.sampled_from([p.id for p in d.points]))
    bad = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2)]))
    return {"nope": Fraction(1, 2), pid: bad}


def run_script(draw, d):
    """Rearrange records for a run from ``d``, each drawn against the datum
    the accepted records before it made: an ``assignment_of`` or, now and
    then, ``unknown_and_outside``.  A refused record is kept in half the
    scripts, so a run is either accepted whole or refused partway."""
    keep_refused = draw(st.booleans())
    script, current = [], d
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            assignment = unknown_and_outside(draw, current)
        else:
            assignment = assignment_of(draw, current)
        ids = tuple(sorted(assignment))
        script.append(MoveRecord(
            "rearrange", ids, tuple(assignment[i] for i in ids),
            draw(st.sampled_from(["", "park", "place"]))))
        try:
            current = rearrange_by_steps(current, script[-1:])
        except EngineError:
            if not keep_refused:
                script.pop()
    return script


@settings(max_examples=200, deadline=None)
@given(st.one_of(generated(), st.builds(planted_union)), st.data())
def test_runs_match_the_step_by_step_reference(d, data):
    # the accepted datum, as an object and as bytes, or the refusal class,
    # message and the value map check_assignment names it on
    script = run_script(data.draw, d)
    assume(script)
    got = run_outcome(d, script)
    assert got == run_outcome(d, script, rearrange_by_steps), script
    if any(len(r.ids) > 1 for r in script):
        event("a record of several points")
    if got[0][0] == "refused":
        event("refused: %s" % (got[0][1].__name__,))
        if got[1] is not None and len(script) > 1:
            event("refused partway, named on the earlier steps' values")


def test_runs_refuse_as_the_reference_on_the_planted_union():
    d = planted_union()
    assert d.valid
    top = d.points[-1]
    made_at = d.slices.component_index.producer
    maker, user = next((made_at[cid], e.at) for e in d.slices.effects
                       for cid in e.inputs if made_at[cid] is not None)

    def step(assignment):
        ids = tuple(sorted(assignment))
        return MoveRecord("rearrange", ids, tuple(assignment[i] for i in ids))

    lift = step({top.id: (top.value + 1) / 2})
    starve = step({maker: (d.point(user).value + 1) / 2})
    line = next(e for e in d.graph.edges if top.id not in (e.src, e.dst))
    tie = step({line.src: d.point(line.dst).value})  # a flow line made level
    runs = {  # name -> script, the class refused before the local check
        "unknown id next to a value outside (0, 1)": (
            [lift, step({"nope": Fraction(1, 2), top.id: Fraction(3, 2)})],
            UnknownId),
        "value outside (0, 1)": ([lift, step({top.id: Fraction(1)})], MoveError),
        "several points, refused partway": (
            [lift, step({maker: Fraction(1, 3), user: Fraction(1, 4)})], None),
        "refused partway": ([lift, lift, starve], None),
        "tie on a flow line": ([lift, tie], None),
    }
    for name, (script, gate) in runs.items():
        got = run_outcome(d, script)
        assert got == run_outcome(d, script, rearrange_by_steps), name
        if gate is not None:
            assert got[0][1] is gate and got[1] is None, (name, got)
        else:  # named by the full replay, on the values the lifts made
            assert got[0][1] in (EdgeOrderViolation, InvalidEffect), (name, got)
            made = run_outcome(d, script[:-1])[0][1]
            assert got[1] == {**made.values(),
                              **dict(zip(script[-1].ids, script[-1].values))}
    accepted = run_outcome(d, [lift, lift])
    assert accepted[0][0] == "accepted"
    assert accepted == run_outcome(d, [lift, lift], rearrange_by_steps)


def counted(monkeypatch, owner, name, calls, key=None):
    """Count the calls of ``owner.name`` in ``calls[key or name]``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[key or name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_realize_configuration_builds_one_points_tuple_per_run(monkeypatch):
    d = union(*pieces(2, 4, range(30))[:20])
    assert len(d.points) == 160 and validate_datum(d) == []
    levels = normal_form.schedule_levels(d)
    counts = count_full_checks(monkeypatch)
    for owner, name in ((MorseDatum, "_built"),
                        (moves, "splice"), (CriticalPoint, "__post_init__"),
                        (moves, "check_assignment"), (moves, "_rearrange_run")):
        counted(monkeypatch, owner, name, counts)
    out, script = realize_configuration(d, levels)
    assert len(script) == 2 * len(d.points)  # park and place every point
    # one points tuple, built in the order of the one sort, and no full
    # check and no run: the map check accepts the target map and the moved
    # points are built from the checked ones
    assert counts == {"_built": 1}, counts

    # a surgery put below the one that makes its input: refused, and the
    # pair is named from the target map alone, with no full replay
    made_at = d.slices.component_index.producer
    maker, user = next(
        (made_at[cid], e.at) for e in d.slices.effects for cid in e.inputs
        if made_at[cid] is not None and levels[made_at[cid]] == levels[e.at])
    starved = {**levels, user: levels[user] - Fraction(1, 1000)}
    counts.clear()
    with pytest.raises(SwapBlocked) as refused:
        realize_configuration(d, starved)
    assert refused.value.pair == (user, maker)
    assert counts["check_assignment"] == counts["_rearrange_run"] == 0, counts
    monkeypatch.undo()
    assert out == moves.apply_script(d, script)


def test_run_steps_call_no_checker(monkeypatch):
    # each step of a run is checked inline: realize_configuration calls no
    # checker for an accepted target map but its own gate, and a replay
    # calls no checker per step, only the gate once per stretch of records
    # of one kind
    d = union(*pieces(2, 4, range(30))[:20])
    assert len(d.points) == 160 and d.valid
    levels = normal_form.schedule_levels(d)
    calls = Counter()
    checkers = ("check_assignment", "require_valid")
    for name in checkers:
        counted(monkeypatch, moves, name, calls)
    counted(monkeypatch, morse_data, "validate_datum", calls)
    _, script = realize_configuration(d, levels)
    assert len(script) == 320
    # the gate of realize_configuration, which runs no run
    assert calls == {"require_valid": 1}, calls

    monkeypatch.undo()
    _, workload = benchmark_workload(monkeypatch, "split_deep", 1)
    base = workload.datum
    out, _, script = normal_form.global_split(base)
    stretches = len(list(groupby(r.kind for r in script)))
    steps = sum(1 for r in script if r.kind == "rearrange")
    assert steps >= 600 and stretches < 10, (steps, stretches)
    assert base.valid  # the gate's verdict is cached
    calls.clear()
    for name in checkers:
        counted(monkeypatch, moves, name, calls)
    counted(monkeypatch, morse_data, "validate_datum", calls)
    assert moves.apply_script(base, script) == out
    assert calls == {"require_valid": stretches}, calls


# ---------------------------------------------------------------------------
# split results: patched indexes against a fresh build


def assert_indexes_match_a_fresh_build(out):
    graph = TrajectoryGraph(out.graph.edges)
    slices = SliceComplex(out.slices.bottom, out.slices.effects)
    assert out.graph.edges == graph.edges
    assert out.graph.edge_index == graph.edge_index
    assert out.slices.effects == slices.effects
    assert out.slices.effect_index == slices.effect_index
    assert out.slices.component_index == slices.component_index
    assert out.point_index == {p.id: p for p in out.points}
    assert out.place_index == {p.id: i for i, p in enumerate(out.points)}


INDEXES = ((MorseDatum, "point_index"), (MorseDatum, "place_index"),
           (TrajectoryGraph, "edge_index"), (SliceComplex, "effect_index"),
           (SliceComplex, "component_index"))


def count_index_builds(monkeypatch):
    """A Counter of the builds of every datum, graph and complex index from
    now on, by (index name, id of the datum, graph or complex)."""
    builds, counted_objects = Counter(), []
    for owner, name in INDEXES:
        def counting(self, build=vars(owner)[name].func, name=name):
            counted_objects.append(self)  # kept alive: no id is reused
            builds[name, id(self)] += 1
            return build(self)
        prop = cached_property(counting)
        prop.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, prop)
    return builds


def assert_each_index_built_once_on_first_use(out, builds):
    """No index of ``out`` built yet; asked for twice, each is built once
    and equals a fresh build."""
    mine = {(name, id(x)) for x, name in ((out, "point_index"),
                                          (out, "place_index"),
                                          (out.graph, "edge_index"),
                                          (out.slices, "effect_index"),
                                          (out.slices, "component_index"))}
    assert not mine & set(builds), builds
    assert_indexes_match_a_fresh_build(out)
    assert_indexes_match_a_fresh_build(out)
    assert {k: builds[k] for k in mine} == dict.fromkeys(mine, 1), builds


def test_split_results_patch_the_indexes_a_fresh_build_gives():
    # single splits, split runs (the normal form, whose final stage keeps
    # the graph and complex of its split run) and grouped script replays
    checked = Counter()
    for n, m, boundary in ((2, 4, True), (3, 5, True), (2, 3, False),
                           (4, 5, False), (3, 4, False)):
        for d in pieces(n, m, range(12), boundary):
            out, _, script = normal_form.global_split(d)
            if not any(r.kind == "split" for r in script):
                continue
            for x in (out, moves.apply_script(d, script)):
                assert_indexes_match_a_fresh_build(x)
                checked["run"] += 1
            for record in script:
                d = apply_record(d, record)
                if record.kind == "split":
                    assert_indexes_match_a_fresh_build(d)
                    checked["split"] += 1
        # cancels: each pair family beside two pieces
        for pair in pair_families(n, m):
            d = union(pair, *pieces(n, m, range(2), boundary))
            if d.valid:
                assert_indexes_match_a_fresh_build(cancel_pair(d, "u00_p", "u00_q")[0])
                checked["cancel"] += 1
    assert checked["split"] > 50 and checked["run"] > 20, checked
    assert checked["cancel"] >= 15, checked


def test_a_split_result_builds_no_index_until_asked(monkeypatch):
    d = union(*pieces(2, 4, range(8)))
    assert validate_datum(d) == []
    z = next(p for p in d.interior_points(1, d.ambient.n)
             if any(d.slices.component_index.wall_bit[cid]
                    for cid in d.slices.effect_for(p.id).inputs))
    builds = count_index_builds(monkeypatch)
    out, _ = split_interior(d, z.id)
    indexes = {"point_index", "place_index", "edge_index", "effect_index",
               "component_index"}
    assert not indexes & (set(vars(out)) | set(vars(out.graph)) | set(vars(out.slices)))
    assert_each_index_built_once_on_first_use(out, builds)


def test_a_split_reads_its_place_off_an_index_built_once_per_datum(monkeypatch):
    # z's place and gap come from the datum's place index, built on the
    # first split of the datum and then read by every split of it, alone
    # or in a run; no split builds the datum's point index, and a split of
    # a datum whose place index is built builds no index of the datum
    d = union(*pieces(2, 4, range(12)))
    assert validate_datum(d) == []
    bits, values = d.slices.component_index.wall_bit, Counter(p.value for p in d.points)
    ids = [p.id for p in d.interior_points(1, d.ambient.n) if values[p.value] == 1
           and any(bits[cid] for cid in d.slices.effect_for(p.id).inputs)]
    assert len(ids) >= 4
    d.graph.edge_index  # the other indexes a split reads, built beforehand
    builds = count_index_builds(monkeypatch)
    assert "place_index" not in vars(d)
    split_interior(d, ids[0])
    assert builds == {("place_index", id(d)): 1}, builds
    for z_id in ids[1:]:
        split_interior(d, z_id)
    moves._split_run(d, ids)
    assert builds == {("place_index", id(d)): 1}, builds
    assert d.place_index == {p.id: i for i, p in enumerate(d.points)}


def test_every_move_result_builds_its_point_index_on_first_use(monkeypatch):
    # as a split's: the results of a full target map and a rearrangement
    # run, which keep their input's graph and complex, and of a cancel hold
    # no index of their own until asked, and build each one once
    d = union(*pieces(2, 4, range(8)))
    pair = union(pair_families(2, 4)[0], *pieces(2, 4, range(2)))
    assert validate_datum(d) == validate_datum(pair) == []
    builds = count_index_builds(monkeypatch)
    placed, script = realize_configuration(d, normal_form.schedule_levels(d))
    assert len(script) == 2 * len(d.points)
    for out in (placed, moves.apply_script(d, script)):
        assert out is not d and (out.graph, out.slices) == (d.graph, d.slices)
        assert ("point_index", id(out)) not in builds
        assert out.point_index == out.point_index == {p.id: p for p in out.points}
        assert builds["point_index", id(out)] == 1
    assert_each_index_built_once_on_first_use(
        cancel_pair(pair, "u00_p", "u00_q")[0], builds)


# ---------------------------------------------------------------------------
# cancellations: the patch against the rebuild


def cancel_outcome(fn, d, z_id, w_id):
    try:
        out, record = fn(d, z_id, w_id)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out), record)


def assert_cancels_match_the_rebuild(d, pairs=None):
    """``cancel_pair`` and ``cancel_by_rebuild`` on each (z, w) of
    ``pairs``, by default every flow line of d: an equal datum and record,
    or the same refusal class and message.  Returns the accepted
    results."""
    accepted = []
    for z_id, w_id in pairs or [(e.src, e.dst) for e in d.graph.edges]:
        got = cancel_outcome(cancel_pair, d, z_id, w_id)
        assert got == cancel_outcome(cancel_by_rebuild, d, z_id, w_id), (z_id, w_id)
        if got[0] == "refused":
            event("refused: %s" % (got[1].__name__,))
            continue
        out = got[1]
        assert vars(out)["valid"] is True and dataclasses.replace(out).valid
        assert out.point_index == {p.id: p for p in out.points}
        assert_indexes_match_a_fresh_build(out)
        accepted.append(out)
    return accepted


@st.composite
def cancel_bases(draw):
    """A pair family of ``helpers`` (as z = u00_p below w = u00_q) side by
    side with up to two generated pieces of its dimensions.  Chains p -> w,
    z -> q through the pair, for piece points p and q, are added line by
    line where the datum stays valid, so that the cancel induces flow
    lines; now and then p is first moved to q's value, so that the value
    order rules out the induced line p -> q."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = n + draw(st.integers(min_value=1, max_value=3))
    names = [f for f in PAIR_FAMILIES if f != "internal" or n >= 2]
    pair = pair_family(draw(st.sampled_from(names)), n, m,
                       draw(st.integers(min_value=0, max_value=n)))
    more = []
    for _ in range(draw(st.sampled_from([0, 1, 2]))):
        try:
            more.append(generate(GeneratorSpec(
                n=n, m=m, points=draw(st.integers(min_value=4, max_value=8)),
                seed=draw(st.integers(min_value=0, max_value=10**6)))))
        except InfeasibleSpec:
            pass
    d = union(pair, *more)
    z, w = d.point("u00_p"), d.point("u00_q")
    others = [p for p in d.points if p not in (z, w)]
    below = [p for p in others if p.value < w.value]
    above = [q for q in others if z.value < q.value]
    chains = [(draw(st.sampled_from(below)).id, draw(st.sampled_from(above)).id)
              for _ in range(draw(st.integers(min_value=0, max_value=4))
                             if below and above else 0)]
    middle = [q for q in above if q.value < w.value]
    tie = None
    if middle and len(others) >= 2 and draw(st.booleans()):
        q = draw(st.sampled_from(middle))
        p = draw(st.sampled_from([p for p in others if p is not q]))
        tied = d.replace(points=tuple(
            pt(x.id, x.kind, x.index, q.value) if x is p else x for x in d.points))
        if tied.valid:
            d, tie = tied, (p.id, q.id)
            chains.append(tie)
    for p_id, q_id in chains:  # p -> w and z -> q, each kept if d stays valid
        for src, dst in ((p_id, w.id), (z.id, q_id)):
            if d.graph.edge(src, dst) is not None:
                continue
            locus = draw(st.sampled_from(list(Locus)))
            more_lines = d.replace(graph=TrajectoryGraph(
                d.graph.edges + (FlowEdge(src, dst, None, locus),)))
            if more_lines.valid:
                d = more_lines
    if tie and d.graph.edge(tie[0], w.id) and d.graph.edge(z.id, tie[1]):
        event("a chain through the pair between equal values")
    return d


@settings(max_examples=400, deadline=None)
@given(st.one_of(cancel_bases(), generated()))
def test_cancels_match_the_rebuild_reference(d):
    # every flow line, a planted pair's among them, and every flow line of
    # each result
    for out in assert_cancels_match_the_rebuild(d):
        event("induced %s" % min(len(set(out.graph.edges) - set(d.graph.edges)), 3))
        assert_cancels_match_the_rebuild(out)


def through_the_pair(x_id, y_id, x_value, y_value, locus, m=6, x_index=1, y_index=4):
    """An internal chain p -> q of indices 2, 3 (n = 4) with lines x -> q
    and p -> y in ``locus``, for interior points x and y of their own
    pieces."""
    base = internal_chain_pair(n=4, k=2, m=m)
    return base.replace(
        points=base.points + (pt(x_id, Kind.INTERIOR, x_index, x_value),
                              pt(y_id, Kind.INTERIOR, y_index, y_value)),
        graph=TrajectoryGraph(base.graph.edges + (
            edge(x_id, "q", None, locus), edge("p", y_id, None, locus))),
        slices=SliceComplex(
            base.slices.bottom + (comp("c5"), comp("c7")),
            base.slices.effects + (internal(x_id, "c5", "c6"),
                                   internal(y_id, "c7", "c8"))),
    )


def test_a_cancel_induces_no_flow_line_between_equal_values():
    # x and y at one value: the chain x -> y through the pair cannot
    # survive, whatever the order of their ids
    for x_id, y_id in (("x", "y"), ("y", "x")):
        d = through_the_pair(x_id, y_id, Fraction(1, 2), Fraction(1, 2), Locus.INNER)
        assert validate_datum(d) == []
        [out] = assert_cancels_match_the_rebuild(d, [("p", "q")])
        assert out.graph.edges == ()


def test_a_cancel_induces_no_flow_line_that_genericity_rules_out():
    # codimension 1: x -> q (indices 3, 3) and p -> y (2, 2) may exist, but
    # the chain x -> y through the pair would fall from index 3 to 2, where
    # genericity keeps the membranes apart.  The cancel drops the chain; a
    # cancel that induced the line anyway would be refused by its check
    d = through_the_pair("x", "y", Fraction(1, 6), Fraction(5, 6), Locus.INNER,
                         m=5, x_index=3, y_index=2)
    assert validate_datum(d) == []
    assert generic_disjoint(d.point("x"), d.point("y"), d.ambient)
    [out] = assert_cancels_match_the_rebuild(d, [("p", "q")])
    assert out.graph.edges == ()


def test_a_fault_through_the_pair_is_caught_even_when_the_cache_lies():
    # wall lines between interior points, with a cached verdict that says
    # the datum is valid: the cancel carries the fault to x -> y
    d = through_the_pair("x", "y", Fraction(1, 6), Fraction(5, 6), Locus.WALL)
    assert validate_datum(d) != []
    vars(d)["valid"] = True
    got = cancel_outcome(cancel_pair, d, "p", "q")
    assert got == cancel_outcome(cancel_by_rebuild, d, "p", "q")
    assert got == ("refused", InvalidEffect, "cancellation would leave inconsistent "
                   "data: edge x->y: wall locus needs boundary points")


# ---------------------------------------------------------------------------
# realize_configuration: the local target check against the full replay


def target_map(draw, d):
    """A full target map for d: its own values; the scheduled levels, where
    a cell shares one level; its values dealt out at random; index order
    with the points of each (index, stable before unstable) cell in random
    order, which a deep datum admits but which may pin a flow line or starve
    a surgery; its values with two points the data pin against each other
    traded; or random values.  Now and then one value is put outside
    (0, 1), a point is left out or an unknown id is added."""
    points, values = d.points, d.values()
    way = draw(st.sampled_from(
        ["own", "schedule", "dealt", "index", "pinned", "random"]))
    if way == "schedule":
        values = normal_form.schedule_levels(d)
    elif way == "dealt":
        values = dict(zip(values, draw(st.permutations(list(values.values())))))
    elif way == "index":
        order = sorted(draw(st.permutations(points)),
                       key=lambda p: (p.index, p.kind is Kind.BOUNDARY_UNSTABLE))
        values = {p.id: Fraction(i + 1, len(order) + 1) for i, p in enumerate(order)}
    elif way == "pinned":
        p = draw(st.sampled_from(points))
        pool = related(d, p.id)
        if pool:
            q = draw(st.sampled_from(pool))
            values[p.id], values[q] = values[q], values[p.id]
    elif way == "random":
        values = {p.id: draw(st.fractions(min_value=Fraction(1, 1000),
                                          max_value=Fraction(999, 1000)))
                  for p in points}
    spoil = draw(st.sampled_from([None] * 5 + ["outside", "missing", "unknown"]))
    if spoil == "outside":
        values[draw(st.sampled_from(points)).id] = draw(
            st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2)]))
    elif spoil == "missing":
        del values[draw(st.sampled_from(points)).id]
    elif spoil == "unknown":
        values["nope"] = Fraction(1, 2)
    return values


def realize_outcome(fn, d, targets):
    try:
        out, script = fn(d, targets)
    except Exception as exc:  # the class, message and pair are what is compared
        return ("refused", type(exc), str(exc), getattr(exc, "pair", None))
    return ("accepted", out, serialize_datum(out), script)


@settings(max_examples=200, deadline=None)
@given(generated(), st.data())
def test_realize_configuration_matches_the_replay_reference(d, data):
    assume(d.valid)
    targets = target_map(data.draw, d)
    got = realize_outcome(realize_configuration, d, targets)
    assert got == realize_outcome(realize_by_replay, d, targets), targets
    if got[0] == "accepted":
        # the script passes the step-checked run, which makes the same datum
        assert moves.apply_script(d, got[3]) == got[1], targets
        event("accepted, %s" % ("moved" if got[3] else "nothing to move"))
    else:  # e.g. "SwapBlocked: flow", "SwapBlocked: surgery"
        event("%s: %s" % (got[1].__name__, got[2].split()[0]))


def local_move(draw, d):
    """How a move is drawn, and a move of known points of d to values in
    (0, 1): one point (``target``), several (``assignment_of``) or all
    (``target_map``); None when the draw leaves that domain."""
    way = draw(st.sampled_from(["one point", "several", "all"]))
    if way == "one point":
        move = dict([target(draw, d)])
    elif way == "several":
        move = assignment_of(draw, d)
    else:
        move = target_map(draw, d)
        if len(move) != len(d.points):
            return way, None
    if all(pid in d.point_index and 0 < v < 1 for pid, v in move.items()):
        return way, move
    return way, None


@settings(max_examples=200, deadline=None)
@given(generated(), st.data())
def test_the_local_check_accepts_exactly_what_the_full_replay_accepts(d, data):
    # both directions, on the package's own path (assign_values): a move it
    # refuses and the full replay accepts would be refused for no reason,
    # the converse would break the datum; an accepted move is applied, so
    # later moves start from its result
    assume(d.valid)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        way, move = local_move(data.draw, d)
        if move is None:
            continue
        legal = check_assignment(d, {**d.values(), **move}) is None
        try:
            out, _ = assign_values(d, move)
        except (EdgeOrderViolation, InvalidEffect):
            accepted = False
        else:
            accepted = True
        assert accepted == legal, move
        event("%s: %s" % (way, "accepted" if accepted else "refused"))
        if accepted:
            d = out


# ---------------------------------------------------------------------------
# moved points are built unchecked: they must be the checked ones


def assert_points_as_checked(x):
    for p in x.points:
        fresh = CriticalPoint(p.id, p.kind, p.index, p.value)
        assert p == fresh and hash(p) == hash(fresh), p
        assert vars(p) == vars(fresh) and type(p.value) is Fraction, p
        # the cached float, on the moved point and the checked one alike
        assert p.sort_key() == fresh.sort_key() == morse_data.order_key(p.value, p.id)


def test_moved_points_equal_the_checked_constructors():
    walked = 0
    for n, m, boundary in ((2, 4, True), (3, 5, True), (2, 3, False),
                           (4, 5, False), (3, 4, False)):
        for d in pieces(n, m, range(8), boundary):
            out, _, script = normal_form.global_split(d)
            assert_points_as_checked(out)
            for record in script:
                d = apply_record(d, record)
                assert_points_as_checked(d)
                walked += 1
    assert walked > 500, walked


def test_trusted_driver_records_equal_the_checked_constructor():
    # the park, place and joinability steps skip the record check; each
    # must be the record the checking constructor builds (the separation
    # and join_low steps are checked so in test_normal_form)
    notes = Counter()
    for n, m, boundary in ((2, 4, True), (3, 5, True), (3, 6, True),
                           (2, 3, False), (4, 5, False)):
        for d in pieces(n, m, range(8), boundary):
            _, _, script = normal_form.global_split(d)
            assert_records_as_checked(script)
            notes.update(r.note for r in script)
    assert all(notes[note] > 10 for note in ("park", "place", "join_high")), notes


piece_ids = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(piece_ids, piece_ids, st.sampled_from(list(Kind)), st.integers(0, 9),
       st.fractions(min_value=0, max_value=1, max_denominator=10**30).filter(
           lambda v: 0 < v < 1),
       st.one_of(st.none(), st.integers(1, 5)), st.sampled_from(list(Locus)),
       st.sampled_from(list(EffectKind)), st.lists(piece_ids, max_size=3, unique=True),
       st.lists(st.tuples(piece_ids, st.booleans()), max_size=3,
                unique_by=lambda c: c[0]))
def test_unchecked_builders_build_what_the_checked_constructors_build(
        a, b, kind, index, value, count, locus, effect_kind, inputs, outputs):
    assume(a != b)
    components = tuple(SliceComponent._trusted(cid, bit) for cid, bit in outputs)
    old = CriticalPoint(a, kind.value, index, Fraction(1, 2))  # moved to value
    pairs = [
        (CriticalPoint._trusted(a, kind, index, morse_data.order_key(value)),
         CriticalPoint(a, kind.value, index, value)),
        (CriticalPoint._trusted(old.id, old.kind, old.index, morse_data.order_key(value, a)),
         CriticalPoint(a, kind.value, index, value)),
        (FlowEdge._trusted(a, b, count, locus), FlowEdge(a, b, count, locus.value)),
        (ComponentEffect._trusted(a, effect_kind, tuple(inputs), components),
         ComponentEffect(a, effect_kind.value, list(inputs),
                         [SliceComponent(cid, bit) for cid, bit in outputs])),
    ] + [(c, SliceComponent(c.id, int(c.touches_wall))) for c in components]
    for got, checked in pairs:
        assert got == checked and hash(got) == hash(checked), got
        assert vars(got) == vars(checked), got
        assert list(vars(got)) == list(vars(checked)), got  # in the same order
    assert pairs[0][0].sort_key() == pairs[1][0].sort_key() == morse_data.order_key(value, a)


RAW_VALUES = (
    Fraction(1, 6), Fraction(5, 6), 0, 1, 2, -1, True, "1/6", "0.25", " 3/4 ",
    "5/4", "abc", "", "1/0", 0.5, 0.1, Decimal("0.5"), float("nan"), None,
)


def raw_outcome(call):
    """The outcome of ``call()`` with every value in it checked to be exact."""
    try:
        out = call()
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    if isinstance(out, MoveRecord):
        assert all(type(v) is Fraction for v in out.values)
        return ("accepted", out)
    moved, script = out
    script = script if isinstance(script, list) else [script]
    assert all(type(v) is Fraction for r in script for v in r.values)
    assert_points_as_checked(moved)
    return ("accepted", moved, serialize_datum(moved), script)


def test_moves_convert_raw_values_as_before():
    # each move with a raw value does what it does with Fraction(raw), or
    # raises what Fraction(raw) raises
    d = birth_merge_pair()
    calls = {
        "MoveRecord": lambda v: lambda: MoveRecord("rearrange", ("p",), (v,)),
        "assign_values": lambda v: lambda: assign_values(d, {"p": v}),
        "realize_configuration": lambda v: lambda: realize_configuration(
            d, {"p": v, "q": Fraction(11, 12)}),
    }
    accepted = Counter()
    for raw in RAW_VALUES:
        try:
            value, refused = Fraction(raw), None
        except Exception as exc:
            refused = ("refused", type(exc), str(exc))
        for name, call in calls.items():
            got = raw_outcome(call(raw))
            assert got == (refused or raw_outcome(call(value))), (name, raw)
            accepted[name] += got[0] == "accepted"
    assert min(accepted.values()) >= 5, accepted


# ---------------------------------------------------------------------------
# the flag check: the one-pass union-find against the reference


def with_late_join(d, draw):
    """d and two closed spheres, born at kb and kc; the one born at kc
    changes at k2 and then merges with the other at k1 into a component
    left at the top.  Effects come in point order, so the merge is read
    before the surgery that makes its input: one open piece only if that
    surgery joins its output's root, not its output, to its input's."""
    v = sorted(draw(st.lists(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
        min_size=4, max_size=4, unique=True)))
    return MorseDatum(
        d.ambient,
        d.points + (pt("kb", Kind.INTERIOR, 0, v[0]), pt("kc", Kind.INTERIOR, 0, v[1]),
                    pt("k2", Kind.INTERIOR, 1, v[2]), pt("k1", Kind.INTERIOR, 1, v[3])),
        d.graph,
        SliceComplex(d.slices.bottom, d.slices.effects + (
            eff("kb", EffectKind.BIRTH, (), (comp("y0", False),)),
            eff("kc", EffectKind.BIRTH, (), (comp("y1", False),)),
            eff("k2", EffectKind.INTERNAL, ("y1",), (comp("y2", False),)),
            eff("k1", EffectKind.MERGE, ("y0", "y2"), (comp("y3", False),)))),
        d.flags,
    )


def ghost_effects(ids, draw):
    """No effect, or one at the unknown point ``ghost``, with up to two of
    ``ids`` as inputs and none or one new output: the replay walks only
    real points and never reaches it, so the flags are still judged."""
    if not draw(st.booleans()):
        return ()
    inputs = tuple(draw(st.lists(st.sampled_from(ids), max_size=2, unique=True)))
    outputs = draw(st.sampled_from([(), (comp("g0", False),), (comp("g0", True),)]))
    return (eff("ghost", EffectKind.BIRTH, inputs, outputs),)


@st.composite
def flagged_complexes(draw):
    """A generated complex, with a closed piece (``with_closed_piece``) or
    a late join (``with_late_join``) planted or as it is, with up to three
    wall bits flipped and maybe an effect at an unknown point
    (``ghost_effects``), and the top state its replay leaves.  Flipped bits
    may break the wall rules of the rows but not the replay's structure,
    so the top state is complete."""
    d = draw(generated())
    plant = draw(st.sampled_from([None, with_closed_piece, with_late_join]))
    if plant is not None:
        d = plant(d, draw)
    ids = [c.id for c in d.slices.bottom]
    ids += [c.id for e in d.slices.effects for c in e.outputs]
    flip = set(draw(st.lists(st.sampled_from(ids), max_size=3)))

    def flipped(c):
        return SliceComponent(c.id, c.touches_wall != (c.id in flip))

    complex = SliceComplex(
        tuple(map(flipped, d.slices.bottom)),
        tuple(ComponentEffect(e.at, e.kind, e.inputs, tuple(map(flipped, e.outputs)))
              for e in d.slices.effects) + ghost_effects(ids, draw))
    _, final = replay(d.ambient, d.points, complex)
    return complex, final


def test_flag_issues_agree_with_the_union_find_reference():
    closed = []

    # effects come in point order: a planted piece's death (cd) comes
    # before the surgery that makes its input (cz)
    @settings(max_examples=300, deadline=None)
    @given(flagged_complexes(), st.builds(Flags, st.booleans(), st.booleans(),
                                          st.booleans()))
    def agree(case, flags):
        complex, final = case
        got = flag_issues(complex, flags, final)
        assert got == flag_issues_by_reference(complex, flags, final)
        closed.append(any("closed piece" in issue for issue in got))

    agree()
    assert sum(closed) >= 10, (sum(closed), len(closed))


@settings(max_examples=300, deadline=None)
@given(flagged_complexes(), st.builds(Flags, st.booleans(), st.booleans(), st.booleans()))
def test_flag_issues_find_roots_as_the_find_calls_did(case, flags):
    # the roots found inline give the issues the calls of ``_find`` gave,
    # in the same order, on valid, planted and flipped complexes
    complex, final = case
    assert flag_issues(complex, flags, final) == flag_issues_by_find(complex, flags, final)


def test_an_effect_without_components_at_an_unknown_point_glues_nothing():
    # parsed as it stands; the replay never reaches it, so the flags are
    # judged too, and the report names only the unknown point
    text = "\n".join([
        "format=halfhandle-datum/1", "m=5", "n=4", "no_closed_cobordism=true",
        "component id=c0 touches_wall=true",
        "point id=a kind=interior index=1 value=1/4",
        "effect at=a kind=internal inputs=c0 outputs=c1:true",
        "effect at=ghost kind=birth inputs=- outputs=-",
    ])
    d = parse_datum(text)
    replay_issues, final = replay(d.ambient, d.points, d.slices)
    assert replay_issues == []
    assert flag_issues(d.slices, d.flags, final) == []
    assert flag_issues_by_reference(d.slices, d.flags, final) == []
    assert validate_datum(d) == ["effect at unknown point 'ghost'"]
