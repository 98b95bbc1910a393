"""The local checks and patches of the moves against whole-datum references.

The moves take valid data only and refuse anything else at the gate.  On a
valid datum ``assign_values`` accepts a move of one or more points after
looking only at the moved points; ``assign_by_replay`` checks the whole
assignment by a full replay.  The two must agree on every move: the same
accept or refuse, the same exception class and message, and equal results,
as objects and as serialized bytes.  ``split_interior`` judges a split by
the pair alone; every split it accepts must be valid by full validation,
and it refuses as not joinable exactly where ``joinable_to_wall`` says so.
A run of rearrangements (``_rearrange_run``) must be the fold of
``assign_values`` over its steps, a run of splits (``_split_run``) the fold
of ``split_interior`` over its points, with the same records, and the
indexes a split result patches from its parent's must be those a fresh
build gives.
``realize_configuration`` checks its target map locally and must agree
with ``realize_by_replay``, which checks it by a full replay, and a point a
move builds without checking it must be the point the checked constructor
builds.
"""

import dataclasses
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from halfhandle import morse_data, moves, normal_form, slice_topology, trajectory
from halfhandle.cli_io import GeneratorSpec, generate, serialize_datum
from halfhandle.errors import (
    EngineError,
    InfeasibleSpec,
    InvalidEffect,
    MoveError,
    NotJoinable,
    SwapBlocked,
    ValidationError,
)
from halfhandle.morse_data import CriticalPoint, Kind, MorseDatum, validate_datum
from halfhandle.moves import (
    MoveRecord,
    _moves_locally,
    _rearrange_run,
    apply_record,
    assign_by_replay,
    assign_values,
    cancel_pair,
    realize_configuration,
    rearrange_pair,
    split_interior,
)
from halfhandle.slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
)
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph

from helpers import (
    assert_records_as_checked,
    birth_merge_pair,
    comp,
    datum,
    edge,
    eff,
    pt,
    realize_by_replay,
    replace_effects,
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
    if way in ("tie", "past") and d.has_point(pid):
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
            return d.replace(graph=d.graph.with_edges(
                [FlowEdge(a.id, b.id, None, Locus.MEMBRANE)])), hint
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
    zs, zu = sorted((p for p in out.points if not d.has_point(p.id)),
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
    if hint is not None and d.has_point(hint):
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
        z = d.point(z_id) if d.has_point(z_id) else None
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
        bad = d.replace(graph=d.graph.with_edges(
            [FlowEdge(p.id, z.id, None, Locus.MEMBRANE)]))
    elif fault == "flow line to below":
        q = draw(st.sampled_from(
            [q for q in d.points if q.value < z.value]))
        bad = d.replace(graph=d.graph.with_edges(
            [FlowEdge(z.id, q.id, None, Locus.MEMBRANE)]))
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


@settings(max_examples=200, deadline=None)
@given(split_run_bases(), st.data())
def test_split_runs_match_the_fold_of_single_splits(d, data):
    ids = split_run_ids(data.draw, d)
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
    # the split stage, and its replay, splice the points once, patch the
    # flow graph and the slice complex once, and build one datum; asked
    # for, each index of the result is patched once from its parent's
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
                                 (MorseDatum, "derived", "datum"),
                                 (trajectory, "_patched_index", "edge_index")):
            counted(monkeypatch, owner, name, calls, key)
        out, script = normal_form._split_all(staged)
        assert len(script) >= 10
        assert calls == dict.fromkeys(("graph", "slices", "points", "datum"), 1)
        again = moves.apply_script(staged, script)
        assert calls == dict.fromkeys(("graph", "slices", "points", "datum"), 2)
        for x in (out, again):
            calls.clear()
            assert_indexes_match_a_fresh_build(x)
            assert calls == {"edge_index": 1}, calls
        monkeypatch.undo()
        assert serialize_datum(again) == serialize_datum(out)


def test_a_pair_move_of_a_validated_datum_runs_no_full_check(monkeypatch):
    d = union(*pieces(2, 4, (0, 1)))
    assert validate_datum(d) == []
    counts = count_full_checks(monkeypatch)
    first, second = [[p for p in d.points if p.id.startswith(pre)]
                     for pre in ("u0_", "u1_")]
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
    """``assign_values`` over the script's steps one by one; the outcome and
    the records made up to the first refusal."""
    made = []
    try:
        for record in script:
            d, made_record = assign_values(d, record.assignments(), record.note)
            made.append(made_record)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc)), made
    return ("accepted", d, serialize_datum(d)), made


def run_outcome(d, script):
    try:
        out = _rearrange_run(d, script)
    except Exception as exc:
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


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
    got = run_outcome(d, script)
    want, made = fold_outcome(d, script)
    assert got == want, script
    assert made == script[:len(made)]
    if got[0] == "accepted":
        out = got[1]
        assert out.point_index == {p.id: p for p in out.points}
        assert out.valid == dataclasses.replace(out).valid


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
    for owner, name in ((MorseDatum, "derived"), (CriticalPoint, "__post_init__"),
                        (moves, "check_assignment")):
        counted(monkeypatch, owner, name, counts)
    out, script = realize_configuration(d, levels)
    assert len(script) == 2 * len(d.points)  # park and place every point
    # one points tuple, and no full check: the target map is checked
    # locally and the moved points are built from the checked ones
    assert counts == {"derived": 1}, counts

    # a surgery put below the one that makes its input: refused, and the
    # pair is named by the full replay
    made_at = d.slices.component_index.producer
    maker, user = next(
        (made_at[cid], e.at) for e in d.slices.effects for cid in e.inputs
        if made_at[cid] is not None and levels[made_at[cid]] == levels[e.at])
    starved = {**levels, user: levels[user] - Fraction(1, 1000)}
    counts.clear()
    with pytest.raises(SwapBlocked) as refused:
        realize_configuration(d, starved)
    assert refused.value.pair == (user, maker)
    assert counts["check_assignment"] == 1, counts
    monkeypatch.undo()
    assert out == moves.apply_script(d, script)


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
    assert checked["split"] > 50 and checked["run"] > 20, checked


def test_a_split_result_builds_no_index_until_asked():
    d = union(*pieces(2, 4, range(8)))
    assert validate_datum(d) == []
    z = next(p for p in d.interior_points(1, d.ambient.n)
             if any(d.slices.component_index.wall_bit[cid]
                    for cid in d.slices.effect_for(p.id).inputs))
    out, _ = split_interior(d, z.id)
    indexes = {"edge_index", "effect_index", "component_index"}
    assert not indexes & (set(vars(out.graph)) | set(vars(out.slices)))
    assert_indexes_match_a_fresh_build(out)
    # once built, the result no longer refers to its parent's indexes
    parent = {id(d.graph.edge_index), id(d.slices.effect_index),
              id(d.slices.component_index)}
    held = list(vars(out.graph).values()) + list(vars(out.slices).values())
    held += [v for x in held if isinstance(x, dict) for v in x.values()]
    assert not parent & {id(x) for x in held}


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
        event("accepted, %s" % ("moved" if got[3] else "nothing to move"))
    else:  # e.g. "SwapBlocked: flow", "SwapBlocked: surgery"
        event("%s: %s" % (got[1].__name__, got[2].split()[0]))


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
