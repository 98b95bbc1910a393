"""The fast paths of the moves against their references.

On a datum whose ``valid`` holds, ``assign_values`` accepts a move of one
or more points after looking only at the moved points; ``assign_by_replay``
checks the whole assignment by a full replay.  ``split_interior`` judges a
split of a valid datum by the pair alone; its full-validation path runs
``validate_datum`` on the result.  Fast path and reference must agree on
every move: the same accept or refuse, the same exception class and
message, and equal results, as objects and as serialized bytes.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfhandle import morse_data, moves, normal_form, slice_topology, trajectory
from halfhandle.cli_io import GeneratorSpec, generate, serialize_datum
from halfhandle.errors import InfeasibleSpec, InvalidEffect, MoveError
from halfhandle.morse_data import CriticalPoint, Kind, MorseDatum, validate_datum
from halfhandle.moves import (
    _moves_locally,
    apply_record,
    assign_by_replay,
    assign_values,
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

from helpers import comp, datum, edge, eff, pt, union


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
    # a relabelled datum may tie two points in a new order and break its
    # replay; then every move goes to the reference, which is compared too
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
# bases the local check must not be trusted on


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


def test_a_move_keeps_an_invalid_datum_invalid():
    # clean, but an index-2 point has a flow line into an index-1 one,
    # which genericity rules out
    d = three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2"),
         internal("r", "c5", "c4")],
        edges=[edge("p", "q", None, Locus.MEMBRANE)])
    d = d.replace(points=(pt("p", Kind.INTERIOR, 2, Fraction(1, 4)),) + d.points[1:])
    assert not d.valid
    moved, _ = assign_values(d, {"r": Fraction(1, 8)})
    assert "valid" not in vars(moved) and not moved.valid


def test_unclean_bases_fall_back_to_the_reference():
    for name, d, pid, v in unclean_bases():
        assert not d.valid, name
        if d.slices.has_effect(pid):
            # the local check alone would let this move through
            assert _moves_locally(d, {pid: v}), name
        got = outcome(fast, d, {pid: v})
        assert got[0] == "refused", name
        assert got == outcome(reference, d, {pid: v}), name


# ---------------------------------------------------------------------------
# splits: the local check against full validation


def split_outcome(d, z_id):
    try:
        out, _ = split_interior(d, z_id)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


def reference_path(d):
    """A fresh copy of d whose cached ``valid`` says False: split_interior
    takes its full-validation path on it, whatever d is."""
    ref = dataclasses.replace(d)
    vars(ref)["valid"] = False
    return ref


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
        return d.replace(slices=d.slices.replace_effects(drop=(gone,))), hint
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
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        z_id = split_target(data.draw, d, hint)
        got = split_outcome(d, z_id)
        assert got == split_outcome(reference_path(d), z_id), z_id
        if got[0] == "refused":
            continue
        out = got[1]
        check_accepted_split(d, z_id, out)
        # on a valid datum the local check accepts every split that full
        # validation accepts; the fallback is for data it cannot vouch for
        assert vars(out).get("valid") is d.valid, z_id
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
        bad = d.replace(slices=d.slices.replace_effects(drop=(z.id,), add=(closed,)))
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
    """global_split of d; full validations and replays run inside its
    splits, and the number of splits."""
    inside = []
    counts = count_full_checks(monkeypatch, lambda: bool(inside))
    split = normal_form.split_interior

    def splitting(*args):
        inside.append(args[1])
        try:
            return split(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(normal_form, "split_interior", splitting)
    _, _, script = normal_form.global_split(d)
    return counts, sum(1 for r in script if r.kind == "split")


def test_the_split_stage_validates_at_most_once(monkeypatch):
    unions = {
        "codim 1": union(*pieces(4, 5, (5, 7, 9), allow_boundary=False)),
        "codim 2": union(*pieces(2, 4, (0, 1, 6, 10, 12, 13))),
    }
    for name, d in unions.items():
        counts, splits = split_stage_counts(monkeypatch, d)
        assert splits >= 10, name
        assert counts["validate_datum"] <= 1, (name, counts)
        assert counts["replay"] <= 1, (name, counts)


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
