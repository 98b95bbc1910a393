"""Rewriting moves: rearrangement, cancellation, splitting, replay."""

import random
from fractions import Fraction

import pytest

from halfhandle.errors import (
    Blocked,
    BrokenTrajectoryExists,
    EdgeOrderViolation,
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
    PartialConfiguration,
    SwapBlocked,
    UnknownId,
)
from halfhandle.morse_data import Flags, Kind, validate_datum
from halfhandle.moves import (
    MoveRecord,
    apply_record,
    apply_script,
    assign_values,
    cancel_pair,
    rearrange_pair,
    realize_configuration,
    split_interior,
)
from halfhandle.slice_topology import EffectKind
from halfhandle.trajectory import Locus, broken_closure

from helpers import (
    attach_chain_pair,
    birth_merge_pair,
    comp,
    datum,
    edge,
    eff,
    internal_chain_pair,
    pt,
    replace_effects,
    split_death_pair,
)


# ---------------------------------------------------------------------------
# value assignment and rearrangement


def test_assign_values_moves_and_records():
    d = birth_merge_pair()
    moved, rec = assign_values(d, {"p": Fraction(1, 5), "q": Fraction(4, 5)})
    assert moved.point("p").value == Fraction(1, 5)
    assert moved.point("q").value == Fraction(4, 5)
    assert rec.kind == "rearrange" and rec.ids == ("p", "q")
    assert apply_record(d, rec) == moved
    assert d.point("p").value == Fraction(1, 3)  # input untouched


def test_assign_values_rejects_bad_targets():
    d = birth_merge_pair()
    with pytest.raises(UnknownId):
        assign_values(d, {"nope": Fraction(1, 2)})
    with pytest.raises(MoveError):
        assign_values(d, {"p": Fraction(2)})
    with pytest.raises(EdgeOrderViolation):
        assign_values(d, {"p": Fraction(3, 4)})  # above q, edge runs downhill


def test_assign_values_guards_replay():
    # no flow edge pins the pair, but q's merge needs the sphere born at p
    d = birth_merge_pair().replace(graph=broken_free_graph())
    with pytest.raises(InvalidEffect):
        assign_values(d, {"p": Fraction(3, 4)})


def broken_free_graph():
    from halfhandle.trajectory import TrajectoryGraph
    return TrajectoryGraph(())


def test_rearrange_pair_swaps_free_points():
    d = datum(
        4, 2,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 3))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )
    swapped, rec = rearrange_pair(d, "p", "q", Fraction(3, 4), Fraction(1, 4))
    assert swapped.point("p").value == Fraction(3, 4)
    assert swapped.point("q").value == Fraction(1, 4)
    assert validate_datum(swapped) == []


def test_rearrange_pair_refusals():
    d = birth_merge_pair()
    with pytest.raises(Blocked):  # the flow line pins the order
        rearrange_pair(d, "p", "q", Fraction(3, 4), Fraction(1, 4))
    with pytest.raises(MoveError):
        rearrange_pair(d, "q", "p", Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(MoveError):
        rearrange_pair(d, "p", "p", Fraction(1, 4), Fraction(3, 4))

    chain = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("x", Kind.INTERIOR, 2, Fraction(1, 2)),
         pt("q", Kind.INTERIOR, 3, Fraction(3, 4))],
        [edge("p", "x", None, Locus.INNER), edge("x", "q", None, Locus.INNER)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),)),
         eff("x", EffectKind.INTERNAL, ("c1",), (comp("c2", True),)),
         eff("q", EffectKind.DEATH, ("c2",), ())],
    )
    # the death of a wall component is nonsense; keep the datum honest
    assert any("die" in s for s in validate_datum(chain))


def test_rearrange_pair_blocked_through_a_chain():
    d = datum(
        5, 3,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("x", Kind.INTERIOR, 2, Fraction(1, 2)),
         pt("q", Kind.INTERIOR, 3, Fraction(3, 4))],
        [edge("p", "x", None, Locus.INNER), edge("x", "q", None, Locus.MEMBRANE)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c3", True),)),
         eff("x", EffectKind.INTERNAL, ("c3",), (comp("c4", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c5", True),))],
    )
    assert validate_datum(d) == []
    with pytest.raises(Blocked):
        rearrange_pair(d, "p", "q", Fraction(7, 8), Fraction(1, 8))


# ---------------------------------------------------------------------------
# realize_configuration


def free_three_points():
    return datum(
        5, 3,
        [comp("c0", True), comp("c1", True), comp("c2", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 2, Fraction(1, 2)),
         pt("r", Kind.INTERIOR, 3, Fraction(3, 4))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c3", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c4", True),)),
         eff("r", EffectKind.INTERNAL, ("c2",), (comp("c5", True),))],
    )


def test_realize_reaches_admissible_targets():
    d = free_three_points()
    want = {"p": Fraction(1, 10), "q": Fraction(2, 10), "r": Fraction(9, 10)}
    out, script = realize_configuration(d, want)
    assert out.values() == want
    assert validate_datum(out) == []
    assert apply_script(d, script) == out
    for rec in script:
        assert rec.kind == "rearrange"


def test_realize_noop_returns_empty_script():
    d = free_three_points()
    out, script = realize_configuration(d, d.values())
    assert out == d and script == []


def test_realize_precondition_errors():
    d = free_three_points()
    with pytest.raises(UnknownId):
        realize_configuration(d, {"p": Fraction(1, 2), "zz": Fraction(1, 3)})
    with pytest.raises(PartialConfiguration):
        realize_configuration(d, {"p": Fraction(1, 2)})
    with pytest.raises(Inadmissible):
        realize_configuration(d, {"p": Fraction(1, 2), "q": Fraction(1, 4),
                                  "r": Fraction(3, 4)})
    with pytest.raises(Inadmissible):
        realize_configuration(d, {"p": Fraction(2), "q": Fraction(3),
                                  "r": Fraction(4)})


def test_realize_swap_blocked_by_edge():
    # an equal-index pair pinned by a flow line; only codimension one
    # permits such an edge, and only there may equal indices trade places
    pinned = datum(
        3, 2,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(3, 4))],
        [edge("p", "q", None, Locus.MEMBRANE)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )
    assert validate_datum(pinned) == []
    with pytest.raises(SwapBlocked) as info:
        realize_configuration(pinned, {"p": Fraction(3, 4),
                                       "q": Fraction(1, 4)})
    assert info.value.pair == ("p", "q")


def test_realize_swap_blocked_by_starving_surgery():
    d = datum(
        4, 2,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(3, 4))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.MERGE, ("c1", "c2"), (comp("c3", True),))],
    )
    assert validate_datum(d) == []
    with pytest.raises(SwapBlocked) as info:
        realize_configuration(d, {"p": Fraction(3, 4), "q": Fraction(1, 4)})
    assert info.value.pair == ("q", "p")


def test_realize_codim_one_ignores_kind_tie_rule():
    bs = pt("s", Kind.BOUNDARY_STABLE, 1, Fraction(1, 4))
    bu = pt("u", Kind.BOUNDARY_UNSTABLE, 1, Fraction(3, 4))
    effects = [eff("s", EffectKind.BOUNDARY_ATTACH, ("c0",),
                   (comp("c2", True),)),
               eff("u", EffectKind.BOUNDARY_ATTACH, ("c1",),
                   (comp("c3", True),))]
    shallow = datum(3, 2, [comp("c0", True), comp("c1", True)],
                    [bs, bu], [], effects)
    flipped = {"s": Fraction(3, 4), "u": Fraction(1, 4)}
    out, _ = realize_configuration(shallow, flipped)
    assert out.values() == flipped

    deep = datum(4, 2, [comp("c0", True), comp("c1", True)],
                 [bs, bu], [], effects)
    with pytest.raises(Inadmissible):
        realize_configuration(deep, flipped)


# ---------------------------------------------------------------------------
# cancellation


def test_cancel_each_inverse_family():
    for d in (birth_merge_pair(), internal_chain_pair(),
              split_death_pair(),
              attach_chain_pair(Kind.BOUNDARY_STABLE, 1),
              attach_chain_pair(Kind.BOUNDARY_UNSTABLE, 0)):
        assert validate_datum(d) == []
        out, rec = cancel_pair(d, "p", "q")
        assert validate_datum(out) == []
        assert len(out.points) == len(d.points) - 2
        assert rec == MoveRecord("cancel", ("p", "q"))
        assert apply_record(d, rec) == out
        broken_closure(out.graph)  # stays acyclic


def test_cancel_renames_the_surviving_component():
    d = birth_merge_pair()
    extra = d.replace(
        points=d.points + (pt("r", Kind.INTERIOR, 1, Fraction(5, 6)),),
        slices=replace_effects(d.slices, add=(
            eff("r", EffectKind.INTERNAL, ("c2",), (comp("c3", True),)),)),
    )
    assert validate_datum(extra) == []
    out, _ = cancel_pair(extra, "p", "q")
    assert out.slices.effect_for("r").inputs == ("c0",)
    assert validate_datum(out) == []


def test_cancel_induces_edges_for_cut_chains():
    # x meets the upper point, the lower point meets y: after the pair goes,
    # an unknown-count line x -> y stands in for whatever flow survives
    base = internal_chain_pair(n=4, k=2)
    x = pt("x", Kind.INTERIOR, 1, Fraction(1, 6))
    y = pt("y", Kind.INTERIOR, 4, Fraction(5, 6))
    d = base.replace(
        points=base.points + (x, y),
        graph=base.graph.with_edges([
            edge("x", "q", None, Locus.INNER),
            edge("p", "y", None, Locus.INNER)]),
        slices=replace_effects(base.slices, add=(
            eff("x", EffectKind.INTERNAL, ("c0x",), (comp("c1x", True),)),
            eff("y", EffectKind.INTERNAL, ("c1x",), (comp("c2x", True),)))),
    )
    d = d.replace(slices=type(d.slices)(
        d.slices.bottom + (comp("c0x", True),), d.slices.effects))
    assert validate_datum(d) == []
    out, _ = cancel_pair(d, "p", "q")
    induced = out.graph.edge("x", "y")
    assert induced is not None
    assert induced.count is None
    assert induced.locus is Locus.INNER
    assert validate_datum(out) == []


def test_cancel_refusals_name_the_side_condition():
    d = birth_merge_pair()
    with pytest.raises(IndexMismatch):
        cancel_pair(d, "q", "p")

    mixed = attach_chain_pair(Kind.BOUNDARY_STABLE, 1)
    crossed = mixed.replace(points=(
        pt("p", Kind.BOUNDARY_STABLE, 1, Fraction(1, 3)),
        pt("q", Kind.BOUNDARY_UNSTABLE, 2, Fraction(2, 3))))
    with pytest.raises(KindMismatch):
        cancel_pair(crossed, "p", "q")

    no_edge = birth_merge_pair().replace(graph=broken_free_graph())
    with pytest.raises(NotSingleTrajectory):
        cancel_pair(no_edge, "p", "q")

    from halfhandle.trajectory import TrajectoryGraph
    two_lines = birth_merge_pair().replace(
        graph=TrajectoryGraph((edge("p", "q", 2, Locus.INNER),)))
    with pytest.raises(NotSingleTrajectory):
        cancel_pair(two_lines, "p", "q")

    sideways = birth_merge_pair().replace(
        graph=TrajectoryGraph((edge("p", "q", 1, Locus.MEMBRANE),)))
    with pytest.raises(LocusViolation):
        cancel_pair(sideways, "p", "q")

    wall_pair = attach_chain_pair(Kind.BOUNDARY_STABLE, 1).replace(
        graph=TrajectoryGraph((edge("p", "q", 1, Locus.MEMBRANE),)))
    with pytest.raises(LocusViolation):
        cancel_pair(wall_pair, "p", "q")


def test_cancel_refuses_extra_broken_chain():
    # genericity leaves exactly one passage at equal index: a stable point
    # below an unstable one, so the parallel chain runs through the wall
    base = attach_chain_pair(Kind.BOUNDARY_STABLE, 1, n=3)
    mid = pt("x", Kind.BOUNDARY_UNSTABLE, 1, Fraction(1, 2))
    d = base.replace(
        points=base.points + (mid,),
        graph=base.graph.with_edges([
            edge("p", "x", None, Locus.WALL),
            edge("x", "q", None, Locus.WALL)]),
        slices=replace_effects(base.slices, add=(
            eff("x", EffectKind.BOUNDARY_ATTACH, ("c9",),
                (comp("c8", True),)),)),
    )
    d = d.replace(slices=type(d.slices)(
        d.slices.bottom + (comp("c9", True),), d.slices.effects))
    assert validate_datum(d) == []
    with pytest.raises(BrokenTrajectoryExists):
        cancel_pair(d, "p", "q")


def test_cancel_refuses_non_inverse_effects():
    # the merge eats two bottom components, not the newborn sphere
    d = datum(
        4, 2,
        [comp("c0", True), comp("c3", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.MERGE, ("c0", "c3"), (comp("c2", True),))],
        Flags(no_closed_cobordism=False, no_closed_top=False),
    )
    assert validate_datum(d) == []
    with pytest.raises(InvalidEffect):
        cancel_pair(d, "p", "q")

    parallel = datum(
        5, 3,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 2, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 3, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )
    assert validate_datum(parallel) == []
    with pytest.raises(InvalidEffect):
        cancel_pair(parallel, "p", "q")


def test_cancel_refuses_wall_bit_mismatch():
    d = datum(
        5, 3,
        [comp("c0", True)],
        [pt("p", Kind.BOUNDARY_UNSTABLE, 0, Fraction(1, 3)),
         pt("q", Kind.BOUNDARY_UNSTABLE, 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.WALL)],
        [eff("p", EffectKind.BOUNDARY_ATTACH, ("c0",), (comp("c1", True),)),
         eff("q", EffectKind.BOUNDARY_ATTACH, ("c1",), (comp("c2", False),))],
        Flags(no_closed_top=False),
    )
    assert validate_datum(d) == []
    with pytest.raises(InvalidEffect):
        cancel_pair(d, "p", "q")


# ---------------------------------------------------------------------------
# splitting


def test_split_replaces_point_with_boundary_pair():
    d = internal_chain_pair(n=3, k=2)
    out, rec = split_interior(d, "p")
    assert validate_datum(out) == []
    assert not out.has_point("p")
    zs, zu = out.point("ps"), out.point("pu")
    assert zs.kind is Kind.BOUNDARY_STABLE and zs.index == 2
    assert zu.kind is Kind.BOUNDARY_UNSTABLE and zu.index == 2
    assert zs.value < Fraction(1, 3) < zu.value
    link = out.graph.edge("ps", "pu")
    assert link is not None and link.count == 1 and link.locus is Locus.WALL
    assert rec == MoveRecord("split", ("p",))
    assert apply_record(d, rec) == out


def test_split_moves_edges_to_the_right_half():
    d = internal_chain_pair(n=3, k=2)
    out, _ = split_interior(d, "p")
    assert out.graph.edge("pu", "q") is not None  # outgoing leaves the top
    out2, _ = split_interior(out, "q")
    assert out2.graph.edge("pu", "qs") is not None  # incoming enters the bottom
    assert validate_datum(out2) == []


def test_split_multiset_change():
    d = internal_chain_pair(n=3, k=2)
    before = sorted((p.kind, p.index) for p in d.points)
    out, _ = split_interior(d, "p")
    after = sorted((p.kind, p.index) for p in out.points)
    before.remove((Kind.INTERIOR, 2))
    before.extend([(Kind.BOUNDARY_STABLE, 2), (Kind.BOUNDARY_UNSTABLE, 2)])
    assert after == sorted(before)


def test_split_refusals():
    d = birth_merge_pair(n=2)
    with pytest.raises(ExtremalIndex):
        split_interior(d, "p")  # index 0
    with pytest.raises(NotInterior):
        split_interior(attach_chain_pair(Kind.BOUNDARY_STABLE, 1), "p")
    with pytest.raises(UnknownId):
        split_interior(d, "zz")

    closed_surgery = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(1, 2)),
         pt("r", Kind.INTERIOR, 3, Fraction(3, 4))],
        [edge("p", "q", None, Locus.INNER), edge("q", "r", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", False),)),
         eff("r", EffectKind.DEATH, ("c2",), ())],
        Flags(no_closed_cobordism=False),
    )
    assert validate_datum(closed_surgery) == []
    with pytest.raises(NotJoinable):
        split_interior(closed_surgery, "q")

    shared = internal_chain_pair(n=3, k=2)
    tied = shared.replace(
        points=(pt("p", Kind.INTERIOR, 2, Fraction(1, 3)),
                pt("q", Kind.INTERIOR, 3, Fraction(1, 3, ))),
        graph=broken_free_graph())
    tied = tied.replace(points=(
        pt("p", Kind.INTERIOR, 2, Fraction(1, 3)),
        pt("q", Kind.INTERIOR, 3, Fraction(1, 3))))
    assert validate_datum(tied) == []
    with pytest.raises(MoveError):
        split_interior(tied, "p")


def test_split_merge_routes_the_latest_wall_input():
    d = datum(
        4, 2,
        [comp("c0", True), comp("c1", True)],
        [pt("w", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("z", Kind.INTERIOR, 1, Fraction(1, 2))],
        [],
        [eff("w", EffectKind.INTERNAL, ("c1",), (comp("c4", True),)),
         eff("z", EffectKind.MERGE, ("c0", "c4"), (comp("c5", True),))],
    )
    assert validate_datum(d) == []
    out, _ = split_interior(d, "z")
    e_s = out.slices.effect_for("zs")
    e_u = out.slices.effect_for("zu")
    # c4 was made last, so it is the witness riding the unstable half
    assert e_s.inputs == ("c0",)
    assert "c4" in e_u.inputs
    assert e_u.outputs[0].id == "c5"
    assert validate_datum(out) == []


def test_split_split_keeps_the_closed_half_on_the_unstable_side():
    d = datum(
        4, 2,
        [comp("c0", True)],
        [pt("z", Kind.INTERIOR, 2, Fraction(1, 2)),
         pt("w", Kind.INTERIOR, 3, Fraction(3, 4))],
        [edge("z", "w", 1, Locus.INNER)],
        [eff("z", EffectKind.SPLIT, ("c0",),
             (comp("c1", False), comp("c2", True))),
         eff("w", EffectKind.DEATH, ("c1",), ())],
    )
    assert validate_datum(d) == []
    out, _ = split_interior(d, "z")
    e_s = out.slices.effect_for("zs")
    e_u = out.slices.effect_for("zu")
    assert [c.id for c in e_s.outputs if c.id == "c2"]  # wall half leaves low
    assert e_u.outputs[0].id == "c1"  # closed half appears at the top
    assert validate_datum(out) == []


def test_split_value_offsets_leave_neighbours_alone():
    d = free_three_points()
    out, _ = split_interior(d, "q")
    values = sorted(p.value for p in out.points)
    assert values[0] == Fraction(1, 4)
    assert values[-1] == Fraction(3, 4)
    zs, zu = out.point("qs").value, out.point("qu").value
    assert Fraction(1, 4) < zs < Fraction(1, 2) < zu < Fraction(3, 4)


def test_split_fresh_ids_avoid_collisions():
    d = internal_chain_pair(n=3, k=2)
    taken = d.replace(
        points=d.points + (pt("ps", Kind.INTERIOR, 2, Fraction(1, 6)),),
        slices=replace_effects(d.slices, add=(
            eff("ps", EffectKind.INTERNAL, ("c0y",), (comp("c1z", True),)),)),
    )
    taken = taken.replace(slices=type(taken.slices)(
        taken.slices.bottom + (comp("c0y", True),), taken.slices.effects))
    assert validate_datum(taken) == []
    out, _ = split_interior(taken, "p")
    assert out.has_point("ps_")  # suffix keeps the id fresh
    assert validate_datum(out) == []


# ---------------------------------------------------------------------------
# scripts


def test_apply_script_replays_a_whole_session():
    d = internal_chain_pair(n=3, k=2)
    out1, rec1 = split_interior(d, "p")
    out2, rec2 = assign_values(out1, {"q": Fraction(7, 8)})
    out3, rec3 = split_interior(out2, "q")
    assert apply_script(d, [rec1, rec2, rec3]) == out3


def test_move_record_validation():
    with pytest.raises(Exception):
        MoveRecord("teleport", ("p",))
    with pytest.raises(Exception):
        MoveRecord("rearrange", ("p", "q"), (Fraction(1, 2),))
