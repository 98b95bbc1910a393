"""Level set effects: the validity table, replay, flags, joinability."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from halfhandle.errors import (
    InvalidEffect,
    NotInterior,
    UnknownId,
    ValidationError,
)
from halfhandle.morse_data import (
    CriticalPoint,
    Flags,
    Kind,
    index_bounds,
    validate_datum,
)
from halfhandle.slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComponent,
    apply_effect,
    effect_row_issues,
    joinable_to_wall,
    replay,
)

from helpers import (
    comp, datum, edge, eff, level_slices, no_closed_components, pt, replace_effects,
)
from halfhandle.trajectory import Locus


def legal_row(kind, k, n, ekind, in_bits, out_bits):
    """Independent statement of the per-point effect table.

    in_bits / out_bits are the wall bits of consumed / created components.
    """
    if kind is Kind.INTERIOR:
        if k == 0:
            return ekind is EffectKind.BIRTH and in_bits == () \
                and out_bits == (False,)
        if k == n + 1:
            return ekind is EffectKind.DEATH and out_bits == () \
                and len(in_bits) == 1 and not in_bits[0]
        if ekind is EffectKind.INTERNAL:
            return len(in_bits) == 1 and out_bits == (in_bits[0],)
        if ekind is EffectKind.MERGE:
            return k == 1 and len(in_bits) == 2 and len(out_bits) == 1 \
                and out_bits[0] == (in_bits[0] or in_bits[1])
        if ekind is EffectKind.SPLIT:
            return k == n and len(in_bits) == 1 and len(out_bits) == 2 \
                and (out_bits[0] or out_bits[1]) == in_bits[0]
        return False
    if ekind is not EffectKind.BOUNDARY_ATTACH:
        return False
    if kind is Kind.BOUNDARY_STABLE:
        if len(in_bits) != 1 or len(out_bits) not in (1, 2):
            return False
        if len(out_bits) == 2 and k != n:
            return False
        return all(out_bits)
    if len(out_bits) != 1 or len(in_bits) not in (1, 2):
        return False
    if len(in_bits) == 2 and k != 1:
        return False
    if not all(in_bits):
        return False
    if len(in_bits) == 2 and not out_bits[0]:
        return False
    return True


def bit_shapes(max_len, values=(False, True)):
    for size in range(max_len + 1):
        for bits in itertools.product(values, repeat=size):
            yield bits


def test_effect_rows_match_table_exhaustively():
    checked = 0
    for n in (1, 2, 3):
        for kind in Kind:
            lo, hi = index_bounds(kind, n)
            for k in range(lo, hi + 1):
                point = CriticalPoint("z", kind, k, Fraction(1, 2))
                for ekind in EffectKind:
                    for in_bits in bit_shapes(2):
                        state = {"x%d" % i: bit
                                 for i, bit in enumerate(in_bits)}
                        inputs = tuple(sorted(state))
                        for out_bits in bit_shapes(2):
                            outputs = tuple(
                                SliceComponent("y%d" % i, bit)
                                for i, bit in enumerate(out_bits))
                            effect = ComponentEffect("z", ekind, inputs,
                                                     outputs)
                            issues = effect_row_issues(point, n, effect,
                                                       state)
                            want = legal_row(kind, k, n, ekind, in_bits,
                                             out_bits)
                            assert (issues == []) == want, (
                                n, kind, k, ekind, in_bits, out_bits, issues)
                            checked += 1
    assert checked > 5000


def test_effect_rows_match_the_pinned_digest():
    # every issue list over the cells below, hashed in enumeration order;
    # the digest was taken from the per-kind branches the interior rows
    # replaced.  Inputs may be missing from the state (None).
    rows = []
    for ekind in EffectKind:
        for in_bits in bit_shapes(3, (False, True, None)):
            inputs = tuple("x%d" % i for i in range(len(in_bits)))
            state = {cid: bit for cid, bit in zip(inputs, in_bits)
                     if bit is not None}
            for out_bits in bit_shapes(3):
                outputs = tuple(SliceComponent("y%d" % i, bit)
                                for i, bit in enumerate(out_bits))
                rows.append((ComponentEffect("z", ekind, inputs, outputs),
                             state))
    digest = hashlib.sha256()
    checked = 0
    for n in (1, 2, 3, 4):
        for kind in Kind:
            for k in range(n + 3):  # one index past the range of every kind
                point = CriticalPoint("z", kind, k, Fraction(1, 2))
                for effect, state in rows:
                    issues = effect_row_issues(point, n, effect, state)
                    digest.update(("%r\n" % (issues,)).encode())
                    checked += 1
    assert checked == 237600
    assert digest.hexdigest() == (
        "2e1f4c2490ff5272ce251fd5b6323659e8f99c829fc28185dd959a4aa283a893")


def test_apply_effect_guards_liveness():
    merge = ComponentEffect("z", EffectKind.MERGE, ("a", "b"),
                            (SliceComponent("c", True),))
    out = apply_effect({"a": True, "b": False}, merge)
    assert out == {"c": True}
    with pytest.raises(InvalidEffect):
        apply_effect({"a": True}, merge)
    rebuild = ComponentEffect("z", EffectKind.INTERNAL, ("a",),
                              (SliceComponent("b", True),))
    with pytest.raises(InvalidEffect):
        apply_effect({"a": True, "b": False}, rebuild)


def test_apply_effect_works_in_place_and_refuses_without_a_change():
    state = {"a": True, "b": False}
    merge = ComponentEffect("z", EffectKind.MERGE, ("a", "b"),
                            (SliceComponent("c", True),))
    assert apply_effect(state, merge) is state
    assert state == {"c": True}
    # an input missing after a present one, and an output already live:
    # both are refused before the state changes
    for before, effect in (
            ({"a": True}, merge),
            ({"a": True, "b": False},
             ComponentEffect("z", EffectKind.INTERNAL, ("a",),
                             (SliceComponent("b", True),)))):
        state = dict(before)
        with pytest.raises(InvalidEffect):
            apply_effect(state, effect)
        assert state == before
    # an output may take the id of an input it consumes
    state = {"a": False}
    renew = ComponentEffect("z", EffectKind.INTERNAL, ("a",),
                            (SliceComponent("a", True),))
    assert apply_effect(state, renew) == {"a": True}


def two_step_datum():
    return datum(
        4, 2,
        [comp("c0", True), comp("c1", False)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 2, Fraction(3, 4))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.MERGE, ("c0", "c1"), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c2",), (comp("c3", True),))],
        Flags(no_closed_bottom=False),
    )


def test_replay_order_and_determinism():
    d = two_step_datum()
    issues, final = replay(d.ambient, d.points, d.slices)
    assert issues == []
    assert final == {"c3": True}
    again = replay(d.ambient, d.points, d.slices)
    assert again == (issues, final)

    def below(pid):  # the state just below a point: replay what is under it
        z = d.point(pid)
        return replay(d.ambient, [p for p in d.points if p.value < z.value],
                      d.slices)

    assert below("p") == ([], {"c0": True, "c1": False})
    assert below("q") == ([], {"c2": True})


def test_replay_reports_missing_effect():
    d = two_step_datum()
    stripped = replace_effects(d.slices, drop=("q",))
    issues, _ = replay(d.ambient, d.points, stripped)
    assert any("no slice effect" in s for s in issues)


def test_state_at_level_and_slices():
    d = two_step_datum()
    assert not no_closed_components(d.points, d.slices, Fraction(1, 8))
    assert no_closed_components(d.points, d.slices, Fraction(1, 2))
    slices = level_slices(d.points, d.slices)
    assert [(s.lo, s.hi) for s in slices] == [
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1)),
    ]
    assert slices[1].components == (SliceComponent("c2", True),)


def test_joinable_to_wall():
    d = two_step_datum()
    assert joinable_to_wall(d.ambient, d.points, d.slices, "p")
    assert joinable_to_wall(d.ambient, d.points, d.slices, "q")
    with pytest.raises(UnknownId):
        joinable_to_wall(d.ambient, d.points, d.slices, "zz")
    with pytest.raises(ValidationError, match="slice replay failed"):
        joinable_to_wall(d.ambient, d.points,
                         replace_effects(d.slices, drop=("p",)), "q")

    away = datum(
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
    assert validate_datum(away) == []
    assert not joinable_to_wall(away.ambient, away.points, away.slices, "p")
    assert not joinable_to_wall(away.ambient, away.points, away.slices, "q")
    assert not joinable_to_wall(away.ambient, away.points, away.slices, "r")
    s = away.point("p")
    with pytest.raises(NotInterior):
        joinable_to_wall(away.ambient,
                         (CriticalPoint("b", Kind.BOUNDARY_STABLE, 1,
                                        Fraction(7, 8)),) + away.points,
                         away.slices, "b")


def test_component_ids_are_globally_fresh():
    d = two_step_datum()
    reused = replace_effects(
        d.slices, drop=("q",),
        add=(eff("q", EffectKind.INTERNAL, ("c2",), (comp("c1", True),)),))
    issues = validate_datum(d.replace(slices=reused))
    assert any("reused" in s for s in issues)


def test_flag_violations_reported():
    open_bottom = two_step_datum()  # c1 closed in the bottom slice
    strict = open_bottom.replace(flags=Flags())
    issues = validate_datum(strict)
    assert any("no_closed_bottom" in s for s in issues)

    floater = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 3))],
        [],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),))],
        Flags(no_closed_cobordism=False, no_closed_top=False),
    )
    assert validate_datum(floater) == []
    top = validate_datum(floater.replace(
        flags=Flags(no_closed_cobordism=False, no_closed_top=True)))
    assert any("no_closed_top" in s for s in top)
    # a closed slice component that reaches the top boundary is not a
    # closed piece of the cobordism, so the whole-cobordism flag is happy
    whole = validate_datum(floater.replace(
        flags=Flags(no_closed_cobordism=True, no_closed_top=False)))
    assert whole == []


def test_closed_class_detection_uses_whole_lifetime():
    # the sphere is born closed but merges into a wall component, so no
    # closed piece of cobordism exists even though a closed slice does
    d = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(3, 4))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.MERGE, ("c0", "c1"), (comp("c2", True),))],
        Flags(),
    )
    assert validate_datum(d) == []

    # born closed, dies closed, never touches: one closed class
    lonely = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 3, Fraction(3, 4))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.DEATH, ("c1",), ())],
        Flags(no_closed_cobordism=False),
    )
    assert validate_datum(lonely) == []
    issues = validate_datum(lonely.replace(flags=Flags()))
    assert any("closed piece" in s for s in issues)
