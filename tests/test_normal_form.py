"""Scheduling, bands, joinability, decompositions, and the full driver."""

from dataclasses import replace
from fractions import Fraction

import pytest

from halfhandle.cli_io import GeneratorSpec, generate
from halfhandle.errors import (
    BadLevels,
    PipelineBlocked,
    StuckNoJoinablePoint,
    SwapBlocked,
    ValidationError,
)
from halfhandle.morse_data import (
    Flags,
    Kind,
    index_bounds,
    is_admissible,
    validate_datum,
)
from halfhandle.moves import apply_script, assign_values
from halfhandle.normal_form import (
    Decomposition,
    Segment,
    _separate_middle_levels,
    band_levels,
    derive_half_handle_decomposition,
    derive_monotone_decomposition,
    ensure_joinable,
    global_split,
    schedule_levels,
    scheduled_rank,
    tsa_check,
    verify_decomposition,
)
from halfhandle.slice_topology import EffectKind
from halfhandle.trajectory import Locus

from helpers import assert_records_as_checked, comp, datum, edge, eff, pt


def full_population(n, m):
    """One point of every legal (kind, index) cell, already in rank order."""
    cells = []
    for kind in Kind:
        lo, hi = index_bounds(kind, n)
        for k in range(lo, hi + 1):
            cells.append((kind, k))
    cells.sort(key=lambda cell: scheduled_rank(*cell))
    points = []
    effects = []
    bottoms = []
    for i, (kind, k) in enumerate(cells):
        pid = "p%02d" % i
        points.append(pt(pid, kind, k, Fraction(i + 1, len(cells) + 1)))
        cin = comp("b%02d" % i, True)
        bottoms.append(cin)
        if kind is Kind.INTERIOR and k == 0:
            effects.append(eff(pid, EffectKind.BIRTH, (),
                               (comp("o%02d" % i, False),)))
        elif kind is Kind.INTERIOR and k == n + 1:
            effects.append(eff(pid, EffectKind.DEATH, ("dead",), ()))
        elif kind is Kind.INTERIOR:
            effects.append(eff(pid, EffectKind.INTERNAL, (cin.id,),
                               (comp("o%02d" % i, True),)))
        else:
            effects.append(eff(pid, EffectKind.BOUNDARY_ATTACH, (cin.id,),
                               (comp("o%02d" % i, True),)))
    # the death needs a closed component nobody else wants, and the
    # index-0 birth leaves a closed one at the top
    bottoms.append(comp("dead", False))
    return datum(m, n, bottoms, points, [], effects,
                 Flags(no_closed_cobordism=False, no_closed_bottom=False,
                       no_closed_top=False))


def test_schedule_levels_exact_fractions():
    for n in range(1, 7):
        d = full_population(n, n + 2)
        levels = schedule_levels(d)
        denom = 3 * n + 6
        offsets = {Kind.BOUNDARY_STABLE: 1, Kind.INTERIOR: 2,
                   Kind.BOUNDARY_UNSTABLE: 3}
        for p in d.points:
            assert levels[p.id] == Fraction(
                3 * p.index + offsets[p.kind], denom)
        assert is_admissible(d.points, levels)


def test_scheduled_rank_orders_kinds_within_an_index():
    for k in range(0, 5):
        s = scheduled_rank(Kind.BOUNDARY_STABLE, k)
        i = scheduled_rank(Kind.INTERIOR, k)
        u = scheduled_rank(Kind.BOUNDARY_UNSTABLE, k)
        assert s < i < u < scheduled_rank(Kind.BOUNDARY_STABLE, k + 1)


def test_band_levels_collapse_at_n_one():
    a, c, d, b = band_levels(1)
    assert (a, c, d, b) == (Fraction(1, 2), Fraction(11, 18),
                            Fraction(1, 2), Fraction(11, 18))
    for n in range(2, 7):
        a, c, d, b = band_levels(n)
        assert 0 < a < c <= d < b < 1


def scheduled(n, m):
    from halfhandle.moves import realize_configuration
    d = full_population(n, m)
    out, _ = realize_configuration(d, schedule_levels(d))
    return out


def test_tsa_check_accepts_the_schedule():
    for n in range(1, 6):
        d = scheduled(n, n + 2)
        assert tsa_check(d, *band_levels(n))


def test_tsa_check_rejects_misplaced_points():
    n = 2
    d = scheduled(n, n + 2)
    a, c, dd, b = band_levels(n)
    # drag an interior index-1 point out of its band
    moved = d.replace(points=tuple(
        p if not (p.kind is Kind.INTERIOR and p.index == 1)
        else pt(p.id, p.kind, p.index, Fraction(1, 100)) for p in d.points))
    assert not tsa_check(moved, a, c, dd, b)
    # a point sitting exactly on a cut fails too
    on_cut = d.replace(points=tuple(
        p if not (p.kind is Kind.INTERIOR and p.index == 1)
        else pt(p.id, p.kind, p.index, a) for p in d.points))
    assert not tsa_check(on_cut, a, c, dd, b)
    with pytest.raises(BadLevels):
        tsa_check(d, c, a, dd, b)
    with pytest.raises(BadLevels):  # n > 1 needs the low cut pair first
        tsa_check(d, a, dd, c, b)


def test_tsa_check_wants_shared_join_levels():
    n = 2
    base = datum(
        4, n,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(19, 48)),
         pt("q", Kind.INTERIOR, 1, Fraction(20, 48))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )
    assert not tsa_check(base, *band_levels(n))  # distinct join levels
    together = base.replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(19, 48)) for p in base.points))
    assert tsa_check(together, *band_levels(n))


def test_ensure_joinable_separates_and_checks_wall_contact():
    n = 2
    shared = Fraction(scheduled_rank(Kind.INTERIOR, 1), 3 * n + 6)
    d = datum(
        4, n,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, shared),
         pt("q", Kind.INTERIOR, 1, shared)],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )
    assert validate_datum(d) == []
    out, script = ensure_joinable(d)
    assert validate_datum(out) == []
    values = sorted(p.value for p in out.points)
    a, c, _, _ = band_levels(n)
    assert values[0] != values[1]
    assert all(a < v <= shared for v in values)
    assert apply_script(d, script) == out
    assert_records_as_checked(script)


def test_ensure_joinable_orders_producers_below_consumers():
    n = 2
    shared = Fraction(scheduled_rank(Kind.INTERIOR, 1), 3 * n + 6)
    d = datum(
        4, n,
        [comp("c0", True), comp("c1", True)],
        [pt("a", Kind.INTERIOR, 1, shared),
         pt("b", Kind.INTERIOR, 1, shared)],
        [],
        [eff("a", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("b", EffectKind.MERGE, ("c1", "c2"), (comp("c3", True),))],
    )
    assert validate_datum(d) == []
    out, _ = ensure_joinable(d)
    assert out.point("a").value < out.point("b").value
    assert validate_datum(out) == []


def test_ensure_joinable_requires_band_structure():
    d = full_population(2, 4)  # unscheduled values
    with pytest.raises(BadLevels):
        ensure_joinable(d)


def test_ensure_joinable_rejects_closed_surgery():
    n = 2
    levels = {"p": Fraction(scheduled_rank(Kind.INTERIOR, 0), 3 * n + 6),
              "q": Fraction(scheduled_rank(Kind.INTERIOR, 1), 3 * n + 6),
              "r": Fraction(scheduled_rank(Kind.INTERIOR, 3), 3 * n + 6)}
    d = datum(
        4, n,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, levels["p"]),
         pt("q", Kind.INTERIOR, 1, levels["q"]),
         pt("r", Kind.INTERIOR, 3, levels["r"])],
        [edge("p", "q", None, Locus.INNER), edge("q", "r", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", False),)),
         eff("r", EffectKind.DEATH, ("c2",), ())],
        Flags(no_closed_cobordism=False),
    )
    assert validate_datum(d) == []
    with pytest.raises(StuckNoJoinablePoint):
        ensure_joinable(d)


# ---------------------------------------------------------------------------
# decompositions


def two_point_input():
    return datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 5)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 5))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.MERGE, ("c0", "c1"), (comp("c2", True),))],
    )


def test_global_split_two_point_example():
    d = two_point_input()
    assert derive_half_handle_decomposition(d) is None
    out, dec, script = global_split(d)
    assert validate_datum(out) == []
    assert verify_decomposition(out, dec)
    assert apply_script(d, script) == out
    assert out.interior_points(1, 2) == []

    # n = 2: eight segments at exact eighths
    assert dec.style == "half_handle"
    assert [(s.lo, s.hi) for s in dec.segments] == [
        (Fraction(j, 8), Fraction(j + 1, 8)) for j in range(8)]

    assert out.point("p").value == Fraction(1, 16)
    zs, zu = out.point("qs"), out.point("qu")
    assert zs.kind is Kind.BOUNDARY_STABLE and zs.index == 1
    assert zu.kind is Kind.BOUNDARY_UNSTABLE and zu.index == 1
    assert zs.value == Fraction(5, 16)
    assert zu.value == Fraction(7, 16)
    by_label = {s.label: s for s in dec.segments}
    assert by_label["-1/2"].point_ids == ("p",)
    assert by_label["1/2"].point_ids == ("qs",)
    assert by_label["1"].point_ids == ("qu",)


def test_global_split_idempotent():
    d = two_point_input()
    out, dec, script = global_split(d)
    again, dec2, script2 = global_split(out)
    assert again == out and dec2 == dec and script2 == []


def test_global_split_needs_the_flags():
    d = two_point_input().replace(flags=Flags(no_closed_top=False))
    assert validate_datum(d) == []
    with pytest.raises(PipelineBlocked) as info:
        global_split(d)
    assert info.value.stage == "hypotheses"
    # an invalid datum is refused before any stage, the hypotheses included
    tied = d.replace(points=tuple(pt(p.id, p.kind, p.index, Fraction(1, 2))
                                  for p in d.points))
    with pytest.raises(ValidationError) as invalid:
        global_split(tied)
    assert invalid.value.issues == validate_datum(tied) != []


def test_global_split_blocks_on_unjoinable_point():
    d = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 5)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 5)),
         pt("r", Kind.INTERIOR, 3, Fraction(3, 5)),
         pt("w", Kind.INTERIOR, 0, Fraction(1, 10))],
        [edge("p", "q", None, Locus.INNER), edge("q", "r", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", False),)),
         eff("r", EffectKind.DEATH, ("c2",), ()),
         eff("w", EffectKind.BIRTH, (), (comp("c3", False),))],
        Flags(no_closed_cobordism=False, no_closed_top=False),
    )
    assert validate_datum(d) == []
    strict = d.replace(flags=Flags())
    with pytest.raises(ValidationError) as invalid:
        global_split(strict)  # the datum has closed parts the flags deny
    assert invalid.value.issues == validate_datum(strict)
    assert any("closed piece" in issue for issue in invalid.value.issues)
    with pytest.raises(PipelineBlocked) as info:
        global_split(d.replace(flags=Flags(no_closed_cobordism=False,
                                           no_closed_top=False)))
    assert info.value.stage == "hypotheses"


def test_global_split_names_the_stage_that_refuses():
    # both data are valid with every flag set, so only a stage can refuse
    closed_surgery = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(1, 2)),
         pt("r", Kind.INTERIOR, 1, Fraction(3, 4))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", False),)),
         eff("r", EffectKind.MERGE, ("c0", "c2"), (comp("c3", True),))],
    )
    split_then_merge = datum(
        4, 3,
        [comp("c0", True)],
        [pt("a", Kind.INTERIOR, 3, Fraction(1, 3)),
         pt("b", Kind.INTERIOR, 1, Fraction(2, 3))],
        [],
        [eff("a", EffectKind.SPLIT, ("c0",),
             (comp("c1", True), comp("c2", True))),
         eff("b", EffectKind.MERGE, ("c1", "c2"), (comp("c3", True),))],
    )
    for d, stage, cause in ((closed_surgery, "joinability", StuckNoJoinablePoint),
                            (split_then_merge, "order", SwapBlocked)):
        assert validate_datum(d) == [], stage
        with pytest.raises(PipelineBlocked) as info:
            global_split(d)
        assert info.value.stage == stage
        assert type(info.value.cause) is cause


def test_verify_decomposition_rejects_tampering():
    d = two_point_input()
    out, dec, _ = global_split(d)
    assert verify_decomposition(out, dec)

    segs = list(dec.segments)
    shifted = segs[:]
    shifted[0] = Segment(segs[0].label, segs[0].lo, Fraction(1, 9),
                         segs[0].point_ids, segs[0].cert)
    assert not verify_decomposition(out, Decomposition("half_handle",
                                                       tuple(shifted)))

    occupied = next(i for i, s in enumerate(segs) if s.point_ids)
    dropped = segs[:]
    dropped[occupied] = Segment(segs[occupied].label, segs[occupied].lo,
                                segs[occupied].hi, (), segs[occupied].cert)
    assert not verify_decomposition(out, Decomposition("half_handle",
                                                       tuple(dropped)))

    relabeled = segs[:]
    relabeled[0] = Segment("0", segs[0].lo, segs[0].hi, segs[0].point_ids,
                           segs[0].cert)
    assert not verify_decomposition(out, Decomposition("half_handle",
                                                       tuple(relabeled)))

    assert not verify_decomposition(out, Decomposition("monotone",
                                                       dec.segments))
    assert not verify_decomposition(out, Decomposition("half_handle", ()))


def test_verify_decomposition_refuses_every_fault():
    out, dec, _ = global_split(two_point_input())  # n = 2, eight segments
    segs = list(dec.segments)
    assert [s.point_ids for s in segs[:2]] == [("p",), ()]

    def half(*changes, data=out):
        tampered = segs[:]
        for i, kw in changes:
            tampered[i] = replace(tampered[i], **kw)
        return data, Decomposition("half_handle", tuple(tampered))

    # p moved into the empty segment "0" by value and by listing
    moved_p = out.replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(3, 16) if p.id == "p" else p.value)
        for p in out.points))
    merged = segs[:1] + [replace(segs[1], hi=segs[2].hi,
                                 point_ids=segs[2].point_ids)] + segs[3:]
    cases = [
        ("unknown point", half((1, {"point_ids": ("ghost",)}))),
        ("segment count", (out, Decomposition("half_handle", tuple(merged)))),
        ("moved cut", half((1, {"hi": Fraction(5, 32)}),
                           (2, {"lo": Fraction(5, 32)}))),
        ("certificate", half((1, {"cert": ("interior", 1)}))),
        ("point of the wrong cell", half((0, {"point_ids": ()}),
                                         (1, {"point_ids": ("p",)}),
                                         data=moved_p)),
        ("unknown style", (out, Decomposition("spiral", dec.segments))),
    ]

    # codimension one, n = 4: a middle segment holds one point of index 2..3
    mono_out, mono, _ = global_split(datum(
        5, 4,
        [comp("c0", True), comp("c1", True)],
        [pt("a", Kind.INTERIOR, 2, Fraction(1, 3)),
         pt("b", Kind.INTERIOR, 3, Fraction(2, 3))],
        [],
        [eff("a", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("b", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    ))
    assert verify_decomposition(mono_out, mono)
    cases.append(("middle certificate", (mono_out, Decomposition(
        "monotone", (mono.segments[0], replace(mono.segments[1], cert=("low",)))
        + mono.segments[2:]))))

    def monotone(cells, pieces):
        """Points (id, index, value) and segments (lo, hi, ids, cert)."""
        d = datum(5, 4, [], [pt(pid, Kind.INTERIOR, k, v) for pid, k, v in cells],
                  [], [])
        return d, Decomposition("monotone", tuple(
            Segment("s%d" % i, Fraction(lo), Fraction(hi), ids, cert)
            for i, (lo, hi, ids, cert) in enumerate(pieces)))

    # the monotone checks look at no cut, so these faults show nowhere else
    low, mid, high = ("low",), ("mid",), ("high",)
    assert verify_decomposition(*monotone(
        [("b", 2, Fraction(1, 2))],
        [(0, "1/4", (), low), ("1/4", "3/4", ("b",), mid), ("3/4", 1, (), high)]))
    cases += [
        ("first cut above 0", monotone(
            [("b", 2, Fraction(1, 2))],
            [("1/100", "1/4", (), low), ("1/4", "3/4", ("b",), mid),
             ("3/4", 1, (), high)])),
        ("empty segment", monotone(
            [("b", 2, Fraction(1, 2))],
            [(0, 0, (), low), (0, "3/4", ("b",), mid), ("3/4", 1, (), high)])),
        ("point outside its segment", monotone(
            [("b", 2, Fraction(1, 10))],
            [(0, "1/4", (), low), ("1/4", "3/4", ("b",), mid),
             ("3/4", 1, (), high)])),
        ("index 1 in a middle segment", monotone(
            [("a", 1, Fraction(3, 10))],
            [(0, "1/4", (), low), ("1/4", "1/2", ("a",), mid),
             ("1/2", 1, (), high)])),
        ("middle indices decrease", monotone(
            [("b", 3, Fraction(3, 10)), ("c", 2, Fraction(6, 10))],
            [(0, "1/5", (), low), ("1/5", "1/2", ("b",), mid),
             ("1/2", "4/5", ("c",), mid), ("4/5", 1, (), high)])),
        ("index 1 in the high segment", monotone(
            [("a", 1, Fraction(9, 10))],
            [(0, "1/2", (), low), ("1/2", 1, ("a",), high)])),
        ("index n in the low segment", monotone(
            [("d", 4, Fraction(1, 10))],
            [(0, "1/2", ("d",), low), ("1/2", 1, (), high)])),
        ("middle index in the low segment", monotone(
            [("b", 2, Fraction(1, 10))],
            [(0, "1/2", ("b",), low), ("1/2", 1, (), high)])),
    ]
    assert len(cases) == 15
    for name, (d, tampered) in cases:
        assert verify_decomposition(d, tampered) is False, name


def test_monotone_decomposition_codim_one():
    d = datum(
        5, 4,
        [comp("c0", True), comp("c1", True), comp("c2", True)],
        [pt("a", Kind.INTERIOR, 1, Fraction(1, 5)),
         pt("b", Kind.INTERIOR, 2, Fraction(2, 5)),
         pt("c", Kind.INTERIOR, 3, Fraction(3, 5)),
         pt("d", Kind.INTERIOR, 4, Fraction(4, 5))],
        [],
        [eff("a", EffectKind.INTERNAL, ("c0",), (comp("c3", True),)),
         eff("b", EffectKind.INTERNAL, ("c1",), (comp("c4", True),)),
         eff("c", EffectKind.INTERNAL, ("c2",), (comp("c5", True),)),
         eff("d", EffectKind.INTERNAL, ("c3",), (comp("c6", True),))],
    )
    assert validate_datum(d) == []
    out, dec, script = global_split(d)
    assert dec.style == "monotone"
    assert verify_decomposition(out, dec)
    assert validate_datum(out) == []
    assert apply_script(d, script) == out
    # the index-1 and index-4 points stay whole, the middles were split
    assert out.has_point("a") and out.has_point("d")
    assert not out.has_point("b") and not out.has_point("c")
    mids = dec.segments[1:-1]
    assert all(len(s.point_ids) == 1 for s in mids)
    mid_indices = [out.point(s.point_ids[0]).index for s in mids]
    assert mid_indices == sorted(mid_indices)
    assert all(2 <= i <= 3 for i in mid_indices)


def test_codim_one_n_one_is_trivial():
    d = generate(GeneratorSpec(n=1, m=2, points=4, seed=3))
    out, dec, script = global_split(d)
    assert out == d and script == []
    assert dec.style == "trivial"
    assert verify_decomposition(out, dec)


def test_joinability_regression_same_level_witness_chain():
    # a split feeding a merge at the one shared interior level used to trip
    # the separation pass when slots crossed the level the group still holds
    d = generate(GeneratorSpec(n=1, m=3, points=6, seed=0,
                               allow_boundary=False))
    out, dec, script = global_split(d)
    assert validate_datum(out) == []
    assert verify_decomposition(out, dec)
    assert apply_script(d, script) == out


def shared_middle_levels():
    """n = 3, codimension 2: interior index-2 points sharing three levels,
    one of them with a stable attach.  a makes what b uses and e what f
    uses, so each pair must keep its order."""
    internal, attach = EffectKind.INTERNAL, EffectKind.BOUNDARY_ATTACH
    rows = [  # id, kind, value, effect, input, output
        ("a", Kind.INTERIOR, Fraction(1, 4), internal, "c0", "c10"),
        ("b", Kind.INTERIOR, Fraction(1, 4), internal, "c10", "c11"),
        ("c", Kind.INTERIOR, Fraction(1, 2), internal, "c1", "c12"),
        ("d", Kind.BOUNDARY_STABLE, Fraction(1, 2), attach, "c2", "c13"),
        ("e", Kind.INTERIOR, Fraction(3, 4), internal, "c3", "c14"),
        ("f", Kind.INTERIOR, Fraction(3, 4), internal, "c14", "c15"),
        ("g", Kind.INTERIOR, Fraction(3, 4), internal, "c4", "c16"),
    ]
    return datum(
        5, 3,
        [comp("c%d" % i) for i in range(5)],
        [pt(pid, kind, 2, v) for pid, kind, v, *_ in rows],
        [],
        [eff(pid, e, (cin,), (comp(cout),)) for pid, _, _, e, cin, cout in rows],
    )


def separated_by_scan(d):
    """The separation pass as single moves, with the gap below each shared
    level found by scanning every point of the datum moved so far."""
    middle = {p.id for p in d.interior_points(2, d.ambient.n - 1)}
    levels = {}
    for p in d.points:
        levels.setdefault(p.value, []).append(p.id)
    script = []
    for v in sorted(levels):
        movers = [pid for pid in levels[v] if pid in middle]
        if len(levels[v]) < 2 or not movers:
            continue
        if len(movers) == len(levels[v]):
            movers = movers[:-1]
        prev = max([p.value for p in d.points if p.value < v], default=Fraction(0))
        for t, pid in enumerate(movers):
            slot = prev + (v - prev) * Fraction(t + 1, len(movers) + 1)
            d, record = assign_values(d, {pid: slot}, "separate")
            script.append(record)
    return d, script


def test_separation_takes_each_gap_from_the_level_below():
    d = shared_middle_levels()
    assert validate_datum(d) == []
    out, script = _separate_middle_levels(d)
    assert [(r.ids, r.values, r.note) for r in script] == [
        (("a",), (Fraction(1, 8),), "separate"),
        (("c",), (Fraction(3, 8),), "separate"),
        (("e",), (Fraction(7, 12),), "separate"),
        (("f",), (Fraction(2, 3),), "separate"),
    ]
    assert (out, script) == separated_by_scan(d)
    assert apply_script(d, script) == out
    assert_records_as_checked(script)
    assert validate_datum(out) == []
