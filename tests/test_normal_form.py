"""Scheduling, bands, joinability, decompositions, and the full driver."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from halfhandle import normal_form, slice_topology, trajectory
from halfhandle.cli_io import parse_datum, serialize_datum, serialize_script
from halfhandle.generator import GeneratorSpec, generate
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
    order_key,
    validate_datum,
)
from halfhandle.moves import MoveRecord, apply_script, assign_values
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

from helpers import (
    PIECE_TYPES, assert_pieces_as_checked, assert_records_as_checked,
    benchmark_workload, counting_post_inits, comp, datum, edge, eff, is_admissible,
    perfbench_module, pt, spy_on_value_builds, union,
)


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


def test_scheduled_rank_takes_a_kind_or_its_word_and_refuses_the_rest():
    for kind in Kind:
        for k in range(0, 5):
            assert scheduled_rank(kind.value, k) == scheduled_rank(kind, k)
    for bad in ("bogus", None, 7, ["interior"]):
        with pytest.raises(ValueError):
            scheduled_rank(bad, 1)


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
        assert tsa_check(d)


def test_tsa_check_rejects_misplaced_points():
    n = 2
    d = scheduled(n, n + 2)
    a = band_levels(n)[0]
    # drag an interior index-1 point out of its band
    moved = d.replace(points=tuple(
        p if not (p.kind is Kind.INTERIOR and p.index == 1)
        else pt(p.id, p.kind, p.index, Fraction(1, 100)) for p in d.points))
    assert not tsa_check(moved)
    # a point sitting exactly on a cut fails too
    on_cut = d.replace(points=tuple(
        p if not (p.kind is Kind.INTERIOR and p.index == 1)
        else pt(p.id, p.kind, p.index, a) for p in d.points))
    assert not tsa_check(on_cut)


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
    assert not tsa_check(base)  # distinct join levels
    together = base.replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(19, 48)) for p in base.points))
    assert tsa_check(together)


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
    # p already inside its segment: the unsplit q alone rules the shape out
    placed = d.replace(points=(pt("p", Kind.INTERIOR, 0, Fraction(1, 16)),
                               d.point("q")))
    assert validate_datum(placed) == []
    assert derive_half_handle_decomposition(placed) is None
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


def test_global_split_refuses_an_output_that_fails_verification(monkeypatch):
    # the stages always end in the normal form; were one to miss it, the
    # driver reports a block at "verify" and returns no decomposition
    monkeypatch.setattr(normal_form, "verify_decomposition", lambda d, dec: False)
    with pytest.raises(PipelineBlocked) as info:
        global_split(two_point_input())
    assert info.value.stage == "verify"
    assert str(info.value) == (
        "stage 'verify' blocked: driver output is not in normal form")


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


def test_the_monotone_check_tells_segments_apart_by_identity(monkeypatch):
    # the union of every split_codim1 corpus piece: each middle point's
    # segment is told from the outer two without the dataclass __eq__,
    # which compares field tuples of Fractions
    texts, _ = perfbench_module("corpus").load_corpus()
    d = union(*map(parse_datum, texts["split_codim1"]))
    assert len(d.points) == 320
    out, dec, _ = global_split(d)
    assert dec.style == "monotone"
    calls = []
    equal = Segment.__eq__
    monkeypatch.setattr(Segment, "__eq__", lambda a, b: calls.append(b) or equal(a, b))
    assert verify_decomposition(out, dec)
    assert calls == []


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

    def monotone(cells, pieces, n=4):
        """Points (id, index, value) and segments (lo, hi, ids, cert)."""
        d = datum(n + 1, n, [], [pt(pid, Kind.INTERIOR, k, v) for pid, k, v in cells],
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
        # at n = 1 index 1 is low and high at once, so it fits neither
        ("index 1 = n in the low segment", monotone(
            [("a", 1, Fraction(1, 10))],
            [(0, "1/2", ("a",), low), ("1/2", 1, (), high)], n=1)),
        ("index 1 = n in the high segment", monotone(
            [("a", 1, Fraction(9, 10))],
            [(0, "1/2", (), low), ("1/2", 1, ("a",), high)], n=1)),
    ]
    assert len(cases) == 17
    for name, (d, tampered) in cases:
        assert verify_decomposition(d, tampered) is False, name


def test_a_warm_derive_and_verify_construct_no_fraction(monkeypatch):
    # the seed-1 split_deep union's normal form: once the frame of its n is
    # built, reading the report off the values and checking it takes every
    # bound, key, label and certificate from the frame (48 at the parent)
    _, workload = benchmark_workload(monkeypatch, "split_deep", 1)
    out, dec, _ = global_split(workload.datum)
    assert verify_decomposition(out, derive_half_handle_decomposition(out))
    calls = spy_on_value_builds(monkeypatch)  # Fraction.__new__ and ratio
    again = derive_half_handle_decomposition(out)
    assert verify_decomposition(out, again)
    assert calls == []
    monkeypatch.undo()
    assert again == dec


@pytest.mark.parametrize("name", ["split_deep", "split_codim1"])
def test_a_warm_split_and_text_replay_construct_no_fraction(monkeypatch, name):
    # the seed-1 union of each split pool: once a first run has built the
    # frame of its n, the driver and the benchmark's text replay of its
    # script build every value by ratio, none by Fraction.__new__ (561 and
    # 633 calls on split_deep, 453 and 448 on split_codim1, before ratio)
    workloads, workload = benchmark_workload(monkeypatch, name, 1)
    out, dec, script = global_split(workload.datum)
    texts = (workload.text, serialize_script(script))
    workloads.replay_texts(*texts)
    with monkeypatch.context() as patch:
        calls = spy_on_value_builds(patch)
        again = global_split(workload.datum)
        replayed = workloads.replay_texts(*texts)
    builds = Counter(builder for builder, _ in calls)
    assert builds["Fraction"] == 0 and builds["ratio"] > 500, builds
    assert again == (out, dec, script)
    assert serialize_datum(replayed) == serialize_datum(out)


@pytest.mark.parametrize("name, splits", [("split_deep", 15), ("split_codim1", 32)])
def test_a_warm_split_runs_no_check_of_a_piece(monkeypatch, name, splits):
    # the seed-1 union of each split pool: the pieces a split builds (two
    # points, two attach effects, a tongue component and the moved flow
    # lines) are proved by the run and _splits_locally, and are built
    # unchecked, so a warm global_split runs none of their __post_init__
    # checks (30/30/32/15 on split_deep and 64/64/76/32 on split_codim1
    # before); each piece still equals what its checking constructor builds.
    # Nor does any record, the split stage's one per split included (15
    # and 32 before), and each record equals its checked one
    _, workload = benchmark_workload(monkeypatch, name, 1)
    out, dec, script = global_split(workload.datum)
    with monkeypatch.context() as patch:
        runs = counting_post_inits(patch, PIECE_TYPES + (MoveRecord,))
        again = global_split(workload.datum)
        assert sum(runs.values()) == 0, runs
        assert_records_as_checked(again[2])
        assert runs["MoveRecord"] == len(script), runs
        # the checking constructors the comparison calls are counted
        assert assert_pieces_as_checked(again[0]) > 600
        assert all(runs[cls.__name__] > 90 for cls in PIECE_TYPES), runs
    assert again == (out, dec, script)
    assert sum(r.kind == "split" for r in script) == splits


@pytest.mark.parametrize("name", ["split_deep", "split_codim1"])
def test_a_warm_split_builds_no_rule_row(monkeypatch, name):
    # the flow-line rows and the effect-row shapes are built once per
    # cell: once a first run has built those of the seed-1 union, another
    # global_split of it builds neither a row nor a shape
    _, workload = benchmark_workload(monkeypatch, name, 1)
    out = global_split(workload.datum)
    tables, shapes = trajectory._edge_row, slice_topology._row_shape
    built = tables.cache_info().misses, shapes.cache_info().misses
    hits = tables.cache_info().hits, shapes.cache_info().hits
    assert global_split(workload.datum) == out
    assert (tables.cache_info().misses, shapes.cache_info().misses) == built
    assert tables.cache_info().hits > hits[0] and shapes.cache_info().hits > hits[1]


def test_the_half_handle_frame_is_its_formula():
    for n in range(1, 21):
        denom = 2 * n + 4
        frame = normal_form._half_handle_frame(n)
        assert normal_form._half_handle_frame(n) is frame
        assert len(frame) == denom
        for i, entry in enumerate(frame):
            lo, hi = Fraction(i, denom), Fraction(i + 1, denom)
            cert = (("interior", 0) if i == 0 else
                    ("interior", n + 1) if i == denom - 1 else
                    ("boundary_unstable" if i % 2 else "boundary_stable", i // 2))
            assert entry == (lo, hi, order_key(lo), order_key(hi),
                             str(Fraction(i - 1, 2)), cert)


def test_verify_decomposition_reads_a_report_from_elsewhere_by_value():
    # a report rebuilt from value-equal copies, none of them the frame's own
    # objects, is accepted; a copy that differs in one value is refused
    out, dec, _ = global_split(two_point_input())

    def copied(s, **kw):
        fields = dict(
            label="".join(list(s.label)),
            lo=Fraction(s.lo.numerator, s.lo.denominator),
            hi=Fraction(s.hi.numerator, s.hi.denominator),
            point_ids=s.point_ids,
            cert=tuple(list(s.cert)),
        )
        fields.update(kw)
        return Segment(**fields)

    rebuilt = Decomposition("half_handle", tuple(copied(s) for s in dec.segments))
    for s, t in zip(dec.segments, rebuilt.segments):
        assert s == t and s.lo is not t.lo and s.hi is not t.hi
        assert s.cert is not t.cert
    assert verify_decomposition(out, rebuilt)
    # each fault passes the checks every style shares and shows only against
    # the frame: a label, a cut moved on both sides, a certificate, its type
    segs = dec.segments
    for changes in [{3: {"label": "3/2"}},
                    {1: {"hi": Fraction(9, 32)}, 2: {"lo": Fraction(9, 32)}},
                    {5: {"cert": ("boundary_stable", 2)}},
                    {0: {"cert": ["interior", 0]}}]:
        tampered = [copied(s, **changes.get(i, {})) for i, s in enumerate(segs)]
        assert not verify_decomposition(
            out, Decomposition("half_handle", tuple(tampered))), changes


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
    assert "a" in out.point_index and "d" in out.point_index
    assert "b" not in out.point_index and "c" not in out.point_index
    mids = dec.segments[1:-1]
    assert all(len(s.point_ids) == 1 for s in mids)
    mid_indices = [out.point(s.point_ids[0]).index for s in mids]
    assert mid_indices == sorted(mid_indices)
    assert all(2 <= i <= 3 for i in mid_indices)
    # two middle points on one level leave no singleton segments
    tied = d.replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(1, 2)) if p.id in ("b", "c") else p
        for p in d.points))
    assert derive_monotone_decomposition(tied) is None


def test_codim_one_n_one_is_trivial():
    d = generate(GeneratorSpec(n=1, m=2, points=4, seed=3))
    out, dec, script = global_split(d)
    assert out == d and script == []
    assert dec.style == "trivial"
    assert derive_monotone_decomposition(d) is None  # no middle at n = 1
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
