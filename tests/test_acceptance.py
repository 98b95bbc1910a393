"""End-to-end checks of the engine's promised behaviour.

Each test prints a single ``ACCEPTANCE k: PASS`` or ``FAIL`` line so a run
of ``pytest -v`` doubles as the acceptance report.  The stated time budget
for a criterion is asserted, not just reported.
"""

import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from halfhandle.cli_io import (
    GeneratorSpec,
    brute_force_reachability,
    generate,
    parse_datum,
    parse_script,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)
from halfhandle.errors import (
    BrokenTrajectoryExists,
    IndexMismatch,
    InvalidEffect,
    KindMismatch,
    LocusViolation,
    MoveError,
    NotSingleTrajectory,
    UnknownId,
)
from halfhandle.morse_data import (
    Ambient,
    CriticalPoint,
    Flags,
    Kind,
    dimension_profile,
    index_bounds,
    is_admissible,
    validate_datum,
)
from halfhandle.moves import (
    apply_script,
    cancel_pair,
    realize_configuration,
    rearrange_pair,
    split_interior,
)
from halfhandle.normal_form import (
    global_split,
    schedule_levels,
    verify_decomposition,
)
from halfhandle.slice_topology import EffectKind
from halfhandle.trajectory import (
    Locus,
    TrajectoryGraph,
    broken_closure,
    generic_disjoint,
)

from helpers import (
    attach_chain_pair,
    birth_merge_pair,
    comp,
    datum,
    dimension_sum_oracle,
    edge,
    eff,
    internal_chain_pair,
    pt,
    replace_effects,
    split_death_pair,
)

BUDGETS = {1: 1.0, 2: 5.0, 3: 1.0, 4: 30.0, 5: 15.0, 6: 10.0, 7: 60.0,
           8: None}


def run(capsys, number, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d: FAIL" % number)
        raise
    elapsed = time.perf_counter() - start
    budget = BUDGETS[number]
    if budget is None:
        with capsys.disabled():
            print("ACCEPTANCE %d: PASS (%.2fs)" % (number, elapsed))
        return
    verdict = "PASS" if elapsed < budget else "FAIL"
    with capsys.disabled():
        print("ACCEPTANCE %d: %s (%.2fs, budget %.0fs)"
              % (number, verdict, elapsed, budget))
    assert elapsed < budget, "finished correct but over the time budget"


def cells(n):
    for kind in Kind:
        lo, hi = index_bounds(kind, n)
        for k in range(lo, hi + 1):
            yield kind, k


def replay_byte_identical(before, script, after):
    """Criterion 8 core: replay the script through the text formats."""
    reread = parse_datum(serialize_datum(before))
    steps = parse_script(serialize_script(script))
    assert serialize_datum(apply_script(reread, steps)) == \
        serialize_datum(after)


def test_criterion_1_dimension_table(capsys):
    def hand_table(kind, k, n):
        if kind is Kind.INTERIOR:
            return (k + 1, n + 2 - k, k, n + 1 - k, None, None)
        if kind is Kind.BOUNDARY_STABLE:
            return (k + 1, n + 2 - k, k, None, k - 1, n + 1 - k)
        return (k + 1, n + 2 - k, None, n + 1 - k, k, n - k)

    def body():
        for n in range(1, 7):
            for kind, k in cells(n):
                got = dimension_profile(kind, k, n).as_tuple()
                assert got == hand_table(kind, k, n), (kind, k, n)

    run(capsys, 1, body)


def test_criterion_2_disjointness_equivalence(capsys):
    def body():
        checked = 0
        for n in range(1, 7):
            for m in range(n + 1, n + 6):
                ambient = Ambient(m, n)
                pairs = itertools.product(cells(n), repeat=2)
                for (kz, k), (kw, l) in pairs:
                    z = CriticalPoint("z", kz, k, Fraction(1, 3))
                    w = CriticalPoint("w", kw, l, Fraction(2, 3))
                    got = generic_disjoint(z, w, ambient)
                    want = dimension_sum_oracle(z, w, ambient)
                    if got != want:
                        with capsys.disabled():
                            print("divergent cell: n=%d m=%d "
                                  "z=(%s,%d) w=(%s,%d) "
                                  "generic_disjoint=%s dimension_sums=%s"
                                  % (n, m, kz.value, k, kw.value, l,
                                     got, want))
                        assert got == want
                    checked += 1
        assert checked > 5000

    run(capsys, 2, body)


def population(n, copies):
    """A valid datum holding ``copies`` points of every (kind, index)."""
    cell_list = [c for c in cells(n) for _ in range(copies)]
    total = len(cell_list)
    bottoms = [comp("base", True)]
    points = []
    effects = []
    for i, (kind, k) in enumerate(cell_list):
        pid = "p%03d" % i
        points.append(pt(pid, kind, k, Fraction(i + 1, total + 1)))
        if kind is Kind.INTERIOR and k == 0:
            effects.append(eff(pid, EffectKind.BIRTH, (),
                               (comp("o%03d" % i, False),)))
            continue
        if kind is Kind.INTERIOR and k == n + 1:
            dead = comp("x%03d" % i, False)
            bottoms.append(dead)
            effects.append(eff(pid, EffectKind.DEATH, (dead.id,), ()))
            continue
        src = comp("b%03d" % i, True)
        bottoms.append(src)
        if kind is Kind.INTERIOR:
            effects.append(eff(pid, EffectKind.INTERNAL, (src.id,),
                               (comp("o%03d" % i, True),)))
        else:
            effects.append(eff(pid, EffectKind.BOUNDARY_ATTACH, (src.id,),
                               (comp("o%03d" % i, True),)))
    return datum(n + 2, n, bottoms, points, [], effects,
                 Flags(no_closed_cobordism=False, no_closed_bottom=False,
                       no_closed_top=False))


def test_criterion_3_schedule_admissibility(capsys):
    def body():
        offsets = {Kind.BOUNDARY_STABLE: 1, Kind.INTERIOR: 2,
                   Kind.BOUNDARY_UNSTABLE: 3}
        for n in range(1, 7):
            for copies in (1, 2):
                d = population(n, copies)
                assert validate_datum(d) == []
                levels = schedule_levels(d)
                assert set(levels) == {p.id for p in d.points}
                for p in d.points:
                    want = Fraction(3 * p.index + offsets[p.kind],
                                    3 * n + 6)
                    assert levels[p.id] == want, (n, p.kind, p.index)
                assert is_admissible(d.points, levels)

    run(capsys, 3, body)


# sha256 over every criterion 4 (and 5) run's output datum, script and
# decomposition, as serialized: refactors must keep them byte for byte.  A
# change that alters the generator or the driver on purpose updates these
# and says why.
CRITERION_4_DIGEST = "88549152cc6739424ad8eb3aad47356ec9bb6960e1a95536082fd765d07dca08"
CRITERION_5_DIGEST = "d7d41bba2aa9e26398dc4bb1cab371ea89fdc6cdb9ade30b3c3cb02bdf8aa620"


def digest_run(digest, out, dec, script):
    for text in (serialize_datum(out), serialize_script(script),
                 serialize_decomposition(dec)):
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")


def test_criterion_4_global_handle_splitting(capsys):
    def body():
        digest = hashlib.sha256()
        for i in range(500):
            n = 1 + i % 4
            m = n + 2 + (i // 4) % 2
            spec = GeneratorSpec(n=n, m=m, points=1 + (i * 7) % 10,
                                 seed=1000 + i)
            d = generate(spec)
            assert d.ambient.codim >= 2 and len(d.points) <= 10
            out, dec, script = global_split(d)
            assert verify_decomposition(out, dec)
            assert out.interior_points(1, n) == []

            want = Counter()
            for p in d.points:
                if p.kind is Kind.INTERIOR and 1 <= p.index <= n:
                    want[(Kind.BOUNDARY_STABLE, p.index)] += 1
                    want[(Kind.BOUNDARY_UNSTABLE, p.index)] += 1
                else:
                    want[(p.kind, p.index)] += 1
            got = Counter((p.kind, p.index) for p in out.points)
            assert got == want

            assert dec.style == "half_handle"
            denom = 2 * n + 4
            assert [(s.lo, s.hi) for s in dec.segments] == \
                [(Fraction(j, denom), Fraction(j + 1, denom))
                 for j in range(denom)]
            replay_byte_identical(d, script, out)
            digest_run(digest, out, dec, script)
        assert digest.hexdigest() == CRITERION_4_DIGEST

    run(capsys, 4, body)


def test_criterion_5_codim_one_weakening(capsys):
    def body():
        digest = hashlib.sha256()
        for i in range(200):
            n = 3 + i % 3
            spec = GeneratorSpec(n=n, m=n + 1, points=1 + (i * 5) % 8,
                                 seed=2000 + i)
            d = generate(spec)
            assert d.ambient.codim == 1
            out, dec, script = global_split(d)
            assert verify_decomposition(out, dec)
            assert dec.style == "monotone"

            idx = {p.id: p.index for p in out.points}
            low, mids, high = (dec.segments[0], dec.segments[1:-1],
                               dec.segments[-1])
            assert low.cert == ("low",) and high.cert == ("high",)
            assert all(idx[pid] in (0, 1) for pid in low.point_ids)
            assert all(idx[pid] in (n, n + 1) for pid in high.point_ids)
            mid_indices = []
            for seg in mids:
                assert len(seg.point_ids) == 1
                mid_indices.append(idx[seg.point_ids[0]])
            assert mid_indices == sorted(mid_indices)

            # interior points of index 1 and n come through whole
            keep = [p for p in d.points
                    if p.kind is Kind.INTERIOR and p.index in (1, n)]
            for p in keep:
                assert out.has_point(p.id)
                survivor = out.point(p.id)
                assert survivor.kind is Kind.INTERIOR
                assert survivor.index == p.index
            kept_ids = {p.id for p in keep}
            for rec in script:
                assert not (rec.kind == "split" and rec.ids[0] in kept_ids)
            replay_byte_identical(d, script, out)
            digest_run(digest, out, dec, script)
        assert digest.hexdigest() == CRITERION_5_DIGEST

    run(capsys, 5, body)


def _legal_cancel_menu(rng):
    choice = rng.randrange(4)
    if choice == 0:
        n = rng.randint(1, 4)
        return birth_merge_pair(n, m=n + rng.randint(2, 3))
    if choice == 1:
        n = rng.randint(2, 5)
        return internal_chain_pair(n, rng.randint(1, n - 1))
    if choice == 2:
        return split_death_pair(rng.randint(1, 4))
    n = rng.randint(1, 4)
    if rng.random() < 0.5:
        return attach_chain_pair(Kind.BOUNDARY_STABLE, rng.randint(1, n), n=n)
    return attach_chain_pair(Kind.BOUNDARY_UNSTABLE,
                             rng.randint(0, max(0, n - 1)), n=n)


def _mixed_kind_datum():
    return datum(
        5, 3,
        [comp("c0", True)],
        [pt("bs", Kind.BOUNDARY_STABLE, 1, Fraction(1, 4)),
         pt("mid", Kind.INTERIOR, 2, Fraction(1, 2)),
         pt("bu", Kind.BOUNDARY_UNSTABLE, 2, Fraction(3, 4))],
        [],
        [eff("bs", EffectKind.BOUNDARY_ATTACH, ("c0",),
             (comp("c1", True),)),
         eff("mid", EffectKind.INTERNAL, ("c1",), (comp("c2", True),)),
         eff("bu", EffectKind.BOUNDARY_ATTACH, ("c2",),
             (comp("c3", True),))],
    )


def _gap_datum():
    return datum(
        6, 4,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 3, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", True),))],
    )


def _broken_chain_datum():
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
    return d.replace(slices=type(d.slices)(
        d.slices.bottom + (comp("c9", True),), d.slices.effects))


def _non_inverse_datum():
    return datum(
        4, 2,
        [comp("c0", True), comp("c3", True)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)],
        [eff("p", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("q", EffectKind.MERGE, ("c0", "c3"), (comp("c2", True),))],
        Flags(no_closed_cobordism=False, no_closed_top=False),
    )


def _illegal_cancel_menu(rng):
    """An attempt plus the exact error class its refusal must carry."""
    choice = rng.randrange(9)
    if choice == 0:
        return _mixed_kind_datum(), "bs", "mid", KindMismatch
    if choice == 1:
        return _mixed_kind_datum(), "mid", "bu", KindMismatch
    if choice == 2:
        return _mixed_kind_datum(), "bs", "bu", KindMismatch
    if choice == 3:
        return birth_merge_pair(rng.randint(1, 4)), "q", "p", IndexMismatch
    if choice == 4:
        return _gap_datum(), "p", "q", IndexMismatch
    if choice == 5:
        d = birth_merge_pair(rng.randint(1, 4))
        cut = rng.randrange(3)
        if cut == 0:
            d = d.replace(graph=TrajectoryGraph(()))
        elif cut == 1:
            d = d.replace(graph=TrajectoryGraph(
                (edge("p", "q", 2, Locus.INNER),)))
        else:
            d = d.replace(graph=TrajectoryGraph(
                (edge("p", "q", None, Locus.INNER),)))
        return d, "p", "q", NotSingleTrajectory
    if choice == 6:
        if rng.random() < 0.5:
            d = birth_merge_pair(2).replace(graph=TrajectoryGraph(
                (edge("p", "q", 1, Locus.MEMBRANE),)))
        else:
            d = attach_chain_pair(Kind.BOUNDARY_STABLE, 1).replace(
                graph=TrajectoryGraph((edge("p", "q", 1, Locus.MEMBRANE),)))
        return d, "p", "q", LocusViolation
    if choice == 7:
        return _broken_chain_datum(), "p", "q", BrokenTrajectoryExists
    return _non_inverse_datum(), "p", "q", InvalidEffect


def test_criterion_6_cancellation_soundness(capsys):
    def body():
        rng = random.Random(20260815)
        legal = illegal = 0
        for _ in range(1000):
            if rng.random() < 0.5:
                d = _legal_cancel_menu(rng)
                assert validate_datum(d) == []
                out, rec = cancel_pair(d, "p", "q")
                assert validate_datum(out) == []
                assert len(out.points) == len(d.points) - 2
                broken_closure(out.graph)  # raises CycleDetected on a loop
                replay_byte_identical(d, [rec], out)
                legal += 1
            else:
                d, z, w, expected = _illegal_cancel_menu(rng)
                assert validate_datum(d) == []
                with pytest.raises(expected):
                    cancel_pair(d, z, w)
                illegal += 1
        # a malformed id refuses too, with its own error
        with pytest.raises(UnknownId):
            cancel_pair(birth_merge_pair(), "p", "nope")
        assert legal > 300 and illegal > 300

    run(capsys, 6, body)


def target_menu(d, rng):
    points = list(d.points)
    menu = [{p.id: p.value for p in points}]
    if points:
        values = [p.value for p in points]
        for _ in range(2):
            rng.shuffle(values)
            menu.append({p.id: v for p, v in zip(points, values)})
        menu.append({p.id: Fraction(rng.randint(1, 119), 120)
                     for p in points})
        out_of_range = dict(menu[0])
        out_of_range[points[0].id] = Fraction(3, 2)
        menu.append(out_of_range)
    menu.append(schedule_levels(d))
    return menu


def test_criterion_7_rearrangement_oracle(capsys):
    def body():
        rng = random.Random(424242)
        agreements = 0
        for i in range(60):
            n = 1 + i % 4
            m = n + 1 + i % 3
            spec = GeneratorSpec(n=n, m=m, points=i % 7, seed=3000 + i)
            d = generate(spec)
            assert len(d.points) <= 6
            for targets in target_menu(d, rng):
                want = brute_force_reachability(d, targets)
                try:
                    moved, script = realize_configuration(d, targets)
                    got = True
                except MoveError:
                    got = False
                assert got == want, (spec, targets)
                if got:
                    assert {p.id: p.value for p in moved.points} == \
                        dict(targets)
                    replay_byte_identical(d, script, moved)
                agreements += 1
        assert agreements >= 300

    run(capsys, 7, body)


def test_criterion_8_script_replay(capsys):
    def body():
        d = birth_merge_pair(2)
        out, rec = cancel_pair(d, "p", "q")
        replay_byte_identical(d, [rec], out)

        parallel = datum(
            5, 3,
            [comp("c0", True), comp("c1", True)],
            [pt("p", Kind.INTERIOR, 2, Fraction(1, 3)),
             pt("q", Kind.INTERIOR, 2, Fraction(2, 3))],
            [],
            [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
             eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
        )
        moved, rec = rearrange_pair(parallel, "p", "q",
                                    Fraction(4, 5), Fraction(1, 5))
        replay_byte_identical(parallel, [rec], moved)

        chain = internal_chain_pair(3, 1)
        halves, rec = split_interior(chain, "p")
        replay_byte_identical(chain, [rec], halves)

        g = generate(GeneratorSpec(n=2, m=4, points=7, seed=21))
        out, dec, script = global_split(g)
        assert verify_decomposition(out, dec)
        replay_byte_identical(g, script, out)

    run(capsys, 8, body)
