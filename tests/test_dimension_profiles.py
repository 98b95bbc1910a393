"""Dimension profile table, index bounds, and admissibility order."""

from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfhandle.errors import InvalidIndexKind, PartialConfiguration
from halfhandle.morse_data import (
    CriticalPoint,
    Kind,
    check_index_kind,
    dimension_profile,
    index_bounds,
)

from helpers import is_admissible


def expected_profile(kind, k, n):
    """Independent hand-coded table of the six dimensions."""
    if kind is Kind.INTERIOR:
        return (k + 1, n + 2 - k, k, n + 1 - k, None, None)
    if kind is Kind.BOUNDARY_STABLE:
        return (k + 1, n + 2 - k, k, None, k - 1, n + 1 - k)
    return (k + 1, n + 2 - k, None, n + 1 - k, k, n - k)


def valid_cells(n):
    for kind in Kind:
        lo, hi = index_bounds(kind, n)
        for k in range(lo, hi + 1):
            yield kind, k


def test_profiles_match_hand_coded_table():
    for n in range(1, 7):
        for kind, k in valid_cells(n):
            got = astuple(dimension_profile(kind, k, n))
            assert got == expected_profile(kind, k, n), (kind, k, n)


def test_worked_rows():
    assert astuple(dimension_profile(Kind.INTERIOR, 1, 2)) == (
        2, 3, 1, 2, None, None)
    assert astuple(dimension_profile(Kind.BOUNDARY_STABLE, 1, 2)) == (
        2, 3, 1, None, 0, 2)
    assert astuple(dimension_profile(Kind.BOUNDARY_UNSTABLE, 0, 2)) == (
        1, 4, None, 3, 0, 2)


def test_index_bounds_per_kind():
    for n in range(1, 7):
        assert index_bounds(Kind.INTERIOR, n) == (0, n + 1)
        assert index_bounds(Kind.BOUNDARY_STABLE, n) == (1, n + 1)
        assert index_bounds(Kind.BOUNDARY_UNSTABLE, n) == (0, n)


def test_profiles_are_built_once_and_refusals_repeat():
    # a profile is shared between calls (it is frozen); a refused pair is
    # refused on every call, the error not kept
    for n in range(1, 7):
        for kind, k in valid_cells(n):
            assert dimension_profile(kind, k, n) is dimension_profile(kind, k, n)
    for _ in range(2):
        with pytest.raises(InvalidIndexKind):
            dimension_profile(Kind.BOUNDARY_STABLE, 0, 3)


def test_out_of_range_rejected():
    with pytest.raises(InvalidIndexKind):
        dimension_profile(Kind.BOUNDARY_STABLE, 0, 3)
    with pytest.raises(InvalidIndexKind):
        dimension_profile(Kind.BOUNDARY_UNSTABLE, 4, 3)
    with pytest.raises(InvalidIndexKind):
        dimension_profile(Kind.INTERIOR, 5, 3)
    with pytest.raises(InvalidIndexKind):
        check_index_kind(Kind.INTERIOR, -1, 3)


def test_valid_cells_have_nonnegative_entries():
    for n in range(1, 7):
        for kind, k in valid_cells(n):
            for entry in astuple(dimension_profile(kind, k, n)):
                assert entry is None or entry >= 0


def test_empty_slots_follow_the_kind():
    for n in range(1, 7):
        for kind, k in valid_cells(n):
            prof = dimension_profile(kind, k, n)
            if kind is Kind.INTERIOR:
                assert prof.stable_wall is None and prof.unstable_wall is None
                assert prof.stable_inner is not None
                assert prof.unstable_inner is not None
            elif kind is Kind.BOUNDARY_STABLE:
                assert prof.unstable_inner is None
                assert prof.stable_wall is not None
            else:
                assert prof.stable_inner is None
                assert prof.unstable_wall is not None


def _points(specs):
    return [CriticalPoint("p%d" % i, kind, k, Fraction(v))
            for i, (kind, k, v) in enumerate(specs)]


def test_admissible_requires_index_order():
    pts = _points([(Kind.INTERIOR, 2, Fraction(1, 4)),
                   (Kind.INTERIOR, 1, Fraction(1, 2))])
    assert not is_admissible(pts)
    pts = _points([(Kind.INTERIOR, 1, Fraction(1, 4)),
                   (Kind.INTERIOR, 2, Fraction(1, 2))])
    assert is_admissible(pts)


def test_admissible_orders_stable_below_unstable_at_equal_index():
    below = _points([(Kind.BOUNDARY_STABLE, 1, Fraction(1, 4)),
                     (Kind.BOUNDARY_UNSTABLE, 1, Fraction(1, 2))])
    assert is_admissible(below)
    above = _points([(Kind.BOUNDARY_STABLE, 1, Fraction(1, 2)),
                     (Kind.BOUNDARY_UNSTABLE, 1, Fraction(1, 4))])
    assert not is_admissible(above)
    tied = _points([(Kind.BOUNDARY_STABLE, 1, Fraction(1, 3)),
                    (Kind.BOUNDARY_UNSTABLE, 1, Fraction(1, 3))])
    assert not is_admissible(tied)


def test_admissible_allows_other_equal_index_ties():
    pts = _points([(Kind.INTERIOR, 1, Fraction(1, 3)),
                   (Kind.INTERIOR, 1, Fraction(1, 3)),
                   (Kind.BOUNDARY_UNSTABLE, 1, Fraction(1, 3))])
    assert is_admissible(pts)


def test_admissible_with_explicit_values_needs_full_coverage():
    pts = _points([(Kind.INTERIOR, 0, Fraction(1, 4)),
                   (Kind.INTERIOR, 1, Fraction(1, 2))])
    with pytest.raises(PartialConfiguration):
        is_admissible(pts, {"p0": Fraction(1, 4)})


point_spec = st.tuples(
    st.sampled_from(list(Kind)),
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(point_spec, min_size=1, max_size=6),
       st.integers(min_value=1, max_value=5))
def test_admissible_invariant_under_monotone_reparametrization(specs, a):
    n = 4
    pts = []
    for i, (kind, k, v) in enumerate(specs):
        lo, hi = index_bounds(kind, n)
        pts.append(CriticalPoint("p%d" % i, kind, min(max(k, lo), hi), v))
    # a Moebius map keeps (0,1) and strict order
    remap = {p.id: a * p.value / (a * p.value + (1 - p.value)) for p in pts}
    assert is_admissible(pts) == is_admissible(pts, remap)
