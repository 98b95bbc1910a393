"""The float-filtered order keys and the value-token parser against their
exact references.

``order_key`` puts the float of a Fraction before it, so that unequal
floats decide the order and only equal floats reach the Fraction
comparison.  Key order and key equality must be (value, id) order and
equality exactly, also where the floats of distinct values collide, where
numerator and denominator have a thousand digits, and where the float
underflows to 0.0; sorting and ``splice`` by ``sort_key`` must give the
sequence that sorting by (value, id) gives.  The uphill test of a flow
line (``edge_issues``) and the codimension-one decomposition, derived and
verified, compare the keys too and must decide as the values do.

``cli_io._fraction`` builds an ASCII ``p/q`` from its two ints and hands
every other token to ``Fraction(token)``; it must give the same value, or a
ParseError wherever ``Fraction(token)`` raises.  The one difference is on
purpose: a token whose exponent or value needs more digits than the
interpreter's int conversion limit is refused, as a ``p/q`` past it is.
"""

import dataclasses
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from halfhandle.cli_io import _fraction
from halfhandle.errors import ParseError
from halfhandle.morse_data import (
    Ambient,
    CriticalPoint,
    Kind,
    MorseDatum,
    first_inversion,
    order_key,
    splice,
)
from halfhandle.normal_form import derive_monotone_decomposition, verify_decomposition
from halfhandle.slice_topology import SliceComplex
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph, edge_issues


# ordinary values, values of up to about a thousand digits, values whose
# float underflows to 0.0, and neighbours a + 1/10**k whose floats collide
ordinary = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
    lambda v: 0 < v < 1)
huge = st.builds(lambda num, den: Fraction(num % den or 1, den),
                 st.integers(1, 10**1000), st.integers(2, 10**1000))
tiny = st.builds(lambda k, a: Fraction(a, 10**k), st.integers(330, 1000),
                 st.integers(1, 10**6))
values = st.one_of(ordinary, huge, tiny)


@st.composite
def colliding(draw):
    a = draw(st.one_of(ordinary, huge))
    b = a + Fraction(1, 10 ** draw(st.integers(1, 40)))
    return a, b if b < 1 else a


ids = st.sampled_from(["a", "b", "p0", "p1", "z"])


def assert_same_order(a, i, b, j):
    ka, kb = order_key(a, i), order_key(b, j)
    assert (ka < kb) == ((a, i) < (b, j))
    assert (ka == kb) == ((a, i) == (b, j))
    assert (ka > kb) == ((a, i) > (b, j))
    va, vb = order_key(a), order_key(b)
    assert (va < vb) == (a < b) and (va == vb) == (a == b) and (va > vb) == (a > b)


@settings(deadline=None)
@given(values, values, ids, ids)
@example(Fraction(1, 10**400), Fraction(2, 10**400), "a", "a")
def test_keys_order_as_the_values(a, b, i, j):
    assert_same_order(a, i, b, j)


@settings(deadline=None)
@given(colliding(), ids, ids)
def test_keys_order_values_whose_floats_collide(pair, i, j):
    a, b = pair
    assert_same_order(a, i, b, j)
    assert_same_order(b, i, a, j)


def test_colliding_floats_and_underflow_do_occur():
    a = Fraction(1, 3)
    assert float(a) == float(a + Fraction(1, 10**40)) and a != a + Fraction(1, 10**40)
    assert order_key(Fraction(1, 10**400))[0] == 0.0
    assert order_key(Fraction(1, 10**400)) < order_key(Fraction(2, 10**400))


def point(value, pid):
    return CriticalPoint(pid, Kind.INTERIOR, 1, value)


@st.composite
def point_sets(draw):
    """Points of distinct ids, some of them sharing or nearly sharing a
    value."""
    base = draw(st.lists(st.one_of(values, colliding().map(lambda ab: ab[1])),
                         min_size=1, max_size=12))
    chosen = draw(st.lists(st.sampled_from(base), min_size=1, max_size=24))
    return [point(v, "p%d" % k) for k, v in enumerate(chosen)]


def exact_order(points):
    return sorted(points, key=lambda p: (p.value, p.id))


@settings(max_examples=200, deadline=None)
@given(point_sets(), st.data())
def test_sorted_and_spliced_by_key_as_by_value_and_id(points, data):
    assert sorted(points, key=CriticalPoint.sort_key) == exact_order(points)
    items = tuple(exact_order(points))
    drop = data.draw(st.lists(st.sampled_from(items), unique_by=id))
    kept = [p for p in items if all(p is not q for q in drop)]
    taken = {p.id for p in kept}
    add = [point(v, "n%d" % k) for k, v in enumerate(
        data.draw(st.lists(st.one_of(values, st.sampled_from([p.value for p in items])),
                           max_size=6)))]
    assert not taken & {p.id for p in add}
    spliced = splice(items, drop, add, CriticalPoint.sort_key)
    assert list(spliced) == exact_order(kept + add)


def test_the_cached_float_is_the_float_of_the_value():
    for v in (Fraction(1, 3), Fraction(1, 10**400), Fraction(10**999 - 1, 10**999)):
        p = point(v, "p")
        assert p.sort_key() == order_key(v, "p")
        assert p.sort_key()[0] == v.numerator / v.denominator


# ---------------------------------------------------------------------------
# value tokens


def fraction_outcome(token):
    try:
        return ("value", Fraction(token))
    except (ValueError, ZeroDivisionError):
        return ("refused",)


def parsed_outcome(token):
    try:
        value = _fraction(token, 7)
    except ParseError as exc:
        assert str(exc) == "line 7: bad fraction %r" % (token,)
        return ("refused",)
    assert type(value) is Fraction
    return ("value", value)


TOKENS = [
    "7", "01/02", "+1/2", "-1/2", " 1/2", "1/2 ", "1_0/3", "1.5", "1e-3", "1E3",
    ".5", "5.", "3/4", "0/5", "١/٢", "١٢/٣", "²", "²/3", "1/²", "1/0", "/2",
    "2/", "", " ", "1//2", "1/2/3", "a/b", "nan", "inf", "1e", "e5", "1e5_0", "1_/2",
    "0x10", "1/-2", "1/+2", "9" * 4300 + "/1", "9" * 4301 + "/1",
]


@pytest.mark.parametrize("token", TOKENS)
def test_value_tokens_parse_as_the_fraction_constructor(token):
    assert parsed_outcome(token) == fraction_outcome(token)


@settings(deadline=None)
@given(st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789/+-_.eE ١٢²", max_size=12),
    st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30)),
))
def test_value_tokens_of_any_text_parse_as_the_fraction_constructor(token):
    # an exponent of five digits or more makes Fraction(token) compute up
    # to 10**99999999 and past the digit limit; those are refused (below)
    assume(not re.search(r"[eE][-+]?[\d_]{5}", token))
    assert parsed_outcome(token) == fraction_outcome(token)


def test_tokens_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    for token in ("1e-%d" % (limit + 1), "0e-%d" % (10 * limit), "1e-30000000",
                  "1e30000000", "0.%s1" % ("0" * (limit - 1)), "1e-%d" % limit):
        with pytest.raises(ParseError, match="bad fraction"):
            _fraction(token)
    assert _fraction("1e-%d" % (limit - 1)) == Fraction(1, 10 ** (limit - 1))


# ---------------------------------------------------------------------------
# the codimension-one decomposition and the uphill test of a flow line


def edge_reference(z, w):
    """``edge_issues``' uphill issue, by comparing the Fractions."""
    if z.value < w.value:
        return []
    return ["edge %s->%s: values %s >= %s, flow must strictly increase"
            % (z.id, w.id, z.value, w.value)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(colliding(), st.tuples(values, values), st.tuples(tiny, tiny)),
       st.booleans())
def test_the_uphill_test_of_a_flow_line_is_exact(pair, flip):
    a, b = reversed(pair) if flip else pair
    # a membrane line from index 1 up to index 2 in codimension 2: the
    # uphill test is the only issue it can have
    z, w = point(a, "z"), CriticalPoint("w", Kind.INTERIOR, 2, b)
    got = edge_issues(Ambient(4, 2), z, w, FlowEdge("z", "w", None, Locus.MEMBRANE))
    assert got == edge_reference(z, w)


def monotone_reference(datum):
    """``derive_monotone_decomposition`` with every compare on Fractions."""
    n = datum.ambient.n
    if first_inversion(datum.points, datum.values()) is not None:
        return None
    low = [p for p in datum.points if p.index <= 1]
    mids = [p for p in datum.points if 2 <= p.index <= n - 1]
    high = [p for p in datum.points if p.index >= n]
    vals = [p.value for p in mids]
    if len(set(vals)) != len(vals):
        return None
    anchors = [max([p.value for p in low], default=Fraction(0))]
    anchors += vals + [min([p.value for p in high], default=Fraction(1))]
    cuts = [Fraction(0)] + [(x + y) / 2 for x, y in zip(anchors, anchors[1:])]
    cuts.append(Fraction(1))
    return cuts, [p.id for p in low], [p.id for p in mids], [p.id for p in high]


@st.composite
def codim_one_data(draw):
    """Codimension-one data (n = 4) over near or tied values, whose floats
    collide or underflow, mostly put in index order."""
    base = draw(st.lists(st.one_of(colliding().map(lambda ab: ab[1]), tiny, values),
                         min_size=1, max_size=5))
    vals = draw(st.lists(st.sampled_from(base), min_size=1, max_size=10))
    near = [v + Fraction(1, 10**30) for v in vals if v + Fraction(1, 10**30) < 1]
    vals = draw(st.permutations(vals + near[:draw(st.integers(0, len(near)))]))
    indices = draw(st.lists(st.integers(0, 5), min_size=len(vals), max_size=len(vals)))
    if draw(st.booleans()):
        vals, indices = sorted(vals), sorted(indices)
    points = tuple(CriticalPoint("p%d" % k, Kind.INTERIOR, i, v)
                   for k, (i, v) in enumerate(zip(indices, vals)))
    return MorseDatum(Ambient(5, 4), points, TrajectoryGraph(()), SliceComplex((), ()))


@settings(max_examples=300, deadline=None)
@given(codim_one_data())
def test_the_monotone_decomposition_is_exact(d):
    dec = derive_monotone_decomposition(d)
    want = monotone_reference(d)
    if want is None:
        assert dec is None
        return
    cuts, low, mids, high = want
    assert [s.lo for s in dec.segments] + [dec.segments[-1].hi] == cuts
    assert [list(s.point_ids) for s in dec.segments] == [low] + [[m] for m in mids] + [high]
    assert verify_decomposition(d, dec)


@pytest.mark.parametrize("base, step", [
    (Fraction(1, 3), Fraction(1, 10**40)),  # the floats collide
    (Fraction(0), Fraction(1, 10**400)),  # the floats underflow to 0.0
])
def test_decompositions_over_colliding_floats_are_derived_and_verified_exactly(
        base, step):
    x1, x2, x3 = (base + k * step for k in (1, 2, 3))

    def codim_one(*points):
        return MorseDatum(Ambient(5, 4), tuple(
            CriticalPoint(pid, Kind.INTERIOR, index, v) for pid, index, v in points),
            TrajectoryGraph(()), SliceComplex((), ()))

    d = codim_one(("a", 0, x1), ("b", 2, x2), ("c", 5, x3))
    dec = derive_monotone_decomposition(d)
    assert [s.point_ids for s in dec.segments] == [("a",), ("b",), ("c",)]
    assert [s.hi for s in dec.segments] == [(x1 + x2) / 2, (x2 + x3) / 2, 1]
    assert verify_decomposition(d, dec)
    # the middle segment turned over, by less than the float spacing
    low, mid, high = dec.segments
    flipped = (dataclasses.replace(low, hi=mid.hi),
               dataclasses.replace(mid, lo=mid.hi, hi=mid.lo),
               dataclasses.replace(high, lo=mid.lo))
    assert not verify_decomposition(d, dataclasses.replace(dec, segments=flipped))
    # index 0 above index 2, by less than the float spacing
    assert derive_monotone_decomposition(
        codim_one(("a", 0, x2), ("b", 2, x1), ("c", 5, x3))) is None
    # the highest low point and the lowest high point set the outer cuts
    d = codim_one(("a", 0, x1), ("a1", 1, x2), ("b", 2, x3),
                  ("c", 4, x3 + step), ("c1", 5, x3 + 2 * step))
    dec = derive_monotone_decomposition(d)
    assert [s.hi for s in dec.segments] == [(x2 + x3) / 2, (2 * x3 + step) / 2, 1]
    assert verify_decomposition(d, dec)
