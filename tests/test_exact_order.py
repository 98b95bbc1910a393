"""The float-filtered order keys and the value-token parser against their
exact references.

``order_key`` puts the float of a Fraction before it, so that unequal
floats decide the order and only equal floats reach the Fraction
comparison.  Key order and key equality must be (value, id) order and
equality exactly, also where the floats of distinct values collide, where
numerator and denominator have a thousand digits, and where the float
underflows to 0.0; sorting and ``splice`` by ``sort_key`` must give the
sequence that sorting by (value, id) gives, and ``splice``, which places
a large patch by one sort, must give what placing every added item by
bisection (``splice_by_bisection``) gives.  ``admissible_keys`` (the
reference kept in ``helpers``) reads each rank's lowest and highest key
in one pass, and ``first_inversion`` each rank's lowest; over tied,
colliding and underflowing keys they must decide as a search of every
pair of points does
(``admissible_keys_by_two_passes``, ``first_inversion_by_pairs``), and
``first_inversion`` must name the pair that search finds first.  The map
check of ``realize_configuration`` (``moves._ordered``) reads the same
verdicts along the sorted keys, over equal and colliding values.  The uphill test of a flow
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
from operator import itemgetter

import pytest
from hypothesis import assume, event, example, given, settings
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
from halfhandle.moves import _ordered
from halfhandle.normal_form import derive_monotone_decomposition, verify_decomposition
from halfhandle.slice_topology import SliceComplex
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph, edge_issues

from helpers import (
    admissible_keys,
    admissible_keys_by_two_passes,
    first_inversion_by_pairs,
    splice_by_bisection,
)


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
    assert spliced == splice_by_bisection(items, drop, add, CriticalPoint.sort_key)


@settings(max_examples=200, deadline=None)
@given(st.integers(101, 400), st.randoms(use_true_random=False), st.data())
def test_splice_by_bisection_as_the_plain_rebuild(size, rng, data):
    # fewer than one drop per hundred items: the drops are found by
    # bisection, as for a split or a cancel on a large datum
    items = tuple((k, "old") for k in sorted(rng.sample(range(10**6), size)))
    drop = data.draw(st.lists(st.sampled_from(items), min_size=1,
                              max_size=min(3, (size - 1) // 100), unique=True))
    assert 100 * len(drop) < len(items)
    kept = [x for x in items if x not in drop]
    taken = {k for k, _ in kept}
    free = st.integers(0, 10**6).filter(lambda k: k not in taken)
    again = st.sampled_from([k for k, _ in drop])  # a dropped key, re-added
    add = [(k, "new") for k in data.draw(
        st.lists(st.one_of(free, again), max_size=4, unique=True))]
    key = itemgetter(0)
    assert splice(items, drop, add, key) == tuple(sorted(kept + add, key=key))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400), st.randoms(use_true_random=False), st.data())
def test_splice_places_small_and_large_patches_as_by_bisection(size, rng, data):
    # drops found by bisection or by the pass, and patches of a few added
    # items or of many, some of them at the key of a dropped item: one sort
    # or bisection each, the same tuple as bisection alone gives
    items = tuple((2 * k, "old") for k in sorted(rng.sample(range(10**6), size)))
    drop = data.draw(st.lists(st.sampled_from(items), unique=True)) if items else []
    add = [(2 * k + 1, "new") for k in rng.sample(
        range(10**6), data.draw(st.integers(0, size // 4 + 4)))]
    add += [(k, "new") for k, _ in drop[:data.draw(st.integers(0, len(drop)))]]
    rng.shuffle(add)
    key = itemgetter(0)
    got = splice(items, drop, add, key)
    assert got == splice_by_bisection(items, drop, add, key)
    assert got == tuple(sorted(set(items) - set(drop) | set(add), key=key))
    event("%s drops, %s patch" % ("few" if 100 * len(drop) < size else "many",
                                   "large" if 10 * len(add) >= size - len(drop)
                                   else "small"))


RANK_KINDS = (Kind.INTERIOR, Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(RANK_KINDS), st.integers(0, 4),
                          st.one_of(values, colliding().map(lambda ab: ab[1]))),
                max_size=12),
       st.booleans())
def test_one_pass_admissibility_decides_as_the_two_inversion_passes(cells, ordered):
    # the points' keys from few values, so that ranks tie, interleave or
    # collide in their floats; half of them sorted by index first, so that
    # admissible maps are common too
    if ordered:
        values_ = sorted(v for _, _, v in cells)
        cells = [(kind, index, v) for (kind, index, _), v in
                 zip(sorted(cells, key=lambda c: (c[1], c[0] is Kind.BOUNDARY_UNSTABLE)),
                     values_)]
    points = [CriticalPoint("p%d" % k, kind, index + (kind is Kind.BOUNDARY_STABLE), v)
              for k, (kind, index, v) in enumerate(cells)]
    keys = {p.id: order_key(p.value) for p in points}
    got = admissible_keys(points, keys)
    assert got == admissible_keys_by_two_passes(points, keys)
    for rank in (lambda p: p.index, lambda p: (p.index, p.kind is Kind.BOUNDARY_UNSTABLE)):
        assert (first_inversion(points, keys, rank)
                == first_inversion_by_pairs(points, keys, rank))
    event("admissible" if got else "inadmissible")


@st.composite
def target_maps(draw):
    """Points of any kind and index, with distinct ids in any order, at
    values drawn from a pool of at most ten, two of them a pair whose
    floats may collide, so that ranks tie, interleave and share levels;
    some of them given their sorted values by index, or by index and then
    stable before unstable, so that maps admissible in codimension one or
    in both senses are common too.  The points and their ``order_key``s by
    id."""
    a, b = draw(colliding())
    pool = draw(st.lists(values, max_size=8)) + [a, b]
    cells = [(kind, index + (kind is Kind.BOUNDARY_STABLE), v) for kind, index, v in
             draw(st.lists(st.tuples(st.sampled_from(RANK_KINDS), st.integers(0, 4),
                                     st.sampled_from(pool)), max_size=12))]
    rank = draw(st.sampled_from([None, lambda c: c[1],
                                 lambda c: (c[1], c[0] is Kind.BOUNDARY_UNSTABLE)]))
    if rank is not None:
        cells = [(kind, index, v) for (kind, index, _), v in
                 zip(sorted(cells, key=rank), sorted(v for _, _, v in cells))]
    names = draw(st.permutations(["p%d" % k for k in range(len(cells))]))
    points = [CriticalPoint(pid, kind, index, v) for pid, (kind, index, v) in zip(names, cells)]
    return points, {p.id: order_key(p.value) for p in points}


def map_of(*cells):
    points = [CriticalPoint("p%d" % k, kind, index, Fraction(v))
              for k, (kind, index, v) in enumerate(cells)]
    return points, {p.id: order_key(p.value) for p in points}


STABLE, UNSTABLE = Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE


@settings(max_examples=500, deadline=None)
@given(target_maps())
@example(map_of((STABLE, 1, "1/3"), (UNSTABLE, 1, "1/3")))  # a wall pair on one level
@example(map_of((UNSTABLE, 1, "1/4"), (STABLE, 1, "1/3")))  # unstable below stable
@example(map_of((Kind.INTERIOR, 1, "1/3"), (UNSTABLE, 1, "1/3"), (STABLE, 2, "1/2")))
def test_the_map_check_along_the_sort_decides_as_the_pair_searches(case):
    # ``realize_configuration`` reads admissibility along its one sort of
    # the target keys: deep, as the two inversion searches over every pair
    # decide it; in codimension one, as the search by index alone
    points, keys = case
    order = sorted(key + (pid,) for pid, key in keys.items())
    index = {p.id: p for p in points}
    got = _ordered(order, index, True)
    assert got == admissible_keys_by_two_passes(points, keys) == admissible_keys(points, keys)
    monotone = _ordered(order, index, False)
    assert monotone == (first_inversion_by_pairs(points, keys) is None)
    assert monotone == (first_inversion(points, keys) is None)
    event("deep %s, codim 1 %s" % (got, monotone))


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


def past_the_digit_limit(token):
    """Whether ``token`` has an exponent past the int digit limit, or one
    of five digits or more, or ``Fraction(token)`` has a numerator or a
    denominator past it.  ``_fraction`` refuses such a token, though
    ``Fraction`` may read it: 0E5000 is 0 and 1e4300 is 10**4300.  An
    exponent of five digits or more is not read here, since ``Fraction``
    would compute up to 10**99999999."""
    limit = sys.get_int_max_str_digits()
    for exponent in re.findall(r"[eE][-+]?([\d_]+)", token):
        digits = exponent.replace("_", "") or "0"
        if len(exponent) >= 5 or limit and int(digits) > limit:
            return True
    outcome = fraction_outcome(token)
    if outcome[0] == "value":
        try:
            str(outcome[1])
        except ValueError:  # a numerator or denominator past the limit
            return True
    return False


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
    assume(not past_the_digit_limit(token))  # refused, below
    assert parsed_outcome(token) == fraction_outcome(token)


def test_tokens_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    for token in ("1e-%d" % (limit + 1), "0e-%d" % (10 * limit), "1e-30000000",
                  "1e30000000", "0.%s1" % ("0" * (limit - 1)), "1e-%d" % limit,
                  "0E5000", "0e%d" % (limit + 1)):  # Fraction reads both as 0
        assert past_the_digit_limit(token)
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
