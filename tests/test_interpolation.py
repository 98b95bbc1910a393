"""Interpolated values worked out on ints, against the ``Fraction``
arithmetic they replace.

``morse_data.ratio(num, den)`` builds a ``Fraction`` from two ints without
``Fraction.__new__``.  For any ints, zero, pairs with a common factor and
ints of hundreds of digits among them, it must give what
``Fraction(num, den)`` gives, down to the type, the hash, the printed forms,
the two ints and the results of comparisons and arithmetic with Fractions
built the usual way, and raise the same ZeroDivisionError for a zero
denominator; it relies on the two slots of ``Fraction``, which a test pins.

``morse_data.between(lo, hi, t, k)`` builds ``lo + (hi - lo) * t / k`` from
the ints of its ends, normalized once by ``ratio``.  It must equal the ``Fraction``
formula as a value and print as it does, for random ends in [0, 1] and the
int ends 0 and 1, and so must each expression the drivers used to write
out: the split halves, the midpoint cuts of the codimension-one
decomposition, and the park, joinability, separation and final segment
slots.  ``morse_data.spaced(lo, hi, k)`` builds the k - 1 values that cut
[lo, hi] into k equal steps, reading the ends' ints once; it must give
what one ``between`` a value gives (``spaced_by_between``), for int and
Fraction ends alike.

``realize_configuration`` checks, converts and keys its targets in one
pass; with several defects in one map it must still refuse the one the
replay reference (``realize_by_replay``) refuses first, with its class and
message.

The driver's outputs are pinned at 1,280 points, where the denominators
the interpolation builds grow: ``global_split`` on the unions of both split
pools that ``tools/scale.py`` builds must keep the recorded result and
certificate pins.
"""

import itertools
import operator
import pickle
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfhandle.cli_io import parse_datum
from halfhandle.morse_data import between, ratio, spaced
from halfhandle.moves import realize_configuration
from halfhandle.normal_form import _half_handle_bounds, global_split

from helpers import RunDigests, perfbench_module, realize_by_replay, spaced_by_between

ROOT = Path(__file__).resolve().parent.parent

ends = st.one_of(
    st.sampled_from([0, 1]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**12),
)


@st.composite
def steps(draw):
    """(t, k) with 1 <= t < k."""
    k = draw(st.integers(2, 10**6))
    return draw(st.integers(1, k - 1)), k


def same(got, want):
    assert type(got) is Fraction
    assert got == want and str(got) == str(want)


def test_the_fraction_layout_ratio_builds_on():
    # ratio sets these two slots on an object.__new__ Fraction, as
    # Fraction.__new__ does; a Python whose Fraction differs needs a new ratio
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert not hasattr(Fraction(1, 2), "__dict__")


OTHERS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-7, 2),
          Fraction(10**30 + 1, 3), 0, 1, -2, 10**40)
OPERATORS = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
             operator.ne, operator.add, operator.sub, operator.mul,
             operator.truediv, operator.floordiv, operator.mod, divmod)


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its value and type, or its error."""
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return ("raised", str(exc))
    return ("gave", value, type(value), str(value))


def assert_alike(got, want):
    """``got``, a Fraction ``ratio`` or ``between`` built, behaves as
    ``want``, one ``Fraction(num, den)`` built."""
    assert type(got) is type(want) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0
    assert type(got.numerator) is type(got.denominator) is int
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert pickle.loads(pickle.dumps(got)) == want and float(got) == float(want)
    assert (int(got), round(got), abs(got), -got) == (int(want), round(want),
                                                      abs(want), -want)
    for other in OTHERS:
        for op in OPERATORS:
            assert outcome(op, got, other) == outcome(op, want, other), (op, other)
            assert outcome(op, other, got) == outcome(op, other, want), (op, other)
    assert {got: 1}[want] == 1 and {want: 1}[got] == 1


int_pairs = st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    st.tuples(st.integers(-10**300, 10**300), st.integers(-10**300, 10**300)),
    st.tuples(st.sampled_from([0, 1, -1]), st.integers(-3, 3)),
    st.builds(lambda a, b, g: (a * g, b * g), st.integers(-10**9, 10**9),  # not coprime
              st.integers(-10**9, 10**9), st.integers(2, 10**12)),
)


@settings(deadline=None, max_examples=500)
@given(int_pairs)
@example((0, 5))
@example((0, -5))
@example((6, 4))
@example((-6, -4))
@example((6, -4))
@example((3, 0))
@example((0, 0))
@example((-3, 0))
@example((2 ** 4000 * 3, 2 ** 3999 * 9))
@example((7 ** 1000 + 1, 7 ** 1000))
def test_ratio_is_the_fraction_constructor(pair):
    num, den = pair
    if den == 0:
        assert outcome(ratio, num, den) == outcome(Fraction, num, den)
        assert outcome(ratio, num, den)[0] == "raised"
        return
    assert_alike(ratio(num, den), Fraction(num, den))


@settings(deadline=None, max_examples=200)
@given(ends, ends, steps())
@example(0, 1, (1, 2))
@example(Fraction(1, 3), Fraction(1, 3), (1, 2))
@example(Fraction(10**50 - 1, 10**50), 1, (999_999, 10**6))
def test_between_builds_what_the_fraction_constructor_builds(lo, hi, tk):
    t, k = tk
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    assert_alike(between(lo, hi, t, k),
                 Fraction(a * d * (k - t) + c * b * t, b * d * k))
    assert outcome(between, lo, hi, t, 0) == outcome(Fraction, (c * b - a * d) * t, 0)


@settings(deadline=None, max_examples=500)
@given(ends, ends, steps())
def test_between_is_the_fraction_formula(lo, hi, tk):
    t, k = tk
    same(between(lo, hi, t, k), lo + (hi - lo) * Fraction(t, k))


@settings(deadline=None, max_examples=300)
@given(ends, ends, ends, steps(), st.integers(1, 20))
def test_each_old_expression_equals_its_between_form(below, z, above, tk, n):
    t, k = tk
    z = Fraction(z)
    # the split halves of moves._split_run
    same(between(below, z, 1, 2), z - (z - below) / 2)
    same(between(z, above, 1, 3), z + (above - z) / 3)
    # the midpoint cuts of derive_monotone_decomposition
    same(between(below, above, 1, 2), (Fraction(below) + above) / 2)
    # the park slots of realize_configuration, slot t of k above the ceiling
    num, den = z.numerator, z.denominator
    same(between(z, 1, t, k), Fraction(num * k + (den - num) * t, den * k))
    # the slots of ensure_joinable and of _separate_middle_levels (from a
    # level below, 0 at first, in steps of (level - below) / k)
    same(between(below, z, t, k), below + (z - below) * Fraction(t, k))
    step = (z - below) / k
    same(between(below, z, t, k), below + step * t)
    # the final slots of _segment_targets: point j of a group of g in
    # segment i of _half_handle_bounds(n), against the formula it had with
    # its own denominator
    g, j = k - 1, t - 1
    denom = 2 * n + 4
    for i, (lo, hi) in enumerate(_half_handle_bounds(n)):
        same(between(lo, hi, j + 1, g + 1),
             Fraction(i * (g + 1) + j + 1, denom * (g + 1)))


@settings(deadline=None, max_examples=300)
@given(ends, ends, st.one_of(st.integers(0, 40), st.sampled_from([1, 2, 161, 322])))
@example(0, 1, 5)
@example(Fraction(1, 3), 1, 162)  # a park band above a ceiling
@example(0, Fraction(3, 8), 4)
@example(Fraction(1, 2), Fraction(1, 2), 3)
def test_spaced_values_are_the_between_values(lo, hi, k):
    got, want = spaced(lo, hi, k), spaced_by_between(lo, hi, k)
    assert len(got) == len(want) == max(k - 1, 0)
    for value, reference in zip(got, want):
        same(value, reference)
    if got:
        assert_alike(got[0], want[0])


def monotone():
    return parse_datum((ROOT / "fixtures" / "monotone.datum").read_text())


def refusal(fn, d, targets):
    with pytest.raises(Exception) as info:
        fn(d, targets)
    return type(info.value), str(info.value)


def test_realize_configuration_refuses_the_first_defect_of_several():
    d = monotone()
    good = {"a": Fraction(1, 4), "b": Fraction(1, 2), "c": Fraction(3, 4)}
    defects = {  # each spoils the map in one way, and each in its place
        "outside": lambda m: m.update(b=Fraction(3, 2)),
        "outside first": lambda m: m.update(a=Fraction(0)),
        "missing": lambda m: m.pop("c"),
        "unknown": lambda m: m.update(x=Fraction(1, 3)),
    }
    seen = set()
    for size in range(1, len(defects) + 1):
        for chosen in itertools.permutations(defects, size):
            targets = dict(good)
            for name in chosen:
                defects[name](targets)
            want = refusal(realize_by_replay, d, targets)
            assert refusal(realize_configuration, d, targets) == want, chosen
            seen.add(want[0].__name__)
    assert seen == {"Inadmissible", "PartialConfiguration", "UnknownId"}


def scale_tool(monkeypatch):
    """``tools/scale.py`` as a module, compiled from its source with the
    benchmark's corpus module in place, so that no bytecode cache is written
    next to either."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # scale.py prepends src/
    monkeypatch.setitem(sys.modules, "corpus", perfbench_module("corpus"))
    path = ROOT / "tools" / "scale.py"
    module = types.ModuleType("scale")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


# the result and certificate pins (``RunDigests``) of ``global_split`` on
# each 1,280-point union
DIGESTS_1280 = {
    "split_deep": {
        "result": "65edb40e8d0c225cdd8754c42c6dbd3176f4785ec6114f20a71159c9e8b0aa5e",
        "certificate": (5600, "b9e840fd8701448c06d54cd9e96450e06934a775a799f0fb9171b8c56504a69d"),
    },
    "split_codim1": {
        "result": "1f34179f7bf738a230189bd2c14e7a92fa47cb682118607108ee89de599eddce",
        "certificate": (2816, "9e460a964cd78a6515386a442c2f44b8d545b9b2c4c788a35f4db1f53c496b23"),
    },
}


def test_global_split_keeps_its_outputs_on_the_1280_point_unions(monkeypatch):
    scale = scale_tool(monkeypatch)
    texts, _ = scale.load_corpus()
    for pool in scale.POOLS:
        d = scale.union_of([parse_datum(t) for t in texts[pool]], 1280)
        assert len(d.points) == 1280
        digests = RunDigests()
        digests.add(*global_split(d))
        assert digests.pins() == DIGESTS_1280[pool], pool
