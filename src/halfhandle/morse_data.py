"""Core data model for Morse data of an embedded cobordism with boundary.

The ambient space is Z x [0,1] with dim Z = m.  Inside it sits a compact
cobordism of dimension n+1 whose boundary splits into a bottom piece (over
level 0), a top piece (over level 1) and a vertical wall running between
them.  Projection to [0,1] restricts to a Morse function on the cobordism;
its critical points each carry a kind (interior, boundary stable, boundary
unstable), a Morse index and an exact rational critical value in (0,1).

A full datum holds the critical points, the graph of flow lines between
them, and a combinatorial record of how level set components change when a
critical value is crossed.  Everything is immutable; rewriting steps build
new data, which keeps move scripts replayable.

Values are exact ``Fraction``s, ordered exactly at float speed:
``order_key`` puts the float ``numerator / denominator`` before a value.
Int division is correctly rounded and rounding is monotone, so a < b gives
float(a) <= float(b): unequal floats order as their values do, and only
equal floats fall through to the ``Fraction`` after them in the key.

Every value the engine builds from two ints comes from ``ratio``: one gcd,
and the two slots of a ``Fraction`` set directly, where the pure-Python
``Fraction.__new__`` would first ask what its arguments are.  A value the
drivers interpolate between two others is worked out on their ints by
``between``, and the evenly spaced values of a park band, a half-handle
segment or a list of separation slots by ``spaced``, which reads the ends'
ints once for all of them; the ints of a Fraction are read from its slots.
The parser builds each ``p/q`` token by ``ratio``.

Each type has a checked constructor and one unchecked builder.  The
constructor checks every field; the builder checks nothing, for a caller
that has made the checks: a move that has proved its result valid, or the
parser, whose match proves a canonical line.  ``CriticalPoint._trusted``
builds a point field by field, so it keeps the compact layout of a checked
one, and ``MorseDatum._built`` a datum from points already in (value, id)
order: a move places them itself, a patch by ``splice`` (by bisection
when it is small, by one sort when it is large), a full target map in the
order of its own sort and a split run each pair in its point's place.
The datum's point and place indexes, like the indexes of its graph and
complex, are built from the points on first use.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import attrgetter
from typing import Any, Dict, Mapping, Optional

from .errors import (
    InvalidIndexKind,
    UnknownId,
    ValidationError,
)

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def order_key(value: Fraction, *pid: str) -> tuple:
    """``(float, value)``, or ``(float, value, id)`` with an id: the key
    that orders a Fraction or an int, or a point at it, exactly and at
    float speed (see the module docstring), its ints read by ``_terms``.
    Compare keys only with keys."""
    num, den = _terms(value)
    return (num / den, value, *pid)


def exact(value) -> Fraction:
    """``value`` as a Fraction: a Fraction is returned as it is, anything
    else goes through ``Fraction(value)`` (and raises what that raises)."""
    return value if type(value) is Fraction else Fraction(value)


def ratio(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ints: normalized by one gcd, the sign on
    the numerator, and ZeroDivisionError for ``den == 0``, as there.  It is
    ``object.__new__(Fraction)`` with the two slots set that
    ``Fraction.__new__`` sets (a test pins that layout)."""
    if not den:
        raise ZeroDivisionError("Fraction(%s, 0)" % (num,))
    g = gcd(num, den)
    if den < 0:
        g = -g
    out = object.__new__(Fraction)
    out._numerator = num // g
    out._denominator = den // g
    return out


def _terms(x) -> tuple:
    """``(numerator, denominator)`` of an int or a Fraction, the Fraction's
    read from the two slots that ``ratio`` and ``Fraction.__new__`` set,
    not through its properties."""
    return (x, 1) if type(x) is int else (x._numerator, x._denominator)


def between(lo, hi, t: int, k: int) -> Fraction:
    """``lo + (hi - lo) * t / k`` as one normalized Fraction, for Fractions
    or ints ``lo`` and ``hi``: built from the four ints of the ends by
    ``ratio``, and none of the ``Fraction`` operators' own."""
    (a, b), (c, d) = _terms(lo), _terms(hi)
    return ratio(a * d * (k - t) + c * b * t, b * d * k)


def spaced(lo, hi, k: int) -> list:
    """``[between(lo, hi, t, k) for t in range(1, k)]``: the k - 1 values
    that cut [lo, hi] into k equal steps, from the bottom up.  The ints of
    the ends are read once and each value is one ``ratio`` of the
    numerator ``a*d*k + (c*b - a*d)*t`` over ``b*d*k``, which is
    ``between``'s, so the values are equal and print alike."""
    (a, b), (c, d) = _terms(lo), _terms(hi)
    base, step, den = a * d * k, c * b - a * d, b * d * k
    return [ratio(base + step * t, den) for t in range(1, k)]


class Kind(str, enum.Enum):
    """How a critical point sits relative to the vertical boundary wall.

    Interior points sit away from the wall.  Boundary points sit on the
    wall and come in two flavours, depending on whether the flow near the
    point pushes into the cobordism (stable) or out of it (unstable).
    """

    INTERIOR = "interior"
    BOUNDARY_STABLE = "boundary_stable"
    BOUNDARY_UNSTABLE = "boundary_unstable"

    @property
    def is_boundary(self) -> bool:
        return self is not Kind.INTERIOR


@dataclass(frozen=True)
class Ambient:
    """Dimension bookkeeping: slices of the big manifold are m-dimensional,
    the cobordism is (n+1)-dimensional, so its level sets are n-dimensional.
    """

    m: int
    n: int

    def __post_init__(self):
        if not isinstance(self.m, int) or not isinstance(self.n, int):
            raise ValidationError("ambient dimensions must be integers")
        if self.n < 1:
            raise ValidationError("need n >= 1, got n=%r" % (self.n,))
        if self.m < self.n + 1:
            raise ValidationError(
                "need m >= n+1, got m=%r with n=%r" % (self.m, self.n)
            )

    @property
    def codim(self) -> int:
        return self.m - self.n


def index_bounds(kind: Kind, n: int):
    """Smallest and largest Morse index a point of this kind may carry."""
    if kind is Kind.INTERIOR:
        return 0, n + 1
    if kind is Kind.BOUNDARY_STABLE:
        return 1, n + 1
    return 0, n


def check_index_kind(kind: Kind, index: int, n: int) -> None:
    lo, hi = index_bounds(kind, n)
    if not (lo <= index <= hi):
        raise InvalidIndexKind(
            "index %d out of range [%d, %d] for %s with n=%d"
            % (index, lo, hi, kind.value, n)
        )


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point: id, kind, Morse index and exact critical value."""

    id: str
    kind: Kind
    index: int
    value: Fraction

    def __post_init__(self):
        if not _ID_RE.match(self.id or ""):
            raise ValidationError("bad point id %r" % (self.id,))
        if not isinstance(self.index, int) or self.index < 0:
            raise ValidationError("bad index %r for point %r" % (self.index, self.id))
        value = exact(self.value)
        num, den = value.numerator, value.denominator
        if not 0 < num < den:  # checked on ints: denominators are positive
            raise ValidationError(
                "critical value %s of %r not strictly inside (0,1)" % (value, self.id)
            )
        object.__setattr__(self, "value", value)
        if type(self.kind) is not Kind:  # a parsed point's Kind is kept as it is
            object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "_float", num / den)

    def sort_key(self):
        """``order_key(value, id)`` from the cached float: exact (value, id)
        order, where only equal floats compare the Fractions."""
        return (self._float, self.value, self.id)

    @staticmethod
    def _trusted(pid: str, kind: Kind, index: int, key: tuple) -> "CriticalPoint":
        """The point ``CriticalPoint(pid, kind, index, key[1])`` builds, at
        ``key``, the ``order_key`` of its value, for a caller that has made
        its checks: ``pid`` passes ``_ID_RE``, ``kind`` is a ``Kind``,
        ``index`` an int >= 0 and ``key[1]`` a Fraction strictly inside
        (0, 1).  A moved point is a valid point, its id, kind and index
        kept, at a value its move has checked.  A split half's id is a
        valid datum's id with ``s``, ``u`` or ``_`` appended, its kind and
        index are z's, and its value lies strictly between two values in
        [0, 1] that ``_split_run`` has found unequal to z's; a parsed
        point's match and range test prove the same (``cli_io``).  Fields
        go in one by one, as ``__post_init__`` leaves them, so the instance
        keeps the compact shared-key layout, half the size of a dict."""
        out, put = object.__new__(CriticalPoint), object.__setattr__
        put(out, "id", pid)
        put(out, "kind", kind)
        put(out, "index", index)
        put(out, "value", key[1])
        put(out, "_float", key[0])
        return out


@dataclass(frozen=True)
class DimensionProfile:
    """Dimensions of the six pieces of stable and unstable set at a point.

    ``stable_membrane`` and ``unstable_membrane`` live in the ambient space
    outside the cobordism.  The ``inner`` pair lives in the cobordism away
    from the wall, the ``wall`` pair inside the wall.  ``None`` marks a
    piece that is empty for the given point kind.
    """

    stable_membrane: int
    unstable_membrane: int
    stable_inner: Optional[int]
    unstable_inner: Optional[int]
    stable_wall: Optional[int]
    unstable_wall: Optional[int]


@lru_cache(maxsize=1024, typed=True)  # far more than the cells of any n in use
def dimension_profile(kind: Kind, index: int, n: int) -> DimensionProfile:
    """Dimension profile of a critical point of the given kind and index.

    Raises ValidationError for n < 1, as ``Ambient`` does, and
    InvalidIndexKind when the (kind, index) pair cannot occur on an
    n-dimensional level set.  Valid pairs never produce negative entries.
    A profile is built once and shared while it stays in the cache (it is
    frozen); a refused pair is refused on every call.
    """
    if n < 1:
        raise ValidationError("need n >= 1, got n=%r" % (n,))
    kind = Kind(kind)
    check_index_kind(kind, index, n)
    k = index
    if kind is Kind.INTERIOR:
        return DimensionProfile(k + 1, n + 2 - k, k, n + 1 - k, None, None)
    if kind is Kind.BOUNDARY_STABLE:
        return DimensionProfile(k + 1, n + 2 - k, k, None, k - 1, n + 1 - k)
    return DimensionProfile(k + 1, n + 2 - k, None, n + 1 - k, k, n - k)


def first_inversion(points, values: Mapping[str, Any], rank=lambda p: p.index):
    """First pair (z, w) with rank(z) < rank(w) but not values[z] < values[w].

    ``values`` maps each point id to a key of any type whose keys compare
    with each other: a Fraction, or an order key such as the (float,
    Fraction) pairs of ``realize_configuration``.

    "First" in the order of a double loop over ``points``; None when the
    values are strictly monotone in the rank.  One pass reads each rank's
    lowest value, and the lowest value above each rank is read off one
    sorted pass over the ranks: z is the first point at or above the
    lowest value of a higher rank, and w the first such point of a higher
    rank, so the search is O(P log P), not a comparison of every pair.
    """
    lowest: Dict[object, Any] = {}
    for p in points:
        r, v = rank(p), values[p.id]
        if r not in lowest or v < lowest[r]:
            lowest[r] = v
    floor_above = {}
    floor = None
    for r in sorted(lowest, reverse=True):
        floor_above[r] = floor
        if floor is None or lowest[r] < floor:
            floor = lowest[r]
    z = next((z for z in points if floor_above[rank(z)] is not None
              and floor_above[rank(z)] <= values[z.id]), None)
    if z is None:
        return None
    v = values[z.id]
    return z, next(w for w in points if rank(z) < rank(w) and values[w.id] <= v)


def splice(items: tuple, drop, add, key) -> tuple:
    """``items``, sorted by ``key`` with distinct keys, without the items in
    ``drop`` (items of ``items`` themselves) and with those in ``add``, in
    key order.

    A few dropped items are found by bisection, many by one pass over the
    items.  Finding one point by bisection costs as much as a pass over 60
    (at 248 points) to 130 (at 5,120) of them, so a split's one or two
    drops are up to 20x cheaper by bisection and a run that moves every
    point up to 70x cheaper by the pass.  A few added items are placed by
    bisection, O(log N) key comparisons each and two copies of the tuple;
    many are placed by one ``list.sort`` of the kept and added items, one
    key each and a merge of the sorted runs.  At 160 to 5,120 points the
    two cost the same at about one added item per ten kept ones, so a
    lone split's flow lines and effects, a cancel or a run that moves a
    few points are placed by bisection, and a run that moves many points
    or a split run's flow lines and effects by the sort.  The moves patch
    the points (but for a target map's and a split run's), flow lines and
    effects of a datum with it.
    """
    if 100 * len(drop) < len(items):
        kept, start = [], 0
        for i in sorted(bisect_left(items, key(x), key=key) for x in drop):
            kept += items[start:i]
            start = i + 1
        kept += items[start:]
    else:
        gone = set(map(id, drop))
        kept = [x for x in items if id(x) not in gone]
    if 10 * len(add) >= len(kept):
        kept += add
        kept.sort(key=key)
        return tuple(kept)
    out, start = [], 0
    for x in sorted(add, key=key):
        i = bisect_left(kept, key(x), start, key=key)
        out += kept[start:i]
        out.append(x)
        start = i
    out += kept[start:]
    return tuple(out)


@dataclass(frozen=True)
class Flags:
    """Asserted global properties of the cobordism.

    Each flag promises the absence of closed (wall-avoiding) connected
    components: of the whole cobordism, of the bottom level set, and of the
    top level set.  The normal form driver needs all three.
    """

    no_closed_cobordism: bool = True
    no_closed_bottom: bool = True
    no_closed_top: bool = True


@dataclass(frozen=True)
class MorseDatum:
    """A complete symbolic Morse datum.

    Points are kept sorted by (value, id); that order is also the replay
    order for the slice effects, so two data with equal fields behave
    identically everywhere.
    """

    ambient: Ambient
    points: tuple
    graph: object  # TrajectoryGraph
    slices: object  # SliceComplex
    flags: Flags = Flags()

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.sort_key()))
        seen = set()
        for p in pts:
            if p.id in seen:
                raise ValidationError("duplicate point id %r" % (p.id,))
            seen.add(p.id)
        object.__setattr__(self, "points", pts)

    @cached_property
    def point_index(self) -> Dict[str, CriticalPoint]:
        """Point by id, built once per datum, on first use."""
        return {p.id: p for p in self.points}

    @cached_property
    def place_index(self) -> Dict[str, int]:
        """Place in ``points`` by id, built once per datum, on first use: a
        split reads its point, and the neighbours around its gap, there."""
        points = self.points
        return dict(zip(map(attrgetter("id"), points), range(len(points))))

    def point(self, point_id: str) -> CriticalPoint:
        try:
            return self.point_index[point_id]
        except KeyError:
            raise UnknownId("no critical point with id %r" % (point_id,)) from None

    @cached_property
    def valid(self) -> bool:
        """Whether ``validate_datum`` finds nothing, worked out once per datum.

        Every move and the normal form driver take only data for which this
        holds (``require_valid``).  ``validate_datum`` stores its verdict
        here, and a move sets it on the result its local checks keep valid
        (``_built``).
        """
        return not validate_datum(self)

    def _built(self, points, graph, slices) -> "MorseDatum":
        """A datum of this ambient and flags with ``points``, already in
        (value, id) order, ``graph`` and ``slices``, marked ``valid``: the
        one unchecked builder of a datum, the result of every move.

        A move of a valid datum calls it once its local checks have shown
        that the result is valid, and hands it points it has placed itself
        (``splice``, or one sort or pass of its own), so nothing is sorted
        or checked again.  The point and place indexes, like the graph's
        and the complex's, are built from the points on first use."""
        out = object.__new__(MorseDatum)
        vars(out).update(
            ambient=self.ambient,
            points=points,
            graph=graph,
            slices=slices,
            flags=self.flags,
            valid=True,
        )
        return out

    def values(self):
        return {p.id: p.value for p in self.points}

    def interior_points(self, lo: int, hi: int):
        """Interior points of index lo..hi, in datum order."""
        return [p for p in self.points
                if p.kind is Kind.INTERIOR and lo <= p.index <= hi]

    def replace(self, **kw) -> "MorseDatum":
        return replace(self, **kw)


def validate_datum(datum: MorseDatum) -> list:
    """Full invariant report; an empty list means the datum is valid.

    Covers index ranges, flow graph side conditions (strict value order,
    genericity, loci), slice effect replay, and the closed-component flags.
    A point whose (kind, index) is out of range is reported here and skips
    the flow graph checks that need its dimension profile, so the report
    goes on past it.  The slice effects are replayed once, for both the
    slice and the flag reports.  The verdict is stored as the datum's
    ``valid``, so a move on it need not validate it again.
    """
    from . import slice_topology, trajectory  # local import, avoids a cycle

    issues = []
    n = datum.ambient.n
    for p in datum.points:
        try:
            check_index_kind(p.kind, p.index, n)
        except InvalidIndexKind as exc:
            issues.append("point %s: %s" % (p.id, exc))
    issues.extend(trajectory.graph_issues(datum.ambient, datum.points, datum.graph))
    replay_issues, final = slice_topology.replay(
        datum.ambient, datum.points, datum.slices
    )
    issues.extend(
        slice_topology.slice_issues(datum.points, datum.slices, replay_issues)
    )
    if not replay_issues:  # a broken replay leaves no top state to judge
        issues.extend(slice_topology.flag_issues(datum.slices, datum.flags, final))
    vars(datum)["valid"] = not issues
    return issues


def require_valid(datum: MorseDatum) -> None:
    """Raise ValidationError with the full issue list unless ``datum.valid``.

    The gate of every move and of the normal form driver: the rearrangement,
    cancellation and splitting theorems speak about valid data only.
    """
    if not datum.valid:
        raise ValidationError("invalid datum", validate_datum(datum))
