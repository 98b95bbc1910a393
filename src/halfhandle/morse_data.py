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
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence

from .errors import (
    InvalidIndexKind,
    PartialConfiguration,
    UnknownId,
    ValidationError,
)

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def order_key(value: Fraction, *pid: str) -> tuple:
    """``(float, value)``, or ``(float, value, id)`` with an id: the key
    that orders a Fraction, or a point at it, exactly and at float speed
    (see the module docstring).  Compare keys only with keys."""
    return (value.numerator / value.denominator, value, *pid)


def exact(value) -> Fraction:
    """``value`` as a Fraction: a Fraction is returned as it is, anything
    else goes through ``Fraction(value)`` (and raises what that raises)."""
    return value if type(value) is Fraction else Fraction(value)


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
        if not (0 < value < 1):
            raise ValidationError(
                "critical value %s of %r not strictly inside (0,1)" % (value, self.id)
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "_float", value.numerator / value.denominator)

    def sort_key(self):
        """``order_key(value, id)`` from the cached float: exact (value, id)
        order, where only equal floats compare the Fractions."""
        return (self._float, self.value, self.id)

    def _at(self, key: tuple) -> "CriticalPoint":
        """This point moved to the value of ``key`` (``order_key``), a
        Fraction in (0, 1) that the move has checked: the id, kind and
        index are this point's, already valid, so ``__post_init__`` does
        not run again."""
        # set one by one, as __init__ and __post_init__ do: the instance
        # keeps the compact shared-key layout, half the size of a dict
        out, put = object.__new__(CriticalPoint), object.__setattr__
        put(out, "id", self.id)
        put(out, "kind", self.kind)
        put(out, "index", self.index)
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

    def as_tuple(self):
        return (
            self.stable_membrane,
            self.unstable_membrane,
            self.stable_inner,
            self.unstable_inner,
            self.stable_wall,
            self.unstable_wall,
        )


def dimension_profile(kind: Kind, index: int, n: int) -> DimensionProfile:
    """Dimension profile of a critical point of the given kind and index.

    Raises InvalidIndexKind when the (kind, index) pair cannot occur on an
    n-dimensional level set.  Valid pairs never produce negative entries.
    """
    kind = Kind(kind)
    check_index_kind(kind, index, n)
    k = index
    if kind is Kind.INTERIOR:
        return DimensionProfile(k + 1, n + 2 - k, k, n + 1 - k, None, None)
    if kind is Kind.BOUNDARY_STABLE:
        return DimensionProfile(k + 1, n + 2 - k, k, None, k - 1, n + 1 - k)
    return DimensionProfile(k + 1, n + 2 - k, None, n + 1 - k, k, n - k)


def first_inversion(points, values: Mapping[str, Fraction], rank=lambda p: p.index):
    """First pair (z, w) with rank(z) < rank(w) but not values[z] < values[w].

    "First" in the order of a double loop over ``points``; None when the
    values are strictly monotone in the rank.  The lowest value above each
    rank is read off one sorted pass, so the search is O(P log P), not a
    comparison of every pair.
    """
    lowest: Dict[object, Fraction] = {}
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
    for z in points:
        floor, v = floor_above[rank(z)], values[z.id]
        if floor is not None and floor <= v:
            w = next(w for w in points if rank(z) < rank(w) and values[w.id] <= v)
            return z, w
    return None


def splice(items: tuple, drop, add, key) -> tuple:
    """``items``, sorted by ``key`` with distinct keys, without the items in
    ``drop`` (items of ``items`` themselves) and with those in ``add``, in
    key order.

    A few dropped items are found by bisection, many by one pass over the
    items.  Finding one point by bisection costs as much as a pass over 60
    (at 248 points) to 130 (at 5,120) of them, so a split's one or two
    drops are up to 20x cheaper by bisection and a run that moves every
    point up to 70x cheaper by the pass.  Each added item is placed by
    bisection, so a patch of a few items costs O(log N) key comparisons
    each and two copies of the tuple, not a re-sort.  The moves patch the
    points, flow lines and effects of a datum with it.
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
    out, start = [], 0
    for x in sorted(add, key=key):
        i = bisect_left(kept, key(x), start, key=key)
        out += kept[start:i]
        out.append(x)
        start = i
    out += kept[start:]
    return tuple(out)


def built_indexes(obj, names) -> dict:
    """Those of the cached indexes ``names`` that ``obj`` has built: what a
    patched copy of ``obj`` starts its own from."""
    return {name: vars(obj)[name] for name in names if name in vars(obj)}


def parent_index(obj, name):
    """The parent's index ``name`` that the patched ``obj`` starts from, or
    None; handed over once, so ``obj`` does not keep it once it has its
    own."""
    return vars(obj).get("_parents", {}).pop(name, None)


def _boundary_rank(p: CriticalPoint):
    return (p.index, p.kind is Kind.BOUNDARY_UNSTABLE)


def is_admissible(
    points: Sequence[CriticalPoint],
    values: Optional[Mapping[str, Fraction]] = None,
) -> bool:
    """Whether the point values follow the admissible order.

    Lower index must sit at a strictly lower value, and when a boundary
    stable and a boundary unstable point share an index the stable one must
    sit strictly lower.  Equal-index, equal-value pairs are fine otherwise.
    With ``values`` given, judge that assignment instead of the stored
    values; it must cover every point, each value below 2**1024 in size
    (they are compared by their ``order_key``s).
    """
    vals = {}
    for p in points:
        if values is None:
            vals[p.id] = p.sort_key()[:2]
        elif p.id in values:
            vals[p.id] = order_key(exact(values[p.id]))
        else:
            raise PartialConfiguration("no target value for point %r" % (p.id,))
    if first_inversion(points, vals) is not None:
        return False
    # among boundary points, (index, stable before unstable) must be monotone
    boundary = [p for p in points if p.kind.is_boundary]
    return first_inversion(boundary, vals, _boundary_rank) is None


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
        """Point by id, built once per datum."""
        return {p.id: p for p in self.points}

    def point(self, point_id: str) -> CriticalPoint:
        try:
            return self.point_index[point_id]
        except KeyError:
            raise UnknownId("no critical point with id %r" % (point_id,)) from None

    def has_point(self, point_id: str) -> bool:
        return point_id in self.point_index

    @cached_property
    def valid(self) -> bool:
        """Whether ``validate_datum`` finds nothing, worked out once per datum.

        Every move and the normal form driver take only data for which this
        holds (``require_valid``).  ``validate_datum`` stores its verdict
        here, and a move sets it on its result, which its local checks keep
        valid (``with_keys``, ``split_interior``).
        """
        return not validate_datum(self)

    def derived(self, points, graph, slices, **cached) -> "MorseDatum":
        """A datum of the same ambient and flags with the given fields.

        For moves that build ``points`` already in (value, id) order with
        distinct ids: nothing is re-sorted or re-checked.  ``cached`` fills
        cached properties (``point_index``, ``valid``) that the move has
        established.
        """
        out = object.__new__(MorseDatum)
        vars(out).update(
            ambient=self.ambient,
            points=points,
            graph=graph,
            slices=slices,
            flags=self.flags,
            **cached,
        )
        return out

    def with_keys(self, keys: Mapping[str, tuple]) -> "MorseDatum":
        """This datum with each point named in ``keys`` moved to the value
        of its (value, id) key there (``order_key``), marked valid; the
        datum itself when nothing moves.

        For moves of a valid datum already checked to keep its edges uphill
        and its replay clean (see ``moves.assign_values``).  That keeps
        every clause of ``validate_datum``: the rest does not look at the
        values, and with every component id made once and used once the top
        state and the flag union-find do not depend on the order.  The moved
        points are sorted once (fast when ``keys`` lists them nearly in
        order) and placed by bisection (``splice``); the other points are
        neither re-sorted nor re-validated, and the point index is carried
        over.  Each moved point is its old point at the new key
        (``CriticalPoint._at``): the keys are of Fractions in (0, 1), as the
        move's check made them, so the points are not checked again.
        """
        if not keys:
            return self
        old = self.point_index
        index = dict(old)
        for pid, key in keys.items():
            index[pid] = old[pid]._at(key)
        points = splice(
            self.points,
            [old[pid] for pid in keys],
            [index[pid] for pid in keys],
            CriticalPoint.sort_key,
        )
        return self.derived(
            points, self.graph, self.slices, point_index=index, valid=True
        )

    def values(self):
        return {p.id: p.value for p in self.points}

    def interior_points(self, lo=None, hi=None):
        """Interior points, optionally restricted to an index range."""
        out = []
        for p in self.points:
            if p.kind is not Kind.INTERIOR:
                continue
            if lo is not None and p.index < lo:
                continue
            if hi is not None and p.index > hi:
                continue
            out.append(p)
        return out

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
