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
        value = Fraction(self.value)
        if not (0 < value < 1):
            raise ValidationError(
                "critical value %s of %r not strictly inside (0,1)" % (value, self.id)
            )
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "kind", Kind(self.kind))

    def sort_key(self):
        return (self.value, self.id)


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
    values; it must cover every point.
    """
    vals = {}
    for p in points:
        if values is None:
            vals[p.id] = p.value
        elif p.id in values:
            vals[p.id] = Fraction(values[p.id])
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
    def clean_order(self) -> bool:
        """Whether a single-point move may be checked locally.

        True when every flow line runs uphill between known points, every
        point carries the one effect, the slice replay reports nothing, and
        every component id is born once and consumed at most once.  Then
        the replay only depends on each component being made before it is
        used, so a move of one point can break nothing but the flow lines,
        inputs and outputs of that point.
        """
        from . import slice_topology  # local import, avoids a cycle

        index = self.point_index
        if len(self.slices.effects) != len(index):
            return False
        if not self.slices.component_index.unique:
            return False
        for e in self.graph.edges:
            z, w = index.get(e.src), index.get(e.dst)
            if z is None or w is None or not z.value < w.value:
                return False
        issues, _, _ = slice_topology.replay(self.ambient, self.points, self.slices)
        return not issues

    @cached_property
    def valid(self) -> bool:
        """Whether ``validate_datum`` finds nothing, worked out once per datum.

        The precondition of the local check in ``moves.split_interior``,
        and read nowhere else: ``validate_datum`` never looks at it.  A
        move whose own checks keep a valid datum valid sets it on its
        result (``with_point``, a split that passes its local checks).
        """
        return not validate_datum(self)

    def derived(self, points, graph, slices, **cached) -> "MorseDatum":
        """A datum of the same ambient and flags with the given fields.

        For moves that build ``points`` already in (value, id) order with
        distinct ids: nothing is re-sorted or re-checked.  ``cached`` fills
        cached properties (``point_index``, ``clean_order``, ``valid``) that
        the move has established.
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

    def with_point(self, point: CriticalPoint) -> "MorseDatum":
        """This datum with ``point`` in place of the point of the same id.

        For a move already checked to keep ``clean_order`` (see
        ``moves.assign_values``): the result is marked clean as it stands,
        and valid when this datum is known to be.  A move that keeps the
        edges uphill and the replay clean keeps every clause of
        ``validate_datum``: the rest does not look at the values, and with
        every component id made once and used once the top state and the
        flag union-find do not depend on the order.  The new point is
        placed by bisection on the (value, id) order; the other points are
        neither re-sorted nor re-validated, and the point index is carried
        over.
        """
        key = CriticalPoint.sort_key
        points = self.points
        i = bisect_left(points, key(self.point(point.id)), key=key)
        points = points[:i] + points[i + 1 :]
        j = bisect_left(points, key(point), key=key)
        index = dict(self.point_index)
        index[point.id] = point
        cached = {"valid": True} if vars(self).get("valid") is True else {}
        return self.derived(
            points[:j] + (point,) + points[j:],
            self.graph,
            self.slices,
            point_index=index,
            clean_order=True,
            **cached,
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
    slice and the flag reports.
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
    replay_issues, _, final = slice_topology.replay(
        datum.ambient, datum.points, datum.slices
    )
    issues.extend(
        slice_topology.slice_issues(datum.points, datum.slices, replay_issues)
    )
    if not replay_issues:  # a broken replay leaves no top state to judge
        issues.extend(slice_topology.flag_issues(datum.slices, datum.flags, final))
    return issues


def is_valid_datum(datum: MorseDatum) -> bool:
    return not validate_datum(datum)
