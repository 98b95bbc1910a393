"""Flow line graph between critical points.

An edge z -> w records that some flow lines run from z up to w.  The locus
says where those lines live: inside the cobordism away from the wall, inside
the wall, or only through the ambient membranes outside the cobordism.  The
count is a positive integer when the number of lines is known and None when
it is not.

Genericity makes many intersections empty for dimension reasons, so edges
are only allowed between pairs that ``generic_disjoint`` does not rule out.
Both that rule and the locus rule depend on the (kind, index) cells of the
two ends, the locus and the ambient alone, so each such row is worked out
once, when a flow line first needs it (``_edge_row``), and ``edge_issues``
reads it by one cached lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import CycleDetected, ValidationError
from .morse_data import Ambient, CriticalPoint, Kind, dimension_profile
from .morse_data import index_bounds, splice


class Locus(str, enum.Enum):
    """Where the recorded flow lines run."""

    INNER = "interior"  # inside the cobordism, away from the wall
    WALL = "boundary"  # inside the vertical boundary wall
    MEMBRANE = "ambient"  # only through the ambient membranes


@dataclass(frozen=True)
class FlowEdge:
    """Flow lines from ``src`` up to ``dst``."""

    src: str
    dst: str
    count: Optional[int]  # None means "some, number unknown"
    locus: Locus

    def __post_init__(self):
        if self.src == self.dst:
            raise ValidationError("flow edge loops at %r" % (self.src,))
        if self.count is not None and (
            not isinstance(self.count, int) or self.count < 1
        ):
            raise ValidationError(
                "edge %s->%s: count must be a positive integer or unknown"
                % (self.src, self.dst)
            )
        if type(self.locus) is not Locus:  # a parsed edge's is kept
            object.__setattr__(self, "locus", Locus(self.locus))

    @staticmethod
    def _trusted(src: str, dst: str, count: Optional[int], locus: Locus) -> "FlowEdge":
        """``FlowEdge(src, dst, count, locus)`` for a caller that has made
        its checks: the ends differ, ``count`` is None or an int >= 1 and
        ``locus`` is a ``Locus``.  A split's moved line keeps the count and
        locus of a line of a valid datum and trades z for a half of the
        pair, whose id no other point of the result carries, and its wall
        line joins the two halves once (``moves._split_run``);
        ``_splits_locally`` then checks each by ``edge_issues``.  A parsed
        edge's match and its test prove the same (``cli_io``).  Fields go
        in one by one, as in __init__."""
        out, put = object.__new__(FlowEdge), object.__setattr__
        put(out, "src", src)
        put(out, "dst", dst)
        put(out, "count", count)
        put(out, "locus", locus)
        return out


class GraphIndex(NamedTuple):
    """Edge by (src, dst), and the edges out of and into each point, in
    edge order; built once per graph, on first use."""

    edge: Dict[Tuple[str, str], FlowEdge]
    out_edges: Dict[str, Tuple[FlowEdge, ...]]
    in_edges: Dict[str, Tuple[FlowEdge, ...]]


def _edge_key(e: FlowEdge):
    return (e.src, e.dst)


@dataclass(frozen=True)
class TrajectoryGraph:
    """Flow edges in (src, dst) order, at most one per pair; the index is
    built on first use."""

    edges: tuple

    def __post_init__(self):
        edges = tuple(sorted(self.edges, key=_edge_key))
        seen = set()
        for e in edges:
            if (e.src, e.dst) in seen:
                raise ValidationError("duplicate edge %s->%s" % (e.src, e.dst))
            seen.add((e.src, e.dst))
        object.__setattr__(self, "edges", edges)

    def _patched(self, drop, add) -> "TrajectoryGraph":
        """This graph without the edges ``drop`` and with ``add``, for a
        move of valid data: the edges are placed by bisection (``splice``),
        nothing is re-sorted or re-checked."""
        out = object.__new__(TrajectoryGraph)
        vars(out)["edges"] = splice(self.edges, drop, add, _edge_key)
        return out

    @cached_property
    def edge_index(self) -> GraphIndex:
        out_edges: Dict[str, Tuple[FlowEdge, ...]] = {}
        in_edges: Dict[str, Tuple[FlowEdge, ...]] = {}
        for e in self.edges:
            out_edges[e.src] = out_edges.get(e.src, ()) + (e,)
            in_edges[e.dst] = in_edges.get(e.dst, ()) + (e,)
        return GraphIndex({(e.src, e.dst): e for e in self.edges}, out_edges, in_edges)

    def edge(self, src: str, dst: str) -> Optional[FlowEdge]:
        return self.edge_index.edge.get((src, dst))


def generic_disjoint(z: CriticalPoint, w: CriticalPoint, ambient: Ambient) -> bool:
    """Whether genericity forces the membranes of z and w to be disjoint.

    True means no flow line from z to w can exist, so the pair may always
    be rearranged past each other.  The four cases, with k the index of z
    and l the index of w:

    * equal indices in codimension >= 2, except a stable point below an
      unstable one (those may still meet inside the wall);
    * k > l, always;
    * z interior and w boundary unstable with l - k <= m - n - 2;
    * z boundary stable and w interior with l - k <= m - n - 2.
    """
    return _cells_disjoint(z.kind, z.index, w.kind, w.index, ambient.m, ambient.n)


def _cells_disjoint(kz: Kind, k: int, kw: Kind, l: int, m: int, n: int) -> bool:
    """``generic_disjoint`` for a point of cell (kz, k) below one of cell
    (kw, l) in the ambient (m, n): the rule reads nothing else."""
    # raises InvalidIndexKind on nonsense input
    dimension_profile(kz, k, n)
    dimension_profile(kw, l, n)
    if k == l and m >= n + 2 and not (
        kz is Kind.BOUNDARY_STABLE and kw is Kind.BOUNDARY_UNSTABLE
    ):
        return True
    if k > l:
        return True
    if kz is Kind.INTERIOR and kw is Kind.BOUNDARY_UNSTABLE:
        if l - k <= m - n - 2:
            return True
    if kz is Kind.BOUNDARY_STABLE and kw is Kind.INTERIOR:
        if l - k <= m - n - 2:
            return True
    return False


def broken_closure(graph: TrajectoryGraph):
    """Transitive closure of the edge relation: chains of flow lines.

    Returns a dict mapping each point id with outgoing chains to the frozen
    set of ids reachable through one or more edges.  Raises CycleDetected
    on cyclic input (valid data is acyclic since values strictly increase
    along edges), naming the first point the search finds on its own
    stack again.

    One depth-first search over ``edge_index.out_edges``, whose points and
    edges are in (src, dst) order, from each point with edges out that no
    earlier search reached; a point's set is made when the search leaves
    it, from its successors', which are made by then.
    """
    out_edges = graph.edge_index.out_edges
    reach, on_stack = {}, set()
    for root in out_edges:
        if root in reach:
            continue
        on_stack.add(root)
        stack = [(root, iter(out_edges[root]))]
        while stack:
            node, it = stack[-1]
            for e in it:
                if e.dst in on_stack:
                    raise CycleDetected("flow graph cycle through %r" % (e.dst,))
                if e.dst in out_edges and e.dst not in reach:
                    on_stack.add(e.dst)
                    stack.append((e.dst, iter(out_edges[e.dst])))
                    break
            else:
                stack.pop()
                on_stack.remove(node)
                acc = set()
                for e in out_edges[node]:
                    acc.add(e.dst)
                    acc |= reach.get(e.dst, frozenset())
                reach[node] = frozenset(acc)
    return reach


def _reaches(graph: TrajectoryGraph, starts, dst: str) -> bool:
    """Whether dst is one of ``starts`` or lies on a chain of edges from one.

    One search over the edges out of each point reached, stopping at dst;
    it visits no point twice, so it ends on cyclic input too.
    """
    out_edges = graph.edge_index.out_edges
    seen = set(starts)
    stack = list(seen)
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        for e in out_edges.get(node, ()):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


def has_broken_path(graph: TrajectoryGraph, src: str, dst: str) -> bool:
    """Whether a chain of two or more edges runs from src to dst.

    A single search from the points two edges above src.  On acyclic
    graphs this is the closure test "some mid != dst with src -> mid and
    mid -> dst", since a chain never returns to where it was.
    """
    out_edges = graph.edge_index.out_edges
    second = [f.dst for e in out_edges.get(src, ()) for f in out_edges.get(e.dst, ())]
    return _reaches(graph, second, dst)


def can_rearrange(graph: TrajectoryGraph, z_id: str, w_id: str) -> bool:
    """Whether the order of z (below) and w (above) is free to change.

    True unless some chain of flow lines runs from z up to w; such a chain
    pins the order of their critical values.  A single search from the
    successors of z over ``edge_index.out_edges``, the index
    ``broken_closure`` walks to answer the same question for every pair at
    once.
    """
    first = graph.edge_index.out_edges.get(z_id, ())
    return not _reaches(graph, [e.dst for e in first], w_id)


@lru_cache(maxsize=4096)  # far more than the cell pairs of any n in use
def _edge_row(kz: Kind, k: int, kw: Kind, l: int, locus: Locus, m: int, n: int
              ) -> Tuple[str, ...]:
    """The untagged genericity and locus issues of a flow line in ``locus``
    from a point of cell (kz, k) to one of cell (kw, l) in the ambient
    (m, n), genericity first and then locus.

    A row is worked out the first time a flow line needs it, by
    ``generic_disjoint``'s rule and the cells' ``dimension_profile``s, the
    deciders of these rules.  An end out of range has no profile, so its
    rows are empty.
    """
    (zlo, zhi), (wlo, whi) = index_bounds(kz, n), index_bounds(kw, n)
    if not (zlo <= k <= zhi and wlo <= l <= whi):
        return ()
    issues = ()
    if _cells_disjoint(kz, k, kw, l, m, n):
        issues += ("genericity forces this pair apart",)
    if locus is Locus.WALL:
        if not (kz.is_boundary and kw.is_boundary):
            issues += ("wall locus needs boundary points",)
    elif locus is Locus.INNER:
        if (dimension_profile(kz, k, n).unstable_inner is None
                or dimension_profile(kw, l, n).stable_inner is None):
            issues += ("inner locus needs inner unstable and stable sets",)
    return issues


def edge_issues(
    ambient: Ambient, z: CriticalPoint, w: CriticalPoint, e: FlowEdge
) -> list:
    """What is wrong with the flow edge e from point z to point w.

    The per-edge rule of ``graph_issues``: the value must strictly increase,
    genericity must allow the pair, and the locus must suit both kinds.  The
    uphill test reads the points' floats and values; the other two are one
    lookup of the cells' cached row (``_edge_row``).  An endpoint whose
    (kind, index) is out of range has an empty row, so it gets no
    genericity or locus check: both need its dimension profile, which does
    not exist, and ``validate_datum`` reports the bad (kind, index) already.
    The ``edge src->dst`` tag is written only when there is an issue to tag.
    """
    issues = _edge_row(z.kind, z.index, w.kind, w.index, e.locus, ambient.m, ambient.n)
    if not (z._float < w._float or z._float == w._float and z.value < w.value):
        issues = (
            "values %s >= %s, flow must strictly increase" % (z.value, w.value),
        ) + issues
    if not issues:
        return []
    return ["edge %s->%s: %s" % (e.src, e.dst, issue) for issue in issues]


def graph_issues(ambient: Ambient, points, graph: TrajectoryGraph) -> list:
    """Invariant report for the flow graph against the given points:
    ``edge_issues`` for every edge between known points, then cycles.

    Edges that all run strictly uphill between known points close no
    cycle, and every other edge is an issue already, so the cycle search
    runs only once some issue was found.
    """
    issues = []
    by_id = {p.id: p for p in points}
    for e in graph.edges:
        if e.src not in by_id or e.dst not in by_id:
            issues.append("edge %s->%s: unknown endpoint" % (e.src, e.dst))
            continue
        issues.extend(edge_issues(ambient, by_id[e.src], by_id[e.dst], e))
    if issues:
        try:
            broken_closure(graph)
        except CycleDetected as exc:
            issues.append(str(exc))
    return issues
