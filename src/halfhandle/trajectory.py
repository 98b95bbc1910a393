"""Flow line graph between critical points.

An edge z -> w records that some flow lines run from z up to w.  The locus
says where those lines live: inside the cobordism away from the wall, inside
the wall, or only through the ambient membranes outside the cobordism.  The
count is a positive integer when the number of lines is known and None when
it is not.

Genericity makes many intersections empty for dimension reasons, so edges
are only allowed between pairs that ``generic_disjoint`` does not rule out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from .errors import CycleDetected, ValidationError
from .morse_data import Ambient, CriticalPoint, Kind, dimension_profile
from .morse_data import built_indexes, index_bounds, parent_index, splice


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
        object.__setattr__(self, "locus", Locus(self.locus))


class GraphIndex(NamedTuple):
    """Edge by (src, dst), and the edges out of and into each point, in
    edge order; built once per graph, or patched from its parent's."""

    edge: Dict[Tuple[str, str], FlowEdge]
    out_edges: Dict[str, Tuple[FlowEdge, ...]]
    in_edges: Dict[str, Tuple[FlowEdge, ...]]


def _edge_key(e: FlowEdge):
    return (e.src, e.dst)


@dataclass(frozen=True)
class TrajectoryGraph:
    """Flow edges in (src, dst) order, at most one per pair; the index is
    built on first use, by ``_patched`` graphs from their parent's."""

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
        nothing is re-sorted or re-checked.  The new graph holds this
        graph's index, if built, until it patches a copy of it in O(deg) on
        first use of its own."""
        out = object.__new__(TrajectoryGraph)
        vars(out).update(
            edges=splice(self.edges, drop, add, _edge_key),
            _moved=(tuple(drop), tuple(add)),
            _parents=built_indexes(self, ("edge_index",)),
        )
        return out

    @cached_property
    def edge_index(self) -> GraphIndex:
        parent = parent_index(self, "edge_index")
        if parent is not None:
            return _patched_index(parent, *self._moved)
        out_edges: Dict[str, Tuple[FlowEdge, ...]] = {}
        in_edges: Dict[str, Tuple[FlowEdge, ...]] = {}
        for e in self.edges:
            out_edges[e.src] = out_edges.get(e.src, ()) + (e,)
            in_edges[e.dst] = in_edges.get(e.dst, ()) + (e,)
        return GraphIndex({(e.src, e.dst): e for e in self.edges}, out_edges, in_edges)

    def edge(self, src: str, dst: str) -> Optional[FlowEdge]:
        return self.edge_index.edge.get((src, dst))

    def successors(self, point_id: str):
        return list(self.edge_index.out_edges.get(point_id, ()))

    def predecessors(self, point_id: str):
        return list(self.edge_index.in_edges.get(point_id, ()))

    def without_points(self, ids: Iterable[str]) -> "TrajectoryGraph":
        drop = set(ids)
        return TrajectoryGraph(
            tuple(e for e in self.edges if e.src not in drop and e.dst not in drop)
        )

    def with_edges(self, new_edges: Iterable[FlowEdge]) -> "TrajectoryGraph":
        return TrajectoryGraph(self.edges + tuple(new_edges))


def _patched_index(parent: GraphIndex, drop, add) -> GraphIndex:
    """``parent`` without the edges ``drop`` and with ``add``; the rows of
    the points they touch are rebuilt in edge order, the rest shared."""
    edge = dict(parent.edge)
    for e in drop:
        del edge[_edge_key(e)]
    for e in add:
        edge[_edge_key(e)] = e
    gone = {_edge_key(e) for e in drop}
    rows = []
    for old, end in ((parent.out_edges, "src"), (parent.in_edges, "dst")):
        new = dict(old)
        touched = {getattr(e, end): [] for e in drop}
        for e in add:
            touched.setdefault(getattr(e, end), []).append(e)
        for pid, extra in touched.items():
            kept = [e for e in old.get(pid, ()) if _edge_key(e) not in gone]
            row = tuple(sorted(kept + extra, key=_edge_key))
            if row:
                new[pid] = row
            else:
                new.pop(pid, None)
        rows.append(new)
    return GraphIndex(edge, *rows)


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
    m, n = ambient.m, ambient.n
    # raises InvalidIndexKind on nonsense input
    dimension_profile(z.kind, z.index, n)
    dimension_profile(w.kind, w.index, n)
    k, l = z.index, w.index
    if (
        k == l
        and m >= n + 2
        and not (z.kind is Kind.BOUNDARY_STABLE and w.kind is Kind.BOUNDARY_UNSTABLE)
    ):
        return True
    if k > l:
        return True
    if z.kind is Kind.INTERIOR and w.kind is Kind.BOUNDARY_UNSTABLE:
        if l - k <= m - n - 2:
            return True
    if z.kind is Kind.BOUNDARY_STABLE and w.kind is Kind.INTERIOR:
        if l - k <= m - n - 2:
            return True
    return False


def broken_closure(graph: TrajectoryGraph):
    """Transitive closure of the edge relation: chains of flow lines.

    Returns a dict mapping each point id with outgoing chains to the frozen
    set of ids reachable through one or more edges.  Raises CycleDetected
    on cyclic input (valid data is acyclic since values strictly increase
    along edges).
    """
    succ = {}
    for e in graph.edges:
        succ.setdefault(e.src, set()).add(e.dst)

    order = []
    state = {}  # 0 visiting, 1 done

    def visit(node):
        stack = [(node, iter(sorted(succ.get(node, ()))))]
        state[node] = 0
        while stack:
            current, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 0:
                    raise CycleDetected("flow graph cycle through %r" % (nxt,))
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                state[current] = 1
                order.append(current)
                stack.pop()

    nodes = set(succ)
    for e in graph.edges:
        nodes.add(e.dst)
    for node in sorted(nodes):
        if node not in state:
            visit(node)

    reach = {}
    for node in order:  # reverse topological order
        acc = set()
        for nxt in succ.get(node, ()):
            acc.add(nxt)
            acc |= reach.get(nxt, frozenset())
        reach[node] = frozenset(acc)
    return {k: v for k, v in reach.items() if v}


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


def has_path(graph: TrajectoryGraph, src: str, dst: str) -> bool:
    """Whether a chain of one or more edges runs from src to dst.

    A single search from the successors of src; ``broken_closure`` answers
    the same question for every pair at once and stays the reference.
    """
    return _reaches(graph, [e.dst for e in graph.successors(src)], dst)


def has_broken_path(graph: TrajectoryGraph, src: str, dst: str) -> bool:
    """Whether a chain of two or more edges runs from src to dst.

    A single search from the points two edges above src.  On acyclic
    graphs this is the closure test "some mid != dst with src -> mid and
    mid -> dst", since a chain never returns to where it was.
    """
    second = [f.dst for e in graph.successors(src) for f in graph.successors(e.dst)]
    return _reaches(graph, second, dst)


def can_rearrange(graph: TrajectoryGraph, z_id: str, w_id: str) -> bool:
    """Whether the order of z (below) and w (above) is free to change.

    True unless some chain of flow lines runs from z up to w; such a chain
    pins the order of their critical values.
    """
    return not has_path(graph, z_id, w_id)


def _in_range(p: CriticalPoint, n: int) -> bool:
    lo, hi = index_bounds(p.kind, n)
    return lo <= p.index <= hi


def edge_issues(
    ambient: Ambient, z: CriticalPoint, w: CriticalPoint, e: FlowEdge
) -> list:
    """What is wrong with the flow edge e from point z to point w.

    The per-edge rule of ``graph_issues``: the value must strictly increase,
    genericity must allow the pair, and the locus must suit both kinds.  An
    endpoint whose (kind, index) is out of range gets no genericity or locus
    check: both need its dimension profile, which does not exist.
    """
    issues = []
    tag = "edge %s->%s" % (e.src, e.dst)
    if not (z.sort_key()[:2] < w.sort_key()[:2]):
        issues.append(
            "%s: values %s >= %s, flow must strictly increase"
            % (tag, z.value, w.value)
        )
    if not (_in_range(z, ambient.n) and _in_range(w, ambient.n)):
        return issues  # validate_datum reports the bad (kind, index) already
    if generic_disjoint(z, w, ambient):
        issues.append("%s: genericity forces this pair apart" % tag)
    if e.locus is Locus.WALL:
        if not (z.kind.is_boundary and w.kind.is_boundary):
            issues.append("%s: wall locus needs boundary points" % tag)
    elif e.locus is Locus.INNER:
        pz = dimension_profile(z.kind, z.index, ambient.n)
        pw = dimension_profile(w.kind, w.index, ambient.n)
        if pz.unstable_inner is None or pw.stable_inner is None:
            issues.append(
                "%s: inner locus needs inner unstable and stable sets" % tag
            )
    return issues


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
