"""Flow graph closure, disjointness, and rearrangement freedom."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfhandle.errors import CycleDetected, ValidationError
from halfhandle.morse_data import Ambient, CriticalPoint, Kind, index_bounds
from halfhandle.trajectory import (
    FlowEdge,
    edge_issues,
    Locus,
    TrajectoryGraph,
    broken_closure,
    can_rearrange,
    generic_disjoint,
    graph_issues,
    has_broken_path,
    has_path,
)

from helpers import datum, comp, dimension_sum_oracle, pt, eff, edge
from halfhandle.slice_topology import EffectKind


def reachable_by_dfs(edges, src):
    """Independent path enumeration over raw (src, dst) pairs."""
    succ = {}
    for s, d in edges:
        succ.setdefault(s, set()).add(d)
    out, stack = set(), [src]
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in out:
                out.add(nxt)
                stack.append(nxt)
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                max_size=14))
def test_closure_matches_path_enumeration(raw):
    pairs = {("v%d" % a, "v%d" % b) for a, b in raw if a < b}  # acyclic
    graph = TrajectoryGraph(tuple(
        FlowEdge(s, d, 1, Locus.MEMBRANE) for s, d in sorted(pairs)))
    closure = broken_closure(graph)
    nodes = {v for p in pairs for v in p}
    for src in nodes:
        want = reachable_by_dfs(pairs, src)
        assert closure.get(src, frozenset()) == frozenset(want)
        for dst in nodes | {"elsewhere"}:
            # the single-source queries against the closure, their reference
            reach = closure.get(src, frozenset())
            assert has_path(graph, src, dst) == (dst in reach) == (dst in want)
            long_way = any(dst in closure.get(mid, frozenset())
                           for mid in reach if mid != dst)
            assert long_way == any(dst in reachable_by_dfs(pairs, mid)
                                   for mid in want if mid != dst)
            assert has_broken_path(graph, src, dst) == long_way
            assert can_rearrange(graph, src, dst) == (dst not in want)


def test_closure_rejects_cycles():
    graph = TrajectoryGraph((FlowEdge("a", "b", 1, Locus.MEMBRANE),
                             FlowEdge("b", "c", 1, Locus.MEMBRANE),
                             FlowEdge("c", "a", 1, Locus.MEMBRANE)))
    with pytest.raises(CycleDetected):
        broken_closure(graph)
    # the single-source queries search from one point and do not look
    # for cycles; they still end, and answer by reachability
    assert has_path(graph, "a", "a") and not has_path(graph, "a", "elsewhere")
    assert has_broken_path(graph, "a", "b")  # a -> b -> c -> a -> b


def test_duplicate_and_loop_edges_rejected():
    with pytest.raises(ValidationError):
        TrajectoryGraph((FlowEdge("a", "b", 1, Locus.MEMBRANE),
                         FlowEdge("a", "b", 2, Locus.INNER)))
    with pytest.raises(ValidationError):
        FlowEdge("a", "a", 1, Locus.MEMBRANE)
    with pytest.raises(ValidationError):
        FlowEdge("a", "b", 0, Locus.MEMBRANE)


def all_cells(n):
    for kind in Kind:
        lo, hi = index_bounds(kind, n)
        for k in range(lo, hi + 1):
            yield kind, k


def test_disjointness_agrees_with_dimension_sums():
    for n in range(1, 7):
        for m in range(n + 1, n + 6):
            ambient = Ambient(m, n)
            for (kz, k), (kw, l) in itertools.product(all_cells(n), repeat=2):
                z = CriticalPoint("z", kz, k, Fraction(1, 3))
                w = CriticalPoint("w", kw, l, Fraction(2, 3))
                assert generic_disjoint(z, w, ambient) == \
                    dimension_sum_oracle(z, w, ambient), (n, m, kz, k, kw, l)


def test_disjointness_known_cases():
    amb = Ambient(4, 2)  # codimension 2
    z = CriticalPoint("z", Kind.INTERIOR, 1, Fraction(1, 3))
    w = CriticalPoint("w", Kind.INTERIOR, 1, Fraction(2, 3))
    assert generic_disjoint(z, w, amb)  # equal index, enough room
    w2 = CriticalPoint("w", Kind.INTERIOR, 2, Fraction(2, 3))
    assert not generic_disjoint(z, w2, amb)  # rising index may connect
    assert generic_disjoint(w2, z, amb)  # falling index never connects
    bs = CriticalPoint("s", Kind.BOUNDARY_STABLE, 1, Fraction(1, 4))
    bu = CriticalPoint("u", Kind.BOUNDARY_UNSTABLE, 1, Fraction(3, 4))
    assert not generic_disjoint(bs, bu, amb)  # may meet inside the wall

    amb1 = Ambient(3, 2)  # codimension 1: equal index pairs may meet
    assert not generic_disjoint(z, w, amb1)


def test_graph_issues_flags_downhill_and_generic_edges():
    base = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(2, 3)),
         pt("q", Kind.INTERIOR, 2, Fraction(1, 3))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c2", True),))],
    )
    downhill = graph_issues(base.ambient, base.points,
                            TrajectoryGraph((edge("p", "q", 1, Locus.INNER),)))
    assert any("strictly increase" in issue for issue in downhill)

    apart = graph_issues(base.ambient, base.points,
                         TrajectoryGraph((edge("q", "p", 1, Locus.INNER),)))
    assert any("genericity" in issue for issue in apart)

    unknown = graph_issues(base.ambient, base.points,
                           TrajectoryGraph((edge("x", "q", 1, Locus.INNER),)))
    assert any("unknown endpoint" in issue for issue in unknown)


def graph_issues_reference(ambient, points, graph):
    """``graph_issues`` with the cycle search run on every graph."""
    issues = []
    by_id = {p.id: p for p in points}
    for e in graph.edges:
        if e.src not in by_id or e.dst not in by_id:
            issues.append("edge %s->%s: unknown endpoint" % (e.src, e.dst))
            continue
        issues.extend(edge_issues(ambient, by_id[e.src], by_id[e.dst], e))
    try:
        broken_closure(graph)
    except CycleDetected as exc:
        issues.append(str(exc))
    return issues


CELLS = [(kind, k) for kind in Kind for k in range(5)]  # some out of range


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(1, 3),
       cells=st.lists(st.tuples(st.sampled_from(CELLS), st.integers(1, 4)),
                      min_size=1, max_size=6),
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                st.sampled_from(list(Locus))), max_size=14))
# a cycle among known points, one closed through an unknown point, a tie
@example(n=2, extra=2, cells=[((Kind.INTERIOR, 1), 1), ((Kind.INTERIOR, 2), 2),
                              ((Kind.INTERIOR, 3), 3)],
         pairs=[(0, 1, Locus.INNER), (1, 2, Locus.INNER), (2, 0, Locus.INNER)])
@example(n=2, extra=2, cells=[((Kind.INTERIOR, 1), 1), ((Kind.INTERIOR, 2), 2)],
         pairs=[(0, 1, Locus.INNER), (1, 6, Locus.INNER), (6, 0, Locus.INNER)])
@example(n=2, extra=1, cells=[((Kind.INTERIOR, 1), 2), ((Kind.INTERIOR, 2), 2)],
         pairs=[(0, 1, Locus.MEMBRANE)])
def test_graph_issues_matches_the_always_search_reference(n, extra, cells, pairs):
    # values on a grid of fifths tie often; ids v6 and v7 name no point
    points = [pt("v%d" % i, kind, k, Fraction(q, 5))
              for i, ((kind, k), q) in enumerate(cells)]
    edges = {(a, b): edge("v%d" % a, "v%d" % b, 1, locus)
             for a, b, locus in pairs if a != b}
    graph = TrajectoryGraph(tuple(edges.values()))
    ambient = Ambient(n + extra, n)
    assert graph_issues(ambient, points, graph) == \
        graph_issues_reference(ambient, points, graph)


def test_graph_issues_checks_locus_support():
    points = [pt("s", Kind.BOUNDARY_STABLE, 1, Fraction(1, 3)),
              pt("u", Kind.BOUNDARY_UNSTABLE, 1, Fraction(2, 3)),
              pt("i", Kind.INTERIOR, 2, Fraction(5, 6))]
    amb = Ambient(4, 2)
    wall_needs_boundary = graph_issues(
        amb, points, TrajectoryGraph((edge("s", "i", 1, Locus.WALL),)))
    assert any("wall locus" in issue for issue in wall_needs_boundary)

    # a stable point has no unstable set inside the cobordism
    inner_needs_slots = graph_issues(
        amb, points, TrajectoryGraph((edge("s", "u", 1, Locus.INNER),)))
    assert any("inner locus" in issue for issue in inner_needs_slots)

    fine = graph_issues(
        amb, points, TrajectoryGraph((edge("s", "u", 1, Locus.WALL),)))
    assert fine == []


def test_can_rearrange_blocked_through_chains_only():
    graph = TrajectoryGraph((edge("a", "b", 1, Locus.MEMBRANE),
                             edge("b", "c", None, Locus.MEMBRANE)))
    assert not can_rearrange(graph, "a", "c")
    assert can_rearrange(graph, "c", "a")
    assert can_rearrange(graph, "a", "d")
