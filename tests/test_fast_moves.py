"""The single-point fast path of ``assign_values`` against its reference.

``assign_values`` accepts a one-point move on a datum whose ``clean_order``
holds after looking only at the moved point; ``assign_by_replay`` checks the
whole assignment by a full replay.  Both must agree on every move: the same
accept or refuse, the same exception class and message, and equal results,
as objects and as serialized bytes.
"""

import dataclasses
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfhandle.cli_io import GeneratorSpec, generate, serialize_datum
from halfhandle.errors import InfeasibleSpec
from halfhandle.morse_data import CriticalPoint, Kind, MorseDatum, validate_datum
from halfhandle.moves import _moves_locally, assign_by_replay, assign_values
from halfhandle.slice_topology import ComponentEffect, EffectKind, SliceComplex
from halfhandle.trajectory import FlowEdge, Locus, TrajectoryGraph

from helpers import comp, datum, edge, eff, pt


def outcome(fn, d, pid, v):
    try:
        out = fn(d, pid, v)
    except Exception as exc:  # the class and message are what is compared
        return ("refused", type(exc), str(exc))
    return ("accepted", out, serialize_datum(out))


def fast(d, pid, v):
    return assign_values(d, {pid: v})[0]


def reference(d, pid, v):
    return assign_by_replay(d, {pid: v})


def related(d, pid):
    """Points whose order against pid the data pins: the makers of its
    inputs, the users of its outputs and its flow line neighbours."""
    effects = {e.at: e for e in d.slices.effects}
    mine = effects.get(pid)
    out = set()
    for e in d.graph.edges:
        if pid in (e.src, e.dst):
            out.add(e.dst if e.src == pid else e.src)
    if mine is not None:
        made = set(mine.output_ids())
        for e in effects.values():
            if set(e.output_ids()) & set(mine.inputs) or made & set(e.inputs):
                out.add(e.at)
    out.discard(pid)
    return sorted(out)


@st.composite
def generated(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    codim = draw(st.integers(min_value=1, max_value=3))
    spec = GeneratorSpec(
        n=n,
        m=n + codim,
        points=draw(st.integers(min_value=2, max_value=10)),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        edge_probability=draw(st.sampled_from([0.25, 0.6, 1.0])),
    )
    try:
        d = generate(spec)
    except InfeasibleSpec:
        assume(False)
    # flow lines often run from a maker to its user; without them only the
    # slice effects pin the order, which the local check must get right
    if draw(st.booleans()):
        d = d.replace(graph=TrajectoryGraph(()))
    # generated ids follow the order of creation, so a maker nearly always
    # has the smaller id; renaming lets value ties fall either way
    ids = sorted(p.id for p in d.points)
    if draw(st.booleans()):
        return d
    return relabel(d, dict(zip(ids, draw(st.permutations(ids)))))


def relabel(d, name):
    return MorseDatum(
        d.ambient,
        tuple(CriticalPoint(name[p.id], p.kind, p.index, p.value)
              for p in d.points),
        TrajectoryGraph(tuple(
            FlowEdge(name[e.src], name[e.dst], e.count, e.locus)
            for e in d.graph.edges)),
        SliceComplex(d.slices.bottom, tuple(
            ComponentEffect(name[e.at], e.kind, e.inputs, e.outputs)
            for e in d.slices.effects)),
        d.flags,
    )


def target(draw, d):
    """A point id and a value: a tie with, or a place just past, a point
    the data pin it against; near any point; anywhere; outside (0, 1); or
    an id the datum does not have."""
    pid = draw(st.sampled_from([p.id for p in d.points] + ["nope"]))
    values = sorted({p.value for p in d.points} | {Fraction(0), Fraction(1)})
    way = draw(st.sampled_from(["tie", "past", "near", "anywhere", "outside"]))
    if way == "outside":
        return pid, draw(st.sampled_from(
            [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)]))
    if way == "anywhere":
        return pid, draw(st.fractions(min_value=Fraction(1, 1000),
                                      max_value=Fraction(999, 1000)))
    pool = []
    if way in ("tie", "past") and d.has_point(pid):
        pool = [d.point(q) for q in related(d, pid)]
    other = draw(st.sampled_from(pool or d.points))
    if way == "tie":
        return pid, other.value
    i = values.index(other.value)
    side = draw(st.sampled_from([-1, 1]))
    return pid, (other.value + values[i + side]) / 2


@settings(max_examples=150, deadline=None)
@given(generated(), st.data())
def test_single_point_moves_match_the_replay_reference(d, data):
    # a relabelled datum may tie two points in a new order and break its
    # replay; then every move goes to the reference, which is compared too
    assert d.clean_order == (validate_datum(d) == [])
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        pid, v = target(data.draw, d)
        got, want = outcome(fast, d, pid, v), outcome(reference, d, pid, v)
        assert got == want, (pid, v)
        if got[0] == "accepted":
            d = got[1]
            # the cached verdict and index agree with a fresh datum's
            fresh = dataclasses.replace(d)
            assert d.clean_order == fresh.clean_order
            assert d.point_index == fresh.point_index


# ---------------------------------------------------------------------------
# bases the local check must not be trusted on


def three_internal(effects, edges=()):
    return datum(
        4, 2,
        [comp("c0"), comp("c3"), comp("c5")],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 4)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 4)),
         pt("r", Kind.INTERIOR, 1, Fraction(3, 4))],
        edges,
        effects,
    )


def internal(at, src, dst):
    return eff(at, EffectKind.INTERNAL, (src,), (comp(dst),))


def unclean_bases():
    # c1 made at p, used at q, made again at r: the replay itself is clean
    yield "born twice", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c1", "c2"),
         internal("r", "c3", "c1")]), "q", Fraction(7, 8)
    yield "consumed twice", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c1", "c2"),
         internal("r", "c1", "c4")]), "q", Fraction(7, 8)
    yield "downhill edge elsewhere", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2"),
         internal("r", "c5", "c4")],
        edges=[edge("q", "p", None, Locus.MEMBRANE)]), "r", Fraction(1, 8)
    yield "point with no effect", three_internal(
        [internal("p", "c0", "c1"), internal("q", "c3", "c2")]), "q", Fraction(7, 8)


def test_unclean_bases_fall_back_to_the_reference():
    for name, d, pid, v in unclean_bases():
        assert not d.clean_order, name
        if d.slices.has_effect(pid):
            # the local check alone would let this move through
            assert _moves_locally(d, d.point(pid), v), name
        got = outcome(fast, d, pid, v)
        assert got[0] == "refused", name
        assert got == outcome(reference, d, pid, v), name
