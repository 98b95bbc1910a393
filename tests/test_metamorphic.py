"""Relations between runs of the normal form driver, checked with no second
implementation of any move: a relabeling of the point ids commutes with
``global_split``, and every record of its script keeps the invariants of
``helpers.invariants``."""

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfhandle.cli_io import (
    parse_datum,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)
from halfhandle.errors import InfeasibleSpec
from halfhandle.generator import GeneratorSpec, generate
from halfhandle.normal_form import global_split

from helpers import apply_record, invariants, perfbench_module

PREFIX = "zq_"
POOLS = ("split_deep", "split_codim1", "small_batch")
# a point id on a point line, and the lists of point ids of every other
# line: edges, effects, script records and report segments; the space in
# front keeps ``format=`` (which ends in ``at=``) out
POINT_LINE = re.compile(r"(?m)^point id=(\S+)")
ID_LIST = re.compile(r"(?<= )(src|dst|at|ids|points)=(\S+)")


def relabel(text, f):
    """``text`` with every point id mapped by ``f``; component ids stay."""
    text = POINT_LINE.sub(lambda m: "point id=" + f(m.group(1)), text)
    return ID_LIST.sub(lambda m: m.group(1) + "=" + (
        "-" if m.group(2) == "-" else ",".join(map(f, m.group(2).split(",")))), text)


def unprefixed(pid):
    assert pid.startswith(PREFIX), pid
    return pid[len(PREFIX):]


def outcome(text):
    """The output datum, script and report of ``global_split``, as text."""
    out, dec, script = global_split(parse_datum(text))
    return serialize_datum(out), serialize_script(script), serialize_decomposition(dec)


def assert_relabeling_commutes(text):
    prefixed = relabel(text, PREFIX.__add__)
    assert prefixed.count(PREFIX) == len(POINT_LINE.findall(text)) + sum(
        len(m.group(2).split(",")) for m in ID_LIST.finditer(text))
    renamed = outcome(prefixed)
    assert tuple(relabel(t, unprefixed) for t in renamed) == outcome(text)


def replayed_steps(d):
    """Replay the ``global_split`` script of ``d`` one record at a time,
    checking the invariants after each; the number of records."""
    _, _, script = global_split(d)
    want = invariants(d)
    for rec in script:
        d = apply_record(d, rec)
        assert invariants(d) == want, rec
    return len(script)


def corpus_texts():
    texts, _ = perfbench_module("corpus").load_corpus()
    return [text for pool in POOLS for text in texts[pool]]


specs = st.builds(
    lambda n, codim, points, seed, boundary: GeneratorSpec(
        n=n, m=n + codim, points=points, seed=seed, allow_boundary=boundary),
    st.integers(1, 3), st.sampled_from((1, 2)), st.integers(0, 9),
    st.integers(0, 10**6), st.booleans())


def generated(spec):
    """The datum of ``spec``; with all three flags set (the default) the
    driver accepts it."""
    try:
        return generate(spec)
    except InfeasibleSpec:
        assume(False)


def test_prefixing_every_point_id_commutes_with_global_split_on_the_corpus():
    texts = corpus_texts()
    assert len(texts) == 480
    for text in texts:
        assert_relabeling_commutes(text)


@settings(max_examples=150, deadline=None)
@given(specs)
def test_prefixing_every_point_id_commutes_with_global_split(spec):
    assert_relabeling_commutes(serialize_datum(generated(spec)))


def test_each_script_record_keeps_the_invariants_on_the_corpus():
    steps = sum(replayed_steps(parse_datum(text)) for text in corpus_texts())
    assert steps > 1000


@settings(max_examples=150, deadline=None)
@given(specs)
def test_each_script_record_keeps_the_invariants(spec):
    replayed_steps(generated(spec))
