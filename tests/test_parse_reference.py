"""The one-pass parsers against the token-by-token reference.

``parse_datum`` and ``parse_script`` build a canonical line from one
pattern match and read any other line in one pass, leaving the record
checks to ``MoveRecord``; ``parse_datum_by_reference`` and
``parse_script_by_reference`` (in ``helpers``) are the parsers as they were
before, each token through ``split_directive`` and ``need``.  On the
fixtures, on small pieces of the benchmark corpus and on their normal form
scripts, with one token of one line mutated or one separator changed, the
two must return equal objects or raise the same ParseError, message and
line alike.  An object built from a match, without its constructor's
checks, must equal the one the checking constructor builds, and the values
of one text share one ``Fraction`` per token.
"""

import pathlib
import re
import sys
from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from halfhandle import cli_io
from halfhandle.cli_io import parse_datum, parse_script, serialize_script
from halfhandle.errors import ParseError
from halfhandle.morse_data import CriticalPoint, order_key
from halfhandle.normal_form import global_split
from halfhandle.slice_topology import ComponentEffect, SliceComponent
from halfhandle.trajectory import FlowEdge

from helpers import (
    assert_records_as_checked,
    benchmark_workload,
    parse_datum_by_reference,
    parse_script_by_reference,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADER = "format=halfhandle-datum/1\n"


def corpus_pieces(per_file=3):
    """The first pieces of each small-piece corpus file."""
    texts = []
    for name in ("split_deep", "split_codim1", "small_batch"):
        blob = (ROOT / "perfbench" / "corpus" / (name + ".data")).read_text()
        texts += [HEADER + part for part in blob.split(HEADER)[1:per_file + 1]]
    return texts


PIECES = corpus_pieces()
DATA = [p.read_text() for p in sorted((ROOT / "fixtures").glob("*.datum"))] + PIECES
SCRIPTS = [p.read_text() for p in sorted((ROOT / "fixtures").glob("*.script"))]
SCRIPTS += [serialize_script(global_split(parse_datum(t))[2]) for t in PIECES]
SCRIPTS = [text for text in SCRIPTS if text.count("\n") > 1]  # with a move

LIMIT = sys.get_int_max_str_digits() or 4300  # 0: no limit, still long
FRACTIONS = (
    "1/3", "2/3", "0", "1", "3/2", "-1/2", "1/0", "0/5", "2/4", "1/2/3", "abc",
    "", "0.5", "1e-3", "1e-30000000", "1e400000", "1_0/30", "١/٢",
    "nan", "inf", "1/" + "9" * 5000, " 1/3",
    "1/00", "00/1", "01/3", "0/0",  # zeros the p/q digits may hold
    # a numerator and a denominator at and one past the int digit limit
    "1" * LIMIT + "/" + "9" * LIMIT, "1" * (LIMIT + 1) + "/" + "9" * LIMIT,
    "1/" + "9" * LIMIT, "1/" + "9" * (LIMIT + 1),
)
IDS = ("p", "q1", "a-b", "", "é", "x,y", "x,x", "x,y,z", "-", "c0:true", "u00_p1")
WORDS = (
    "rearrange", "cancel", "split", "bogus", "-", "?", "true", "false", "interior",
    "boundary_stable", "wall", "boundary", "merge", "birth", "c1:true", "c1:maybe",
    "c1,c2", "c1,c1", "c1", "7", "-1", "x",
    "a\x1fb", "a\xa0b",  # whitespace to str.split, not to an ASCII \S
)
DIRECTIVES = ("point", "edge", "effect", "component", "move", "bogus", "m=4", "n=0")


@st.composite
def mutated_text(draw, texts):
    """One of ``texts`` with one token of one non-blank line changed."""
    lines = draw(st.sampled_from(texts)).split("\n")
    # the format line, which no tokenizer reads, now and then
    num = draw(st.sampled_from(
        [i for i, line in enumerate(lines) if line.strip()][draw(st.booleans()):]))
    tokens = lines[num].split()
    at = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    key, eq, _ = tokens[at].partition("=")
    way = draw(st.sampled_from([
        "drop", "repeat", "no_equals", "fraction", "id", "word", "ids", "values",
        "stray", "directive"] + ["tab", "double_space", "swap"] * (len(tokens) > 2)))
    if way in ("tab", "double_space", "swap"):  # the tokens as they are
        lines[num] = off_shape(tokens, way, max(at, 1 + (way == "swap")))
        event(way)
        return "\n".join(lines)
    if way == "drop":
        del tokens[at]
    elif way == "repeat":  # the key again, with its value or another one
        value = draw(st.sampled_from((tokens[at].partition("=")[2],) + WORDS))
        tokens.insert(draw(st.integers(1, len(tokens))), key + "=" + value)
    elif way == "no_equals":
        tokens[at] = draw(st.sampled_from([key, tokens[at].replace("=", "")]))
    elif way == "stray":
        tokens.insert(draw(st.integers(1, len(tokens))), "extra=1")
    elif way == "directive":
        tokens[0] = draw(st.sampled_from(DIRECTIVES))
    else:
        pool = {"fraction": FRACTIONS, "id": IDS, "word": WORDS}.get(way)
        if way == "ids":  # wrong arity: ids drawn from the line's own
            words = tokens[at].partition("=")[2].split(",") + ["p", "q"]
            pool = [",".join(draw(st.lists(st.sampled_from(words), max_size=3)))]
        elif way == "values":  # values on any kind, one or more, or none
            pool = ["-", "1/2", "1/3,2/3", "1/2,1/2,1/2", "1/2,x", "1/2,"]
        tokens[at] = (key + "=" if eq else "") + draw(st.sampled_from(pool))
    event(way)
    lines[num] = " ".join(tokens)
    return "\n".join(lines)


def off_shape(tokens, way, at):
    """The line of ``tokens`` with the separator before token ``at`` (from
    1) a tab or two spaces, or with the keys at ``at`` and the one before it
    swapped (from 2)."""
    tokens = list(tokens)
    if way == "swap":
        tokens[at - 1], tokens[at] = tokens[at], tokens[at - 1]
        return " ".join(tokens)
    sep = "\t" if way == "tab" else "  "
    return " ".join(tokens[:at]) + sep + " ".join(tokens[at:])


SHAPES = (cli_io._MOVE_LINE, cli_io._POINT_LINE, cli_io._EFFECT_LINE,
          cli_io._EDGE_LINE, cli_io._COMPONENT_LINE)


def canonical(line):
    """Whether ``line`` has a shape the parsers build from one match."""
    return any(pattern.fullmatch(line) for pattern in SHAPES)


def outcome(parse, text):
    """What parsing ``text`` gives: the objects and their fields, or the
    error's class, message and line."""
    try:
        out = parse(text)
    except Exception as exc:  # the class, message and line are what is compared
        return ("refused", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(out, list):
        return ("parsed", out, [vars(r) for r in out],
                [type(v) for r in out for v in r.values])
    return ("parsed", out, [vars(p) for p in out.points],
            [vars(e) for e in out.graph.edges], [vars(e) for e in out.slices.effects])


def check_against_reference(parse, reference, text):
    got, want = outcome(parse, text), outcome(reference, text)
    assert got == want, text
    assert got[0] == "parsed" or got[1] is ParseError, got
    return got[0] if got[0] == "parsed" else got[2].split(": ", 1)[-1][:24]


def test_the_reference_parses_every_base_text_as_the_parsers_do():
    assert len(DATA) >= 14 and len(SCRIPTS) >= 6
    for text in DATA:
        assert check_against_reference(
            parse_datum, parse_datum_by_reference, text) == "parsed"
    for text in SCRIPTS:
        assert check_against_reference(
            parse_script, parse_script_by_reference, text) == "parsed"
        assert all(type(v) is Fraction for r in parse_script(text) for v in r.values)
    # the base texts take the fast path: every body line of a datum, and
    # every one-point rearrange of a script, has a canonical shape
    for text in DATA:
        body = [line for line in text.splitlines()[1:] if " " in line]
        assert body and all(canonical(line) for line in body)
    moves = [line for text in SCRIPTS for line in text.splitlines()
             if "kind=rearrange" in line and "," not in line]
    assert moves and all(canonical(line) for line in moves)


def test_parsed_records_pass_the_checking_constructor_and_roundtrip():
    for text in SCRIPTS:
        records = parse_script(text)
        assert_records_as_checked(records)
        assert serialize_script(records) == text


def test_lines_off_the_canonical_shape_miss_the_fast_path_and_parse_alike():
    # a tab, a doubled space or two swapped tokens on each line with a key
    # after its directive; the general path reads the line as the reference
    cases = [(text, parse_datum, parse_datum_by_reference) for text in DATA]
    cases += [(text, parse_script, parse_script_by_reference) for text in SCRIPTS]
    seen = 0
    for text, parse, reference in cases:
        lines = text.split("\n")
        for num, line in enumerate(lines):
            tokens = line.split()
            if len(tokens) < 3:
                continue
            for way, at in (("tab", 1), ("double_space", len(tokens) - 1),
                            ("swap", 2), ("swap", len(tokens) - 1)):
                changed = off_shape(tokens, way, at)
                assert not canonical(changed), changed
                mutated = "\n".join(lines[:num] + [changed] + lines[num + 1:])
                assert check_against_reference(parse, reference, mutated) == "parsed"
                seen += 1
    assert seen > 400


DATUM = HEADER + "m=4\nn=2\n%s\n"


@settings(max_examples=400, deadline=None)
@given(mutated_text(DATA))
# canonical lines whose conversion or constructor refuses them
@example(DATUM % "point id=p kind=interior index=1 value=3/2")
@example(DATUM % "point id=p kind=interior index=1 value=0/5")
@example(DATUM % "point id=p kind=interior index=1 value=5/5")
@example(DATUM % "point id=p kind=interior index=1 value=7/3")
@example(DATUM % "point id=p kind=interior index=1 value=1/00")
@example(DATUM % "point id=p kind=sideways index=1 value=1/2")
@example(DATUM % ("point id=p kind=interior index=%s value=1/2" % ("1" * (LIMIT + 1))))
@example(DATUM % "edge src=p dst=p count=1 locus=interior")
@example(DATUM % "edge src=p dst=q count=0 locus=interior")
@example(DATUM % "edge src=p dst=q count=1 locus=nowhere")
@example(DATUM % "effect at=p kind=merge inputs=c,c outputs=d:true")
@example(DATUM % "effect at=p kind=merge inputs=c outputs=d:true,d:false")
@example(DATUM % "effect at=p kind=sideways inputs=c outputs=d:true")
def test_datum_parser_matches_the_reference_on_mutated_lines(text):
    event(check_against_reference(parse_datum, parse_datum_by_reference, text))


SCRIPT = "format=halfhandle-script/1\nmove kind=%s ids=%s values=%s note=-\n"


@settings(max_examples=400, deadline=None)
@given(mutated_text(SCRIPTS))
@example(SCRIPT % ("cancel", "p,q", "1/2,1/3"))  # values on a cancel
@example(SCRIPT % ("split", "p", "1/2"))
@example(SCRIPT % ("cancel", "p,q,r", "-"))  # wrong arity
@example(SCRIPT % ("rearrange", "p,q", "1/2"))
@example(SCRIPT % ("rearrange", "p", "1e-30000000"))  # huge exponent
@example(SCRIPT % ("rearrange", "p,p", "1/2,1/3"))
@example(SCRIPT % ("rearrange", "p", "1/00"))  # matches, then 1/0 falls back
@example(SCRIPT % ("rearrange", "p", "1" * (LIMIT + 1) + "/3"))
@example(SCRIPT.replace("note=-", "note=a\x1fb") % ("rearrange", "p", "1/2"))
def test_script_parser_matches_the_reference_on_mutated_lines(text):
    event(check_against_reference(parse_script, parse_script_by_reference, text))


def assert_as_checked(datum):
    """Each point, edge, effect and component of ``datum`` equals the one
    its checking constructor builds, in hash and down to its ``vars``."""
    outputs = [c for e in datum.slices.effects for c in e.outputs]
    pairs = [(p, CriticalPoint(p.id, p.kind.value, p.index, p.value)) for p in datum.points]
    pairs += [(e, FlowEdge(e.src, e.dst, e.count, e.locus.value)) for e in datum.graph.edges]
    pairs += [(c, SliceComponent(c.id, c.touches_wall))
              for c in datum.slices.bottom + tuple(outputs)]
    pairs += [(e, ComponentEffect(e.at, e.kind.value, list(e.inputs), [
        SliceComponent(c.id, c.touches_wall) for c in e.outputs]))
        for e in datum.slices.effects]
    for got, checked in pairs:
        assert got == checked and hash(got) == hash(checked), got
        assert vars(got) == vars(checked), got
    assert all(p.sort_key() == order_key(p.value, p.id) for p in datum.points)
    return len(pairs)


def counting_post_init(monkeypatch):
    """A list that gets one entry per ``CriticalPoint.__post_init__`` run."""
    runs, post_init = [], CriticalPoint.__post_init__
    monkeypatch.setattr(CriticalPoint, "__post_init__",
                        lambda self: runs.append(self.id) or post_init(self))
    return runs


def test_objects_built_from_a_match_equal_the_checking_constructors(monkeypatch):
    # every body line of these texts is canonical (see the first test), so
    # no point runs its checks; a point line off the shape still runs them
    seen = 0
    for text in DATA[:-len(PIECES)] + corpus_pieces(per_file=400):  # all of them
        with monkeypatch.context() as patch:
            runs = counting_post_init(patch)
            datum = parse_datum(text)
        assert runs == []
        seen += assert_as_checked(datum)
    assert seen > 10000, seen
    with monkeypatch.context() as patch:
        runs = counting_post_init(patch)
        parse_datum(DATUM % "point id=p kind=interior  index=1 value=1/2")
    assert runs == ["p"]


def seed_1_split_deep_texts(monkeypatch):
    """The seed-1 split_deep union's text, and its normal form script's."""
    _, workload = benchmark_workload(monkeypatch, "split_deep", 1)
    return workload.text, serialize_script(global_split(workload.datum)[2])


def test_equal_value_tokens_of_one_text_give_one_fraction(monkeypatch):
    # each distinct p/q token of a text is built once, as one Fraction, and
    # every line that repeats the token holds that very object
    datum_text, script_text = seed_1_split_deep_texts(monkeypatch)
    for parse, text, values_of in (
        (parse_datum, datum_text, lambda d: [p.value for p in d.points]),
        (parse_script, script_text, lambda s: [v for r in s for v in r.values]),
    ):
        tokens = re.findall(r" values?=(\d+/\d+)\s", text)
        calls, new = [], Fraction.__new__
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__",
                          lambda cls, *a, **k: calls.append(a) or new(cls, *a, **k))
            values = values_of(parse(text))
        assert len(values) == len(tokens) > len(set(tokens)) == len(calls)
        by_token = {}
        for value in values:
            assert by_token.setdefault(str(value), value) is value
        assert by_token.keys() == set(tokens)
    assert (len(tokens), len(set(tokens))) == (685, 533)  # the script's


def test_equal_values_of_unequal_tokens_stay_apart():
    # the pool goes by the token: 2/4 and 1/2 are equal values, built
    # twice, and each point holds its value as the checking constructor has it
    datum = parse_datum(DATUM % "\n".join(
        "point id=%s kind=interior index=1 value=%s" % pair
        for pair in (("p", "2/4"), ("q", "1/2"), ("r", "2/4"))))
    p, q, r = (datum.point(pid).value for pid in "pqr")
    assert p == q == r == Fraction(1, 2)
    assert p is r and p is not q
    assert_as_checked(datum)
