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

import functools
import pathlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from halfhandle import cli_io
from halfhandle.cli_io import parse_datum, parse_script, serialize_script
from halfhandle.errors import ParseError
from halfhandle.moves import MoveRecord
from halfhandle.normal_form import global_split

from helpers import (
    assert_pieces_as_checked,
    assert_records_as_checked,
    benchmark_workload,
    counting_post_inits,
    parse_datum_by_reference,
    parse_script_by_reference,
    spy_on_value_builds,
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
    # every line of a script after its format line, has a canonical shape
    for text in DATA:
        body = [line for line in text.splitlines()[1:] if " " in line]
        assert body and all(canonical(line) for line in body)
    for text in SCRIPTS:
        assert all(canonical(line) for line in text.splitlines()[1:])


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
@example(SCRIPT % ("split", "p,q", "-"))
@example(SCRIPT % ("split", "p", "-"))  # built from its match, unchecked
@example(SCRIPT.replace("note=-", "note=--") % ("split", "p", "-"))  # note "-"
@example(SCRIPT % ("cancel", "p,q,r", "-"))  # wrong arity
@example(SCRIPT % ("rearrange", "p,q", "1/2"))
@example(SCRIPT % ("rearrange", "p", "1e-30000000"))  # huge exponent
@example(SCRIPT % ("rearrange", "p,p", "1/2,1/3"))
@example(SCRIPT % ("rearrange", "p", "1/00"))  # matches, then 1/0 falls back
@example(SCRIPT % ("rearrange", "p", "1" * (LIMIT + 1) + "/3"))
@example(SCRIPT.replace("note=-", "note=a\x1fb") % ("rearrange", "p", "1/2"))
def test_script_parser_matches_the_reference_on_mutated_lines(text):
    event(check_against_reference(parse_script, parse_script_by_reference, text))


def test_a_one_point_split_line_is_built_from_its_match(monkeypatch):
    # one id and no values: the match proves the record's checks, so the
    # record is built unchecked, and equals the checked one; a split line
    # with two ids or with values is checked by MoveRecord, refused, and
    # raises the reference's ParseError from the general path
    for note, want in (("-", ""), ("wall", "wall"), ("--", "-")):
        text = SCRIPT.replace("note=-", "note=" + note) % ("split", "p", "-")
        with monkeypatch.context() as patch:
            runs = counting_post_inits(patch, (MoveRecord,))
            records = parse_script(text)
        assert runs == {}, runs
        assert records == [MoveRecord("split", ("p",), (), want)]
        assert_records_as_checked(records)
        assert check_against_reference(
            parse_script, parse_script_by_reference, text) == "parsed"
    for ids, values, message in (
            ("p,q", "-", "line 2: split wants one point id, got ids=p,q"),
            ("p", "1/2", "line 2: split takes no values")):
        text = SCRIPT % ("split", ids, values)
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert (str(err.value), err.value.line) == (message, 2)
        check_against_reference(parse_script, parse_script_by_reference, text)


def test_objects_built_from_a_match_equal_the_checking_constructors(monkeypatch):
    # every body line of these texts is canonical (see the first test), so
    # no point, edge, effect or component runs its checks; a point line off
    # the shape still runs them
    seen = 0
    for text in DATA[:-len(PIECES)] + corpus_pieces(per_file=400):  # all of them
        with monkeypatch.context() as patch:
            runs = counting_post_inits(patch)
            datum = parse_datum(text)
        assert sum(runs.values()) == 0, runs
        seen += assert_pieces_as_checked(datum)
    assert seen > 10000, seen
    with monkeypatch.context() as patch:
        runs = counting_post_inits(patch)
        parse_datum(DATUM % "point id=p kind=interior  index=1 value=1/2")
    assert runs == {"CriticalPoint": 1}


def seed_1_split_deep_texts(monkeypatch):
    """The seed-1 split_deep union's text, and its normal form script's."""
    _, workload = benchmark_workload(monkeypatch, "split_deep", 1)
    return workload.text, serialize_script(global_split(workload.datum)[2])


def test_equal_value_tokens_of_one_text_give_one_fraction(monkeypatch):
    # each distinct p/q token of a text is built once, as one Fraction by
    # ratio, never by Fraction.__new__, and every line that repeats the
    # token holds that very object
    datum_text, script_text = seed_1_split_deep_texts(monkeypatch)
    sizes = []
    for parse, text, values_of in (
        (parse_datum, datum_text, lambda d: [p.value for p in d.points]),
        (parse_script, script_text, lambda s: [v for r in s for v in r.values]),
    ):
        tokens = re.findall(r" values?=(\d+/\d+)\s", text)
        with monkeypatch.context() as patch:
            calls = spy_on_value_builds(patch)
            values = values_of(parse(text))
        assert [name for name, _ in calls] == ["ratio"] * len(set(tokens))
        assert len(values) == len(tokens) > len(set(tokens))
        by_token = {}
        for value in values:
            assert by_token.setdefault(str(value), value) is value
        assert by_token.keys() == set(tokens)
        sizes.append((len(tokens), len(set(tokens))))
    assert sizes == [(160, 64), (685, 533)]  # the datum's and the script's


def test_equal_values_of_unequal_tokens_stay_apart():
    # the pool goes by the token: 2/4 and 1/2 are equal values, built
    # twice, and each point holds its value as the checking constructor has it
    datum = parse_datum(DATUM % "\n".join(
        "point id=%s kind=interior index=1 value=%s" % pair
        for pair in (("p", "2/4"), ("q", "1/2"), ("r", "2/4"))))
    p, q, r = (datum.point(pid).value for pid in "pqr")
    assert p == q == r == Fraction(1, 2)
    assert p is r and p is not q
    assert_pieces_as_checked(datum)


@functools.lru_cache(maxsize=None)
def script_bases():
    """Every script above, and the normal form scripts of the seed-1
    split_deep and split_codim1 unions."""
    texts = list(SCRIPTS)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("split_deep", "split_codim1"):
            _, workload = benchmark_workload(patch, name, 1)
            texts.append(serialize_script(global_split(workload.datum)[2]))
    return texts


DEEP_SCRIPT = script_bases()[-2]  # the seed-1 split_deep union's: 700 moves

MOVE_LINES = {  # a canonical move line of each kind, valid or not
    "multi_rearrange": ["move kind=rearrange ids=%s values=%s note=-" % pair for pair in (
        ("p,q", "1/2,1/3"), ("p,q,r", "1/2,1/2,2/4"), ("p,p", "1/2,1/3"),
        ("p,q", "1/2"), ("p", "1/2,1/3"), ("p", "-"), ("p,q", "-"))],
    "cancel": ["move kind=cancel ids=%s values=%s note=x" % pair for pair in (
        ("p,q", "-"), ("p,p", "-"), ("p", "-"), ("p,q,r", "-"), ("p,q", "1/2,1/3"))],
    "split": ["move kind=split ids=%s values=%s note=-" % pair for pair in (
        ("p", "-"), ("p,q", "-"), ("p", "1/2"))],
}


@st.composite
def script_mutation(draw):
    """A script of ``script_bases`` as it is or with one change: the final
    newline gone, CRLF line ends, a comment or blank line, a move line of
    another kind or arity, a ``1/0`` or a value past the digit limit, or
    no ids."""
    lines = draw(st.sampled_from(script_bases())).split("\n")  # the last one ""
    way = draw(st.sampled_from(["none", "no_final_newline", "crlf", "comment", "blank",
                                "value", "ids"] + sorted(MOVE_LINES)))
    event(way)
    at = draw(st.integers(1, len(lines) - 1))
    if way == "no_final_newline":
        return "\n".join(lines)[:-1]
    if way == "crlf":
        if draw(st.booleans()):
            return "\r\n".join(lines)
        lines[at - 1] += "\r"
    elif way in ("comment", "blank"):
        lines.insert(at, draw(st.sampled_from(
            ["# a comment", " # indented"] if way == "comment" else ["", "  ", "\t"])))
    elif way in MOVE_LINES:
        lines.insert(at, draw(st.sampled_from(MOVE_LINES[way])))
    elif way != "none" and at < len(lines) - 1:  # a move line to change
        if way == "value":
            value = draw(st.sampled_from(
                ["1/0", "0/0", "1" * (LIMIT + 1) + "/3", "1/" + "9" * (LIMIT + 1)]))
            lines[at] = re.sub(r"values=\d+/\d+", "values=" + value, lines[at], count=1)
        else:
            lines[at] = re.sub(r"ids=\S+", "ids=", lines[at], count=1)
    return "\n".join(lines)


NO_LINE = re.compile(r"(?!)")  # the pattern of no line


def read_by_lines(text):
    """The script as the general path of ``_read`` reads it: every move
    line split into its tokens and built by ``_move_attrs``, none from a
    match."""
    keys, _, from_match, from_attrs = cli_io._LINES["move"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli_io._LINES, "move", (keys, NO_LINE, from_match, from_attrs))
        return parse_script(text)


def assert_one_object_per_token(text, records):
    """Each value of ``records`` is the one object of its ``p/q`` token:
    the value tokens of the canonical move lines of ``text``, in order."""
    tokens = [token for line in text.splitlines()
              for match in [cli_io._MOVE_LINE.fullmatch(line.strip())]
              if match and match[3] != "-" for token in match[3].split(",")]
    values = [value for record in records for value in record.values]
    assert len(tokens) == len(values)
    by_token = {}
    for token, value in zip(tokens, values):
        assert by_token.setdefault(token, value) is value


def check_against_the_general_path(text):
    """Whether ``parse_script`` reads the script ``text`` ("parsed") or
    refuses it ("refused"), as the general path alone and the reference
    do: the same records and value types, or the same ParseError, message
    and line.  Every move line of the texts checked here is canonical, so
    one that parses reads no line by its tokens (no ``_move_attrs`` call)
    and gives one object per value token, and one that is refused reads at
    most its bad line by its tokens."""
    want = outcome(read_by_lines, text)
    assert outcome(parse_script_by_reference, text) == want, text
    keys, pattern, from_match, from_attrs = cli_io._LINES["move"]
    calls = []

    def counted(attrs, num):
        calls.append(num)
        return from_attrs(attrs, num)

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli_io._LINES, "move", (keys, pattern, from_match, counted))
        got = outcome(parse_script, text)
    assert got == want, text
    assert got[0] == "parsed" or got[1] is ParseError, got
    if got[0] == "refused":
        assert calls in ([], [got[3]])
        return "refused"
    assert calls == []
    assert_one_object_per_token(text, got[1])
    return "parsed"


@settings(max_examples=300, deadline=None)
@given(script_mutation())
@example("format=halfhandle-script/1\nmove kind=split ids= values=- note=-")
@example("format=halfhandle-script/1\nmove kind=split ids= values=- note=-\n")
@example("format=halfhandle-script/1\n")
@example("format=halfhandle-script/1")
@example(SCRIPT % ("rearrange", "p", "1/0"))
@example(SCRIPT % ("rearrange", "p,q,r", "1/2,2/4,1/2"))  # equal values, two tokens
@example(SCRIPT % ("rearrange", "p", "1/2") + "\n")
@example(DEEP_SCRIPT.replace("\n", "\r\n"))
def test_the_fast_path_reads_a_script_as_the_general_path_does(text):
    event(check_against_the_general_path(text))


def test_every_base_script_is_built_from_its_matches():
    # the bare text with no ids matches no pattern and raises at line 2,
    # with or without its final newline
    for text in script_bases():
        assert check_against_the_general_path(text) == "parsed"
    bare = "format=halfhandle-script/1\nmove kind=split ids= values=- note=-"
    for text in (bare, bare + "\n"):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert (str(err.value), err.value.line) == ("line 2: bad point id ''", 2)


# the line breaks of str.splitlines other than "\n", and a few other
# characters, to build comments the line reader splits or keeps whole
BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85  "
skipped_lines = st.one_of(
    st.sampled_from(["", "#", "# end", " # indented", "  "]),
    st.builds("#".__add__, st.text(st.sampled_from(BREAKS + "ab #\té="), max_size=6)),
    st.builds("#".__add__, st.text(max_size=6)),
)


@st.composite
def with_skipped_lines(draw):
    """A script of ``script_bases`` with one to four lines put in: empty
    lines, comments, comments holding another line break and its move
    line, and lines of blanks or an indented comment."""
    lines = draw(st.sampled_from(script_bases())).split("\n")  # the last one ""
    for _ in range(draw(st.integers(1, 4))):
        line = draw(skipped_lines)
        if draw(st.booleans()) and line[:1] == "#":
            line += draw(st.sampled_from(BREAKS)) + "move kind=split ids=p values=- note=-"
        lines.insert(draw(st.integers(1, len(lines) - 1)), line)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(with_skipped_lines())
@example(SCRIPT % ("split", "p", "-") + "# end\n\n")
@example(SCRIPT % ("split", "p", "-") + "# a\rmove kind=split ids=q values=- note=-\n")
@example(SCRIPT % ("split", "p", "-") + "#\x0cmove kind=cancel ids=p values=- note=-\n")
@example(SCRIPT % ("split", "p", "-") + "#\x0cnote\n")
@example(DEEP_SCRIPT + "# end\n")
def test_empty_lines_and_comments_parse_as_the_line_reader_reads_them(text):
    # an empty line or a comment among the move lines leaves the others on
    # the fast path
    event(check_against_the_general_path(text))
