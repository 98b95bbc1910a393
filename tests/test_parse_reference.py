"""The one-pass parsers against the token-by-token reference.

``parse_datum`` and ``parse_script`` read each line in one pass and leave
the record checks to ``MoveRecord``; ``parse_datum_by_reference`` and
``parse_script_by_reference`` (in ``helpers``) are the parsers as they were
before, each token through ``split_directive`` and ``need``.  On the
fixtures, on small pieces of the benchmark corpus and on their normal form
scripts, with one token of one line mutated, the two must return equal
objects or raise the same ParseError, message and line alike.
"""

import pathlib
from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from halfhandle.cli_io import parse_datum, parse_script, serialize_script
from halfhandle.errors import ParseError
from halfhandle.normal_form import global_split

from helpers import parse_datum_by_reference, parse_script_by_reference

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

FRACTIONS = (
    "1/3", "2/3", "0", "1", "3/2", "-1/2", "1/0", "0/5", "2/4", "1/2/3", "abc",
    "", "0.5", "1e-3", "1e-30000000", "1e400000", "1_0/30", "١/٢",
    "nan", "inf", "1/" + "9" * 5000, " 1/3",
)
IDS = ("p", "q1", "a-b", "", "é", "x,y", "x,x", "x,y,z", "-", "c0:true", "u00_p1")
WORDS = (
    "rearrange", "cancel", "split", "bogus", "-", "?", "true", "false", "interior",
    "boundary_stable", "wall", "boundary", "merge", "birth", "c1:true", "c1:maybe",
    "c1,c2", "c1,c1", "c1", "7", "-1", "x",
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
        "stray", "directive"]))
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


@settings(max_examples=400, deadline=None)
@given(mutated_text(DATA))
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
def test_script_parser_matches_the_reference_on_mutated_lines(text):
    event(check_against_reference(parse_script, parse_script_by_reference, text))
