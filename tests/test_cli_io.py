"""Text formats, the generator, the search oracle, and the CLI."""

import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from halfhandle.cli_io import (
    GeneratorSpec,
    brute_force_reachability,
    generate,
    main,
    parse_datum,
    parse_script,
    serialize_datum,
    serialize_decomposition,
    serialize_script,
)
from halfhandle.errors import (
    BoundExceeded,
    InfeasibleSpec,
    ParseError,
    PartialConfiguration,
    UnknownId,
)
from halfhandle.morse_data import Flags, Kind, validate_datum
from halfhandle.moves import MoveRecord, apply_script, realize_configuration
from halfhandle.normal_form import global_split
from halfhandle.slice_topology import EffectKind, replay
from halfhandle.trajectory import Locus

from helpers import comp, datum, edge, eff, pt


def rich_datum():
    return datum(
        4, 2,
        [comp("c0", True), comp("c1", False)],
        [pt("p", Kind.INTERIOR, 0, Fraction(1, 7)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 7)),
         pt("r", Kind.INTERIOR, 3, Fraction(5, 7))],
        [edge("p", "q", 1, Locus.INNER),
         edge("q", "r", None, Locus.MEMBRANE)],
        [eff("p", EffectKind.BIRTH, (), (comp("c2", False),)),
         eff("q", EffectKind.MERGE, ("c1", "c2"), (comp("c3", False),)),
         eff("r", EffectKind.DEATH, ("c3",), ())],
        Flags(no_closed_cobordism=False, no_closed_bottom=False,
              no_closed_top=True),
    )


def test_datum_roundtrip_is_byte_stable():
    d = rich_datum()
    assert validate_datum(d) == []
    text = serialize_datum(d)
    back = parse_datum(text)
    assert back == d
    assert serialize_datum(back) == text


def test_parse_accepts_comments_and_blank_lines():
    d = rich_datum()
    lines = serialize_datum(d).splitlines()
    noisy = ["# a comment", "", lines[0], "   ", "  # another"]
    for line in lines[1:]:
        noisy.append("  " + line)
        noisy.append("")
    assert parse_datum("\n".join(noisy)) == d


def test_parse_error_carries_line_numbers():
    good = serialize_datum(rich_datum())
    with pytest.raises(ParseError) as err:
        parse_datum("# only a comment\n")
    assert err.value.line is None

    cases = [
        ("m=3", "expected format="),
        ("format=halfhandle-datum/1\nm=3\nm=4", "repeated header"),
        ("format=halfhandle-datum/1\nwidgets=9", "unknown header"),
        ("format=halfhandle-datum/1\nm=2 n=1", "stray tokens"),
        (good + "component id=x", "lacks touches_wall"),
        (good + "component id=x touches_wall=yes", "expected true or false"),
        (good + "point id=x kind=interior index=o value=1/2", "bad integer"),
        (good + "point id=x kind=interior index=0 value=1/0", "bad fraction"),
        (good + "point id=x kind=sideways index=0 value=1/2", ""),
        (good + "edge src=p dst=q count=1 locus=inner extra=1", "stray"),
        (good + "effect at=p kind=birth inputs=- outputs=c9", "wall bit"),
        (good + "frobnicate id=x", "unknown directive"),
        (good + "point id=p kind=interior index=0 value=1/2", "inconsistent"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_datum(text)
        assert fragment in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_datum(good + "edge src=p dst=q count=x locus=inner")
    assert err.value.line == len(good.splitlines()) + 1

    # a bad header value, or an ambient out of range, names the line of
    # the header at fault
    lines = good.splitlines()
    for key, bad, fragment in (("m", "x", "bad integer 'x'"),
                               ("n", "zz", "bad integer 'zz'"),
                               ("no_closed_top", "maybe",
                                "expected true or false, got 'maybe'"),
                               ("n", "0", "inconsistent datum: "
                                "need n >= 1, got n=0"),
                               ("m", "2", "inconsistent datum: "
                                "need m >= n+1, got m=2 with n=2")):
        num = next(i for i, line in enumerate(lines, 1)
                   if line.startswith(key + "="))
        text = "\n".join(lines[:num - 1] + ["%s=%s" % (key, bad)] + lines[num:])
        with pytest.raises(ParseError) as err:
            parse_datum(text)
        assert err.value.line == num, key
        assert str(err.value) == "line %d: %s" % (num, fragment), key

    # an enum token outside its enum, a move record of the wrong size, and
    # move records with values they do not take or ids that are no ids
    script_head = "format=halfhandle-script/1\n"
    bad_lines = [
        (parse_datum, good, "edge src=p dst=q count=1 locus=somewhere"),
        (parse_datum, good, "effect at=x kind=teleport inputs=- outputs=-"),
        (parse_script, script_head, "move kind=cancel ids=p values=- note=-"),
        (parse_script, script_head, "move kind=split ids=q,p values=- note=-"),
        (parse_script, script_head,
         "move kind=rearrange ids=p,p values=1/3,1/4 note=-"),
        (parse_script, script_head, "move kind=cancel ids=p,q values=1/2,1/3 note=-"),
        (parse_script, script_head, "move kind=split ids=q values=1/2 note=-"),
        (parse_script, script_head, "move kind=split ids= values=- note=-"),
        (parse_script, script_head, "move kind=rearrange ids= values=1/2 note=-"),
        (parse_script, script_head, "move kind=rearrange ids=p, values=1/3,1/4 note=-"),
    ]
    for parse, head, line in bad_lines:
        with pytest.raises(ParseError) as err:
            parse(head + line)
        assert err.value.line == len(head.splitlines()) + 1, line

    # a canonical line of the other format, or a header in a script, is an
    # unknown directive there: each format reads only its own line kinds,
    # and no line is dropped
    cross_format = [
        (parse_datum, good, "move kind=rearrange ids=p values=1/2 note=-", "move"),
        (parse_script, script_head, "point id=p kind=interior index=1 value=1/2",
         "point"),
        (parse_script, script_head, "m=4", "m=4"),
    ]
    for parse, head, line, directive in cross_format:
        num = len(head.splitlines()) + 1
        with pytest.raises(ParseError) as err:
            parse(head + line)
        assert err.value.line == num, line
        assert str(err.value) == "line %d: unknown directive %r" % (num, directive)

    with pytest.raises(ParseError):
        parse_datum("format=halfhandle-datum/1\nn=1\n")  # m missing


def test_unknown_count_serializes_as_question_mark():
    text = serialize_datum(rich_datum())
    assert "count=?" in text
    assert "count=1" in text


def test_script_roundtrip_and_note_mangling():
    script = [
        MoveRecord("rearrange", ("p", "q"),
                   (Fraction(1, 3), Fraction(2, 3)), "swap step"),
        MoveRecord("cancel", ("z", "w"), (), ""),
        MoveRecord("split", ("z",), (), "wall"),
    ]
    text = serialize_script(script)
    back = parse_script(text)
    assert back[0].note == "swap_step"
    assert back[1] == script[1]
    assert back[2] == script[2]
    assert serialize_script(back) == text

    with pytest.raises(ParseError):
        parse_script("move kind=cancel ids=a,b values=- note=-")
    with pytest.raises(ParseError):
        parse_script("format=halfhandle-script/1\nsegment label=0")
    with pytest.raises(ParseError):
        parse_script("format=halfhandle-script/1\nmove kind=cancel ids=a,b")


def test_decomposition_serialization_shape():
    d = rich_datum().replace(flags=Flags())
    # strip the closed chain so the strict flags hold
    d = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 2, Fraction(1, 2))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),))],
    )
    out, dec, _ = global_split(d)
    text = serialize_decomposition(dec)
    lines = text.splitlines()
    assert lines[0] == "format=halfhandle-decomposition/1"
    assert lines[1] == "style=half_handle"
    assert len(lines) == 2 + len(dec.segments)
    for seg, line in zip(dec.segments, lines[2:]):
        assert line.startswith("segment label=%s lo=%s hi=%s" %
                               (seg.label, seg.lo, seg.hi))
        if seg.point_ids:
            assert line.endswith("points=" + ",".join(seg.point_ids))
        else:
            assert line.endswith("points=-")


# ---------------------------------------------------------------------------
# generator


def test_generate_is_deterministic_and_valid():
    spec = GeneratorSpec(n=2, m=4, points=8, seed=11)
    d1 = generate(spec)
    d2 = generate(spec)
    assert d1 == d2
    assert validate_datum(d1) == []
    assert len(d1.points) == 8
    assert generate(GeneratorSpec(n=2, m=4, points=8, seed=12)) != d1


def test_generate_honours_the_knobs():
    d = generate(GeneratorSpec(n=3, m=5, points=7, seed=4,
                               allow_boundary=False))
    assert all(p.kind is Kind.INTERIOR for p in d.points)
    assert d.flags == Flags()

    relaxed = generate(GeneratorSpec(n=2, m=4, points=6, seed=4,
                                     no_closed_cobordism=False,
                                     no_closed_top=False))
    assert relaxed.flags == Flags(no_closed_cobordism=False,
                                  no_closed_top=True) or relaxed.flags == \
        Flags(no_closed_cobordism=False, no_closed_top=False)

    empty = generate(GeneratorSpec(n=1, m=3, points=0, seed=0))
    assert empty.points == ()
    assert validate_datum(empty) == []


def test_generate_can_leave_a_closed_survivor():
    d = generate(GeneratorSpec(n=2, m=4, points=6, seed=2,
                               no_closed_top=False,
                               leave_closed_component=True))
    issues, final = replay(d.ambient, d.points, d.slices)
    assert issues == []
    assert any(not bit for bit in final.values())


def test_generate_rejects_contradictory_specs():
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(n=1, m=3, points=-1, seed=0))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(n=1, m=3, points=4, seed=0,
                               edge_probability=1.5))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(n=1, m=3, points=4, seed=0,
                               leave_closed_component=True))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(n=1, m=3, points=0, seed=0,
                               no_closed_top=False,
                               leave_closed_component=True))
    with pytest.raises(InfeasibleSpec):
        generate(GeneratorSpec(n=3, m=3, points=4, seed=0))



# sha256 over the serialized output of ``generate`` for every spec of the
# grid below, or over the ``InfeasibleSpec`` message where one is raised.
# The frozen benchmark corpus and the acceptance digests rest on these
# bytes: a rewrite of the generator keeps them, and a change of the seeded
# data on purpose updates this digest and says why.
GENERATOR_DIGEST = "b209651838aaa974fd06674f689b1dff3736f170cada62ca64fb92c804ea1c2e"
KNOBS = ("no_closed_cobordism", "no_closed_bottom", "no_closed_top",
         "allow_boundary", "leave_closed_component")


def test_generator_output_is_pinned_over_every_knob():
    digest = hashlib.sha256()
    grid = itertools.product(range(1, 5), (1, 2), (2, 7),
                             itertools.product((True, False), repeat=5),
                             (0.25, 1.0))
    count = 0
    for seed, (n, codim, points, flags, prob) in enumerate(grid):
        spec = GeneratorSpec(n=n, m=n + codim, points=points, seed=seed,
                             edge_probability=prob, **dict(zip(KNOBS, flags)))
        try:
            text = serialize_datum(generate(spec))
        except InfeasibleSpec as exc:
            text = "InfeasibleSpec: %s" % exc
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
        count += 1
    assert count == 1024
    assert digest.hexdigest() == GENERATOR_DIGEST


# ---------------------------------------------------------------------------
# search oracle


def oracle_datum(chained=False):
    # the chained variant needs codim 1: at higher codimension genericity
    # keeps equal-index interior points apart, so no edge could exist
    return datum(
        3 if chained else 4, 2,
        [comp("c0", True), comp("c1", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 3)),
         pt("q", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("p", "q", 1, Locus.INNER)] if chained else [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c2", True),)),
         eff("q", EffectKind.INTERNAL, ("c1",), (comp("c3", True),))],
    )


def test_oracle_agrees_with_realize_on_a_swap():
    d = oracle_datum()
    swap = {"p": Fraction(2, 3), "q": Fraction(1, 3)}
    assert brute_force_reachability(d, swap)
    moved, _ = realize_configuration(d, swap)
    assert {p.id: p.value for p in moved.points} == swap


def test_oracle_rejects_bad_targets():
    d = oracle_datum()
    assert not brute_force_reachability(d, {"p": Fraction(3, 2),
                                            "q": Fraction(1, 3)})
    chained = oracle_datum(chained=True)
    assert validate_datum(chained) == []
    assert not brute_force_reachability(
        chained, {"p": Fraction(2, 3), "q": Fraction(1, 3)})
    with pytest.raises(UnknownId):
        brute_force_reachability(d, {"p": Fraction(1, 2),
                                     "x": Fraction(1, 4),
                                     "q": Fraction(3, 4)})
    with pytest.raises(PartialConfiguration):
        brute_force_reachability(d, {"p": Fraction(1, 2)})


def test_oracle_bound_is_enforced():
    # four independent points: every intermediate state is valid, so the
    # search would happily enumerate 2^4 states without the budget
    P = 4
    d = datum(
        4, 2,
        [comp("c%d" % i, True) for i in range(P)],
        [pt("p%d" % i, Kind.INTERIOR, 1, Fraction(i + 1, P + 2))
         for i in range(P)],
        [],
        [eff("p%d" % i, EffectKind.INTERNAL, ("c%d" % i,),
             (comp("d%d" % i, True),)) for i in range(P)],
    )
    assert validate_datum(d) == []
    targets = {"p%d" % i: Fraction(P - i, P + 2) for i in range(P)}
    assert brute_force_reachability(d, targets)
    with pytest.raises(BoundExceeded):
        brute_force_reachability(d, targets, bound=2)


# ---------------------------------------------------------------------------
# command line


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_validate(tmp_path, capsys):
    ok = write(tmp_path, "ok.hh", serialize_datum(rich_datum()))
    assert main(["validate", ok]) == 0
    assert capsys.readouterr().out == "ok\n"

    bad = rich_datum().replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(1, 7))
        for p in rich_datum().points))
    bad_path = write(tmp_path, "bad.hh", serialize_datum(bad))
    assert main(["validate", bad_path]) == 1
    assert "value" in capsys.readouterr().out

    garbage = write(tmp_path, "junk.hh", "not a datum\n")
    assert main(["validate", garbage]) == 1
    assert "error:" in capsys.readouterr().err

    text = serialize_datum(rich_datum())
    line = len(text.splitlines()) + 1
    for extra in ("edge src=p dst=q count=1 locus=somewhere",
                  "effect at=x kind=teleport inputs=- outputs=-"):
        unknown = write(tmp_path, "unknown.hh", text + extra + "\n")
        assert main(["validate", unknown]) == 1, extra
        assert "error: line %d:" % line in capsys.readouterr().err, extra


def test_cli_moves_refuse_an_invalid_datum(tmp_path, capsys):
    bad = rich_datum().replace(points=tuple(
        pt(p.id, p.kind, p.index, Fraction(1, 7))
        for p in rich_datum().points))
    issues = validate_datum(bad)
    assert issues
    path = write(tmp_path, "bad.hh", serialize_datum(bad))
    report = str(tmp_path / "r.hh")
    for argv in (["rearrange", path, "p", "q", "1/3", "2/3"],
                 ["cancel", path, "p", "q"],
                 ["split", path, "q"],
                 ["normal-form", path, "--report", report]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid datum"] + ["  " + i for i in issues], argv[0]
    assert not os.path.exists(report)


def test_cli_file_errors_end_in_an_error_line(tmp_path, capsys):
    one = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 2))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),))],
    )
    src = write(tmp_path, "one.hh", serialize_datum(one))
    latin = tmp_path / "latin.hh"
    latin.write_bytes(serialize_datum(one).encode() + b"# caf\xe9\n")
    for argv in (["validate", str(tmp_path / "missing.hh")],
                 ["validate", str(latin)],
                 ["normal-form", src, "--report",
                  str(tmp_path / "no-such-dir" / "r.hh")]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot "), argv
        assert "Traceback" not in err, argv


def out_of_range_datum():
    """A stable point of index 0 with a flow line out of it, plus a closed
    component that lives from bottom to top."""
    return datum(
        4, 2,
        [comp("c0", True), comp("c9", False)],
        [pt("a", Kind.BOUNDARY_STABLE, 0, Fraction(1, 3)),
         pt("b", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("a", "b", 1, Locus.MEMBRANE)],
        [eff("a", EffectKind.BOUNDARY_ATTACH, ("c0",), (comp("c1", True),)),
         eff("b", EffectKind.INTERNAL, ("c1",), (comp("c2", True),))],
    )


OUT_OF_RANGE_ISSUES = [
    "point a: index 0 out of range [1, 3] for boundary_stable with n=2",
    "flag no_closed_bottom but bottom component 'c9' is closed",
    "flag no_closed_top but top component 'c9' is closed",
]


def test_validate_lists_every_issue_past_an_out_of_range_index():
    # the edge out of ``a`` gets no genericity check: ``a`` has no profile
    assert validate_datum(out_of_range_datum()) == OUT_OF_RANGE_ISSUES


def test_cli_validate_prints_every_issue(tmp_path, capsys):
    path = write(tmp_path, "bad.hh", serialize_datum(out_of_range_datum()))
    assert main(["validate", path]) == 1
    assert capsys.readouterr().out.splitlines() == OUT_OF_RANGE_ISSUES


def test_cli_profile(capsys):
    assert main(["profile", "--kind", "interior", "--index", "1",
                 "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("stable_membrane=2 unstable_membrane=3 stable_inner=1 "
                   "unstable_inner=2 stable_wall=- unstable_wall=-\n")
    assert main(["profile", "--kind", "boundary_stable", "--index", "0",
                 "--n", "2"]) == 1
    assert main(["profile", "--kind", "wiggly", "--index", "0", "--n", "2"]) == 1
    capsys.readouterr()
    for n in ("0", "-1"):  # no level set below dimension one, as in Ambient
        assert main(["profile", "--kind", "interior", "--index", "0",
                     "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need n >= 1, got n=%s" % n in captured.err
    # a refusal without an issue list is printed once, not again as an issue
    assert main(["profile", "--kind", "interior", "--index", "5", "--n", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: index 5 out of range [0, 3] for interior with n=2\n")


def test_cli_disjoint(tmp_path, capsys):
    path = write(tmp_path, "d.hh", serialize_datum(rich_datum()))
    assert main(["disjoint", path, "p", "r"]) == 0
    assert capsys.readouterr().out == "disjoint=false\n"
    assert main(["disjoint", path, "r", "p"]) == 0
    assert capsys.readouterr().out == "disjoint=true\n"


def test_cli_rearrange_and_replay(tmp_path, capsys):
    d = oracle_datum()
    src = write(tmp_path, "in.hh", serialize_datum(d))
    out = str(tmp_path / "out.hh")
    script = str(tmp_path / "steps.hh")
    assert main(["rearrange", src, "p", "q", "2/3", "1/3",
                 "-o", out, "--script", script]) == 0
    moved = parse_datum((tmp_path / "out.hh").read_text())
    assert moved.point("p").value == Fraction(2, 3)
    assert moved.point("q").value == Fraction(1, 3)
    steps = parse_script((tmp_path / "steps.hh").read_text())
    assert apply_script(d, steps) == moved

    # stdout when no -o is given
    assert main(["rearrange", src, "p", "q", "2/3", "1/3"]) == 0
    assert parse_datum(capsys.readouterr().out) == moved


def test_cli_cancel_exit_codes(tmp_path, capsys):
    d = datum(
        3, 1,
        [comp("c0", True)],
        [pt("z", Kind.INTERIOR, 0, Fraction(1, 3)),
         pt("w", Kind.INTERIOR, 1, Fraction(2, 3))],
        [edge("z", "w", 1, Locus.INNER)],
        [eff("z", EffectKind.BIRTH, (), (comp("c1", False),)),
         eff("w", EffectKind.MERGE, ("c0", "c1"), (comp("c2", True),))],
    )
    src = write(tmp_path, "pair.hh", serialize_datum(d))
    out = str(tmp_path / "less.hh")
    assert main(["cancel", src, "z", "w", "-o", out]) == 0
    emptied = parse_datum((tmp_path / "less.hh").read_text())
    assert emptied.points == ()

    assert main(["cancel", src, "w", "z"]) == 2
    assert "move refused" in capsys.readouterr().err
    assert main(["cancel", src, "z", "z"]) == 2
    assert capsys.readouterr().err == (
        "move refused: cancel_pair wants two distinct points\n")


def test_cli_split_and_normal_form(tmp_path, capsys):
    d = datum(
        4, 2,
        [comp("c0", True)],
        [pt("p", Kind.INTERIOR, 1, Fraction(1, 2))],
        [],
        [eff("p", EffectKind.INTERNAL, ("c0",), (comp("c1", True),))],
    )
    src = write(tmp_path, "one.hh", serialize_datum(d))
    assert main(["split", src, "p"]) == 0
    split_out = parse_datum(capsys.readouterr().out)
    assert {p.id for p in split_out.points} == {"ps", "pu"}

    out = str(tmp_path / "nf.hh")
    script = str(tmp_path / "nf-script.hh")
    report = str(tmp_path / "nf-report.hh")
    assert main(["normal-form", src, "-o", out, "--script", script,
                 "--report", report]) == 0
    final = parse_datum((tmp_path / "nf.hh").read_text())
    steps = parse_script((tmp_path / "nf-script.hh").read_text())
    assert apply_script(d, steps) == final
    report_text = (tmp_path / "nf-report.hh").read_text()
    assert report_text.splitlines()[1] == "style=half_handle"

    # normal form refuses when the hypotheses fail
    loose = d.replace(flags=Flags(no_closed_bottom=False))
    loose_path = write(tmp_path, "loose.hh", serialize_datum(loose))
    assert main(["normal-form", loose_path, "--report",
                 str(tmp_path / "r.hh")]) == 2


def test_cli_generate_and_oracle(tmp_path, capsys):
    out = str(tmp_path / "gen.hh")
    assert main(["generate", "--n", "2", "--m", "4", "--points", "5",
                 "--seed", "9", "-o", out]) == 0
    d = parse_datum((tmp_path / "gen.hh").read_text())
    assert validate_datum(d) == []
    assert d == generate(GeneratorSpec(n=2, m=4, points=5, seed=9))

    src = write(tmp_path, "o.hh", serialize_datum(oracle_datum()))
    assert main(["oracle", src, "p=2/3", "q=1/3"]) == 0
    assert capsys.readouterr().out == "reachable\n"
    blocked = write(tmp_path, "b.hh",
                    serialize_datum(oracle_datum(chained=True)))
    assert main(["oracle", blocked, "p=2/3", "q=1/3"]) == 0
    assert capsys.readouterr().out == "unreachable\n"
    assert main(["oracle", src, "p"]) == 1
    capsys.readouterr()
    # a repeated id is refused, not answered for its last value
    assert main(["oracle", src, "p=1/8", "q=7/8", "p=1/3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated target 'p'\n"
    # an incomplete target list is bad input: exit 1, and an unknown id is
    # still reported first
    assert main(["oracle", src, "p=1/8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no target value for point 'q'\n"
    assert main(["oracle", src, "p=1/8", "x=1/2"]) == 1
    assert capsys.readouterr().err == "error: no critical point with id 'x'\n"
    assert main(["generate", "--n", "1", "--m", "3", "--points", "2",
                 "--seed", "0", "--leave-closed-component"]) == 1
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli_without_warnings():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "halfhandle", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: halfhandle")


def test_huge_exponents_are_refused_at_once(tmp_path, capsys):
    # Fraction("1e-30000000") computes 10**30000000 (tens of seconds); the
    # parser refuses it as bad fraction, like a p/q past the digit limit
    token = "1e-30000000"
    good = write(tmp_path, "good.hh", serialize_datum(rich_datum()))
    text = serialize_datum(rich_datum()).replace("value=1/7", "value=" + token)
    path = write(tmp_path, "huge.hh", text)
    line = next(i for i, row in enumerate(text.splitlines(), 1) if token in row)
    script = ("format=halfhandle-script/1\n"
              "move kind=rearrange ids=p values=%s note=-\n" % token)
    start = perf_counter()
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: line %d: bad fraction %r\n" % (line, token)
    with pytest.raises(ParseError) as err:
        parse_script(script)
    assert str(err.value) == "line 2: bad fraction %r" % (token,)
    assert main(["rearrange", good, "p", "q", token, "1/2"]) == 1
    assert capsys.readouterr().err == "error: bad fraction %r\n" % (token,)
    assert perf_counter() - start < 1

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "halfhandle", "validate", path],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (
        1, "error: line %d: bad fraction %r\n" % (line, token))


def test_zero_denominators_end_as_parse_errors(tmp_path, capsys):
    # "1/00" has the canonical p/q shape; its Fraction raises, and the line
    # ends in the general path's ParseError, never in ZeroDivisionError
    for token in ("1/00", "1/0", "0/0"):
        text = serialize_datum(rich_datum()).replace("value=1/7", "value=" + token)
        path = write(tmp_path, "zero.hh", text)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if token in row)
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == "error: line %d: bad fraction %r\n" % (
            line, token)
        script = ("format=halfhandle-script/1\n"
                  "move kind=rearrange ids=p values=%s note=park\n" % token)
        with pytest.raises(ParseError) as err:
            parse_script(script)
        assert str(err.value) == "line 2: bad fraction %r" % (token,)
