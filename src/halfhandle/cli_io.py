"""Text formats and the CLI.

The datum format is line oriented: one ``key=value`` header per line, then
one line per bottom component, critical point, flow edge, and slice effect.
Blank lines and ``#`` comments are ignored; serialization is canonical, so
parse followed by serialize is byte stable.  Move scripts use the same
token style with one ``move`` line per rewriting step.

Both formats are read by one reader, ``_read``, driven by one table of line
kinds, ``_LINES``: each directive (``point``, ``effect``, ``edge``,
``component``, ``move``) has its keys, its canonical pattern, the builder
of a match and the builder of its checked ``key=value`` tokens.  A format
offers only its own directives; any other is an unknown directive there.

A line in the shape the serializers write (single spaces, keys in order,
ASCII ids and digits) is built from one pattern match, without the checks
of its constructor: the match proves them, but for those its builder makes
on the fields (a value inside (0, 1), an edge's ends and count, an effect's
ids each once, a kind or locus word).  A one-point ``rearrange`` record is
built by ``MoveRecord._step``.  A text's values come from one pool, a
``Fraction`` per ``p/q`` token, so equal tokens give one object.  Any
other line, and a matched one whose build raises one of ``_MISSES``, falls
back to the general path, which raises its own ParseError with the same
message and line.

The general path reads a line in one pass: every token is split once, and
the line's key set is compared with its directive's.  The message for a
bad token, a missing key or a stray one is only worked out for a line that
has one.  Each object is then checked once, by its constructor: a record by
``MoveRecord``, which keeps a tuple of Fractions as it is, and a point by
``CriticalPoint``, which keeps the ``Kind`` the parser built.
"""

from __future__ import annotations

import re
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import (
    EngineError,
    MoveError,
    ParseError,
    PartialConfiguration,
    ValidationError,
)
from .morse_data import (
    Ambient,
    CriticalPoint,
    Flags,
    Kind,
    MorseDatum,
    dimension_profile,
    require_valid,
    validate_datum,
)
from .moves import MoveRecord, cancel_pair, rearrange_pair, split_interior
from .normal_form import Decomposition, global_split
from .slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
)
from .trajectory import FlowEdge, Locus, TrajectoryGraph, generic_disjoint

DATUM_FORMAT = "halfhandle-datum/1"
SCRIPT_FORMAT = "halfhandle-script/1"
DECOMPOSITION_FORMAT = "halfhandle-decomposition/1"


# ---------------------------------------------------------------------------
# parsing


def _attrs(tokens, num: int) -> Dict[str, str]:
    """The ``key=value`` tokens after a line's first token, by key, each
    split once; ParseError for the first token without ``=`` or with a key
    seen before it."""
    attrs: Dict[str, str] = {}
    for tok in tokens[1:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ParseError("expected key=value, got %r" % (tok,), num)
        if key in attrs:
            raise ParseError("repeated key %r" % (key,), num)
        attrs[key] = value
    return attrs


def _check_keys(attrs: Dict[str, str], keys, what: str, num: int) -> None:
    """Raise ParseError unless ``attrs`` holds exactly ``keys``, the keys of
    a ``what`` line: the missing keys first, then the stray ones."""
    if attrs.keys() == keys.keys():
        return
    missing = [k for k in keys if k not in attrs]
    if missing:
        raise ParseError("%s line lacks %s" % (what, ", ".join(missing)), num)
    extra = [k for k in attrs if k not in keys]
    raise ParseError("%s line has stray %s" % (what, ", ".join(extra)), num)


def _bool(token: str, num: int) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ParseError("expected true or false, got %r" % (token,), num)


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _fraction(token: str, num: Optional[int] = None) -> Fraction:
    """``Fraction(token)``, or ParseError where it raises; an ASCII ``p/q``
    from its two ints.  An exponent or value past the int digit limit is
    refused, like a ``p/q`` past it, before ``10**exponent`` stalls."""
    p, slash, q = token.partition("/")
    try:
        if slash and token.isascii() and p.isdigit() and q.isdigit():
            return Fraction(int(p), int(q))
        exponent, limit = _EXPONENT.search(token), sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError("exponent past the digit limit")
        value = Fraction(token)
        str(value)  # past the digit limit: ValueError
        return value
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad fraction %r" % (token,), num)


def _int(token: str, num: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError("bad integer %r" % (token,), num)


def _content_lines(text: str):
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield num, line


# The canonical lines, as the serializers write them: single spaces, the
# keys in ``_LINES`` order, ids and words of ASCII ``\w``, a note of
# printable ASCII, ``p/q`` fractions of ASCII digits.  The general path
# reads such a line as these builders do: the same tokens, each key once,
# ids that pass ``_ID_RE``, enum members by their words, and ints and
# Fractions from the same digits.
_MOVE_LINE = re.compile(
    r"move kind=rearrange ids=(\w+) values=(\d+/\d+) note=([!-~]+)", re.ASCII
)
_POINT_LINE = re.compile(
    r"point id=(\w+) kind=(\w+) index=(\d+) value=(\d+/\d+)", re.ASCII
)
_EFFECT_LINE = re.compile(
    r"effect at=(\w+) kind=(\w+) inputs=(-|\w+(?:,\w+)*)"
    r" outputs=(-|\w+:(?:true|false)(?:,\w+:(?:true|false))*)",
    re.ASCII,
)
_EDGE_LINE = re.compile(
    r"edge src=(\w+) dst=(\w+) count=(\d+|\?) locus=(\w+)", re.ASCII
)
_COMPONENT_LINE = re.compile(
    r"component id=(\w+) touches_wall=(true|false)", re.ASCII
)
_KINDS, _EFFECT_KINDS, _LOCI = (
    {member.value: member for member in enum} for enum in (Kind, EffectKind, Locus)
)
# what a matched line's build may raise: 1/0, a too long int, a bad word or field
_MISSES = (KeyError, ValueError, ZeroDivisionError)


class _Pool(dict):
    """A text's values by their ``p/q`` tokens: one Fraction per token."""

    def __missing__(self, token):
        p, _, q = token.partition("/")
        value = self[token] = Fraction(int(p), int(q))
        return value


def _move(match, pool) -> MoveRecord:
    """The record of a canonical rearrange line; the match proves every
    check ``MoveRecord.__post_init__`` makes on it."""
    note = "" if match[3] == "-" else match[3]
    return MoveRecord._step(match[1], pool[match[2]], note)


def _point(match, pool) -> CriticalPoint:
    """Checked here: the kind word, and the value inside (0, 1)."""
    kind, value = _KINDS[match[2]], pool[match[4]]
    num, den = value.numerator, value.denominator
    if not 0 < num < den:
        raise ValueError("not inside (0, 1)")
    out, put = object.__new__(CriticalPoint), object.__setattr__
    put(out, "id", match[1])
    put(out, "kind", kind)
    put(out, "index", int(match[3]))
    put(out, "value", value)
    put(out, "_float", num / den)
    return out


def _effect(match, pool) -> ComponentEffect:
    """Checked here: the kind word, and no input or output id twice."""
    inputs = () if match[3] == "-" else tuple(match[3].split(","))
    outputs = () if match[4] == "-" else tuple(
        _slice_component(cid, bit == "true")
        for cid, bit in (item.split(":") for item in match[4].split(","))
    )
    if len(set(inputs)) < len(inputs) or len({c.id for c in outputs}) < len(outputs):
        raise ValueError("a repeated id")
    out, put = object.__new__(ComponentEffect), object.__setattr__
    put(out, "at", match[1])
    put(out, "kind", _EFFECT_KINDS[match[2]])
    put(out, "inputs", inputs)
    put(out, "outputs", outputs)
    return out


def _edge(match, pool) -> FlowEdge:
    """Checked here: the locus word, two ends, and a count of 1 or more."""
    src, dst, count = match[1], match[2], None if match[3] == "?" else int(match[3])
    if src == dst or count == 0:
        raise ValueError("a loop or no flow line")
    out, put = object.__new__(FlowEdge), object.__setattr__
    put(out, "src", src)
    put(out, "dst", dst)
    put(out, "count", count)
    put(out, "locus", _LOCI[match[4]])
    return out


def _slice_component(cid: str, touches_wall: bool) -> SliceComponent:
    """A matched component: its id passes ``_ID_RE``, its bit is a bool."""
    out = object.__new__(SliceComponent)
    object.__setattr__(out, "id", cid)
    object.__setattr__(out, "touches_wall", touches_wall)
    return out


def _component(match, pool) -> SliceComponent:
    return _slice_component(match[1], match[2] == "true")


def _move_attrs(attrs, num: int) -> MoveRecord:
    ids = tuple(attrs["ids"].split(","))
    values = ()
    if attrs["values"] != "-":
        values = tuple([_fraction(tok, num) for tok in attrs["values"].split(",")])
    note = "" if attrs["note"] == "-" else attrs["note"]
    return MoveRecord(attrs["kind"], ids, values, note)  # checked once, here


def _point_attrs(attrs, num: int) -> CriticalPoint:
    return CriticalPoint(
        attrs["id"],
        Kind(attrs["kind"]),
        _int(attrs["index"], num),
        _fraction(attrs["value"], num),
    )


def _effect_attrs(attrs, num: int) -> ComponentEffect:
    outputs = []
    for item in () if attrs["outputs"] == "-" else attrs["outputs"].split(","):
        cid, _, bit = item.partition(":")
        if not bit:
            raise ParseError("output %r lacks its wall bit" % (item,), num)
        outputs.append(SliceComponent(cid, _bool(bit, num)))
    inputs = attrs["inputs"]
    return ComponentEffect(
        attrs["at"],
        EffectKind(attrs["kind"]),
        () if inputs == "-" else tuple(inputs.split(",")),
        tuple(outputs),
    )


def _edge_attrs(attrs, num: int) -> FlowEdge:
    count = None if attrs["count"] == "?" else _int(attrs["count"], num)
    return FlowEdge(attrs["src"], attrs["dst"], count, Locus(attrs["locus"]))


def _component_attrs(attrs, num: int) -> SliceComponent:
    return SliceComponent(attrs["id"], _bool(attrs["touches_wall"], num))


# directive -> (its keys, as a dict: a keys view compares as a set; its
# canonical pattern; the builder of a match and the text's pool; the builder
# of its key=value tokens, which may raise ValidationError or ValueError)
_LINES = {
    directive: (dict.fromkeys(keys.split()), pattern, from_match, from_attrs)
    for directive, keys, pattern, from_match, from_attrs in (
        ("move", "kind ids values note", _MOVE_LINE, _move, _move_attrs),
        ("point", "id kind index value", _POINT_LINE, _point, _point_attrs),
        ("effect", "at kind inputs outputs", _EFFECT_LINE, _effect, _effect_attrs),
        ("edge", "src dst count locus", _EDGE_LINE, _edge, _edge_attrs),
        ("component", "id touches_wall", _COMPONENT_LINE, _component, _component_attrs),
    )
}


def _read(text: str, fmt: str, directives, header=None) -> Dict[str, list]:
    """The objects of a ``fmt`` text's lines, in a list per directive of
    ``directives``; ParseError with its line number for the first bad line.

    The first content line must be ``format=fmt``.  A later line whose
    first word is one of ``directives`` and whose shape is canonical is
    built from its match, its values from the text's one ``_Pool``.  Any
    other line is split into its ``key=value`` tokens (``_attrs``); one
    whose first token holds ``=`` goes to ``header(token, attrs, num)`` if
    a header is read, and any other must be one of ``directives``, with
    exactly its keys, and is built from its tokens."""
    lines = _content_lines(text)
    for num, line in lines:
        if line != "format=" + fmt:
            raise ParseError("expected format=" + fmt, num)
        break
    else:
        raise ParseError("missing format=" + fmt)
    out = {directive: [] for directive in directives}
    pool = _Pool()
    for num, line in lines:
        directive = line.partition(" ")[0]
        if directive in out:
            _, pattern, from_match, _ = _LINES[directive]
            match = pattern.fullmatch(line)
            if match:
                try:
                    out[directive].append(from_match(match, pool))
                    continue
                except _MISSES:  # the general path raises its own error
                    pass
        tokens = line.split()
        attrs = _attrs(tokens, num)
        directive = tokens[0]
        if header and "=" in directive:
            header(directive, attrs, num)
            continue
        if directive not in out:
            raise ParseError("unknown directive %r" % (directive,), num)
        keys, _, _, from_attrs = _LINES[directive]
        _check_keys(attrs, keys, directive, num)
        try:
            out[directive].append(from_attrs(attrs, num))
        except (ValidationError, ValueError) as exc:
            raise ParseError(str(exc), num)
    return out


def parse_datum(text: str) -> MorseDatum:
    """Parse the datum format; raises ParseError with a line number."""
    header: Dict[str, tuple] = {}
    flag_keys = ("no_closed_cobordism", "no_closed_bottom", "no_closed_top")

    def read_header(token: str, attrs, num: int) -> None:
        key, _, val = token.partition("=")
        if attrs:
            raise ParseError("stray tokens after %s" % (key,), num)
        if key not in ("m", "n") + flag_keys:
            raise ParseError("unknown header %r" % (key,), num)
        if key in header:
            raise ParseError("repeated header %r" % (key,), num)
        header[key] = (val, num)

    directives = ("component", "point", "edge", "effect")
    out = _read(text, DATUM_FORMAT, directives, read_header)
    for key in ("m", "n"):
        if key not in header:
            raise ParseError("missing header %s" % (key,))
    flags = Flags(**{
        key: _bool(*header.get(key, ("true", None))) for key in flag_keys
    })
    m, n = _int(*header["m"]), _int(*header["n"])
    try:
        ambient = Ambient(m, n)
    except ValidationError as exc:  # names n when n < 1, else m
        raise ParseError(
            "inconsistent datum: %s" % (exc,), header["n" if n < 1 else "m"][1]
        )
    try:
        return MorseDatum(
            ambient,
            tuple(out["point"]),
            TrajectoryGraph(tuple(out["edge"])),
            SliceComplex(tuple(out["component"]), tuple(out["effect"])),
            flags,
        )
    except ValidationError as exc:
        raise ParseError("inconsistent datum: %s" % (exc,))


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def serialize_datum(datum: MorseDatum) -> str:
    lines = [
        "format=" + DATUM_FORMAT,
        "m=%d" % datum.ambient.m,
        "n=%d" % datum.ambient.n,
        "no_closed_cobordism=" + _bool_str(datum.flags.no_closed_cobordism),
        "no_closed_bottom=" + _bool_str(datum.flags.no_closed_bottom),
        "no_closed_top=" + _bool_str(datum.flags.no_closed_top),
    ]
    for c in datum.slices.bottom:
        lines.append(
            "component id=%s touches_wall=%s" % (c.id, _bool_str(c.touches_wall))
        )
    for p in datum.points:
        lines.append(
            "point id=%s kind=%s index=%d value=%s"
            % (p.id, p.kind.value, p.index, p.value)
        )
    for e in datum.graph.edges:
        lines.append(
            "edge src=%s dst=%s count=%s locus=%s"
            % (e.src, e.dst, "?" if e.count is None else e.count, e.locus.value)
        )
    for eff in datum.slices.effects:
        inputs = ",".join(eff.inputs) if eff.inputs else "-"
        outputs = (
            ",".join(
                "%s:%s" % (c.id, _bool_str(c.touches_wall)) for c in eff.outputs
            )
            if eff.outputs
            else "-"
        )
        lines.append(
            "effect at=%s kind=%s inputs=%s outputs=%s"
            % (eff.at, eff.kind.value, inputs, outputs)
        )
    return "\n".join(lines) + "\n"


def parse_script(text: str) -> List[MoveRecord]:
    """Parse the script format; raises ParseError with a line number."""
    return _read(text, SCRIPT_FORMAT, ("move",))["move"]


def serialize_script(script) -> str:
    lines = ["format=" + SCRIPT_FORMAT]
    for rec in script:
        values = ",".join(str(v) for v in rec.values) if rec.values else "-"
        note = rec.note if rec.note else "-"
        note = "_".join(note.split())  # keep the line tokenizable
        lines.append(
            "move kind=%s ids=%s values=%s note=%s"
            % (rec.kind, ",".join(rec.ids), values, note)
        )
    return "\n".join(lines) + "\n"


def serialize_decomposition(dec: Decomposition) -> str:
    lines = ["format=" + DECOMPOSITION_FORMAT, "style=%s" % dec.style]
    for seg in dec.segments:
        cert = ":".join(str(part) for part in seg.cert)
        pts = ",".join(seg.point_ids) if seg.point_ids else "-"
        lines.append(
            "segment label=%s lo=%s hi=%s cert=%s points=%s"
            % (seg.label, seg.lo, seg.hi, cert, pts)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise EngineError("cannot read %s: %s" % (path, reason)) from None


def _write_text(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        reason = exc.strerror or exc
        raise EngineError("cannot write %s: %s" % (path, reason)) from None


def _load_valid(path: str) -> MorseDatum:
    datum = parse_datum(_read_text(path))
    require_valid(datum)
    return datum


def _cmd_validate(args) -> int:
    datum = parse_datum(_read_text(args.file))
    issues = validate_datum(datum)
    if issues:
        for issue in issues:
            print(issue)
        return 1
    print("ok")
    return 0


def _cmd_profile(args) -> int:
    try:
        kind = Kind(args.kind)
    except ValueError:
        raise ParseError("unknown kind %r" % (args.kind,))
    prof = dimension_profile(kind, args.index, args.n)
    parts = []
    for field in fields(prof):
        val = getattr(prof, field.name)
        parts.append("%s=%s" % (field.name, "-" if val is None else val))
    print(" ".join(parts))
    return 0


def _cmd_disjoint(args) -> int:
    datum = _load_valid(args.file)
    z = datum.point(args.z)
    w = datum.point(args.w)
    if z is w:  # a point is not a pair, as in cancel_pair and oracle
        raise ParseError("repeated point %r" % (args.z,))
    print("disjoint=" + _bool_str(generic_disjoint(z, w, datum.ambient)))
    return 0


_MOVES = {  # command: (help, arguments after the file, the move)
    "rearrange": ("move a pair to new values", ("z", "w", "a", "b"), lambda d, ns:
                  rearrange_pair(d, ns.z, ns.w, _fraction(ns.a), _fraction(ns.b))),
    "cancel": ("erase a cancelling pair", ("z", "w"),
               lambda d, ns: cancel_pair(d, ns.z, ns.w)),
    "split": ("split an interior point at the wall", ("z",),
              lambda d, ns: split_interior(d, ns.z)),
}


def _cmd_move(args) -> int:
    out, record = args.move(_load_valid(args.file), args)
    _write_text(args.out, serialize_datum(out))
    if args.script:
        _write_text(args.script, serialize_script([record]))
    return 0


def _cmd_normal_form(args) -> int:
    out, dec, script = global_split(_load_valid(args.file))
    if args.out:
        _write_text(args.out, serialize_datum(out))
    if args.script:
        _write_text(args.script, serialize_script(script))
    _write_text(args.report, serialize_decomposition(dec))
    return 0


def _cmd_generate(args) -> int:
    from .generator import GeneratorSpec, generate

    spec = GeneratorSpec(**{f.name: getattr(args, f.name)
                            for f in fields(GeneratorSpec)})
    _write_text(args.out, serialize_datum(generate(spec)))
    return 0


def _cmd_oracle(args) -> int:
    from .generator import brute_force_reachability

    if args.bound < 0:  # the search would answer for the start state alone
        raise ParseError("--bound must be 0 or more, got %d" % (args.bound,))
    datum = _load_valid(args.file)
    targets = {}
    for item in args.targets:
        pid, _, val = item.partition("=")
        if not val:
            raise ParseError("expected id=value, got %r" % (item,))
        if pid in targets:
            raise ParseError("repeated target %r" % (pid,))
        targets[pid] = _fraction(val)
    try:
        reachable = brute_force_reachability(datum, targets, bound=args.bound)
    except PartialConfiguration as exc:  # bad input, not a refused move
        raise EngineError(str(exc)) from None
    print("reachable" if reachable else "unreachable")
    return 0


def _build_parser():
    import argparse  # here, not at the top: importing the package needs no CLI

    parser = argparse.ArgumentParser(
        prog="halfhandle",
        description="Symbolic rewriting engine for Morse data of embedded "
        "cobordisms with boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a datum file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("profile", help="print a dimension profile")
    p.add_argument("--kind", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("disjoint", help="test generic disjointness of a pair")
    p.add_argument("file")
    p.add_argument("z")
    p.add_argument("w")
    p.set_defaults(fn=_cmd_disjoint)

    for name, (help_text, positionals, move) in _MOVES.items():
        p = sub.add_parser(name, help=help_text)
        for arg in ("file",) + positionals:
            p.add_argument(arg)
        p.add_argument("-o", "--out")
        p.add_argument("--script")
        p.set_defaults(fn=_cmd_move, move=move)

    p = sub.add_parser("normal-form", help="drive a datum to normal form")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--script")
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_normal_form)

    p = sub.add_parser("generate", help="emit a random valid datum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-probability", type=float, default=0.25)
    # each dest is the GeneratorSpec field: _cmd_generate reads them by name
    p.add_argument("--allow-closed-cobordism", dest="no_closed_cobordism",
                   action="store_false")
    p.add_argument("--allow-closed-bottom", dest="no_closed_bottom",
                   action="store_false")
    p.add_argument("--allow-closed-top", dest="no_closed_top", action="store_false")
    p.add_argument("--leave-closed-component", action="store_true")
    p.add_argument("--no-boundary", dest="allow_boundary", action="store_false")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("oracle", help="brute force reachability check")
    p.add_argument("file")
    p.add_argument("targets", nargs="+", metavar="id=value")
    p.add_argument("--bound", type=int, default=10000)
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MoveError as exc:
        print("move refused: %s" % (exc,), file=sys.stderr)
        return 2
    except EngineError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        issues = getattr(exc, "issues", [])  # a bare ValidationError lists itself
        for issue in issues if issues != [str(exc)] else ():
            print("  " + issue, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
