"""Text formats, random data generation, a search oracle, and the CLI.

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
ASCII ids and digits) is built from one pattern match.  The match proves
every check ``MoveRecord`` makes on a one-point ``rearrange`` record, so it
is built by ``MoveRecord._step``; a datum line's fields go to its checking
constructor, whose checks all run.  Any other line, and a matched one whose
build raises one of ``_MISSES`` (``1/00``, an int past the digit limit, an
unknown kind word), falls back to the general path, which raises its own
ParseError with the same message and line.

The general path reads a line in one pass: every token is split once, and
the line's key set is compared with its directive's.  The message for a
bad token, a missing key or a stray one is only worked out for a line that
has one.  Each object is then checked once, by its constructor: a record by
``MoveRecord``, which keeps a tuple of Fractions as it is, and a point by
``CriticalPoint``, which keeps the ``Kind`` the parser built.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Mapping, Optional

from .errors import (
    BoundExceeded,
    EngineError,
    InfeasibleSpec,
    MoveError,
    ParseError,
    PartialConfiguration,
    UnknownId,
    ValidationError,
)
from .morse_data import (
    Ambient,
    CriticalPoint,
    Flags,
    Kind,
    MorseDatum,
    dimension_profile,
    first_inversion,
    is_admissible,
    require_valid,
    validate_datum,
)
from .moves import MoveRecord, cancel_pair, check_assignment, rearrange_pair
from .moves import split_interior
from .normal_form import Decomposition, global_split, scheduled_rank
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
    r"move kind=rearrange ids=(\w+) values=(\d+)/(\d+) note=([!-~]+)", re.ASCII
)
_POINT_LINE = re.compile(
    r"point id=(\w+) kind=(\w+) index=(\d+) value=(\d+)/(\d+)", re.ASCII
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
# what a matched line's conversion or check may raise: 1/0, an int past the
# digit limit, an unknown kind word, or a constructor's refusal
_MISSES = (KeyError, ValueError, ZeroDivisionError, ValidationError)


def _move(match) -> MoveRecord:
    """The record of a canonical rearrange line; the match proves every
    check ``MoveRecord.__post_init__`` makes on it."""
    note = match[4]
    value = Fraction(int(match[2]), int(match[3]))
    return MoveRecord._step(match[1], value, "" if note == "-" else note)


def _point(match) -> CriticalPoint:
    kind, index = _KINDS[match[2]], int(match[3])
    value = Fraction(int(match[4]), int(match[5]))
    return CriticalPoint(match[1], kind, index, value)


def _effect(match) -> ComponentEffect:
    inputs, outputs = match[3], match[4]
    return ComponentEffect(
        match[1],
        _EFFECT_KINDS[match[2]],
        () if inputs == "-" else tuple(inputs.split(",")),
        () if outputs == "-" else tuple(
            SliceComponent(cid, bit == "true")
            for cid, bit in (item.split(":") for item in outputs.split(","))
        ),
    )


def _edge(match) -> FlowEdge:
    count = match[3]
    return FlowEdge(
        match[1], match[2], None if count == "?" else int(count), _LOCI[match[4]]
    )


def _component(match) -> SliceComponent:
    return SliceComponent(match[1], match[2] == "true")


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
# canonical pattern; the builder of a match; the builder of its key=value
# tokens, which may raise ValidationError or ValueError)
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
    built from its match.  Any other line is split into its ``key=value``
    tokens (``_attrs``); one whose first token holds ``=`` goes to
    ``header(token, attrs, num)`` if a header is read, and any other must
    be one of ``directives``, with exactly its keys, and is built from its
    tokens."""
    lines = _content_lines(text)
    for num, line in lines:
        if line != "format=" + fmt:
            raise ParseError("expected format=" + fmt, num)
        break
    else:
        raise ParseError("missing format=" + fmt)
    out = {directive: [] for directive in directives}
    for num, line in lines:
        directive = line.partition(" ")[0]
        if directive in out:
            _, pattern, from_match, _ = _LINES[directive]
            match = pattern.fullmatch(line)
            if match:
                try:
                    out[directive].append(from_match(match))
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
# random data


@dataclass
class GeneratorSpec:
    """Knobs for the random datum generator.

    The three no_closed flags are baked into the output datum; with all of
    them set the generator only emits data the normal form driver accepts.
    ``leave_closed_component`` asks for a closed component surviving to the
    top slice, which needs ``no_closed_top=False``.
    """

    n: int
    m: int
    points: int = 6
    seed: int = 0
    no_closed_cobordism: bool = True
    no_closed_bottom: bool = True
    no_closed_top: bool = True
    allow_boundary: bool = True
    leave_closed_component: bool = False
    edge_probability: float = 0.25


class _Restart(Exception):
    pass


def generate(spec: GeneratorSpec) -> MorseDatum:
    """Build a random valid datum matching the requested knobs.

    Raises InfeasibleSpec when the knobs contradict each other or no datum
    was found after many attempts.
    """
    if spec.points < 0:
        raise InfeasibleSpec("points must be nonnegative")
    if not (0 <= spec.edge_probability <= 1):
        raise InfeasibleSpec("edge_probability must sit in [0, 1]")
    if spec.leave_closed_component and spec.no_closed_top:
        raise InfeasibleSpec(
            "a surviving closed component contradicts no_closed_top"
        )
    if spec.leave_closed_component and spec.points == 0:
        raise InfeasibleSpec("a closed component needs at least one point")
    try:
        ambient = Ambient(spec.m, spec.n)
    except ValidationError as exc:
        raise InfeasibleSpec(str(exc))
    last: Optional[Exception] = None
    for attempt in range(80):
        rng = random.Random(spec.seed * 1000003 + attempt)
        try:
            datum = _generate_once(spec, ambient, rng)
        except _Restart as exc:
            last = exc
            continue
        issues = validate_datum(datum)
        if issues:
            last = _Restart("generated an invalid datum: " + issues[0])
            continue
        return datum
    raise InfeasibleSpec("no datum found for this spec (%s)" % (last,))


def _edge_rank(p: CriticalPoint, n: int, offset: int) -> int:
    # the rank a flow line's end counts at: an interior point of index 1..n
    # sends as late as its index's unstable cell (offset 3) and receives as
    # early as its stable cell (offset 1)
    if p.kind is Kind.INTERIOR and 1 <= p.index <= n:
        return 3 * p.index + offset
    return scheduled_rank(p.kind, p.index)


def _generate_once(spec: GeneratorSpec, ambient: Ambient, rng) -> MorseDatum:
    n = ambient.n
    P = spec.points
    fc, fb, ft = spec.no_closed_cobordism, spec.no_closed_bottom, spec.no_closed_top
    born = "connect" if fc else "close"  # what a new closed sphere owes
    I, S, U = Kind.INTERIOR, Kind.BOUNDARY_STABLE, Kind.BOUNDARY_UNSTABLE
    E = EffectKind

    bits: Dict[str, bool] = {}
    prs: Dict[str, int] = {}
    producer: Dict[str, Optional[str]] = {}
    live: set = set()
    pending: Dict[str, str] = {}  # closed component -> "connect" | "close"
    edges: List[FlowEdge] = []

    def new_comp(touch: bool, pr: int, made_by: Optional[str]) -> SliceComponent:
        cid = "c%d" % len(bits)
        bits[cid] = touch
        prs[cid] = pr
        producer[cid] = made_by
        live.add(cid)
        return SliceComponent(cid, touch)

    def below(pool: List[str], rank: int) -> List[str]:
        return [c for c in pool if prs[c] <= rank]

    def effect(kind, inputs, outputs, mode=None, swap=False) -> ComponentEffect:
        # the current point ``pid`` consumes ``inputs`` and makes one
        # component per (wall bit, rank) of ``outputs``, the last owing
        # ``mode``; ``swap`` draws the order of the pair among the inputs or
        # the outputs; a settled pending input gets a flow line from its maker
        outs = [new_comp(touch, pr, pid) for touch, pr in outputs]
        if mode is not None:
            pending[outs[-1].id] = mode
        if swap and rng.random() >= 0.5:
            inputs, outs = inputs[::-1], outs[::-1]
        for cid in inputs:
            live.discard(cid)
            if pending.pop(cid, None) and producer[cid] is not None:
                count = 1 if kind is E.MERGE else None
                edges.append(FlowEdge(producer[cid], pid, count, Locus.INNER))
        return ComponentEffect(pid, kind, tuple(inputs), tuple(outs))

    # merges: the touching input is the witness later splits route by, so
    # the merged component touches too
    def merge(others: List[str], witnesses: List[str]) -> ComponentEffect:
        other = rng.choice(others)
        witness = rng.choice([c for c in witnesses if c != other])
        return effect(E.MERGE, (witness, other), [(True, 6)], swap=True)

    # stable attaches; a second output only at index n
    def stable(pool: List[str], k: int) -> ComponentEffect:
        cid = rng.choice(pool)
        two = k == n and rng.random() < 0.3
        return effect(E.BOUNDARY_ATTACH, (cid,), [(True, 3 * k + 1)] * (1 + two))

    bottom: List[SliceComponent] = []
    for b in range(rng.randint(1, 3)):
        touch = True if (fb or b == 0) else rng.random() < 0.6
        bottom.append(new_comp(touch, 0, None))
        if not touch:
            pending[bottom[-1].id] = born

    points: List[CriticalPoint] = []
    effects: List[ComponentEffect] = []
    denom = 8 * P + 8
    nums = sorted(rng.sample(range(1, denom), P)) if P else []
    width = max(2, len(str(max(P - 1, 1))))
    last_rank = 0
    max_connect_rank = (3 * (n + 1) + 1) if spec.allow_boundary else 5
    want_leftover = spec.leave_closed_component

    for i in range(P):
        pid = "p%0*d" % (width, i)
        connects = sorted(c for c, mode in pending.items() if mode == "connect")
        closes = sorted(c for c, mode in pending.items() if mode == "close")
        touchers = sorted(c for c in live if bits[c])
        # a leftover closed component wants more sheds and fewer retirements
        shed_weight = 5 if (want_leftover and not closes) else 2
        retire_weight = 1 if want_leftover and len(closes) == 1 else 3
        keep_or_shed = ((3, 0, None), (shed_weight, 1, "close"))

        # one row (kind, index, weight, d_connect, d_close, build) per
        # option; the builds run after the table is made, so each binds
        # its loop variables as default arguments.  First the birth of a
        # closed sphere
        rows = [(I, 0, 3, int(fc), int(not fc),
                 lambda: effect(E.BIRTH, (), [(False, 3)], born))]

        # merges with a connecting, a closing or a touching other input
        witnesses = below(touchers, 6)
        for others, weight, d_connect, d_close, enough in (
            (connects, 6, -1, 0, witnesses),
            (below(closes, 4), 3, 0, -1, witnesses),
            # these others all touch, so they sit among the witnesses too
            (below(touchers, 4), 3, 0, 0, len(witnesses) >= 2),
        ):
            if others and enough:
                rows.append((I, 1, weight, d_connect, d_close,
                             lambda others=others: merge(others, witnesses)))

        # internal surgeries on a wall component
        for k in range(1, n + 1):
            pool = below(touchers, 3 * k + 1)
            if pool:
                rows.append((I, k, 4, 0, 0, lambda pool=pool, k=k: effect(
                    E.INTERNAL, (rng.choice(pool),), [(True, 3 * k + 3)])))

        # split at top interior index, optionally shedding a closed piece
        splittable = below(touchers, 3 * n + 1)
        for weight, d_close, mode in keep_or_shed if splittable else ():
            rows.append((I, n, weight, 0, d_close, lambda mode=mode: effect(
                E.SPLIT, (rng.choice(splittable),),
                [(True, 3 * n + 3), (mode is None, 3 * n + 3)], mode, swap=True)))

        # death of a closed component whose family already meets the wall
        if closes:
            rows.append((I, n + 1, retire_weight, 0, -1,
                         lambda: effect(E.DEATH, (rng.choice(closes),), [])))

        # stable attaches; the absorbing forms retire closed components
        for k in range(1, n + 2) if spec.allow_boundary else ():
            for pool, weight, d_connect, d_close in (
                (connects, 5, -1, 0),
                (closes, retire_weight, 0, -1),
                (touchers, 2, 0, 0),
            ):
                pool = below(pool, 3 * k + 1)
                if pool:
                    rows.append((S, k, weight, d_connect, d_close,
                                 lambda pool=pool, k=k: stable(pool, k)))

        # unstable attaches; a release sheds a wall component inward
        for k in range(0, n + 1) if spec.allow_boundary else ():
            pool = below(touchers, 3 * k + 3)
            for weight, d_close, mode in keep_or_shed if pool else ():
                rows.append((U, k, weight, 0, d_close,
                             lambda pool=pool, k=k, mode=mode: effect(
                                 E.BOUNDARY_ATTACH, (rng.choice(pool),),
                                 [(mode is None, 3 * k + 3)], mode)))
            if k == 1 and len(pool) >= 2:
                rows.append((U, 1, 2, 0, 0, lambda pool=pool: effect(
                    E.BOUNDARY_ATTACH, tuple(rng.sample(pool, 2)), [(True, 6)])))

        options = []
        for kind, index, weight, d_connect, d_close, build in rows:
            rank = scheduled_rank(kind, index)
            nc = len(connects) + d_connect
            need = nc + (len(closes) + d_close if ft else 0)
            if rank < last_rank or need > P - i - 1:
                continue
            if not (nc and rank > max_connect_rank):
                options.append((weight, rank, kind, index, build))
        if not options:
            raise _Restart("walk has no legal continuation at point %d" % i)
        pick = rng.random() * sum(option[0] for option in options)
        for weight, rank, kind, index, build in options:
            pick -= weight
            if pick <= 0:
                break
        effects.append(build())
        points.append(CriticalPoint(pid, kind, index, Fraction(nums[i], denom)))
        last_rank = rank

    if want_leftover and "close" not in pending.values():
        raise _Restart("no closed component survived to the top")

    # sprinkle extra flow edges wherever genericity allows them
    existing = {(e.src, e.dst) for e in edges}
    for i, z in enumerate(points):
        for w in points[i + 1 :]:
            if (z.id, w.id) in existing:
                continue
            if generic_disjoint(z, w, ambient):
                continue
            if _edge_rank(z, n, 3) > _edge_rank(w, n, 1):
                continue
            if rng.random() >= spec.edge_probability:
                continue
            menu = [Locus.MEMBRANE]
            pz = dimension_profile(z.kind, z.index, n)
            pw = dimension_profile(w.kind, w.index, n)
            if pz.unstable_inner is not None and pw.stable_inner is not None:
                menu.append(Locus.INNER)
            if z.kind.is_boundary and w.kind.is_boundary:
                menu.append(Locus.WALL)
            count = rng.choice([None, 1, 2])
            edges.append(FlowEdge(z.id, w.id, count, rng.choice(menu)))
            existing.add((z.id, w.id))

    return MorseDatum(
        ambient,
        tuple(points),
        TrajectoryGraph(tuple(edges)),
        SliceComplex(tuple(bottom), tuple(effects)),
        Flags(fc, fb, ft),
    )


# ---------------------------------------------------------------------------
# search oracle


def brute_force_reachability(
    datum: MorseDatum, targets: Mapping[str, Fraction], bound: int = 10000
) -> bool:
    """Whether single-point rearrangements can reach the target values.

    Answers the same question as realize_configuration but by breadth
    first search: states assign each point either its original or its
    target value, moves change one point at a time, and every intermediate
    state must keep edges uphill and the slice replay consistent
    (``check_assignment``).  Targets must satisfy the same admissibility
    contract realize_configuration enforces, otherwise the answer is False.
    Raises BoundExceeded when more than ``bound`` states get explored.
    """
    ids = [p.id for p in datum.points]
    want: Dict[str, Fraction] = {}
    for pid, v in targets.items():
        if pid not in ids:
            raise UnknownId("no critical point with id %r" % (pid,))
        want[pid] = Fraction(v)
    for pid in ids:
        if pid not in want:
            raise PartialConfiguration("no target value for point %r" % (pid,))

    for v in want.values():
        if not (0 < v < 1):
            return False
    if datum.ambient.codim >= 2:
        if not is_admissible(datum.points, want):
            return False
    elif first_inversion(datum.points, want) is not None:
        return False

    goal = tuple(want[pid] for pid in ids)
    if check_assignment(datum, dict(zip(ids, goal))) is not None:
        return False
    start = tuple(p.value for p in datum.points)
    menu = [
        (start[i],) if start[i] == goal[i] else (start[i], goal[i])
        for i in range(len(ids))
    ]
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return True
        for i in range(len(ids)):
            for v in menu[i]:
                if v == state[i]:
                    continue
                succ = state[:i] + (v,) + state[i + 1 :]
                if succ in seen:
                    continue
                if len(seen) >= bound:
                    raise BoundExceeded(
                        "gave up after exploring %d states" % len(seen)
                    )
                if check_assignment(datum, dict(zip(ids, succ))) is None:
                    seen.add(succ)
                    queue.append(succ)
    return False


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
    spec = GeneratorSpec(
        n=args.n,
        m=args.m,
        points=args.points,
        seed=args.seed,
        no_closed_cobordism=not args.allow_closed_cobordism,
        no_closed_bottom=not args.allow_closed_bottom,
        no_closed_top=not args.allow_closed_top,
        allow_boundary=not args.no_boundary,
        leave_closed_component=args.leave_closed_component,
        edge_probability=args.edge_probability,
    )
    datum = generate(spec)
    _write_text(args.out, serialize_datum(datum))
    return 0


def _cmd_oracle(args) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--allow-closed-cobordism", action="store_true")
    p.add_argument("--allow-closed-bottom", action="store_true")
    p.add_argument("--allow-closed-top", action="store_true")
    p.add_argument("--leave-closed-component", action="store_true")
    p.add_argument("--no-boundary", action="store_true")
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
