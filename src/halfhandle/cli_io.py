"""Text formats, random data generation, a search oracle, and the CLI.

The datum format is line oriented: one ``key=value`` header per line, then
one line per bottom component, critical point, flow edge, and slice effect.
Blank lines and ``#`` comments are ignored; serialization is canonical, so
parse followed by serialize is byte stable.  Move scripts use the same
token style with one ``move`` line per rewriting step.

A line in the shape the serializers write (single spaces, keys in order,
ASCII ids and digits) is built from one pattern match (``_fast_line``): a
one-point ``rearrange`` move, a ``point``, ``effect``, ``edge`` or
``component``.  The match proves every check ``MoveRecord`` makes on such a
record, so it is built by ``MoveRecord._step``; a datum line's fields go to
its checking constructor, whose checks all run.  Any other line, and a
matched one whose conversion or constructor raises (``1/00``, an int past
the digit limit, an unknown kind word), falls back to the general path,
which raises its own ParseError with the same message and line.

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


_KEYS = {  # directive -> its keys, as a dict: a keys view compares as a set
    "component": dict.fromkeys(("id", "touches_wall")),
    "point": dict.fromkeys(("id", "kind", "index", "value")),
    "edge": dict.fromkeys(("src", "dst", "count", "locus")),
    "effect": dict.fromkeys(("at", "kind", "inputs", "outputs")),
    "move": dict.fromkeys(("kind", "ids", "values", "note")),
}


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


def _check_keys(attrs: Dict[str, str], what: str, num: int) -> None:
    """Raise ParseError unless ``attrs`` holds exactly the keys of a
    ``what`` line: the missing keys first, then the stray ones."""
    keys = _KEYS[what]
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
# keys in ``_KEYS`` order, ids and words of ASCII ``\w``, a note of
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


def _fast_line(line: str, shapes) -> bool:
    """Whether ``line`` is canonical and its object was built and kept:
    ``shapes`` pairs each line pattern with its builder and the list its
    objects go to.  False sends the line to the general path, which then
    raises its own ParseError if the line is bad."""
    for pattern, build, out in shapes:
        match = pattern.fullmatch(line)
        if match:
            try:
                out.append(build(match))
            except _MISSES:
                return False
            return True
    return False


def parse_datum(text: str) -> MorseDatum:
    """Parse the datum format; raises ParseError with a line number."""
    header: Dict[str, str] = {}
    bottom: List[SliceComponent] = []
    points: List[CriticalPoint] = []
    edges: List[FlowEdge] = []
    effects: List[ComponentEffect] = []
    saw_format = False
    header_keys = {
        "m",
        "n",
        "no_closed_cobordism",
        "no_closed_bottom",
        "no_closed_top",
    }
    shapes = (
        (_POINT_LINE, _point, points),
        (_EFFECT_LINE, _effect, effects),
        (_EDGE_LINE, _edge, edges),
        (_COMPONENT_LINE, _component, bottom),
    )

    for num, line in _content_lines(text):
        if not saw_format:
            if line != "format=" + DATUM_FORMAT:
                raise ParseError("expected format=" + DATUM_FORMAT, num)
            saw_format = True
            continue
        if _fast_line(line, shapes):
            continue
        tokens = line.split()
        attrs = _attrs(tokens, num)
        directive = tokens[0]
        if "=" in directive:
            key, _, val = directive.partition("=")
            if attrs:
                raise ParseError("stray tokens after %s" % (key,), num)
            if key not in header_keys:
                raise ParseError("unknown header %r" % (key,), num)
            if key in header:
                raise ParseError("repeated header %r" % (key,), num)
            header[key] = (val, num)
            continue
        if directive not in ("component", "point", "edge", "effect"):
            raise ParseError("unknown directive %r" % (directive,), num)
        _check_keys(attrs, directive, num)
        try:
            if directive == "component":
                bottom.append(
                    SliceComponent(attrs["id"], _bool(attrs["touches_wall"], num))
                )
            elif directive == "point":
                points.append(
                    CriticalPoint(
                        attrs["id"],
                        Kind(attrs["kind"]),
                        _int(attrs["index"], num),
                        _fraction(attrs["value"], num),
                    )
                )
            elif directive == "edge":
                count = None if attrs["count"] == "?" else _int(attrs["count"], num)
                edges.append(
                    FlowEdge(
                        attrs["src"], attrs["dst"], count, Locus(attrs["locus"])
                    )
                )
            else:
                inputs = ()
                if attrs["inputs"] != "-":
                    inputs = tuple(attrs["inputs"].split(","))
                outputs = []
                if attrs["outputs"] != "-":
                    for item in attrs["outputs"].split(","):
                        cid, _, bit = item.partition(":")
                        if not bit:
                            raise ParseError(
                                "output %r lacks its wall bit" % (item,), num
                            )
                        outputs.append(SliceComponent(cid, _bool(bit, num)))
                effects.append(
                    ComponentEffect(
                        attrs["at"],
                        EffectKind(attrs["kind"]),
                        inputs,
                        tuple(outputs),
                    )
                )
        except (ValidationError, ValueError) as exc:
            raise ParseError(str(exc), num)

    if not saw_format:
        raise ParseError("missing format=" + DATUM_FORMAT)
    for key in ("m", "n"):
        if key not in header:
            raise ParseError("missing header %s" % (key,))
    flags = Flags(**{
        key: _bool(*header.get(key, ("true", None)))
        for key in ("no_closed_cobordism", "no_closed_bottom", "no_closed_top")
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
            tuple(points),
            TrajectoryGraph(tuple(edges)),
            SliceComplex(tuple(bottom), tuple(effects)),
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
    records: List[MoveRecord] = []
    saw_format = False
    shapes = ((_MOVE_LINE, _move, records),)
    for num, line in _content_lines(text):
        if not saw_format:
            if line != "format=" + SCRIPT_FORMAT:
                raise ParseError("expected format=" + SCRIPT_FORMAT, num)
            saw_format = True
            continue
        if _fast_line(line, shapes):
            continue
        tokens = line.split()
        attrs = _attrs(tokens, num)
        if tokens[0] != "move":
            raise ParseError("unknown directive %r" % (tokens[0],), num)
        _check_keys(attrs, "move", num)
        ids = tuple(attrs["ids"].split(","))
        values = ()
        if attrs["values"] != "-":
            values = tuple([_fraction(tok, num) for tok in attrs["values"].split(",")])
        note = "" if attrs["note"] == "-" else attrs["note"]
        try:  # MoveRecord checks the record, once
            records.append(MoveRecord(attrs["kind"], ids, values, note))
        except ValidationError as exc:
            raise ParseError(str(exc), num)
    if not saw_format:
        raise ParseError("missing format=" + SCRIPT_FORMAT)
    return records


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


def _edge_src_rank(p: CriticalPoint, n: int) -> int:
    if p.kind is Kind.INTERIOR and 1 <= p.index <= n:
        return 3 * p.index + 3
    return scheduled_rank(p.kind, p.index)


def _edge_dst_rank(p: CriticalPoint, n: int) -> int:
    if p.kind is Kind.INTERIOR and 1 <= p.index <= n:
        return 3 * p.index + 1
    return scheduled_rank(p.kind, p.index)


def _generate_once(spec: GeneratorSpec, ambient: Ambient, rng) -> MorseDatum:
    n = ambient.n
    P = spec.points
    fc, fb, ft = (
        spec.no_closed_cobordism,
        spec.no_closed_bottom,
        spec.no_closed_top,
    )

    bits: Dict[str, bool] = {}
    prs: Dict[str, int] = {}
    producer: Dict[str, Optional[str]] = {}
    counter = [0]

    def new_comp(touch: bool, pr: int, made_by: Optional[str]) -> SliceComponent:
        cid = "c%d" % counter[0]
        counter[0] += 1
        bits[cid] = touch
        prs[cid] = pr
        producer[cid] = made_by
        return SliceComponent(cid, touch)

    live: set = set()
    pending: Dict[str, str] = {}  # closed component -> "connect" | "close"

    bottom: List[SliceComponent] = []
    for b in range(rng.randint(1, 3)):
        touch = True if (fb or b == 0) else rng.random() < 0.6
        comp = new_comp(touch, 0, None)
        bottom.append(comp)
        live.add(comp.id)
        if not touch:
            pending[comp.id] = "connect" if fc else "close"

    points: List[CriticalPoint] = []
    effects: List[ComponentEffect] = []
    edges: List[FlowEdge] = []
    denom = 8 * P + 8
    nums = sorted(rng.sample(range(1, denom), P)) if P else []
    width = max(2, len(str(max(P - 1, 1))))
    last_rank = 0
    max_connect_rank = (3 * (n + 1) + 1) if spec.allow_boundary else 5
    want_leftover = spec.leave_closed_component

    for i in range(P):
        pid = "p%0*d" % (width, i)
        value = Fraction(nums[i], denom)
        remaining = P - i - 1
        connects = sorted(c for c, mode in pending.items() if mode == "connect")
        closes = sorted(c for c, mode in pending.items() if mode == "close")
        touchers = sorted(c for c in live if bits[c])
        options = []

        def feasible(d_connect: int, d_close: int, rank: int) -> bool:
            nc = len(connects) + d_connect
            ncl = len(closes) + d_close
            need = nc + (ncl if ft else 0)
            if need > remaining:
                return False
            if nc and rank > max_connect_rank:
                return False
            return True

        def add(kind, index, weight, d_connect, d_close, build):
            rank = scheduled_rank(kind, index)
            if rank < last_rank or weight <= 0:
                return
            if not feasible(d_connect, d_close, rank):
                return
            options.append((weight, rank, kind, index, build))

        def mandatory_edge(item: str, closer: str, merge: bool):
            src = producer[item]
            if src is not None:
                edges.append(
                    FlowEdge(src, closer, 1 if merge else None, Locus.INNER)
                )

        # birth of a closed sphere
        def build_birth():
            comp = new_comp(False, 3, pid)
            live.add(comp.id)
            pending[comp.id] = "connect" if fc else "close"
            return ComponentEffect(pid, EffectKind.BIRTH, (), (comp,))

        add(
            Kind.INTERIOR,
            0,
            3,
            1 if fc else 0,
            0 if fc else 1,
            build_birth,
        )

        # merges: the touching input is the witness later splits route by
        witness_pool = [c for c in touchers if prs[c] <= 6]
        plain_others = [c for c in touchers if prs[c] <= 4]
        closed_others = [c for c in closes if prs[c] <= 4]

        def build_merge(other_pool):
            def build():
                other = rng.choice(other_pool)
                witness = rng.choice([c for c in witness_pool if c != other])
                touch = bits[witness] or bits[other]
                out = new_comp(touch, 6, pid)
                inputs = (witness, other) if rng.random() < 0.5 else (other, witness)
                live.discard(witness)
                live.discard(other)
                live.add(out.id)
                if other in pending:
                    del pending[other]
                    mandatory_edge(other, pid, merge=True)
                return ComponentEffect(pid, EffectKind.MERGE, inputs, (out,))

            return build

        if witness_pool and connects:
            add(Kind.INTERIOR, 1, 6, -1, 0, build_merge(connects))
        if witness_pool and closed_others:
            add(Kind.INTERIOR, 1, 3, 0, -1, build_merge(closed_others))
        if plain_others and len(witness_pool) >= 2:
            # plain_others all touch, so they sit inside witness_pool too
            add(Kind.INTERIOR, 1, 3, 0, 0, build_merge(plain_others))

        # internal surgeries on a wall component
        for k in range(1, n + 1):
            pool = [c for c in touchers if prs[c] <= 3 * k + 1]
            if not pool:
                continue

            def build_internal(pool=pool, k=k):
                cid = rng.choice(pool)
                out = new_comp(True, 3 * k + 3, pid)
                live.discard(cid)
                live.add(out.id)
                return ComponentEffect(pid, EffectKind.INTERNAL, (cid,), (out,))

            add(Kind.INTERIOR, k, 4, 0, 0, build_internal)

        # split at top interior index, optionally shedding a closed piece
        split_pool = [c for c in touchers if prs[c] <= 3 * n + 1]
        if split_pool:

            def build_split(shed: bool):
                def build():
                    cid = rng.choice(split_pool)
                    first = new_comp(True, 3 * n + 3, pid)
                    second = new_comp(not shed, 3 * n + 3, pid)
                    live.discard(cid)
                    live.add(first.id)
                    live.add(second.id)
                    if shed:
                        pending[second.id] = "close"
                    outs = (first, second) if rng.random() < 0.5 else (second, first)
                    return ComponentEffect(pid, EffectKind.SPLIT, (cid,), outs)

                return build

            add(Kind.INTERIOR, n, 3, 0, 0, build_split(False))
            shed_weight = 5 if (want_leftover and not closes) else 2
            add(Kind.INTERIOR, n, shed_weight, 0, 1, build_split(True))

        # death of a closed component whose family already meets the wall
        if closes:

            def build_death():
                cid = rng.choice(closes)
                live.discard(cid)
                del pending[cid]
                mandatory_edge(cid, pid, merge=False)
                return ComponentEffect(pid, EffectKind.DEATH, (cid,), ())

            death_weight = 1 if want_leftover and len(closes) == 1 else 3
            add(Kind.INTERIOR, n + 1, death_weight, 0, -1, build_death)

        if spec.allow_boundary:
            # stable attaches; the absorbing forms retire closed components
            for k in range(1, n + 2):

                def build_bs(pool, is_pending, k=k):
                    def build():
                        cid = rng.choice(pool)
                        two = k == n and rng.random() < 0.3
                        outs = tuple(
                            new_comp(True, 3 * k + 1, pid)
                            for _ in range(2 if two else 1)
                        )
                        live.discard(cid)
                        for c in outs:
                            live.add(c.id)
                        if is_pending:
                            del pending[cid]
                            mandatory_edge(cid, pid, merge=False)
                        return ComponentEffect(
                            pid, EffectKind.BOUNDARY_ATTACH, (cid,), outs
                        )

                    return build

                conn_pool = [c for c in connects if prs[c] <= 3 * k + 1]
                if conn_pool:
                    add(
                        Kind.BOUNDARY_STABLE, k, 5, -1, 0, build_bs(conn_pool, True)
                    )
                close_pool = [c for c in closes if prs[c] <= 3 * k + 1]
                if close_pool:
                    bs_close_weight = 1 if want_leftover and len(closes) == 1 else 3
                    add(
                        Kind.BOUNDARY_STABLE,
                        k,
                        bs_close_weight,
                        0,
                        -1,
                        build_bs(close_pool, True),
                    )
                plain_pool = [c for c in touchers if prs[c] <= 3 * k + 1]
                if plain_pool:
                    add(
                        Kind.BOUNDARY_STABLE, k, 2, 0, 0, build_bs(plain_pool, False)
                    )

            # unstable attaches; a release sheds a wall component inward
            for k in range(0, n + 1):
                pool = [c for c in touchers if prs[c] <= 3 * k + 3]
                if not pool:
                    continue

                def build_bu(two: bool, release: bool, pool=pool, k=k):
                    def build():
                        if two:
                            ins = tuple(rng.sample(pool, 2))
                        else:
                            ins = (rng.choice(pool),)
                        out = new_comp(not release, 3 * k + 3, pid)
                        for cid in ins:
                            live.discard(cid)
                        live.add(out.id)
                        if release:
                            pending[out.id] = "close"
                        return ComponentEffect(
                            pid, EffectKind.BOUNDARY_ATTACH, ins, (out,)
                        )

                    return build

                add(Kind.BOUNDARY_UNSTABLE, k, 3, 0, 0, build_bu(False, False))
                rel_weight = 5 if (want_leftover and not closes) else 2
                add(Kind.BOUNDARY_UNSTABLE, k, rel_weight, 0, 1, build_bu(False, True))
                if k == 1 and len(pool) >= 2:
                    add(Kind.BOUNDARY_UNSTABLE, 1, 2, 0, 0, build_bu(True, False))

        if not options:
            raise _Restart("walk has no legal continuation at point %d" % i)
        total = sum(w for w, _, _, _, _ in options)
        pick = rng.random() * total
        for w, rank, kind, index, build in options:
            pick -= w
            if pick <= 0:
                break
        effects.append(build())
        points.append(CriticalPoint(pid, kind, index, value))
        last_rank = rank

    if want_leftover and not any(
        mode == "close" for mode in pending.values()
    ):
        raise _Restart("no closed component survived to the top")

    # sprinkle extra flow edges wherever genericity allows them
    existing = {(e.src, e.dst) for e in edges}
    for i, z in enumerate(points):
        for w in points[i + 1 :]:
            if (z.id, w.id) in existing:
                continue
            if generic_disjoint(z, w, ambient):
                continue
            if _edge_src_rank(z, n) > _edge_dst_rank(w, n):
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
            edges.append(
                FlowEdge(
                    z.id, w.id, rng.choice([None, 1, 2]), rng.choice(menu)
                )
            )
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
    else:
        for z in datum.points:
            for w in datum.points:
                if z.index < w.index and not (want[z.id] < want[w.id]):
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
        targets[pid] = _fraction(val)
    reachable = brute_force_reachability(datum, targets, bound=args.bound)
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
    except ValidationError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        for issue in getattr(exc, "issues", None) or []:
            print("  " + issue, file=sys.stderr)
        return 1
    except EngineError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
