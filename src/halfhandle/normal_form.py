"""Driving Morse data to the boundary half-handle splitting normal form.

The pipeline schedules critical values by index (stable boundary points
below interior points below unstable ones, per index), checks the band
structure this produces, rearranges surgeries of extreme index onto wall
components, splits every interior point of index 1..n into a boundary
stable / unstable pair, and finally packs every point into its own labelled
segment of [0,1].  The result is a decomposition into elementary pieces,
each holding the points of a single kind and index, together with the full
move script that got there.

What depends on n alone is built once per n and shared: the schedule
levels, the band cuts and their keys, and the half-handle frame (each
segment's bounds, their keys, its label and its certificate), which derive,
verify and the final targets all read.  A report derived here holds the
frame's own objects; one from elsewhere is checked by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .errors import (
    BadLevels,
    MoveError,
    PipelineBlocked,
    StuckNoJoinablePoint,
)
from .morse_data import (
    Kind,
    MorseDatum,
    between,
    first_inversion,
    order_key,
    require_valid,
)
from .moves import (
    MoveRecord,
    _rearrange_run,
    _split_run,
    realize_configuration,
)

_RANK_OFFSET = {Kind.BOUNDARY_STABLE: 1, Kind.INTERIOR: 2, Kind.BOUNDARY_UNSTABLE: 3}


def scheduled_rank(kind: Kind, index: int) -> int:
    """Position of a (kind, index) cell in the scheduled vertical order.

    Per index: stable attaches first, interior surgeries second, unstable
    attaches third.  Surgery dependencies in well formed data only point
    from lower rank to higher rank (or within one cell, upward in value).
    """
    return 3 * index + _RANK_OFFSET[kind if type(kind) is Kind else Kind(kind)]


def schedule_levels(datum: MorseDatum) -> Dict[str, Fraction]:
    """Target value for every point: its rank over a common denominator,
    one Fraction per rank, so equal keys compare their values by identity."""
    level = _schedule_levels(datum.ambient.n)
    return {p.id: level[scheduled_rank(p.kind, p.index)] for p in datum.points}


@lru_cache(maxsize=64)  # far more than the n of any datum in use
def _schedule_levels(n: int) -> Tuple[Fraction, ...]:
    denom = 3 * n + 6
    return tuple(Fraction(rank, denom) for rank in range(denom))


@lru_cache(maxsize=64)
def band_levels(n: int) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """Cuts (a, c, d, b) bounding the bands of the scheduled configuration.

    Index-0 points and stable index-1 points live below a, the interior
    index-1 level sits in (a, c), the interior index-n level in (d, b),
    everything of index n+1 (and unstable index-n points) above b, and the
    rest strictly between c and d.  For n = 1 the two middle bands agree
    (a = d, c = b) because index 1 and index n coincide.
    """
    denom = 6 * n + 12
    return (
        Fraction(9, denom),
        Fraction(11, denom),
        Fraction(6 * n + 3, denom),
        Fraction(6 * n + 5, denom),
    )


def _category(p, n: int) -> str:
    if p.index == 0 or (p.kind is Kind.BOUNDARY_STABLE and p.index == 1):
        return "low"
    if p.index == n + 1 or (p.kind is Kind.BOUNDARY_UNSTABLE and p.index == n):
        return "high"
    if p.kind is Kind.INTERIOR and p.index == 1:
        return "join_low"
    if p.kind is Kind.INTERIOR and p.index == n:
        return "join_high"
    return "middle"


@lru_cache(maxsize=64)
def _band_keys(n: int) -> Tuple[Tuple[str, Tuple[tuple, tuple]], ...]:
    """(category, (lo, hi)) of each open band, as (float, value) keys: a
    value on a cut lies outside every open band."""
    ka, kc, kd, kb = map(order_key, band_levels(n))
    return (
        ("low", (order_key(Fraction(0)), ka)),
        ("join_low", (ka, kc)),
        ("middle", (kc, kd)),
        ("join_high", (kd, kb)),
        ("high", (kb, order_key(Fraction(1)))),
    )


def tsa_check(datum: MorseDatum) -> bool:
    """Whether the values show the band structure the driver relies on.

    The cuts are ``band_levels(n)``.  Returns True when every point sits
    strictly inside the band of its category and the interior points of
    index 1, and of index n, each share a single level.
    """
    n = datum.ambient.n
    bands = dict(_band_keys(n))
    shared: Dict[str, tuple] = {}
    for p in datum.points:
        key = p.sort_key()[:2]
        cat = _category(p, n)
        lo, hi = bands[cat]
        if not (lo < key < hi):
            return False
        if cat in ("join_low", "join_high"):
            if shared.setdefault(cat, key) != key:
                return False
    return True


def ensure_joinable(datum: MorseDatum) -> Tuple[MorseDatum, List[MoveRecord]]:
    """Pull the shared extreme-index levels apart so every point splits.

    Takes valid data only (``require_valid``), with the band structure in
    place (``tsa_check``, otherwise BadLevels).  The interior index-1 points
    spread over distinct levels of (a, c) and the interior index-n points
    over (d, b), in id order: a valid datum replays a shared level in id
    order, so a maker in the group has the smaller id and the surgeries
    keep replaying.  For n = 1 those are the same group and the same band.
    Every one of them, and every middle-index interior point, must join the
    wall (some surgery input touching it); otherwise StuckNoJoinablePoint.
    All the moves run as one ``_rearrange_run``.
    """
    require_valid(datum)
    n = datum.ambient.n
    a, c, d, b = band_levels(n)
    if not tsa_check(datum):
        raise BadLevels("joinability pass needs the band structure in place")

    def separate(group, upward, note):
        # slots stay strictly on one side of the shared level, and points
        # leave it producers first (consumers first when going up), so no
        # intermediate state ever starves a surgery still waiting there
        if len(group) < 2:
            return []
        shared = datum.point(group[0]).value
        lo, hi = (shared, b) if upward else (a, shared)
        order = sorted(group)
        slots = [(pid, between(lo, hi, t, len(order) + 1))
                 for t, pid in enumerate(order, 1)]
        return [
            MoveRecord._step(pid, slot, note)
            for pid, slot in (reversed(slots) if upward else slots)
        ]

    script = separate([p.id for p in datum.interior_points(1, 1)], False, "join_low")
    if n > 1:
        script += separate(
            [p.id for p in datum.interior_points(n, n)], True, "join_high"
        )
    d_cur = _rearrange_run(datum, script)

    wall_bit = d_cur.slices.component_index.wall_bit  # fixed over a lifetime
    for p in d_cur.interior_points(1, n):
        if not any(wall_bit[cid] for cid in d_cur.slices.effect_for(p.id).inputs):
            raise StuckNoJoinablePoint(
                "interior point %s never joins the wall" % (p.id,)
            )
    return d_cur, script


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Segment:
    """One labelled interval of the decomposition with its contents."""

    label: str
    lo: Fraction
    hi: Fraction
    point_ids: Tuple[str, ...]
    cert: Tuple  # expected contents, e.g. ("interior", 0) or ("mid",)


@dataclass(frozen=True)
class Decomposition:
    style: str  # "half_handle" | "monotone" | "trivial"
    segments: Tuple[Segment, ...]


def _half_handle_slot(p, n: int) -> Optional[int]:
    """Place 0..2n+3 of p's segment from the bottom up; the segment in
    place i carries the label (i - 1) / 2."""
    if p.kind is Kind.INTERIOR:
        if p.index == 0:
            return 0
        if p.index == n + 1:
            return 2 * n + 3
        return None  # interior 1..n still needs splitting
    if p.kind is Kind.BOUNDARY_UNSTABLE:
        return 2 * p.index + 1
    return 2 * p.index  # boundary stable


def _half_handle_cert(i: int, n: int) -> Tuple:
    if i == 0:
        return (Kind.INTERIOR.value, 0)
    if i == 2 * n + 3:
        return (Kind.INTERIOR.value, n + 1)
    if i % 2:
        return (Kind.BOUNDARY_UNSTABLE.value, i // 2)
    return (Kind.BOUNDARY_STABLE.value, i // 2)


def _half_handle_bounds(n: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """(lo, hi) of the 2n+4 segments by place i, from the bottom up: the
    one labelled l = (i - 1) / 2 = -1/2, 0, 1/2, ..., n+1 spans
    [i, i + 1] / (2n + 4)."""
    denom = 2 * n + 4
    return tuple((Fraction(i, denom), Fraction(i + 1, denom)) for i in range(denom))


@lru_cache(maxsize=64)
def _half_handle_frame(n: int) -> Tuple[tuple, ...]:
    """``(lo, hi, order_key(lo), order_key(hi), label, cert)`` of each
    segment of ``_half_handle_bounds(n)`` by place, built once per n and
    shared, every entry immutable, by derive, verify and the final targets."""
    return tuple(
        (lo, hi, order_key(lo), order_key(hi), str(Fraction(i - 1, 2)),
         _half_handle_cert(i, n))
        for i, (lo, hi) in enumerate(_half_handle_bounds(n))
    )


def derive_half_handle_decomposition(datum: MorseDatum) -> Optional[Decomposition]:
    """Read the normal form decomposition off the values, if they show it.

    The 2n+4 segments of ``_half_handle_bounds`` carry labels -1/2, 0,
    1/2, ..., n+1; the segment labelled i holds the unstable index-i
    points, i + 1/2 the stable index-(i+1) points, and the two extremes the
    interior minima and maxima.  Returns None when some point is not
    strictly inside its segment or an interior point of index 1..n remains.
    """
    n = datum.ambient.n
    frame = _half_handle_frame(n)
    members: List[List[str]] = [[] for _ in frame]
    for p in datum.points:
        i = _half_handle_slot(p, n)
        if i is None:
            return None
        _, _, lo, hi, _, _ = frame[i]
        if not (lo < p.sort_key()[:2] < hi):
            return None
        members[i].append(p.id)
    return Decomposition("half_handle", tuple(
        Segment(label, lo, hi, tuple(ids), cert)
        for (lo, hi, _, _, label, cert), ids in zip(frame, members)
    ))


def derive_monotone_decomposition(datum: MorseDatum) -> Optional[Decomposition]:
    """Codimension-one shape: a low piece (indices 0 and 1), singleton
    middle pieces with weakly increasing indices, and a high piece
    (indices n and n+1).  Values must be strictly index monotone."""
    n = datum.ambient.n
    if n < 2:
        return None
    keys = {p.id: p.sort_key()[:2] for p in datum.points}  # (float, value)
    if first_inversion(datum.points, keys) is not None:
        return None
    low = [p for p in datum.points if p.index <= 1]
    mids = [p for p in datum.points if 2 <= p.index <= n - 1]
    high = [p for p in datum.points if p.index >= n]
    for p, q in zip(mids, mids[1:]):  # in value order, so a shared level is adjacent
        if keys[p.id] == keys[q.id]:
            return None  # two middle points share a level, no singleton segments
    low_hi = max([keys[p.id] for p in low], default=order_key(Fraction(0)))[1]
    high_lo = min([keys[p.id] for p in high], default=order_key(Fraction(1)))[1]
    anchors = [low_hi] + [p.value for p in mids] + [high_lo]
    cuts = [Fraction(0)]
    cuts += [between(x, y, 1, 2) for x, y in zip(anchors, anchors[1:])]
    cuts.append(Fraction(1))
    segments = [
        Segment(
            "low", cuts[0], cuts[1], tuple(p.id for p in low), ("low",)
        )
    ]
    for i, p in enumerate(mids):
        segments.append(
            Segment("mid%d" % (i + 1), cuts[i + 1], cuts[i + 2], (p.id,), ("mid",))
        )
    segments.append(
        Segment("high", cuts[-2], cuts[-1], tuple(p.id for p in high), ("high",))
    )
    return Decomposition("monotone", tuple(segments))


def _trivial_decomposition(datum: MorseDatum) -> Decomposition:
    return Decomposition(
        "trivial",
        (
            Segment(
                "all",
                Fraction(0),
                Fraction(1),
                tuple(p.id for p in datum.points),
                ("any",),
            ),
        ),
    )


def verify_decomposition(datum: MorseDatum, dec: Decomposition) -> bool:
    """Independent check that a decomposition really describes the datum."""
    segs = dec.segments
    if not segs:
        return False
    if segs[0].lo != 0 or segs[-1].hi != 1:
        return False
    for s, t in zip(segs, segs[1:]):
        if s.hi != t.lo:
            return False
    placed = {}
    for s in segs:
        lo, hi = order_key(s.lo), order_key(s.hi)
        if not (lo < hi):
            return False
        for pid in s.point_ids:
            if pid in placed or not datum.has_point(pid):
                return False
            placed[pid] = s
            if not (lo < datum.point(pid).sort_key()[:2] < hi):
                return False
    if set(placed) != {p.id for p in datum.points}:
        return False

    n = datum.ambient.n
    if dec.style == "half_handle":
        frame = _half_handle_frame(n)
        if len(segs) != len(frame):
            return False
        for (lo, hi, _, _, label, cert), s in zip(frame, segs):
            # one tuple compare: a report derive made holds the frame's own
            # objects and passes by identity, any other one is read by value
            if (s.label, s.lo, s.hi, s.cert) != (label, lo, hi, cert):
                return False
            for pid in s.point_ids:
                p = datum.point(pid)
                if (p.kind.value, p.index) != cert:
                    return False
        return True
    if dec.style == "monotone":
        if len(segs) < 2 or segs[0].cert != ("low",) or segs[-1].cert != ("high",):
            return False
        for s in segs[1:-1]:
            if s.cert != ("mid",) or len(s.point_ids) != 1:
                return False
        last_mid_index = None
        for s in segs[1:-1]:
            p = datum.point(s.point_ids[0])
            if not (2 <= p.index <= n - 1):
                return False
            if last_mid_index is not None and p.index < last_mid_index:
                return False
            last_mid_index = p.index
        for p in datum.points:
            seg = placed[p.id]
            if p.index <= 1 and seg is not segs[0]:
                return False
            if p.index >= n and seg is not segs[-1]:
                return False
            if 2 <= p.index <= n - 1 and (seg is segs[0] or seg is segs[-1]):
                return False
        return True
    if dec.style == "trivial":
        return len(segs) == 1 and segs[0].cert == ("any",)
    return False


# ---------------------------------------------------------------------------
# the full driver


def global_split(
    datum: MorseDatum,
) -> Tuple[MorseDatum, Decomposition, List[MoveRecord]]:
    """Drive a datum all the way to the splitting normal form.

    Returns the rewritten datum, its decomposition, and the move script.
    Running it again on its own output returns the same decomposition with
    an empty script.  Needs all three no-closed-component flags (except in
    the trivial codimension-one case n = 1).  Takes valid data only: an
    invalid datum raises ValidationError with its full issue list
    (``require_valid``).  Any refused step on valid data surfaces as
    PipelineBlocked naming the stage and the original error.

    Codimension two and up runs the stages of ``_DEEP_STAGES`` and ends in
    the half-handle decomposition; codimension one runs ``_CODIM_ONE_STAGES``
    and ends in the weaker monotone one.
    """
    require_valid(datum)
    deep = datum.ambient.codim >= 2
    if not deep and datum.ambient.n == 1:
        return datum, _trivial_decomposition(datum), []
    derive = derive_half_handle_decomposition if deep else derive_monotone_decomposition
    if not datum.interior_points(*_split_range(datum)):
        dec = derive(datum)
        if dec is not None and verify_decomposition(datum, dec):
            return datum, dec, []
    f = datum.flags
    if not (f.no_closed_cobordism and f.no_closed_bottom and f.no_closed_top):
        raise PipelineBlocked(
            "hypotheses", "driver needs all three no-closed-component flags"
        )
    script: List[MoveRecord] = []
    for stage, fn in _DEEP_STAGES if deep else _CODIM_ONE_STAGES:
        try:
            datum, part = fn(datum)
        except MoveError as exc:
            raise PipelineBlocked(stage, exc) from exc
        script.extend(part)
    dec = derive(datum)
    if dec is None or not verify_decomposition(datum, dec):
        raise PipelineBlocked("verify", "driver output is not in normal form")
    return datum, dec, script


def _split_range(datum: MorseDatum) -> Tuple[int, int]:
    """Indices of the interior points the normal form splits: 1..n in
    codimension two and up, the middle indices 2..n-1 in codimension one."""
    n = datum.ambient.n
    return (1, n) if datum.ambient.codim >= 2 else (2, n - 1)


def _separate_middle_levels(datum):
    """Give every interior point of middle index its own level.

    Points sharing a level keep their order; all but the last slide to
    fresh levels in the free gap just below, lowest first, so the replay
    order never changes.  Some point stays on every level and the movers
    land strictly between the level below and their own, so that gap is
    bounded by the level below in the sorted list of levels.  All the
    moves run as one ``_rearrange_run``.
    """
    middle_ids = {p.id for p in datum.interior_points(2, datum.ambient.n - 1)}
    script: List[MoveRecord] = []
    prev = 0
    # the points are in (value, id) order, so each level is one run of keys
    for key, group in groupby(datum.points, lambda p: p.sort_key()[:2]):
        group = [p.id for p in group]
        movers = [pid for pid in group if pid in middle_ids]
        if len(group) >= 2 and movers:
            if len(movers) == len(group):
                movers = movers[:-1]  # the last one may keep the level
            script += [
                MoveRecord._step(pid, between(prev, key[1], t, len(movers) + 1),
                                 "separate")
                for t, pid in enumerate(movers, 1)
            ]
        prev = key[1]
    return _rearrange_run(datum, script), script


def _split_all(datum):
    """Split every interior point of ``_split_range``, lowest first, as one
    ``_split_run``."""
    ids = [p.id for p in datum.interior_points(*_split_range(datum))]
    return _split_run(datum, ids), [MoveRecord("split", (pid,)) for pid in ids]


def _segment_targets(datum) -> Dict[str, Fraction]:
    """Final values: every point strictly inside its labelled segment,
    groups spread evenly in their current order."""
    n = datum.ambient.n
    frame = _half_handle_frame(n)
    groups: Dict[int, List[str]] = {}
    for p in datum.points:  # canonical order, so groups stay stable
        groups.setdefault(_half_handle_slot(p, n), []).append(p.id)
    targets: Dict[str, Fraction] = {}
    for i, ids in groups.items():
        lo, hi = frame[i][:2]
        k = len(ids)  # slot t + 1 of k + 1 in segment i
        for t, pid in enumerate(ids):
            targets[pid] = between(lo, hi, t + 1, k + 1)
    return targets


def _index_order_targets(datum) -> Dict[str, Fraction]:
    """Codimension one: every point on its own level, by index and then in
    its current order, spread evenly over (0, 1)."""
    ordered = sorted(datum.points, key=lambda p: p.index)  # stable
    return {p.id: Fraction(i + 1, len(ordered) + 1) for i, p in enumerate(ordered)}


# Each stage maps a datum to (datum, records).  The lambdas look their
# callees up when they run, so a wrapper installed on this module later
# (a tracer, say) sees every call.
_DEEP_STAGES = (
    ("schedule", lambda d: realize_configuration(d, schedule_levels(d))),
    ("joinability", lambda d: ensure_joinable(d)),
    ("separation", _separate_middle_levels),
    ("split", _split_all),
    ("final", lambda d: realize_configuration(d, _segment_targets(d))),
)
_CODIM_ONE_STAGES = (
    ("order", lambda d: realize_configuration(d, _index_order_targets(d))),
    ("split", _split_all),
)
