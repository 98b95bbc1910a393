"""Rewriting moves on Morse data.

Three families of moves, each with exact side conditions:

* rearrangement: change critical values without changing anything else;
  legal when no chain of flow lines pins the order and no level set effect
  would have to happen before its inputs exist.
* cancellation: erase a pair of points of adjacent index joined by exactly
  one flow line whose slice effects compose to the identity.
* splitting: replace an interior point whose surgery happens on a wall
  component by a boundary stable / boundary unstable pair.

Every move returns the rewritten datum together with a replayable record.
Failures raise a MoveError subclass naming the side condition; the input
datum is never modified.

Every move takes valid data only: on a datum whose ``valid`` does not
hold it raises ValidationError with the datum's full issue list
(``require_valid``), as does ``realize_configuration``.  Every move is
checked.  Rearrangements of any number of points (``assign_values``) and
splits (``split_interior``) are checked locally, in time proportional to
the degree of the points moved, as in the rearrangement and splitting
theorems: a rearrangement is pinned only by the flow lines and surgery
dependencies of the points it moves, and a split changes the flow lines
and the surgery of one point and nothing else.  The target map of
``realize_configuration`` is checked the same way, every point moved at
once.  The drivers and script replay fold runs of rearrangements in one
pass (``_rearrange_run``) that re-places the points once per run; a moved
point is built from its old one at the checked value, not checked again,
and a driver's one-point record is built unchecked (``MoveRecord._step``),
its id from the valid datum, while records parsed from a script take every
check.  Runs of splits are folded the same way (``_split_run``, of which
``split_interior`` is the one-record case): each split reads the splits
before it through one overlay and is checked and refused in place, and
the points, flow lines, effects and their indexes are patched once per
run.  Values are range-checked on their ints and ordered by their
``order_key``s.  A rearrangement or target map the local check refuses
goes to the full replay, which names the reason; cancellations run
``validate_datum`` on the result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import (
    Blocked,
    BrokenTrajectoryExists,
    EdgeOrderViolation,
    ExtremalIndex,
    Inadmissible,
    IndexMismatch,
    InvalidEffect,
    KindMismatch,
    LocusViolation,
    MoveError,
    NotInterior,
    NotJoinable,
    NotSingleTrajectory,
    PartialConfiguration,
    SwapBlocked,
    UnknownId,
    ValidationError,
)
from .morse_data import (
    _ID_RE,
    CriticalPoint,
    Kind,
    MorseDatum,
    exact,
    first_inversion,
    is_admissible,
    order_key,
    require_valid,
    splice,
    validate_datum,
)
from .slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComplex,
    SliceComponent,
    apply_effect,
    effect_row_issues,
    replay,
)
from .trajectory import (
    FlowEdge,
    Locus,
    _edge_key,
    can_rearrange,
    edge_issues,
    generic_disjoint,
    has_broken_path,
)


_IDS_WANTED = {  # move kind -> fewest and most point ids, in words
    "rearrange": (1, float("inf"), "one or more distinct point ids"),
    "cancel": (2, 2, "two distinct point ids"),
    "split": (1, 1, "one point id"),
}


@dataclass(frozen=True)
class MoveRecord:
    """One replayable move: kind, point ids, and target values (rearrange).

    A cancel names two distinct points, a split one, and a rearrange one or
    more distinct points, each with its value; only a rearrange carries
    values.
    """

    kind: str  # "rearrange" | "cancel" | "split"
    ids: Tuple[str, ...]
    values: Tuple[Fraction, ...] = ()
    note: str = ""

    def __post_init__(self):
        if self.kind not in _IDS_WANTED:
            raise ValidationError("unknown move kind %r" % (self.kind,))
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", tuple(map(exact, self.values)))
        lo, hi, wanted = _IDS_WANTED[self.kind]
        if not lo <= len(self.ids) <= hi or len(set(self.ids)) != len(self.ids):
            raise ValidationError(
                "%s wants %s, got ids=%s" % (self.kind, wanted, ",".join(self.ids))
            )
        for pid in self.ids:
            if not _ID_RE.match(pid):
                raise ValidationError("bad point id %r" % (pid,))
        if self.kind == "rearrange" and len(self.values) != len(self.ids):
            raise ValidationError("rearrange needs one value per id")
        if self.kind != "rearrange" and self.values:
            raise ValidationError("%s takes no values" % (self.kind,))

    @classmethod
    def _step(cls, pid: str, value: Fraction, note: str) -> "MoveRecord":
        """A driver's one-point rearrange, built without ``__post_init__``:
        ``pid`` is from a valid datum, ``value`` an exact Fraction in (0, 1),
        and the move is checked when it runs.  Fields go in as in __init__."""
        out, put = object.__new__(cls), object.__setattr__
        put(out, "kind", "rearrange")
        put(out, "ids", (pid,))
        put(out, "values", (value,))
        put(out, "note", note)
        return out

    def assignments(self) -> Dict[str, Fraction]:
        """Target value by point id (empty unless a rearrange)."""
        return dict(zip(self.ids, self.values))


def check_assignment(datum: MorseDatum, values: Mapping[str, Fraction]):
    """Why the given full value assignment is illegal, or None if it is fine.

    Checks only what moving values can break: edge order and effect replay.
    Returns a (reason, detail) pair; reason is "edge" with the offending
    edge or "replay" with the first replay issue.
    """
    for e in datum.graph.edges:
        if not (values[e.src] < values[e.dst]):
            return ("edge", e)
    candidate = tuple(
        CriticalPoint(p.id, p.kind, p.index, values[p.id]) for p in datum.points
    )
    issues, _ = replay(datum.ambient, candidate, datum.slices)
    if issues:
        return ("replay", issues[0])
    return None


def assign_by_replay(
    datum: MorseDatum, assignments: Mapping[str, Fraction]
) -> MorseDatum:
    """Datum with new critical values; raises if the result is inconsistent.

    The reference check behind ``assign_values``: the whole assignment goes
    through ``check_assignment``, a full replay, and every point is rebuilt
    at its new value.
    """
    for pid in assignments:
        if not datum.has_point(pid):
            raise UnknownId("no critical point with id %r" % (pid,))
    values = datum.values()
    for pid, v in assignments.items():
        v = exact(v)
        if not (0 < v < 1):
            raise MoveError("target value %s for %r outside (0,1)" % (v, pid))
        values[pid] = v
    problem = check_assignment(datum, values)
    if problem is not None:
        kind, detail = problem
        if kind == "edge":
            raise EdgeOrderViolation(
                "flow line %s->%s would run downhill (%s >= %s)"
                % (detail.src, detail.dst, values[detail.src], values[detail.dst])
            )
        raise InvalidEffect("new order breaks the slice replay: %s" % (detail,))
    new_points = tuple(
        CriticalPoint(p.id, p.kind, p.index, values[p.id]) for p in datum.points
    )
    return datum.replace(points=new_points)


_NO_OVERLAY: Mapping[str, Fraction] = MappingProxyType({})


def _moves_locally(
    datum: MorseDatum,
    keys: Mapping[str, tuple],
    overlay: Mapping[str, tuple] = _NO_OVERLAY,
) -> bool:
    """Whether moving each point to its (value, id) key in ``keys``
    (``order_key``) keeps a valid datum valid.

    Looks only at what touches the moved points, in O(deg) index lookups
    each, with every moved point at its new key: their flow lines must stay
    uphill (the (float, value) prefixes of the keys), the makers of their
    inputs must come before them and the users of their outputs after them
    (the whole keys).  On a valid datum every component id is made once and
    used at most once, so nothing else pins the replay order.  ``overlay``
    holds the keys of earlier moves not yet applied to ``datum``
    (``_rearrange_run``).
    """
    points = datum.point_index

    def key(pid):
        if pid in keys:
            return keys[pid]
        return overlay[pid] if pid in overlay else points[pid].sort_key()

    edges = datum.graph.edge_index
    components = datum.slices.component_index
    for pid, at in keys.items():
        for e in edges.out_edges.get(pid, ()) + edges.in_edges.get(pid, ()):
            if not key(e.src)[:2] < key(e.dst)[:2]:
                return False
        effect = datum.slices.effect_index[pid]
        for cid in effect.inputs:
            maker = components.producer[cid]
            if maker is not None and not key(maker) < at:
                return False
        for c in effect.outputs:
            user = components.consumer.get(c.id)
            if user is not None and not at < key(user):
                return False
    return True


def _local_step(datum, assignments, overlay=_NO_OVERLAY):
    """The (value, id) keys of a move of known points to values in (0, 1)
    that ``_moves_locally`` accepts, with ``overlay`` as there; None
    otherwise.  The range is checked on ints (denominators are positive)."""
    if all(datum.has_point(pid) for pid in assignments):
        values = {pid: exact(v) for pid, v in assignments.items()}
        if all(0 < v.numerator < v.denominator for v in values.values()):
            keys = {pid: order_key(v, pid) for pid, v in values.items()}
            if _moves_locally(datum, keys, overlay):
                return keys
    return None


def assign_values(
    datum: MorseDatum, assignments: Mapping[str, Fraction], note: str = ""
) -> Tuple[MorseDatum, MoveRecord]:
    """Move any set of points to new values in one step.

    The workhorse behind rearrangement; drivers use single-point steps.
    Checks edge order and slice replay, nothing else: points with no flow
    line or surgery dependency between them may pass each other freely.

    Takes valid data only (``require_valid``).  A move of known points to
    values in (0, 1) is accepted after ``_moves_locally`` checks the moved
    points alone; only they are re-placed, by bisection, and the result
    stays valid.  Every refusal goes through ``assign_by_replay``, the full
    replay that names the reason.
    """
    require_valid(datum)
    keys = _local_step(datum, assignments)
    if keys is None:
        moved = assign_by_replay(datum, assignments)
    else:
        moved = datum.with_keys(keys)
    ids = tuple(sorted(assignments))
    record = MoveRecord(
        "rearrange", ids, tuple(exact(assignments[i]) for i in ids), note
    )
    return moved, record


def _rearrange_run(datum: MorseDatum, script: Iterable[MoveRecord]) -> MorseDatum:
    """The datum the rearrange records of ``script`` make, one after another:
    the left fold of ``apply_record`` over them, in one pass.

    Each step is checked by ``_moves_locally`` with the keys of the steps
    before it held in an overlay, and the moved points are re-placed once,
    at the end (``with_keys``), so a run of s steps builds one points
    tuple, not s.  At the first step the local check refuses, the datum the
    earlier steps made is built and the step goes to ``assign_values``,
    which raises what the fold raises there (or, should it accept, the run
    goes on from its result).
    """
    d, overlay = datum, {}
    for record in script:
        if not overlay:
            require_valid(d)
        if len(record.ids) == 1:  # one point, its value an exact Fraction
            pid, v = record.ids[0], record.values[0]
            keys = {pid: order_key(v, pid)}
            if not (d.has_point(pid) and 0 < v.numerator < v.denominator
                    and _moves_locally(d, keys, overlay)):
                keys = None
        else:
            keys = _local_step(d, record.assignments(), overlay)
        if keys is None:
            d, _ = assign_values(d.with_keys(overlay), record.assignments())
            overlay = {}
        else:  # keep the overlay in the order of last moves, mostly sorted
            for pid in keys:
                overlay.pop(pid, None)
            overlay.update(keys)
    return d.with_keys(overlay)


def rearrange_pair(
    datum: MorseDatum, z_id: str, w_id: str, a: Fraction, b: Fraction
) -> Tuple[MorseDatum, MoveRecord]:
    """Move the pair z (below) and w (above) to values a and b.

    Refused with Blocked when a chain of flow lines runs from z to w, with
    EdgeOrderViolation when a third point's flow line would run downhill,
    and with InvalidEffect when the new order breaks the slice replay.
    """
    require_valid(datum)
    z, w = datum.point(z_id), datum.point(w_id)
    if z_id == w_id:
        raise MoveError("rearrange_pair wants two distinct points")
    if not (z.value < w.value):
        raise MoveError(
            "rearrange_pair wants the lower point first (%s is above %s)"
            % (z_id, w_id)
        )
    if not can_rearrange(datum.graph, z_id, w_id):
        raise Blocked(
            "a chain of flow lines runs from %s to %s" % (z_id, w_id)
        )
    return assign_values(datum, {z_id: a, w_id: b})


def apply_record(datum: MorseDatum, record: MoveRecord) -> MorseDatum:
    """Replay one recorded move."""
    if record.kind == "rearrange":
        moved, _ = assign_values(datum, record.assignments(), record.note)
        return moved
    if record.kind == "cancel":
        out, _ = cancel_pair(datum, record.ids[0], record.ids[1])
        return out
    out, _ = split_interior(datum, record.ids[0])  # MoveRecord admits no other kind
    return out


def apply_script(datum: MorseDatum, script: Iterable[MoveRecord]) -> MorseDatum:
    """Replay a script: the fold of ``apply_record`` over it, each stretch
    of consecutive rearrangements replayed as one ``_rearrange_run`` and
    each stretch of consecutive splits as one ``_split_run``."""
    for kind, records in groupby(script, lambda r: r.kind):
        if kind == "rearrange":
            datum = _rearrange_run(datum, records)
        elif kind == "split":
            datum = _split_run(datum, [r.ids[0] for r in records])
        else:
            for record in records:
                datum = apply_record(datum, record)
    return datum


# ---------------------------------------------------------------------------
# realization of a target configuration


def realize_configuration(
    datum: MorseDatum, targets: Mapping[str, Fraction]
) -> Tuple[MorseDatum, List[MoveRecord]]:
    """Rearrange until every point sits at its target value.

    The targets must form an admissible configuration (index order, and in
    codimension one just index monotonicity), keep every flow line running
    uphill, and put every surgery after its inputs exist.  Under those
    conditions the park and place strategy below always succeeds: first
    lift all points, in their current order, into a band above everything,
    then bring them down to their targets from the bottom up.

    Takes valid data only (``require_valid``).  The targets are checked
    by ``_moves_locally`` with every point moved at once, in O(deg) per
    point; only a refused target map goes to the full replay
    (``check_assignment``), which names the blocked pair.  The park and
    place steps are single-point moves, run as one ``_rearrange_run`` that
    checks each step in O(deg x) and re-places the points once.

    Raises SwapBlocked naming two points whose order cannot be flipped.
    """
    require_valid(datum)
    want = {}
    for pid, v in targets.items():
        if not datum.has_point(pid):
            raise UnknownId("no critical point with id %r" % (pid,))
        want[pid] = exact(v)
    for p in datum.points:
        if p.id not in want:
            raise PartialConfiguration("no target value for point %r" % (p.id,))
    for pid, v in want.items():
        if not (0 < v.numerator < v.denominator):
            raise Inadmissible("target value %s for %r outside (0,1)" % (v, pid))

    if datum.ambient.codim >= 2:
        if not is_admissible(datum.points, want):
            raise Inadmissible("target configuration violates the index order")
    else:
        inversion = first_inversion(
            datum.points, {pid: order_key(v) for pid, v in want.items()}
        )
        if inversion is not None:
            raise Inadmissible(
                "codimension one targets must be index monotone "
                "(%s vs %s)" % (inversion[0].id, inversion[1].id)
            )

    keys = {pid: order_key(v, pid) for pid, v in want.items()}
    problem = None if _moves_locally(datum, keys) else check_assignment(datum, want)
    if problem is not None:
        kind, detail = problem
        if kind == "edge":
            raise SwapBlocked(
                detail.src,
                detail.dst,
                "flow line %s->%s pins the order, targets invert it"
                % (detail.src, detail.dst),
            )
        # replay broke: the first starving effect names the blocked pair
        consumer, producer = _starving_pair(datum, want)
        raise SwapBlocked(
            consumer,
            producer,
            "surgery at %s needs a component made at %s, targets put it below"
            % (consumer, producer),
        )

    if all(want[p.id] == p.value for p in datum.points):
        return datum, []

    # park everything above current values and targets, preserving order
    ceiling = max(datum.points[-1].sort_key(), max(keys.values()))[1]
    count = len(datum.points)
    ordered = list(datum.points)  # canonical order
    # ceiling + (1 - ceiling) * (i + 1) / (count + 2), one Fraction each
    num, den = ceiling.numerator, ceiling.denominator
    slots = {
        p.id: Fraction(num * (count + 2) + (den - num) * (i + 1), den * (count + 2))
        for i, p in enumerate(ordered)
    }
    script = [  # topmost first, so nothing is overtaken
        MoveRecord._step(p.id, slots[p.id], "park") for p in reversed(ordered)
    ]
    # place from the bottom up
    script += [
        MoveRecord._step(key[2], key[1], "place") for key in sorted(keys.values())
    ]
    return _rearrange_run(datum, script), script


def _starving_pair(datum: MorseDatum, values: Mapping[str, Fraction]):
    """First (consumer, producer) pair out of order under the new values;
    on a valid datum only such a starving surgery breaks the replay."""
    producers = datum.slices.component_index.producer
    seen = {c.id for c in datum.slices.bottom}
    for p in sorted(datum.points, key=lambda p: (values[p.id], p.id)):
        effect = datum.slices.effect_for(p.id)
        for cid in effect.inputs:
            if cid not in seen:
                return p.id, producers[cid]
        for c in effect.outputs:
            seen.add(c.id)


# ---------------------------------------------------------------------------
# cancellation


def cancel_pair(
    datum: MorseDatum, z_id: str, w_id: str
) -> Tuple[MorseDatum, MoveRecord]:
    """Erase a cancelling pair: indices k and k+1, same kind, joined by a
    single flow line, with slice effects that compose to the identity.

    The surviving effects are rewritten by the single renaming that undoes
    the pair (the component continuing above w becomes the component that
    entered z).  New flow lines are induced for chains that used to run
    through the pair: p -> w and z -> q combine to p -> q with unknown
    count whenever genericity and the value order allow a flow line at all.
    """
    require_valid(datum)
    z, w = datum.point(z_id), datum.point(w_id)
    if z.kind is not w.kind:
        raise KindMismatch(
            "cancelling pair must share a kind (%s vs %s)"
            % (z.kind.value, w.kind.value)
        )
    if w.index != z.index + 1:
        raise IndexMismatch(
            "cancelling pair wants indices k, k+1; got %d, %d"
            % (z.index, w.index)
        )
    edge = datum.graph.edge(z_id, w_id)
    if edge is None or edge.count != 1:
        raise NotSingleTrajectory(
            "cancellation wants exactly one flow line %s->%s" % (z_id, w_id)
        )
    expected_locus = Locus.INNER if z.kind is Kind.INTERIOR else Locus.WALL
    if edge.locus is not expected_locus:
        raise LocusViolation(
            "the connecting flow line must run in locus %r, not %r"
            % (expected_locus.value, edge.locus.value)
        )
    if has_broken_path(datum.graph, z_id, w_id):
        raise BrokenTrajectoryExists(
            "a broken chain of flow lines also joins %s to %s" % (z_id, w_id)
        )

    ez = datum.slices.effect_for(z_id)
    ew = datum.slices.effect_for(w_id)
    survivor, final = _inverse_pattern(z, ez, ew)
    bits = datum.slices.component_index.wall_bit
    if bits[survivor] != bits[final]:
        raise InvalidEffect(
            "effects at %s and %s are not inverse: wall bits of %r and %r differ"
            % (z_id, w_id, survivor, final)
        )

    rename = {final: survivor}
    new_effects = []
    for e in datum.slices.effects:
        if e.at in (z_id, w_id):
            continue
        new_inputs = tuple(rename.get(cid, cid) for cid in e.inputs)
        new_effects.append(ComponentEffect(e.at, e.kind, new_inputs, e.outputs))
    new_slices = SliceComplex(datum.slices.bottom, tuple(new_effects))
    new_points = tuple(p for p in datum.points if p.id not in (z_id, w_id))

    by_id = datum.point_index
    base = datum.graph.without_points([z_id, w_id])
    induced = []
    for into_w in datum.graph.predecessors(w_id):
        if into_w.src == z_id:
            continue
        for from_z in datum.graph.successors(z_id):
            if from_z.dst == w_id:
                continue
            p, q = into_w.src, from_z.dst
            if p == q or base.edge(p, q) is not None:
                continue
            if any(e.src == p and e.dst == q for e in induced):
                continue
            if not (by_id[p].value < by_id[q].value):
                continue  # flow runs uphill, so such a chain cannot survive
            if generic_disjoint(by_id[p], by_id[q], datum.ambient):
                continue
            if into_w.locus is Locus.WALL and from_z.locus is Locus.WALL:
                locus = Locus.WALL
            elif into_w.locus is Locus.INNER and from_z.locus is Locus.INNER:
                locus = Locus.INNER
            else:
                locus = Locus.MEMBRANE
            induced.append(FlowEdge(p, q, None, locus))
    new_graph = base.with_edges(induced)

    out = MorseDatum(datum.ambient, new_points, new_graph, new_slices, datum.flags)
    issues = validate_datum(out)
    if issues:
        raise InvalidEffect(
            "cancellation would leave inconsistent data: %s" % (issues[0],)
        )
    return out, MoveRecord("cancel", (z_id, w_id))


def _inverse_pattern(z: CriticalPoint, ez: ComponentEffect, ew: ComponentEffect):
    """Surviving input and final output of a literal inverse pair of effects.

    Cancelling deletes both effects and renames the final output to the
    survivor.  Anything else (a merge against a split, say, or attaches
    that do not chain) is refused: composing those is not the identity on
    the slice level, so erasing the pair would change the data elsewhere.
    """
    kz, kw = ez.kind, ew.kind
    if kz is EffectKind.BIRTH and kw is EffectKind.MERGE:
        newborn = ez.outputs[0].id
        if newborn not in ew.inputs:
            raise InvalidEffect("the merge does not consume the newborn sphere")
        other = [cid for cid in ew.inputs if cid != newborn][0]
        return other, ew.outputs[0].id
    if kz is EffectKind.INTERNAL and kw is EffectKind.INTERNAL:
        if ew.inputs != (ez.outputs[0].id,):
            raise InvalidEffect("the upper surgery does not consume the lower's output")
        return ez.inputs[0], ew.outputs[0].id
    if kz is EffectKind.SPLIT and kw is EffectKind.DEATH:
        dying = ew.inputs[0]
        if dying not in ez.output_ids():
            raise InvalidEffect("the death does not consume a split output")
        other = [cid for cid in ez.output_ids() if cid != dying][0]
        return ez.inputs[0], other
    if kz is EffectKind.BOUNDARY_ATTACH and kw is EffectKind.BOUNDARY_ATTACH:
        if len(ez.inputs) != 1 or len(ez.outputs) != 1:
            raise InvalidEffect("only chained one-to-one attaches cancel")
        if len(ew.inputs) != 1 or len(ew.outputs) != 1:
            raise InvalidEffect("only chained one-to-one attaches cancel")
        if ew.inputs != (ez.outputs[0].id,):
            raise InvalidEffect("the attaches do not chain")
        return ez.inputs[0], ew.outputs[0].id
    raise InvalidEffect(
        "effects %s then %s do not compose to the identity"
        % (kz.value, kw.value)
    )


# ---------------------------------------------------------------------------
# splitting


def split_interior(datum: MorseDatum, z_id: str) -> Tuple[MorseDatum, MoveRecord]:
    """Replace an interior point by a boundary stable / unstable pair.

    Needs an interior point of index 1..n whose surgery happens on a
    component touching the wall.  The stable half lands just below the old
    value and performs a wall attach; the unstable half lands just above
    and finishes the original surgery, joined to its partner by a single
    flow line in the wall.  Incoming flow lines move to the stable half,
    outgoing ones to the unstable half.

    The one-record ``_split_run``, which checks and builds the result.
    """
    return _split_run(datum, (z_id,)), MoveRecord("split", (z_id,))


def _split_run(datum: MorseDatum, ids: Iterable[str]) -> MorseDatum:
    """The datum the splits of the points ``ids`` make, one after another:
    the left fold of ``split_interior`` over them, in one pass.

    Takes valid data only (``require_valid``).  Each split sees the datum
    the splits before it made through one overlay on ``datum``: the pairs
    made so far, which may be z's neighbours (ids come in any order) and
    the new ends of z's flow lines (lines into a split point end at its
    stable half, lines out of it leave from its unstable half); the new
    makers and users of components; and the number of components made.
    Joinability is read off the wall bits of z's inputs, and the pair takes
    z's place in the point order, found by bisection.  Each split is judged
    by ``_splits_locally`` alone and refused in place, with the class and
    message the fold raises: the overlay answers every question the fold
    asks of its datum as that datum does.

    The run gathers every dropped and added point, flow line and effect and
    patches once, at the end: one ``splice`` of the points, one
    ``_patched`` graph and slice complex, whose indexes are patched from
    this datum's when first asked, and one copy of the point index.  The
    result is marked ``valid``.
    """
    ids = tuple(ids)
    if not ids:
        return datum
    require_valid(datum)
    n = datum.ambient.n
    points, index = datum.points, datum.point_index
    edges, slices = datum.graph.edge_index, datum.slices
    # wall bits as the run leaves them: a tongue is no interior point's input
    producer, consumer, bits = slices.component_index
    pairs: Dict[str, Tuple[CriticalPoint, CriticalPoint]] = {}  # by split id
    halves: Dict[str, CriticalPoint] = {}
    made: Dict[str, str] = {}  # component id -> its new maker
    used: Dict[str, str] = {}  # component id -> its new user
    drop_edges, add_edges = [], {}
    drop_effects, add_effects = [], []

    def point(pid):  # the point of the datum the splits so far made, or None
        if pid in halves:
            return halves[pid]
        return None if pid in pairs else index.get(pid)

    def maker(cid):
        return point(made.get(cid) or producer.get(cid))

    def user(cid):
        return point(used.get(cid) or consumer.get(cid))

    for z_id in ids:
        z = point(z_id)
        if z is None:
            raise UnknownId("no critical point with id %r" % (z_id,))
        if z.kind is not Kind.INTERIOR:
            raise NotInterior("point %r is not interior" % (z_id,))
        if not (1 <= z.index <= n):
            raise ExtremalIndex(
                "split applies to indices 1..%d, point %r has index %d"
                % (n, z_id, z.index)
            )
        effect = slices.effect_for(z_id)  # an unsplit point keeps its effect
        if not any(bits[cid] for cid in effect.inputs):
            raise NotJoinable(
                "the surgery at %r happens away from the wall" % (z_id,)
            )
        # z is a point of ``datum``; a split neighbour's near half is next
        i = bisect_left(points, z.sort_key(), key=CriticalPoint.sort_key)
        below, above = Fraction(0), Fraction(1)
        if i > 0:
            y = points[i - 1]
            below = pairs[y.id][1].value if y.id in pairs else y.value
        if i + 1 < len(points):
            y = points[i + 1]
            above = pairs[y.id][0].value if y.id in pairs else y.value
        if z.value in (below, above):
            raise MoveError(
                "point %r shares its critical value; separate the points first"
                % (z_id,)
            )
        # thirds above, halves below: pairs never collide
        v_s = z.value - (z.value - below) / 2
        v_u = z.value + (above - z.value) / 3

        zs_id, zu_id = z_id + "s", z_id + "u"
        while point(zs_id) is not None:
            zs_id += "_"
        while point(zu_id) is not None:
            zu_id += "_"
        zs = CriticalPoint(zs_id, Kind.BOUNDARY_STABLE, z.index, v_s)
        zu = CriticalPoint(zu_id, Kind.BOUNDARY_UNSTABLE, z.index, v_u)

        # the first c<i> no component carries, from i = the number of
        # components made so far: the datum's and one tongue per split
        j = len(producer) + len(pairs)
        while "c%d" % j in producer or "c%d" % j in made:
            j += 1
        e_s, e_u = _split_effects(effect, bits, zs_id, zu_id, "c%d" % j, maker, user)

        # z's flow lines as the datum so far has them, in edge order
        into, out_of = [], []
        for e in edges.in_edges.get(z_id, ()):
            if e.src in pairs:
                e = add_edges.pop((pairs[e.src][1].id, z_id))
            else:
                drop_edges.append(e)
            into.append(e)
        for e in edges.out_edges.get(z_id, ()):
            if e.dst in pairs:
                e = add_edges.pop((z_id, pairs[e.dst][0].id))
            else:
                drop_edges.append(e)
            out_of.append(e)
        moved = tuple(
            FlowEdge(e.src, zs_id, e.count, e.locus)
            for e in sorted(into, key=_edge_key)
        ) + tuple(
            FlowEdge(zu_id, e.dst, e.count, e.locus)
            for e in sorted(out_of, key=_edge_key)
        ) + (FlowEdge(zs_id, zu_id, 1, Locus.WALL),)

        pairs[z_id] = zs, zu
        halves[zs_id], halves[zu_id] = zs, zu
        issue = _splits_locally(datum.ambient, point, effect, bits, moved, e_s, e_u)
        if issue is not None:
            raise InvalidEffect(
                "splitting would leave inconsistent data: %s" % (issue,)
            )
        add_edges.update((_edge_key(e), e) for e in moved)
        drop_effects.append(effect)
        for e in (e_s, e_u):
            add_effects.append(e)
            made.update((c.id, e.at) for c in e.outputs)
            used.update((cid, e.at) for cid in e.inputs)

    new_index = dict(index)
    for z_id in pairs:
        del new_index[z_id]
    new_index.update(halves)
    return datum.derived(
        splice(points, [index[z_id] for z_id in pairs], list(halves.values()),
               CriticalPoint.sort_key),
        datum.graph._patched(drop_edges, add_edges.values()),
        slices._patched(drop_effects, add_effects),
        point_index=new_index,
        valid=True,
    )


def _splits_locally(ambient, point, effect, bits, moved, e_s, e_u):
    """The first issue of a split of a valid datum, or None when the result
    is valid, judged by the pair alone in O(deg z); ``point`` looks up the
    points of the result.

    The flow lines touching the pair, the new wall line included, must
    pass ``edge_issues``; the other lines and points are as before, and
    with every line uphill there is no cycle.  The two attach effects must
    pass their rows of the validity table and apply in turn to the wall
    bits of z's inputs, which on a valid datum are the components live
    just below z.  The pair sits in z's gap and leaves the state above z
    as it was, so the rest of the replay, the top state and the flags do
    not change: the fresh component touches the wall inside z's piece,
    which reaches it already.  The pair's indices are z's, in range for
    both boundary kinds.  On a valid datum a joinable point's pair always
    passes; the check guards the verdict cached on the result.
    """
    issues = []
    for e in moved:
        issues += edge_issues(ambient, point(e.src), point(e.dst), e)
    state = {cid: bits[cid] for cid in effect.inputs}
    try:
        for e in (e_s, e_u):
            issues += effect_row_issues(point(e.at), ambient.n, e, state)
            apply_effect(state, e)
    except InvalidEffect as exc:
        issues.append(str(exc))
    return issues[0] if issues else None


def _split_effects(effect: ComponentEffect, bits, zs_id, zu_id, mid, maker, user):
    """The attach pair replacing an interior effect, preserving its boundary.

    ``bits`` gives the wall bit of each input of the effect just below its
    point, ``mid`` is a fresh component id, and ``maker`` and ``user`` give
    the point that makes and the point that uses a component (None for a
    bottom or an unused one).  The stable half grabs the wall with a tongue
    (the fresh half-open collar component ``mid``); the unstable half
    finishes the surgery, reproducing the original output ids and bits so
    that no other effect needs rewriting.  For a merge the tongue attaches
    to the input that is not the witness (the witness being the most
    recently created input touching the wall); for a split the
    wall-touching output leaves at the stable half.  On a valid datum an
    interior point of index 1..n carries a merge, an internal surgery or a
    split, so nothing else comes here.
    """
    mid_comp = SliceComponent(mid, True)

    def produced_at(cid):  # bottom components first, then in point order
        owner = maker(cid)
        return order_key(Fraction(0), "") if owner is None else owner.sort_key()

    if effect.kind is EffectKind.MERGE:
        touching = [cid for cid in effect.inputs if bits.get(cid, False)]
        witness = max(touching, key=lambda cid: (produced_at(cid), cid))
        other = [cid for cid in effect.inputs if cid != witness][0]
        e_s = ComponentEffect(
            zs_id, EffectKind.BOUNDARY_ATTACH, (other,), (mid_comp,)
        )
        e_u = ComponentEffect(
            zu_id, EffectKind.BOUNDARY_ATTACH, (witness, mid), effect.outputs
        )
        return e_s, e_u
    if effect.kind is EffectKind.INTERNAL:
        e_s = ComponentEffect(
            zs_id, EffectKind.BOUNDARY_ATTACH, effect.inputs, (mid_comp,)
        )
        e_u = ComponentEffect(
            zu_id, EffectKind.BOUNDARY_ATTACH, (mid,), effect.outputs
        )
        return e_s, e_u
    # a split
    outs = list(effect.outputs)
    touching = [c for c in outs if c.touches_wall]
    if len(touching) == 1:
        direct = touching[0]  # the closed half must ride the unstable side
    else:  # the output used first, outputs never used last
        never = order_key(Fraction(1), "")
        used_at = [
            never if p is None else p.sort_key() for p in (user(c.id) for c in outs)
        ]
        direct = outs[used_at.index(min(used_at))]
    other = [c for c in outs if c.id != direct.id][0]
    e_s = ComponentEffect(
        zs_id, EffectKind.BOUNDARY_ATTACH, effect.inputs, (direct, mid_comp)
    )
    e_u = ComponentEffect(zu_id, EffectKind.BOUNDARY_ATTACH, (mid,), (other,))
    return e_s, e_u
