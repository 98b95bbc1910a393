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
checked, locally, as in the rearrangement and splitting theorems: a
rearrangement is pinned only by the flow lines and surgery dependencies of
the points it moves, a split changes the flow lines and the surgery of
one point and nothing else, and a cancellation changes its pair.

Each type has a checked constructor and one unchecked builder
(``_trusted``, and ``MorseDatum._built`` for a datum).  A move checks
what it changes and then builds its pieces and its result with the
unchecked builders, from what its checks prove; no move validates its
result or rebuilds the whole datum, and each result is marked valid.

* Runs of rearrangements (the drivers, script replay and
  ``assign_values``) are folded in one pass by ``_rearrange_run``, the
  one step checker: the run looks up the datum's indexes once, and each
  step puts its keys into the run's one overlay and is checked there,
  inline.  Only the run accepts a rearrangement step; a refused step
  raises the reason the full replay names for the run's input datum at
  the overlay's values (``check_assignment``).  The moved points are
  built at their checked keys and placed once per run (``splice``).
* A full target map is checked once, as a whole: its admissibility is
  read along the map's one sort (``_ordered``), then the legality test of
  the rearrangement theorem (``_swap_blocked``) names a SwapBlocked.
  ``realize_configuration`` raises it, or builds its park and place script
  and its result's points in the order of that sort, with no run; its
  docstring proves that every step of the script passes the run wherever
  it is replayed.
* Runs of splits are folded the same way (``_split_run``, of which
  ``split_interior`` is the one-record case): each split reads the splits
  before it through one overlay, its place and gap off the datum's place
  index (built once per datum) and its flow lines in edge order, sorted
  again only when an earlier split traded one of their ends; it hands the
  ends it holds to ``_splits_locally``, which judges it, and is refused in
  place.  The flow lines and effects are patched once per run, by one
  sort, and each pair takes its point's place, between slices of the
  datum's points.
* A cancellation is checked at its pair, its induced flow lines by
  ``edge_issues``, and patched there (``cancel_pair``).

A driver's record, its ids from the valid datum, and a parsed one-point
rearrange or split line in the serializer's shape, whose match proves the
record's checks, are built by ``MoveRecord._trusted``; any other record takes
every check, once (``MoveRecord`` keeps a tuple of Fractions as it is).
The move a record names is checked when it runs.  Values are
range-checked on their ints, read from a Fraction's slots, and ordered by
their ``order_key``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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
    between,
    exact,
    first_inversion,
    order_key,
    require_valid,
    spaced,
    splice,
)
from .slice_topology import (
    ComponentEffect,
    EffectKind,
    SliceComponent,
    apply_effect,
    effect_row_issues,
    replay,
)
from .trajectory import (
    FlowEdge,
    Locus,
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
        kind, ids, values = self.kind, self.ids, self.values
        if kind not in _IDS_WANTED:
            raise ValidationError("unknown move kind %r" % (kind,))
        if type(ids) is not tuple:
            ids = tuple(ids)
            object.__setattr__(self, "ids", ids)
        kept = type(values) is tuple  # a tuple of Fractions is kept as it is
        for v in values if kept else ():
            if type(v) is not Fraction:
                kept = False
                break
        if not kept:
            values = tuple(map(exact, values))
            object.__setattr__(self, "values", values)
        lo, hi, wanted = _IDS_WANTED[kind]
        if not lo <= len(ids) <= hi or 1 < len(ids) != len(set(ids)):
            raise ValidationError(
                "%s wants %s, got ids=%s" % (kind, wanted, ",".join(ids))
            )
        for pid in ids:
            if not _ID_RE.match(pid):
                raise ValidationError("bad point id %r" % (pid,))
        if kind == "rearrange":
            if len(values) != len(ids):
                raise ValidationError("rearrange needs one value per id")
        elif values:
            raise ValidationError("%s takes no values" % (kind,))

    @staticmethod
    def _trusted(kind: str, ids: tuple, values: tuple, note: str) -> "MoveRecord":
        """The record ``MoveRecord(kind, ids, values, note)`` builds, without
        ``__post_init__``, for a caller that has made its checks: ``kind``
        is a move kind, ``ids`` a tuple of distinct ids that pass
        ``_ID_RE``, as many as the kind wants, and ``values`` a tuple of
        Fractions, one per id of a rearrange, none otherwise.  A driver's
        ids are a valid datum's; a parsed line's, like its digits, are
        proved by its match (``cli_io``); ``assign_values`` hands its raw
        values to the run, which makes each exact as it checks it.  The move
        is checked when it runs.  The fields go straight into the instance
        dict, in the order of __init__, at half the cost of one
        ``object.__setattr__`` each.  That dict is larger than the compact
        layout and one more object for the cyclic collector, which a long
        script that stays alive pays for in its collections."""
        out = object.__new__(MoveRecord)
        fields = out.__dict__
        fields["kind"] = kind
        fields["ids"] = ids
        fields["values"] = values
        fields["note"] = note
        return out


def check_assignment(
    datum: MorseDatum, values: Mapping[str, Fraction]
) -> Optional[MoveError]:
    """Why the given full value assignment is illegal, or None if it is fine.

    Checks only what moving values can break, by a full replay: returns
    EdgeOrderViolation for the first flow line, in edge order, the values
    run downhill, else InvalidEffect with the first replay issue.  On a
    valid datum it refuses exactly the moves a step of ``_rearrange_run``
    refuses, so it names the reason of every refused step: its one caller
    in the package is that refused step.
    """
    for e in datum.graph.edges:
        if not (values[e.src] < values[e.dst]):
            return EdgeOrderViolation(
                "flow line %s->%s would run downhill (%s >= %s)"
                % (e.src, e.dst, values[e.src], values[e.dst])
            )
    candidate = tuple(
        CriticalPoint(p.id, p.kind, p.index, values[p.id]) for p in datum.points
    )
    issues, _ = replay(datum.ambient, candidate, datum.slices)
    if issues:
        return InvalidEffect("new order breaks the slice replay: %s" % (issues[0],))
    return None


def assign_values(
    datum: MorseDatum, assignments: Mapping[str, Fraction], note: str = ""
) -> Tuple[MorseDatum, MoveRecord]:
    """Move any set of points to new values in one step.

    The workhorse behind rearrangement; drivers use single-point steps.
    Checks edge order and slice replay, nothing else: points with no flow
    line or surgery dependency between them may pass each other freely.

    Takes valid data only (``require_valid``).  The move is the run of one
    record (``_rearrange_run``), checked at the moved points alone and in
    the caller's order: UnknownId for any id first, then MoveError for the
    first value outside (0, 1).  Only the moved points are re-placed, by
    bisection, and the result stays valid.  A refused move raises the error
    ``check_assignment`` names for the datum's values updated with
    ``assignments``.
    """
    step = MoveRecord._trusted(  # raw values, made exact as it runs
        "rearrange", tuple(assignments), tuple(assignments.values()), note)
    out = _rearrange_run(datum, (step,))
    ids = tuple(sorted(assignments))
    return out, MoveRecord(
        "rearrange", ids, tuple(exact(assignments[i]) for i in ids), note)


def _rearrange_run(datum: MorseDatum, script: Iterable[MoveRecord]) -> MorseDatum:
    """The datum the rearrange records of ``script`` make, one after another:
    the left fold of single checked moves over them, in one pass.

    The one step checker of the package: ``assign_values``, script replay
    (``apply_script``) and the drivers' joinability and separation moves
    run through it, so every script a driver returns is checked step by
    step wherever it is replayed.  At the first record the run passes the
    gate (``require_valid``) and looks up the datum's indexes, once.  Each
    record raises UnknownId for an id the datum does not have, then
    MoveError for a value outside (0, 1), checked on ints.  It puts its
    (value, id) keys into the run's one overlay, over those of the steps
    before it, and each moved point is checked there, inline: its flow
    lines must stay uphill, the makers of its inputs must come before it
    and the users of its outputs after it.  On a valid datum every
    component id is made once and used at most once, so nothing else pins
    the replay order.  Records of any length take this one loop, which
    builds a one-point record no list, zip or key map.  The moved points
    are built at their keys and placed once, at the end (``splice``), and
    a run that moves nothing returns its input.  The result keeps every
    clause of ``validate_datum``: the rest does not look at the values,
    and with every component id made once and used once the top state and
    the flag union-find do not depend on the order.  A refused step raises
    what the fold raises: ``check_assignment`` on ``datum`` with its values
    updated by the whole overlay, which holds the earlier steps and every
    id of the refused record: the same value map as the datum the earlier
    steps made plus the record.
    """
    overlay = {}  # each moved point's key
    key = overlay.get

    def refused():
        values = datum.values()
        values.update((pid, at[1]) for pid, at in overlay.items())
        return check_assignment(datum, values)

    for record in script:
        if not overlay:  # the first record
            require_valid(datum)
            points = datum.point_index
            edges = datum.graph.edge_index
            out_edges, in_edges = edges.out_edges, edges.in_edges
            effects = datum.slices.effect_index
            producer, consumer, _ = datum.slices.component_index
        ids, values = record.ids, record.values
        for pid in ids:
            if pid not in points:
                raise UnknownId("no critical point with id %r" % (pid,))
        i = 0
        for pid in ids:
            v = values[i]
            i += 1
            if type(v) is not Fraction:  # a raw value of assign_values
                v = Fraction(v)
            num, den = v._numerator, v._denominator
            if not 0 < num < den:
                raise MoveError("target value %s for %r outside (0,1)" % (v, pid))
            overlay[pid] = (num / den, v, pid)  # order_key(v, pid)
        for pid in ids:
            at = overlay[pid]
            f, v = at[0], at[1]
            for e in out_edges.get(pid, ()):
                up = key(e.dst) or points[e.dst].sort_key()
                if not (f < up[0] or f == up[0] and v < up[1]):
                    raise refused()
            for e in in_edges.get(pid, ()):
                down = key(e.src) or points[e.src].sort_key()
                if not (down[0] < f or down[0] == f and down[1] < v):
                    raise refused()
            effect = effects[pid]
            for cid in effect.inputs:
                maker = producer[cid]
                if maker is not None and not (
                        key(maker) or points[maker].sort_key()) < at:
                    raise refused()
            for c in effect.outputs:
                user = consumer.get(c.id)
                if user is not None and not at < (
                        key(user) or points[user].sort_key()):
                    raise refused()
    if not overlay:
        return datum
    moved = [points[pid] for pid in overlay]
    placed = [CriticalPoint._trusted(p.id, p.kind, p.index, overlay[p.id]) for p in moved]
    return datum._built(splice(datum.points, moved, placed, CriticalPoint.sort_key),
                        datum.graph, datum.slices)


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


def apply_script(datum: MorseDatum, script: Iterable[MoveRecord]) -> MorseDatum:
    """Replay a script: each stretch of consecutive rearrangements as one
    ``_rearrange_run``, each stretch of consecutive splits as one
    ``_split_run``, and each cancel by ``cancel_pair``."""
    for kind, records in groupby(script, lambda r: r.kind):
        if kind == "rearrange":
            datum = _rearrange_run(datum, records)
        elif kind == "split":
            datum = _split_run(datum, [r.ids[0] for r in records])
        else:  # MoveRecord admits no other kind
            for record in records:
                datum, _ = cancel_pair(datum, *record.ids)
    return datum


# ---------------------------------------------------------------------------
# realization of a target configuration


def realize_configuration(
    datum: MorseDatum, targets: Mapping[str, Fraction]
) -> Tuple[MorseDatum, List[MoveRecord]]:
    """Rearrange until every point sits at its target value.

    The targets must form an admissible configuration (index order, and in
    codimension one just index monotonicity), keep every flow line running
    uphill, and put every surgery after its inputs exist: a legal map, as
    in the rearrangement theorem (Milnor, *Lectures on the h-cobordism
    theorem*, §4).  A legal map is always reached by the park and place
    strategy below: first lift all points, in their current order, into a
    band above everything, then bring them down to their targets from the
    bottom up.

    Takes valid data only (``require_valid``).  One pass over the targets
    checks each id, makes each value exact and works out its order key,
    once; it refuses, in this order, the first unknown id, the first point
    without a target and the first value outside (0, 1), then a map that is
    not admissible.  One sort of the keys, (value, id) order, serves the
    admissibility test (``_ordered``, one pass along it), the map check
    (``_swap_blocked``), the place records and the result, whose points
    are built in that order, so nothing is spliced or sorted.  A refused
    codimension-one map names its pair by ``first_inversion``.

    The map check is the one accepting check: a refused map raises the
    SwapBlocked it names, and an accepted one is not checked step by step
    again, because on a valid datum every step of the script passes the
    step check that replays it (``_rearrange_run``, ``apply_script``):

    * a park step lifts a point, the topmost first, to a slot above every
      current value and every target and below the slots of the points
      parked before it, so it keeps its side of every other point: its flow
      lines stay uphill and the makers of its inputs stay below it, the
      users of its outputs above it, as on the valid datum;
    * the place steps come in target-key order, bottom up.  When a point is
      placed, the points before it sit at their targets, below its own, and
      the others in the band, above it.  A legal map puts every lower
      neighbour (the source of a flow line into it, the maker of an input)
      before it in that order and every upper one (the end of a flow line
      out of it, the user of an output) after it, so each of them is on
      the side the step check asks for.

    The run's last overlay holds every point at its target, so its result
    is the datum built here.

    Raises SwapBlocked naming two points whose order cannot be flipped.
    """
    require_valid(datum)
    index, outside = datum.point_index, None
    ranks, keys = {}, {}  # order_key(v) and order_key(v, pid), one float each
    for pid, v in targets.items():
        if pid not in index:
            raise UnknownId("no critical point with id %r" % (pid,))
        v = exact(v)
        num, den = v._numerator, v._denominator
        if 0 < num < den:
            f = num / den
            ranks[pid], keys[pid] = (f, v), (f, v, pid)
        elif outside is None:
            outside = Inadmissible("target value %s for %r outside (0,1)" % (v, pid))
    if len(targets) < len(index):  # every target id is a distinct point's
        missing = next(p.id for p in datum.points if p.id not in targets)
        raise PartialConfiguration("no target value for point %r" % (missing,))
    if outside is not None:
        raise outside

    order = sorted(keys.values())  # the one sort, in (value, id) order
    deep = datum.ambient.codim >= 2
    if not _ordered(order, index, deep):
        if deep:
            raise Inadmissible("target configuration violates the index order")
        z, w = first_inversion(datum.points, ranks)
        raise Inadmissible(
            "codimension one targets must be index monotone (%s vs %s)" % (z.id, w.id)
        )

    if all(ranks[p.id] == p.sort_key()[:2] for p in datum.points):
        return datum, []

    blocked = _swap_blocked(datum, ranks, keys, order)
    if blocked is not None:
        raise blocked
    # park everything above current values and targets, preserving order,
    # the point in place i (canonical order) at slot i + 1 of count + 2
    ceiling = max(datum.points[-1].sort_key(), order[-1])[1]
    slots = spaced(ceiling, 1, len(datum.points) + 2)
    script = [  # topmost first, so nothing is overtaken
        MoveRecord._trusted("rearrange", (p.id,), (slot,), "park")
        for p, slot in reversed(list(zip(datum.points, slots)))
    ]
    # place from the bottom up, and build the points in the same order
    points = []
    for key in order:
        script.append(MoveRecord._trusted("rearrange", (key[2],), (key[1],), "place"))
        p = index[key[2]]
        points.append(CriticalPoint._trusted(p.id, p.kind, p.index, key))
    return datum._built(tuple(points), datum.graph, datum.slices), script


def _ordered(order, index: Mapping[str, CriticalPoint], deep: bool) -> bool:
    """Whether a target map, ``order`` its ``order_key``s with id in
    ascending order and ``index`` its points by id, is admissible: a lower
    index sits strictly lower, and when ``deep`` so does a boundary stable
    point below a boundary unstable one of equal index; equal-index,
    equal-value pairs are fine otherwise.

    Read in one pass along the sort: the index never falls and rises only
    onto a strictly higher (float, value) level, and when ``deep`` the
    same holds for (index, stable before unstable) of the boundary points.
    Then any two points of unequal rank have the lower one strictly lower,
    for a rise lies between them; and conversely an admissible map has no
    such fall or level rise between neighbours in the sort.  In
    codimension one this is ``first_inversion(...) is None``."""
    rank, wall = -1, (-1, False)  # below every index and (index, unstable)
    at = wall_at = (None, None)  # the key before, of any and of a boundary point
    for key in order:
        p = index[key[2]]
        if p.index != rank:
            if p.index < rank or (key[0] == at[0] and key[1] == at[1]):
                return False
            rank = p.index
        at = key
        if deep and p.kind is not Kind.INTERIOR:
            here = (p.index, p.kind is Kind.BOUNDARY_UNSTABLE)
            if here != wall:
                if here < wall or (key[0] == wall_at[0] and key[1] == wall_at[1]):
                    return False
                wall = here
            wall_at = key
    return True


def _swap_blocked(datum: MorseDatum, ranks: Mapping[str, tuple],
                  keys: Mapping[str, tuple], order) -> Optional[SwapBlocked]:
    """The SwapBlocked for an illegal target map of a valid datum, None for
    a legal one.  ``ranks`` and ``keys`` give the ``order_key`` of each
    target, without and with its id, and ``order`` the keys sorted.  It
    names the first flow line the map runs downhill, in edge order, else
    the first surgery, in (value, id) order, whose input is made at or
    above it.  Component ids are made once and wall bits are fixed per id,
    so only such a surgery breaks the replay of a map whose flow lines run
    uphill."""
    for e in datum.graph.edges:
        if not ranks[e.src] < ranks[e.dst]:
            return SwapBlocked(
                e.src, e.dst, "flow line %s->%s pins the order, targets invert it"
                % (e.src, e.dst)
            )
    producer = datum.slices.component_index.producer
    effects = datum.slices.effect_index
    for at in order:
        for cid in effects[at[2]].inputs:
            maker = producer[cid]
            if maker is not None and not keys[maker] < at:
                return SwapBlocked(
                    at[2], maker,
                    "surgery at %s needs a component made at %s, targets put "
                    "it below" % (at[2], maker),
                )
    return None


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

    Takes valid data only (``require_valid``).  Past the side conditions
    only the pair changes, and the result is patched there and built by
    ``MorseDatum._built``: the points lose z and w (``splice``), the graph
    their flow lines, and the complex their effects, with the one input of
    the final output's user renamed.  On a valid datum that keeps the replay,
    the top state and the flags as they were (the survivor lives on with
    the final output's wall bit, in the same piece), so only the induced
    flow lines are checked (``edge_issues``).
    """
    require_valid(datum)
    z, w = datum.point(z_id), datum.point(w_id)
    if z_id == w_id:
        raise MoveError("cancel_pair wants two distinct points")
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

    slices = datum.slices
    ez = slices.effect_for(z_id)
    ew = slices.effect_for(w_id)
    survivor, final = _inverse_pattern(z, ez, ew)
    _, consumer, bits = slices.component_index
    if bits[survivor] != bits[final]:
        raise InvalidEffect(
            "effects at %s and %s are not inverse: wall bits of %r and %r differ"
            % (z_id, w_id, survivor, final)
        )

    drop_effects, add_effects = [ez, ew], []
    user = consumer.get(final)
    if user is not None:
        e = slices.effect_index[user]
        drop_effects.append(e)
        inputs = tuple(survivor if cid == final else cid for cid in e.inputs)
        add_effects.append(ComponentEffect(e.at, e.kind, inputs, e.outputs))

    by_id, edges = datum.point_index, datum.graph.edge_index
    drop_edges = {e for pid in (z_id, w_id)
                  for e in edges.in_edges.get(pid, ()) + edges.out_edges.get(pid, ())}
    # in edge order, as lines into w come by source and out of z by target;
    # p == q would be a broken chain z -> p -> w, refused above
    induced = []
    for into_w in edges.in_edges.get(w_id, ()):
        if into_w.src == z_id:
            continue
        p = by_id[into_w.src]
        for from_z in edges.out_edges.get(z_id, ()):
            if from_z.dst == w_id or (p.id, from_z.dst) in edges.edge:
                continue
            q = by_id[from_z.dst]
            if not (p._float < q._float or p._float == q._float and p.value < q.value):
                continue  # flow runs uphill, so such a chain cannot survive
            if generic_disjoint(p, q, datum.ambient):
                continue
            if into_w.locus is Locus.WALL and from_z.locus is Locus.WALL:
                locus = Locus.WALL
            elif into_w.locus is Locus.INNER and from_z.locus is Locus.INNER:
                locus = Locus.INNER
            else:
                locus = Locus.MEMBRANE
            induced.append(FlowEdge(p.id, q.id, None, locus))
    for e in induced:
        issues = edge_issues(datum.ambient, by_id[e.src], by_id[e.dst], e)
        if issues:
            raise InvalidEffect(
                "cancellation would leave inconsistent data: %s" % (issues[0],)
            )

    out = datum._built(
        splice(datum.points, (z, w), (), CriticalPoint.sort_key),
        datum.graph._patched(drop_edges, induced),
        slices._patched(drop_effects, add_effects),
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
    The datum's indexes are looked up once per run, and each split does
    O(deg z) work: joinability is read off the wall bits of z's inputs,
    z's place, and so its gap, off the place index (built once per datum)
    and z's flow lines off the graph's, and the overlay is written
    directly.  Each split is judged by ``_splits_locally`` alone and
    refused in place, with the class and message the fold raises: the
    overlay answers every question the fold asks of its datum as that
    datum does.

    The pieces of a split are built unchecked (``_trusted``): the halves'
    ids are fresh, their kinds and index z's, and their values lie
    strictly inside the gap around z, whose ends the run has found unequal
    to z's value; the moved flow lines keep the counts and loci of valid
    ones; the attach effects and the tongue come from ``_split_effects``.
    Each moved line's far end is the point the run holds for it: the
    datum's, or the near half of a pair to which an earlier split traded
    the line.  Trading renames an end, so only then are z's lines sorted
    again into edge order.  ``_splits_locally`` then judges the pair as a
    whole, from those points and the halves.

    The run gathers every dropped and added flow line and effect and
    patches once, at the end; the patched graph and slice complex build
    their indexes when first asked.  The points are built from the
    datum's by slices between the split points' places, each split point
    replaced by its pair, stable half first: the pair lies strictly inside
    the point's gap, so it takes the point's place in the sorted order and
    nothing is spliced or sorted.  The result is built by
    ``MorseDatum._built``, marked ``valid``.
    """
    ids = tuple(ids)
    if not ids:
        return datum
    require_valid(datum)
    ambient = datum.ambient
    n = ambient.n
    points, place = datum.points, datum.place_index
    last = len(points) - 1
    edges, slices = datum.graph.edge_index, datum.slices
    in_edges, out_edges = edges.in_edges, edges.out_edges
    effects = slices.effect_index
    # wall bits as the run leaves them: a tongue is no interior point's input
    producer, consumer, bits = slices.component_index
    pairs: Dict[str, Tuple[CriticalPoint, CriticalPoint]] = {}  # by split id
    halves: Dict[str, CriticalPoint] = {}
    made: Dict[str, str] = {}  # component id -> its new maker
    used: Dict[str, str] = {}  # component id -> its new user
    drop_edges, add_edges = [], {}
    drop_effects, add_effects = [], []

    def point(pid):  # a maker's or user's point as the run leaves it, or None
        # (a split point's makes and uses are in ``made`` and ``used``)
        return None if pid is None else halves.get(pid) or points[place[pid]]

    def maker(cid):
        return point(made.get(cid) or producer.get(cid))

    def user(cid):
        return point(used.get(cid) or consumer.get(cid))

    for z_id in ids:
        # the point the splits so far leave at z_id: a half, none for a
        # split point, else the datum's
        z, i = halves.get(z_id), None
        if z is None and z_id not in pairs:
            i = place.get(z_id)
            if i is not None:
                z = points[i]
        if z is None:
            raise UnknownId("no critical point with id %r" % (z_id,))
        if z.kind is not Kind.INTERIOR:  # a half, or a boundary point
            raise NotInterior("point %r is not interior" % (z_id,))
        if not (1 <= z.index <= n):
            raise ExtremalIndex(
                "split applies to indices 1..%d, point %r has index %d"
                % (n, z_id, z.index)
            )
        effect = effects[z_id]  # an unsplit point keeps its effect
        state = {}  # the wall bits of z's inputs, live just below z
        for cid in effect.inputs:
            state[cid] = bits[cid]
        if True not in state.values():
            raise NotJoinable(
                "the surgery at %r happens away from the wall" % (z_id,)
            )
        # z's neighbours in the datum; a split neighbour's near half is next
        v, below, above = z.value, _ZERO, _ONE
        if i:
            y = points[i - 1]
            pair = pairs.get(y.id)
            below = pair[1].value if pair else y.value
        if i < last:
            y = points[i + 1]
            pair = pairs.get(y.id)
            above = pair[0].value if pair else y.value
        num, den = v._numerator, v._denominator
        if (num * below._denominator == below._numerator * den
                or num * above._denominator == above._numerator * den):
            raise MoveError(
                "point %r shares its critical value; separate the points first"
                % (z_id,)
            )
        # thirds above, halves below: pairs never collide
        v_s, v_u = between(below, v, 1, 2), between(v, above, 1, 3)

        zs_id, zu_id = z_id + "s", z_id + "u"
        while zs_id in halves or zs_id in place and zs_id not in pairs:
            zs_id += "_"
        while zu_id in halves or zu_id in place and zu_id not in pairs:
            zu_id += "_"
        zs = CriticalPoint._trusted(zs_id, Kind.BOUNDARY_STABLE, z.index,
                                    (v_s._numerator / v_s._denominator, v_s))
        zu = CriticalPoint._trusted(zu_id, Kind.BOUNDARY_UNSTABLE, z.index,
                                    (v_u._numerator / v_u._denominator, v_u))

        # the first c<i> no component carries, from i = the number of
        # components made so far: the datum's and one tongue per split
        j = len(producer) + len(pairs)
        while "c%d" % j in producer or "c%d" % j in made:
            j += 1
        e_s, e_u = _split_effects(effect, bits, zs_id, zu_id, "c%d" % j, maker, user)

        # z's flow lines moved to the pair, each with its two ends, in edge
        # order; a line traded by an earlier split comes out of add_edges
        lines, traded = [], False
        for e in in_edges.get(z_id, ()):
            pair = pairs.get(e.src)
            if pair is None:
                drop_edges.append(e)
                src = points[place[e.src]]
            else:
                src, traded = pair[1], True
                del add_edges[src.id, z_id]
            lines.append((src, zs, FlowEdge._trusted(src.id, zs_id, e.count, e.locus)))
        if traded:
            lines.sort(key=lambda line: line[0].id)
        into, traded = len(lines), False
        for e in out_edges.get(z_id, ()):
            pair = pairs.get(e.dst)
            if pair is None:
                drop_edges.append(e)
                dst = points[place[e.dst]]
            else:
                dst, traded = pair[0], True
                del add_edges[z_id, dst.id]
            lines.append((zu, dst, FlowEdge._trusted(zu_id, dst.id, e.count, e.locus)))
        if traded:
            lines[into:] = sorted(lines[into:], key=lambda line: line[1].id)
        lines.append((zs, zu, FlowEdge._trusted(zs_id, zu_id, 1, Locus.WALL)))

        issue = _splits_locally(ambient, lines, ((zs, e_s), (zu, e_u)), state)
        if issue is not None:
            raise InvalidEffect(
                "splitting would leave inconsistent data: %s" % (issue,)
            )
        pairs[z_id] = zs, zu
        halves[zs_id] = zs
        halves[zu_id] = zu
        for _, _, e in lines:
            add_edges[e.src, e.dst] = e
        drop_effects.append(effect)
        add_effects += (e_s, e_u)
        for e in (e_s, e_u):
            at = e.at
            for c in e.outputs:
                made[c.id] = at
            for cid in e.inputs:
                used[cid] = at

    placed, start = [], 0  # each pair in its point's place (see the docstring)
    for i in sorted(map(place.__getitem__, pairs)):
        placed += points[start:i]
        placed += pairs[points[i].id]
        start = i + 1
    placed += points[start:]
    return datum._built(
        tuple(placed),
        datum.graph._patched(drop_edges, add_edges.values()),
        slices._patched(drop_effects, add_effects),
    )


def _splits_locally(ambient, lines, attaches, state):
    """The first issue of a split of a valid datum, or None when the result
    is valid, judged by the pair alone in O(deg z).  ``lines`` holds each
    flow line touching the pair, the new wall line included, as
    ``(source point, target point, line)``; ``attaches`` holds the two
    halves, each with its attach effect, stable half first; ``state`` maps
    each input of z to its wall bit, and the check applies the pair to it.
    The run hands over the points it holds: no end is looked up again.

    Every line must pass ``edge_issues``; the other lines and points are as
    before, and with every line uphill there is no cycle.  The two attach
    effects must pass their rows of the validity table and apply in turn
    to the wall bits of z's inputs, which on a valid datum are the
    components live just below z.  The pair sits in z's gap and leaves the
    state above z as it was, so the rest of the replay, the top state and
    the flags do not change: the fresh component touches the wall inside
    z's piece, which reaches it already.  The pair's indices are z's, in
    range for both boundary kinds.  On a valid datum a joinable point's
    pair always passes; the check guards the verdict cached on the result.
    The first issue is the first of the lines' issues, in order, and then
    of the effects' rows and replay, so the check stops at it.
    """
    for src, dst, e in lines:
        issues = edge_issues(ambient, src, dst, e)
        if issues:
            return issues[0]
    try:
        for half, e in attaches:
            issues = effect_row_issues(half, ambient.n, e, state)
            if issues:
                return issues[0]
            apply_effect(state, e)
    except InvalidEffect as exc:
        return str(exc)
    return None


# the ends of [0, 1] as values, and the keys of a component made below
# every point and of one never used
_ZERO, _ONE = Fraction(0), Fraction(1)
_BOTTOM_KEY, _NEVER_KEY = order_key(_ZERO, ""), order_key(_ONE, "")


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
    split, so nothing else comes here.  Each effect takes ids of z's valid
    effect, each once, and ``mid``, which no component carries, so no
    input or output repeats: the pair and the tongue are built unchecked
    (``_trusted``).
    """
    mid_comp = SliceComponent._trusted(mid, True)

    def produced_at(cid):  # bottom components first, then in point order
        owner = maker(cid)
        return _BOTTOM_KEY if owner is None else owner.sort_key()

    if effect.kind is EffectKind.MERGE:
        touching = [cid for cid in effect.inputs if bits.get(cid, False)]
        witness = touching[0] if len(touching) == 1 else max(
            touching, key=lambda cid: (produced_at(cid), cid))
        other = [cid for cid in effect.inputs if cid != witness][0]
        e_s = ComponentEffect._trusted(
            zs_id, EffectKind.BOUNDARY_ATTACH, (other,), (mid_comp,)
        )
        e_u = ComponentEffect._trusted(
            zu_id, EffectKind.BOUNDARY_ATTACH, (witness, mid), effect.outputs
        )
        return e_s, e_u
    if effect.kind is EffectKind.INTERNAL:
        e_s = ComponentEffect._trusted(
            zs_id, EffectKind.BOUNDARY_ATTACH, effect.inputs, (mid_comp,)
        )
        e_u = ComponentEffect._trusted(
            zu_id, EffectKind.BOUNDARY_ATTACH, (mid,), effect.outputs
        )
        return e_s, e_u
    # a split
    outs = list(effect.outputs)
    touching = [c for c in outs if c.touches_wall]
    if len(touching) == 1:
        direct = touching[0]  # the closed half must ride the unstable side
    else:  # the output used first, outputs never used last
        users = [user(c.id) for c in outs]
        used_at = [_NEVER_KEY if p is None else p.sort_key() for p in users]
        direct = outs[used_at.index(min(used_at))]
    other = [c for c in outs if c.id != direct.id][0]
    e_s = ComponentEffect._trusted(
        zs_id, EffectKind.BOUNDARY_ATTACH, effect.inputs, (direct, mid_comp)
    )
    e_u = ComponentEffect._trusted(zu_id, EffectKind.BOUNDARY_ATTACH, (mid,), (other,))
    return e_s, e_u
