"""Level set components and how crossing a critical value changes them.

A datum stores the components of the bottom level set plus one effect per
critical point.  Replaying the effects in (value, id) order reconstructs
every intermediate level set, so nothing else needs to be stored and two
data that agree on bottom and effects agree on every slice.

Each component carries a single bit: whether it touches the vertical
boundary wall.  Component ids are globally fresh (an id is born once and
dies once), which makes the connected components of the whole cobordism
computable by a union-find over the effects.

Which effect a point may carry depends only on its (kind, index) cell, on
n and on the effect's kind and numbers of inputs and outputs; only the wall
bits vary from one effect to the next.  So each such row of the validity
table is worked out once into a shape (``_row_shape``), and checking an
effect (``effect_row_issues``) is one lookup plus a look at its bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import (
    InvalidEffect,
    NotInterior,
    UnknownId,
    ValidationError,
)
from .morse_data import (
    _ID_RE,
    Ambient,
    CriticalPoint,
    Kind,
    splice,
)


class EffectKind(str, enum.Enum):
    BIRTH = "birth"
    DEATH = "death"
    MERGE = "merge"
    SPLIT = "split"
    INTERNAL = "internal"
    BOUNDARY_ATTACH = "boundary_attach"


@dataclass(frozen=True)
class SliceComponent:
    """One connected component of a level set."""

    id: str
    touches_wall: bool

    def __post_init__(self):
        if not _ID_RE.match(self.id or ""):
            raise ValidationError("bad component id %r" % (self.id,))
        object.__setattr__(self, "touches_wall", bool(self.touches_wall))

    @staticmethod
    def _trusted(cid: str, touches_wall: bool) -> "SliceComponent":
        """``SliceComponent(cid, touches_wall)`` for a caller that has made
        its checks: ``cid`` passes ``_ID_RE`` and ``touches_wall`` is a
        bool.  A split's tongue is ``c<j>`` with the bit True
        (``moves._split_effects``); a parsed component's match proves the
        same (``cli_io``).  Fields go in one by one, as in __init__."""
        out, put = object.__new__(SliceComponent), object.__setattr__
        put(out, "id", cid)
        put(out, "touches_wall", touches_wall)
        return out


@dataclass(frozen=True)
class ComponentEffect:
    """What crossing one critical value does to the level set components.

    ``inputs`` lists ids of components that stop existing, ``outputs`` the
    fresh components that appear (with their wall bit).
    """

    at: str
    kind: EffectKind
    inputs: Tuple[str, ...]
    outputs: Tuple[SliceComponent, ...]

    def __post_init__(self):
        if type(self.kind) is not EffectKind:  # a parsed effect's is kept
            object.__setattr__(self, "kind", EffectKind(self.kind))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(set(self.inputs)) != len(self.inputs):
            raise ValidationError("effect at %r repeats an input" % (self.at,))
        out_ids = [c.id for c in self.outputs]
        if len(set(out_ids)) != len(out_ids):
            raise ValidationError("effect at %r repeats an output" % (self.at,))

    @staticmethod
    def _trusted(at: str, kind: EffectKind, inputs: tuple, outputs: tuple
                 ) -> "ComponentEffect":
        """``ComponentEffect(at, kind, inputs, outputs)`` for a caller that
        has made its checks: ``kind`` is an ``EffectKind``, ``inputs`` a
        tuple of ids and ``outputs`` a tuple of ``SliceComponent``s, and
        neither repeats an id.  A split's attach pair takes its ids from z's
        effect in a valid datum, each once, and the fresh tongue id, which
        no component carries (``moves._split_effects``); ``_splits_locally``
        then applies the pair to the live state.  A parsed effect's match and
        its repeat test prove the same (``cli_io``).  Fields go in one by
        one, as ``__post_init__`` leaves them."""
        out, put = object.__new__(ComponentEffect), object.__setattr__
        put(out, "at", at)
        put(out, "kind", kind)
        put(out, "inputs", inputs)
        put(out, "outputs", outputs)
        return out

    def output_ids(self):
        return tuple(c.id for c in self.outputs)


def _effect_at(e: ComponentEffect) -> str:
    return e.at


class ComponentIndex(NamedTuple):
    """Where each component id of a slice complex starts and ends.

    ``producer`` maps every id to the point whose effect makes it (None for
    a bottom component) and ``wall_bit`` to its wall bit.  ``consumer`` maps
    an id to the point whose effect takes it as input.
    """

    producer: Dict[str, Optional[str]]
    consumer: Dict[str, str]
    wall_bit: Dict[str, bool]


@dataclass(frozen=True)
class SliceComplex:
    """Bottom level set components plus one effect per critical point.

    Both indexes below are built on first use and kept: the complex is
    immutable, and a rearrangement keeps the complex it started from, so
    every move of a session shares them.  A complex made by ``_patched``
    (a run of splits) builds its own the same way.
    """

    bottom: Tuple[SliceComponent, ...]
    effects: Tuple[ComponentEffect, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "bottom", tuple(sorted(self.bottom, key=lambda c: c.id))
        )
        object.__setattr__(
            self, "effects", tuple(sorted(self.effects, key=lambda e: e.at))
        )
        seen = set()
        for e in self.effects:
            if e.at in seen:
                raise ValidationError("two effects at point %r" % (e.at,))
            seen.add(e.at)

    def _patched(self, drop, add) -> "SliceComplex":
        """This complex without the effects ``drop`` and with ``add``, for
        a move of valid data: as ``TrajectoryGraph._patched``."""
        out = object.__new__(SliceComplex)
        vars(out).update(
            bottom=self.bottom, effects=splice(self.effects, drop, add, _effect_at)
        )
        return out

    @cached_property
    def effect_index(self) -> Dict[str, ComponentEffect]:
        """Effect by point id."""
        return {e.at: e for e in self.effects}

    @cached_property
    def component_index(self) -> ComponentIndex:
        index = ComponentIndex(
            {c.id: None for c in self.bottom},
            {},
            {c.id: c.touches_wall for c in self.bottom},
        )
        producer, consumer, wall_bit = index
        for e in self.effects:
            for c in e.outputs:
                producer[c.id] = e.at
                wall_bit[c.id] = c.touches_wall
            for cid in e.inputs:
                consumer.setdefault(cid, e.at)
        return index

    def effect_for(self, point_id: str) -> ComponentEffect:
        """The effect at a point: one lookup in ``effect_index``.

        Replay calls this once per point, so a full replay is O(P).  The
        moves take valid data only, and an accepted rearrangement or split
        needs no replay at all.
        """
        try:
            return self.effect_index[point_id]
        except KeyError:
            raise UnknownId("no effect recorded at point %r" % (point_id,)) from None


def apply_effect(state: Dict[str, bool], effect: ComponentEffect) -> Dict[str, bool]:
    """Apply one effect to a live-component state (id -> wall bit) in place.

    Checks every input and output first, so a refused effect leaves the
    state as it was; returns the same dict.
    """
    for cid in effect.inputs:
        if cid not in state:
            raise InvalidEffect(
                "effect at %r consumes missing component %r" % (effect.at, cid)
            )
    for comp in effect.outputs:
        if comp.id in state and comp.id not in effect.inputs:
            raise InvalidEffect(
                "effect at %r rebuilds live component %r" % (effect.at, comp.id)
            )
    for cid in effect.inputs:
        del state[cid]
    for comp in effect.outputs:
        state[comp.id] = comp.touches_wall
    return state


# interior effects: (inputs, outputs, name, wall rule).  Every interior
# surgery keeps wall contact: some output touches the wall exactly when some
# input does, so a birth is closed and only a closed component dies.
_INTERIOR_ROWS = {
    EffectKind.BIRTH: (0, 1, "birth", "a newborn sphere cannot touch the wall"),
    EffectKind.DEATH: (1, 0, "death", "only a closed component can die"),
    EffectKind.MERGE: (2, 1, "merge", "wall bit must be the or of the inputs"),
    EffectKind.INTERNAL: (
        1, 1, "internal surgery", "internal surgery keeps the wall bit"
    ),
    EffectKind.SPLIT: (
        1, 2, "split", "outputs must carry the input's wall bit between them"
    ),
}


# the wall-bit rule of a row shape: some output touches the wall exactly
# when some input does (interior), every output touches (stable attach),
# every input touches (unstable attach), and a merge keeps the bit too
_UNION, _OUTPUTS_TOUCH, _INPUTS_TOUCH, _MERGE_KEEPS = range(4)


@lru_cache(maxsize=4096)  # far more than the rows of any n in use
def _row_shape(kind: Kind, k: int, n: int, effect_kind: EffectKind,
               n_in: int, n_out: int):
    """The shape of the validity table's row for an effect of ``effect_kind``
    with ``n_in`` inputs and ``n_out`` outputs at a point of ``kind`` and
    index ``k`` (any, in range or not) in dimension n: ``(issues, rule,
    message)``.  ``issues`` are the row's issues that do not depend on wall
    bits, ``rule`` is the wall-bit rule checked after them (None for none)
    and ``message`` the issue of a broken interior union (``_INTERIOR_ROWS``).
    """
    if kind is Kind.INTERIOR:
        legal_at = {
            EffectKind.BIRTH: k == 0,
            EffectKind.DEATH: k == n + 1,
            EffectKind.MERGE: k == 1,
            EffectKind.INTERNAL: 1 <= k <= n,
            EffectKind.SPLIT: k == n,
        }
        if not legal_at.get(effect_kind, False):
            issue = "not a legal effect for an interior point of index %d" % k
            return (issue,), None, None
        want_in, want_out, name, rule = _INTERIOR_ROWS[effect_kind]
        if (n_in, n_out) != (want_in, want_out):
            return ("%s is %d -> %d" % (name, want_in, want_out),), None, None
        return (), _UNION, rule

    # boundary point: must be an attach effect
    if effect_kind is not EffectKind.BOUNDARY_ATTACH:
        return ("boundary points carry attach effects only",), None, None
    issues = []
    if kind is Kind.BOUNDARY_STABLE:
        if n_in != 1:
            issues.append("a stable attach consumes exactly one component")
        if n_out not in (1, 2):
            issues.append("a stable attach emits one or two components")
        elif n_out == 2 and k != n:
            issues.append("a stable attach splits only at index n (= %d)" % n)
        return tuple(issues), _OUTPUTS_TOUCH, None
    # boundary unstable
    if n_out != 1:
        issues.append("an unstable attach emits exactly one component")
    if n_in not in (1, 2):
        issues.append("an unstable attach consumes one or two components")
    elif n_in == 2 and k != 1:
        issues.append("an unstable attach merges only at index 1 (got %d)" % k)
    merge = n_in == 2 and n_out == 1
    return tuple(issues), _MERGE_KEEPS if merge else _INPUTS_TOUCH, None


def effect_row_issues(
    point: CriticalPoint, n: int, effect: ComponentEffect, state: Dict[str, bool]
) -> list:
    """Check one effect against the validity table for its point.

    ``state`` is the live-component state just below the point.  The wall
    bits propagate by union: merges and internal surgeries keep the bit,
    splits distribute it, births are closed, deaths need a closed input.
    Boundary points use attach effects; their outputs touch the wall, with
    one exception each way: a boundary stable point may grab a component
    that does not yet touch, and a boundary unstable point may release one
    that no longer does.

    The row's issues that do not depend on wall bits and its wall-bit rule
    are one lookup of its cached shape (``_row_shape``); only the bits that
    rule reads are read here.
    """
    inputs, outputs = effect.inputs, effect.outputs
    issues, rule, message = _row_shape(
        point.kind, point.index, n, effect.kind, len(inputs), len(outputs))
    if rule == _UNION:  # a legal interior row, with nothing else to report
        touches = fed = False
        for c in outputs:
            touches = touches or c.touches_wall
        for cid in inputs:
            fed = fed or state.get(cid, False)
        return [] if touches == fed else _tagged(point, effect, [message])
    issues = list(issues)
    if rule == _OUTPUTS_TOUCH:
        for comp in outputs:
            if not comp.touches_wall:
                issues.append(
                    "stable attach outputs touch the wall (got %r closed)" % (comp.id,)
                )
    elif rule is not None:  # an unstable attach
        for cid in inputs:
            if not state.get(cid, False):
                issues.append(
                    "unstable attach inputs touch the wall (got %r closed)" % (cid,)
                )
        if rule == _MERGE_KEEPS and not outputs[0].touches_wall:
            issues.append("merging two wall components keeps the wall bit")
    return _tagged(point, effect, issues)


def _tagged(point, effect, issues):
    """``issues`` of the effect at ``point``, each tagged with the point and
    the effect kind; the tag is only written when there is an issue."""
    if not issues:
        return issues
    tag = "effect at %s (%s)" % (point.id, effect.kind.value)
    return ["%s: %s" % (tag, issue) for issue in issues]


def replay(ambient: Ambient, points, complex: SliceComplex):
    """Replay the effects of the given points in (value, id) order.

    Returns (issues, state): the state is the live components (id -> wall
    bit) above the last point replayed.  Stops at the first structural
    failure, reporting it as an issue.
    """
    issues = []
    state = {c.id: c.touches_wall for c in complex.bottom}
    for p in sorted(points, key=CriticalPoint.sort_key):
        try:
            effect = complex.effect_for(p.id)
        except UnknownId:
            issues.append("point %s has no slice effect" % (p.id,))
            return issues, state
        issues.extend(effect_row_issues(p, ambient.n, effect, state))
        try:
            apply_effect(state, effect)
        except InvalidEffect as exc:
            issues.append(str(exc))
            return issues, state
    return issues, state


def slice_issues(points, complex: SliceComplex, replay_issues) -> list:
    """Invariant report for the slice complex against the given points.

    ``replay_issues`` are the issues of ``replay`` on the same points and
    complex; they close the report.
    """
    issues = []
    point_ids = {p.id for p in points}
    for e in complex.effects:
        if e.at not in point_ids:
            issues.append("effect at unknown point %r" % (e.at,))

    # component ids are born exactly once, across the whole datum
    born = {}
    for c in complex.bottom:
        born[c.id] = "bottom"
    for e in complex.effects:
        for c in e.outputs:
            if c.id in born:
                issues.append(
                    "component id %r reused at %s (first seen at %s)"
                    % (c.id, e.at, born[c.id])
                )
            born[c.id] = e.at
    return issues + list(replay_issues)


def flag_issues(complex: SliceComplex, flags, final: Dict[str, bool]) -> list:
    """Check the asserted no-closed-component flags against the effects.

    ``final`` is the top state of a replay that reported no issues.
    """
    issues = []
    if flags.no_closed_bottom:
        for c in complex.bottom:
            if not c.touches_wall:
                issues.append(
                    "flag no_closed_bottom but bottom component %r is closed" % (c.id,)
                )
    if flags.no_closed_top:
        for cid in sorted(cid for cid, touches in final.items() if not touches):
            issues.append("flag no_closed_top but top component %r is closed" % (cid,))

    if flags.no_closed_cobordism:
        # Union-find over component lifetimes: every effect glues together
        # all components it involves.  A class with no wall contact that
        # also avoids bottom and top would be a closed piece of cobordism.
        # Effects come in point order, not replay order, so a component may
        # be used before its maker is reached: only roots get a parent.  A
        # root is found inline, not by a call per lookup: an id without a
        # parent is a root, and the path is halved on the way.
        parent: Dict[str, str] = {}
        wall_bit = {c.id: c.touches_wall for c in complex.bottom}
        for e in complex.effects:
            ids = list(e.inputs)
            for c in e.outputs:
                wall_bit[c.id] = c.touches_wall
                ids.append(c.id)
            glue = None  # at an unknown point an effect may glue nothing
            for cid in ids:
                root, up = cid, parent.get(cid, cid)
                while up != root:
                    parent[root] = top = parent.get(up, up)  # skip a step
                    root, up = top, parent.get(top, top)
                if glue is None:
                    glue = root
                elif root != glue:
                    parent[root] = glue
        root_of = {}
        for cid in (*wall_bit, *final):
            root, up = cid, parent.get(cid, cid)
            while up != root:
                parent[root] = top = parent.get(up, up)
                root, up = top, parent.get(top, top)
            root_of[cid] = root
        open_roots = {root_of[cid] for cid, touches in wall_bit.items() if touches}
        open_roots.update(root_of[c.id] for c in complex.bottom)
        open_roots.update(root_of[cid] for cid in final)
        closed = sorted(cid for cid in wall_bit if root_of[cid] not in open_roots)
        for cid in closed:
            issues.append(
                "flag no_closed_cobordism but component %r sits in a closed piece"
                % (cid,)
            )
    return issues


def joinable_to_wall(ambient: Ambient, points, complex: SliceComplex, point_id: str):
    """Whether the surgery at an interior point happens on a wall component.

    True when some input of the point's effect touches the wall just below
    the point, found by replaying the points below it.  Births join
    nothing, deaths consume closed components, so both come out False.
    Raises NotInterior for boundary points, and ValidationError when the
    replay below the point fails.
    """
    target = next((p for p in points if p.id == point_id), None)
    if target is None:
        raise UnknownId("no critical point with id %r" % (point_id,))
    if target.kind is not Kind.INTERIOR:
        raise NotInterior("point %r is a boundary point" % (point_id,))
    below = [p for p in points if p.sort_key() < target.sort_key()]
    issues, state = replay(ambient, below, complex)
    if issues:
        raise ValidationError("slice replay failed", issues=issues)
    effect = complex.effect_for(point_id)
    return any(state.get(cid, False) for cid in effect.inputs)
