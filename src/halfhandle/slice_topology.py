"""Level set components and how crossing a critical value changes them.

A datum stores the components of the bottom level set plus one effect per
critical point.  Replaying the effects in (value, id) order reconstructs
every intermediate level set, so nothing else needs to be stored and two
data that agree on bottom and effects agree on every slice.

Each component carries a single bit: whether it touches the vertical
boundary wall.  Component ids are globally fresh (an id is born once and
dies once), which makes the connected components of the whole cobordism
computable by a union-find over the effects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import (
    CriticalLevel,
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
    built_indexes,
    parent_index,
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
        object.__setattr__(self, "kind", EffectKind(self.kind))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(set(self.inputs)) != len(self.inputs):
            raise ValidationError("effect at %r repeats an input" % (self.at,))
        out_ids = [c.id for c in self.outputs]
        if len(set(out_ids)) != len(out_ids):
            raise ValidationError("effect at %r repeats an output" % (self.at,))

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
    (a run of splits) builds them by patching its parent's indexes instead.
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
        a move of valid data: as ``TrajectoryGraph._patched``, for both
        indexes of this complex that are built."""
        out = object.__new__(SliceComplex)
        vars(out).update(
            bottom=self.bottom,
            effects=splice(self.effects, drop, add, _effect_at),
            _moved=(tuple(drop), tuple(add)),
            _parents=built_indexes(self, ("effect_index", "component_index")),
        )
        return out

    @cached_property
    def effect_index(self) -> Dict[str, ComponentEffect]:
        """Effect by point id."""
        parent = parent_index(self, "effect_index")
        if parent is None:
            return {e.at: e for e in self.effects}
        drop, add = self._moved
        index = dict(parent)
        for e in drop:
            del index[e.at]
        index.update((e.at, e) for e in add)
        return index

    @cached_property
    def component_index(self) -> ComponentIndex:
        parent = parent_index(self, "component_index")
        if parent is None:
            index = ComponentIndex(
                {c.id: None for c in self.bottom},
                {},
                {c.id: c.touches_wall for c in self.bottom},
            )
            drop, add = (), self.effects
        else:
            index = ComponentIndex(*(dict(part) for part in parent))
            drop, add = self._moved
        producer, consumer, wall_bit = index
        for e in drop:
            for c in e.outputs:
                del producer[c.id], wall_bit[c.id]
            for cid in e.inputs:
                if consumer.get(cid) == e.at:
                    del consumer[cid]
        for e in add:
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


@dataclass(frozen=True)
class Slice:
    """Components of every level set in an open interval of regular values."""

    lo: Fraction
    hi: Fraction
    components: Tuple[SliceComponent, ...]


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
    """
    issues = []
    tag = "effect at %s (%s)" % (point.id, effect.kind.value)

    def flag(cid):
        return state.get(cid, False)

    k = point.index
    kind = effect.kind
    n_in, n_out = len(effect.inputs), len(effect.outputs)

    if point.kind is Kind.INTERIOR:
        legal_at = {
            EffectKind.BIRTH: k == 0,
            EffectKind.DEATH: k == n + 1,
            EffectKind.MERGE: k == 1,
            EffectKind.INTERNAL: 1 <= k <= n,
            EffectKind.SPLIT: k == n,
        }
        if not legal_at.get(kind, False):
            issues.append(
                "%s: not a legal effect for an interior point of index %d" % (tag, k)
            )
            return issues
        want_in, want_out, name, rule = _INTERIOR_ROWS[kind]
        if (n_in, n_out) != (want_in, want_out):
            issues.append("%s: %s is %d -> %d" % (tag, name, want_in, want_out))
        elif any(c.touches_wall for c in effect.outputs) != any(
            flag(cid) for cid in effect.inputs
        ):
            issues.append("%s: %s" % (tag, rule))
        return issues

    # boundary point: must be an attach effect
    if kind is not EffectKind.BOUNDARY_ATTACH:
        issues.append("%s: boundary points carry attach effects only" % tag)
        return issues
    if point.kind is Kind.BOUNDARY_STABLE:
        if n_in != 1:
            issues.append("%s: a stable attach consumes exactly one component" % tag)
        if n_out not in (1, 2):
            issues.append("%s: a stable attach emits one or two components" % tag)
        elif n_out == 2 and k != n:
            issues.append(
                "%s: a stable attach splits only at index n (= %d)" % (tag, n)
            )
        for comp in effect.outputs:
            if not comp.touches_wall:
                issues.append(
                    "%s: stable attach outputs touch the wall (got %r closed)"
                    % (tag, comp.id)
                )
    else:  # boundary unstable
        if n_out != 1:
            issues.append("%s: an unstable attach emits exactly one component" % tag)
        if n_in not in (1, 2):
            issues.append(
                "%s: an unstable attach consumes one or two components" % tag
            )
        elif n_in == 2 and k != 1:
            issues.append(
                "%s: an unstable attach merges only at index 1 (got %d)" % (tag, k)
            )
        for cid in effect.inputs:
            if not flag(cid):
                issues.append(
                    "%s: unstable attach inputs touch the wall (got %r closed)"
                    % (tag, cid)
                )
        if n_in == 2 and n_out == 1 and not effect.outputs[0].touches_wall:
            issues.append("%s: merging two wall components keeps the wall bit" % tag)
    return issues


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
        for cid, touches in sorted(final.items()):
            if not touches:
                issues.append(
                    "flag no_closed_top but top component %r is closed" % (cid,)
                )

    if flags.no_closed_cobordism:
        # Union-find over component lifetimes: every effect glues together
        # all components it involves.  A class with no wall contact that
        # also avoids bottom and top would be a closed piece of cobordism.
        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        wall_bit = {c.id: c.touches_wall for c in complex.bottom}
        for e in complex.effects:
            for c in e.outputs:
                wall_bit[c.id] = c.touches_wall
        for e in complex.effects:
            involved = list(e.inputs) + [c.id for c in e.outputs]
            for a, b in zip(involved, involved[1:]):
                union(a, b)
        open_roots = set()
        for c in complex.bottom:
            open_roots.add(find(c.id))
        for cid in final:
            open_roots.add(find(cid))
        for cid, touches in wall_bit.items():
            if touches:
                open_roots.add(find(cid))
        closed = sorted(
            cid for cid in wall_bit if find(cid) not in open_roots
        )
        for cid in closed:
            issues.append(
                "flag no_closed_cobordism but component %r sits in a closed piece"
                % (cid,)
            )
    return issues


def state_at_level(ambient: Ambient, points, complex: SliceComplex, level: Fraction):
    """Live components at a regular level strictly inside (0,1)."""
    level = Fraction(level)
    if not (0 < level < 1):
        raise ValidationError("level %s outside (0,1)" % (level,))
    for p in points:
        if p.value == level:
            raise CriticalLevel("level %s is the critical value of %s" % (level, p.id))
    state = {c.id: c.touches_wall for c in complex.bottom}
    for p in sorted(points, key=lambda q: q.sort_key()):
        if p.value > level:
            break
        apply_effect(state, complex.effect_for(p.id))
    return state


def level_slices(ambient: Ambient, points, complex: SliceComplex):
    """All distinct slices, as intervals of regular values with components."""
    ordered = sorted(points, key=lambda p: p.sort_key())
    cuts = [Fraction(0)]
    for p in ordered:
        if p.value != cuts[-1]:
            cuts.append(p.value)
    if cuts[-1] != 1:
        cuts.append(Fraction(1))
    out = []
    state = {c.id: c.touches_wall for c in complex.bottom}
    idx = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while idx < len(ordered) and ordered[idx].value <= lo:
            apply_effect(state, complex.effect_for(ordered[idx].id))
            idx += 1
        comps = tuple(
            SliceComponent(cid, touches) for cid, touches in sorted(state.items())
        )
        out.append(Slice(lo, hi, comps))
    return tuple(out)


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
