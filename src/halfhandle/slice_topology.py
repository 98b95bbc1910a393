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
from .morse_data import _ID_RE, Ambient, CriticalPoint, Kind


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


class ComponentIndex(NamedTuple):
    """Where each component id of a slice complex starts and ends.

    ``producer`` maps every id to the point whose effect makes it (None for
    a bottom component) and ``wall_bit`` to its wall bit; for an id made
    twice the effect at the larger point id wins.  ``consumer`` maps an id
    to the point whose effect takes it as input, the first in effect order
    when there are several.
    """

    producer: Dict[str, Optional[str]]
    consumer: Dict[str, str]
    wall_bit: Dict[str, bool]


@dataclass(frozen=True)
class SliceComplex:
    """Bottom level set components plus one effect per critical point.

    Both indexes below are built on first use and kept: the complex is
    immutable, and a rearrangement keeps the complex it started from, so
    every move of a session shares them.
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

    @cached_property
    def effect_index(self) -> Dict[str, ComponentEffect]:
        """Effect by point id."""
        return {e.at: e for e in self.effects}

    @cached_property
    def component_index(self) -> ComponentIndex:
        producer: Dict[str, Optional[str]] = {}
        wall_bit = {}
        consumer: Dict[str, str] = {}
        for c in self.bottom:
            producer[c.id] = None
            wall_bit[c.id] = c.touches_wall
        for e in self.effects:
            for c in e.outputs:
                producer[c.id] = e.at
                wall_bit[c.id] = c.touches_wall
            for cid in e.inputs:
                consumer.setdefault(cid, e.at)
        return ComponentIndex(producer, consumer, wall_bit)

    def effect_for(self, point_id: str) -> ComponentEffect:
        """The effect at a point: one lookup in ``effect_index``.

        Replay calls this once per point, so a full replay is O(P); a
        rearrangement of a valid datum needs no replay at all (see
        ``MorseDatum.valid``), and the full replay stays the reference for
        every other move.
        """
        try:
            return self.effect_index[point_id]
        except KeyError:
            raise UnknownId("no effect recorded at point %r" % (point_id,)) from None

    def has_effect(self, point_id: str) -> bool:
        return point_id in self.effect_index

    def fresh_component_id(self) -> str:
        """A component id of the form c<i> that no component carries yet."""
        taken = self.component_index.producer
        i = len(taken)
        while "c%d" % i in taken:
            i += 1
        return "c%d" % i

    def replace_effects(self, drop=(), add=()) -> "SliceComplex":
        dropped = set(drop)
        kept = [e for e in self.effects if e.at not in dropped]
        return SliceComplex(self.bottom, tuple(kept) + tuple(add))


@dataclass(frozen=True)
class Slice:
    """Components of every level set in an open interval of regular values."""

    lo: Fraction
    hi: Fraction
    components: Tuple[SliceComponent, ...]


def apply_effect(state: Dict[str, bool], effect: ComponentEffect) -> Dict[str, bool]:
    """Apply one effect to a live-component state (id -> wall bit)."""
    new = dict(state)
    for cid in effect.inputs:
        if cid not in new:
            raise InvalidEffect(
                "effect at %r consumes missing component %r" % (effect.at, cid)
            )
        del new[cid]
    for comp in effect.outputs:
        if comp.id in new:
            raise InvalidEffect(
                "effect at %r rebuilds live component %r" % (effect.at, comp.id)
            )
        new[comp.id] = comp.touches_wall
    return new


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
        allowed = {
            0: {EffectKind.BIRTH},
            n + 1: {EffectKind.DEATH},
        }
        if 1 <= k <= n:
            middle = set()
            if k == 1:
                middle |= {EffectKind.MERGE, EffectKind.INTERNAL}
            if k == n:
                middle |= {EffectKind.SPLIT, EffectKind.INTERNAL}
            if 1 < k < n:
                middle = {EffectKind.INTERNAL}
            allowed[k] = middle
        if kind not in allowed.get(k, set()):
            issues.append(
                "%s: not a legal effect for an interior point of index %d" % (tag, k)
            )
            return issues
        if kind is EffectKind.BIRTH:
            if n_in != 0 or n_out != 1:
                issues.append("%s: birth is 0 -> 1" % tag)
            elif effect.outputs[0].touches_wall:
                issues.append("%s: a newborn sphere cannot touch the wall" % tag)
        elif kind is EffectKind.DEATH:
            if n_in != 1 or n_out != 0:
                issues.append("%s: death is 1 -> 0" % tag)
            elif flag(effect.inputs[0]):
                issues.append("%s: only a closed component can die" % tag)
        elif kind is EffectKind.MERGE:
            if n_in != 2 or n_out != 1:
                issues.append("%s: merge is 2 -> 1" % tag)
            else:
                want = flag(effect.inputs[0]) or flag(effect.inputs[1])
                if effect.outputs[0].touches_wall != want:
                    issues.append("%s: wall bit must be the or of the inputs" % tag)
        elif kind is EffectKind.INTERNAL:
            if n_in != 1 or n_out != 1:
                issues.append("%s: internal surgery is 1 -> 1" % tag)
            elif effect.outputs[0].touches_wall != flag(effect.inputs[0]):
                issues.append("%s: internal surgery keeps the wall bit" % tag)
        elif kind is EffectKind.SPLIT:
            if n_in != 1 or n_out != 2:
                issues.append("%s: split is 1 -> 2" % tag)
            else:
                got = effect.outputs[0].touches_wall or effect.outputs[1].touches_wall
                if got != flag(effect.inputs[0]):
                    issues.append(
                        "%s: outputs must carry the input's wall bit between them"
                        % tag
                    )
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
    """Replay all effects in (value, id) order.

    Returns (issues, pre_states, final_state) where pre_states maps each
    point id to the live-component state just below its critical value.
    Stops at the first structural failure, reporting it as an issue.
    """
    issues = []
    pre = {}
    state = {c.id: c.touches_wall for c in complex.bottom}
    ordered = sorted(points, key=lambda p: p.sort_key())
    for p in ordered:
        pre[p.id] = dict(state)
        try:
            effect = complex.effect_for(p.id)
        except UnknownId:
            issues.append("point %s has no slice effect" % (p.id,))
            return issues, pre, state
        issues.extend(effect_row_issues(p, ambient.n, effect, state))
        try:
            state = apply_effect(state, effect)
        except InvalidEffect as exc:
            issues.append(str(exc))
            return issues, pre, state
    return issues, pre, state


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


def pre_states(ambient: Ambient, points, complex: SliceComplex):
    issues, pre, final = replay(ambient, points, complex)
    if issues:
        raise ValidationError("slice replay failed", issues=issues)
    return pre, final


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
        state = apply_effect(state, complex.effect_for(p.id))
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
            state = apply_effect(state, complex.effect_for(ordered[idx].id))
            idx += 1
        comps = tuple(
            SliceComponent(cid, touches) for cid, touches in sorted(state.items())
        )
        out.append(Slice(lo, hi, comps))
    return tuple(out)


def joinable_to_wall(ambient: Ambient, points, complex: SliceComplex, point_id: str):
    """Whether the surgery at an interior point happens on a wall component.

    True when some input of the point's effect touches the wall just below
    the point.  Births join nothing, deaths consume closed components, so
    both come out False.  Raises NotInterior for boundary points.
    """
    target = None
    for p in points:
        if p.id == point_id:
            target = p
    if target is None:
        raise UnknownId("no critical point with id %r" % (point_id,))
    if target.kind is not Kind.INTERIOR:
        raise NotInterior("point %r is a boundary point" % (point_id,))
    pre, _ = pre_states(ambient, points, complex)
    state = pre[point_id]
    effect = complex.effect_for(point_id)
    return any(state.get(cid, False) for cid in effect.inputs)
