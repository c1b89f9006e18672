"""Towers of finite groups with surjective connecting maps.

A tower stands in for a profinite completion: levels[i+1] projects onto
levels[i], and every statement about the limit is checked level by level.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _coset_reps,
    _distinct_reps,
    _greedy_generators,
    _group_from_perms,
    _local_ids,
    commutator_subgroup,
    commuting_pair_count,
    direct_power,
    quotient,
)

__all__ = [
    "ClosureTrace",
    "CommutatorCheckReport",
    "CosetActionSystem",
    "CosetSpace",
    "InverseSystem",
    "QuotientTrace",
    "build_system",
    "closure_trace",
    "commutator_level_check",
    "coset_action_system",
    "cp_sequence",
    "direct_power_system",
    "quotient_trace",
]


class InverseSystem:
    """levels[i+1] --projections[i]--> levels[i]; the top level is levels[-1]."""

    def __init__(self, levels: Sequence[FiniteGroup], projections: Sequence[GroupHom],
                 *, caps: Caps = DEFAULT_CAPS):
        levels = list(levels)
        projections = list(projections)
        if not levels:
            raise ValidationError("a tower has at least one level")
        caps.check("tower_length", len(levels))
        if len(projections) != len(levels) - 1:
            raise ValidationError("need exactly one projection per adjacent pair")
        for i, hom in enumerate(projections):
            if hom.source is not levels[i + 1] or hom.target is not levels[i]:
                raise ValidationError(f"projection {i} does not connect its levels")
            if not hom.is_surjective():
                raise ValidationError(f"projection {i} is not surjective")
        self.levels = tuple(levels)
        self.projections = tuple(projections)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def top(self) -> FiniteGroup:
        return self.levels[-1]

    def composite(self, from_level: int, to_level: int) -> GroupHom:
        """Composition of stored projections from a higher level down to a lower one."""
        if not 0 <= to_level <= from_level < len(self.levels):
            raise ValidationError("levels out of range")
        mapping = np.arange(self.levels[from_level].order, dtype=np.int32)
        for i in range(from_level - 1, to_level - 1, -1):
            mapping = self.projections[i].mapping[mapping]
        return GroupHom(self.levels[from_level], self.levels[to_level], mapping, validate=False)

    def maps_to(self, level: int) -> GroupHom:
        """Projection from the top level down to `level`."""
        return self.composite(len(self.levels) - 1, level)


def build_system(levels: Sequence[FiniteGroup], projections: Sequence[GroupHom],
                 *, caps: Caps = DEFAULT_CAPS) -> InverseSystem:
    return InverseSystem(levels, projections, caps=caps)


class CosetSpace(NamedTuple):
    """Left cosets of a subgroup, one canonical (minimal-id) representative each."""

    group: FiniteGroup
    subgroup: Subgroup
    reps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.reps)


class CosetActionSystem(NamedTuple):
    system: InverseSystem
    spaces: tuple[CosetSpace, ...]
    to_level: tuple[GroupHom, ...]  # the acting group onto each level


def coset_action_system(g: FiniteGroup, chain: Sequence[Subgroup],
                        *, caps: Caps = DEFAULT_CAPS) -> CosetActionSystem:
    """Levels induced by g acting on growing unions of coset spaces.

    Level n is the permutation image of g on the disjoint union of the coset
    spaces of the first n chain members; projections restrict permutations.
    """
    if not chain:
        raise ValidationError("chain must be nonempty")
    for sub in chain:
        if sub.group is not g:
            raise ValidationError("chain subgroups must live in the acting group")
    for a, b in zip(chain, chain[1:]):
        if not a.contains_subgroup(b):
            raise ValidationError("chain must be descending")
    caps.check("tower_length", len(chain))

    rep_of = [_coset_reps(sub) for sub in chain]  # the least id of each element's coset
    spaces = [CosetSpace(g, sub, tuple(_distinct_reps(rep).tolist())) for sub, rep in zip(chain, rep_of)]
    total_points = sum(len(s) for s in spaces)
    caps.check("order", total_points)

    # blocks[i][x, j]: the point that x moves coset j of space i to, numbered
    # consecutively across the spaces in the least dtype that holds them, that of
    # the permutation rows of the levels
    blocks = []
    offset = 0
    point = np.min_scalar_type(total_points - 1)
    for rep, space in zip(rep_of, spaces):
        reps = np.array(space.reps, dtype=np.int32)
        point_of = np.empty(g.order, dtype=point)
        point_of[reps] = offset + np.arange(len(reps))
        blocks.append(point_of[rep[np.stack([g.right(r) for r in reps], axis=1)]])
        offset += len(reps)

    gens = _greedy_generators(g)
    levels: list[FiniteGroup] = []
    projections: list[GroupHom] = []
    to_level: list[GroupHom] = []
    for n in range(1, len(chain) + 1):
        acting = np.hstack(blocks[:n])  # row x: the permutation of x on the first n spaces
        level = _group_from_perms([acting[x] for x in gens], acting.shape[1],
                                  name=f"{g.name}|X{n}", caps=caps)
        levels.append(level)
        acting_map = level._source.ids_of(acting)
        to_level.append(GroupHom(g, level, acting_map, validate=False))
        if n > 1:
            # g maps onto every level, and restricting to the first n-1 spaces
            # turns its level-n permutations into its level-(n-1) ones
            proj_map = np.empty(level.order, dtype=np.int32)
            proj_map[acting_map] = to_level[-2].mapping
            projections.append(GroupHom(level, levels[-2], proj_map, validate=False))

    system = InverseSystem(levels, projections, caps=caps)
    return CosetActionSystem(system=system, spaces=tuple(spaces), to_level=tuple(to_level))


class ClosureTrace(NamedTuple):
    """Images of a designated top-level subgroup at every level."""

    system: InverseSystem
    per_level: tuple[Subgroup, ...]


def closure_trace(system: InverseSystem, origin: Subgroup) -> ClosureTrace:
    if origin.group is not system.top:
        raise ValidationError("origin must be a subgroup of the top level")
    per_level = []
    for i in range(len(system.levels)):
        per_level.append(system.maps_to(i).map_subgroup(origin))
    for i in range(len(system.levels) - 1):
        upper = per_level[i + 1]
        mapped = system.projections[i].map_subgroup(upper)
        if mapped != per_level[i]:
            raise ValidationError("projections do not map trace entries onto each other")
    return ClosureTrace(system=system, per_level=tuple(per_level))


class QuotientTrace(NamedTuple):
    """Per-level quotients (image of n2)/(image of n1) with induced projections."""

    levels: tuple[FiniteGroup, ...]
    projections: tuple[GroupHom, ...]


def quotient_trace(system: InverseSystem, n1: Subgroup, n2: Subgroup,
                   *, caps: Caps = DEFAULT_CAPS) -> QuotientTrace:
    top = system.top
    if n1.group is not top or n2.group is not top:
        raise ValidationError("subgroups must live in the top level")
    if not n2.contains_subgroup(n1):
        raise ValidationError("need n1 <= n2")
    if not n1.is_normal():
        raise ValidationError("n1 must be normal in the top level")

    q_levels: list[FiniteGroup] = []
    coset_maps: list[np.ndarray] = []  # local id within the image of n2 -> quotient id
    images: list[Subgroup] = []        # the image of n2 at each level
    for i in range(len(system.levels)):
        hom = system.maps_to(i)
        a_i = hom.map_subgroup(n2)
        b_i = hom.map_subgroup(n1)
        a_grp, _ = a_i.as_group()
        q, proj = quotient(a_grp, Subgroup(a_grp, _local_ids(a_i, b_i.ids)))
        q_levels.append(q)
        coset_maps.append(proj.mapping)
        images.append(a_i)

    q_projections = []
    for i in range(len(system.levels) - 1):
        mapping = np.empty(q_levels[i + 1].order, dtype=np.int32)
        below = system.projections[i].mapping[np.array(images[i + 1].ids, dtype=np.int32)]
        mapping[coset_maps[i + 1]] = coset_maps[i][_local_ids(images[i], below)]
        q_projections.append(GroupHom(q_levels[i + 1], q_levels[i], mapping, validate=True))
    return QuotientTrace(levels=tuple(q_levels), projections=tuple(q_projections))


class CommutatorCheckReport(NamedTuple):
    passed: bool
    first_failure: int | None
    per_level: tuple[bool, ...]


def commutator_level_check(system: InverseSystem, k: Subgroup, l: Subgroup) -> CommutatorCheckReport:
    """At every level: image of [k, l] equals the commutator of the images."""
    top = system.top
    if k.group is not top or l.group is not top:
        raise ValidationError("subgroups must live in the top level")
    comm_top = commutator_subgroup(k, l)
    per_level = []
    first_failure = None
    for i in range(len(system.levels)):
        hom = system.maps_to(i)
        image_of_comm = hom.map_subgroup(comm_top)
        comm_of_images = commutator_subgroup(hom.map_subgroup(k), hom.map_subgroup(l))
        ok = image_of_comm == comm_of_images
        per_level.append(ok)
        if not ok and first_failure is None:
            first_failure = i
    return CommutatorCheckReport(passed=first_failure is None,
                                 first_failure=first_failure,
                                 per_level=tuple(per_level))


def cp_sequence(system: InverseSystem, *, caps: Caps = DEFAULT_CAPS) -> tuple[Fraction, ...]:
    """Exact commuting-pair fraction at each level."""
    out = []
    for level in system.levels:
        caps.check("order", level.order)
        out.append(Fraction(commuting_pair_count(level), level.order**2))
    return tuple(out)


def direct_power_system(p: FiniteGroup, depth: int, *, caps: Caps = DEFAULT_CAPS) -> InverseSystem:
    """Tower P <- P^2 <- ... <- P^depth with coordinate-forgetting projections."""
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    caps.check("materialized_order", p.order**depth)
    big = caps.with_overrides(order=max(caps.order, caps.materialized_order))
    levels = [direct_power(p, k, caps=big) for k in range(1, depth + 1)]
    projections = []
    for k in range(depth - 1):
        upper, lower = levels[k + 1], levels[k]
        mapping = (np.arange(upper.order, dtype=np.int64) // p.order).astype(np.int32)
        projections.append(GroupHom(upper, lower, mapping, validate=False))
    return InverseSystem(levels, projections, caps=caps)
