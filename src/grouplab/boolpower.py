"""Boolean powers of finite groups and fields.

At finite level a Boolean power is evaluated atom-wise: an element is the
tuple of its values at the atoms of the ring, and the disjoint-support
normal form groups atoms by value.  Materializing a power of P over a ring
with m atoms therefore produces the direct power P^m under the
atom-evaluation map, which is the canonical isomorphism used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .algebras import FiniteCommutativeAlgebra, _coords, _coords_id, _from_structure
from .boolean import AugmentedBooleanAlgebra, BooleanIdeal, FiniteBooleanRing
from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError
from .groups import FiniteGroup, GroupHom, Subgroup, direct_power, quotient
from .linalg import split_prime_power
from .structure import enumerate_normal_subgroups, is_simple_nonabelian

__all__ = [
    "BPElement",
    "BPQuotientIso",
    "BooleanPowerGroup",
    "FilteredPowerSpec",
    "IdealCorrespondenceReport",
    "MaterializedBooleanPower",
    "bp_multiply",
    "bp_normalize",
    "bp_quotient_iso",
    "filtered_power",
    "filtered_power_spec",
    "ideal_normal_subgroup",
    "materialize_bp_group",
    "verify_ideal_correspondence",
]


@dataclass(frozen=True)
class BPElement:
    """Disjoint-support normal form: terms (g, support) sorted by g.

    No term carries the identity of the base group or an empty support, and
    supports are pairwise disjoint, so the representation is unique.
    """

    base: FiniteGroup
    ring: FiniteBooleanRing
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen_union = 0
        prev_g = 0
        for g, mask in self.terms:
            if g == 0:
                raise ValidationError("normal form carries no identity terms")
            if not 0 < g < self.base.order:
                raise ValidationError("term element out of range")
            if mask == 0 or not self.ring.is_element(mask):
                raise ValidationError("term support must be a nonzero ring element")
            if g <= prev_g:
                raise ValidationError("terms must be strictly sorted by element id")
            if mask & seen_union:
                raise ValidationError("term supports must be pairwise disjoint")
            seen_union |= mask
            prev_g = g

    def values(self) -> list[int]:
        """Value at each atom, as base-group element ids."""
        out = [0] * self.ring.atom_count
        for g, mask in self.terms:
            for i in self.ring.atom_indices(mask):
                out[i] = g
        return out

    def support(self) -> int:
        mask = 0
        for _, m in self.terms:
            mask |= m
        return mask

    def is_identity(self) -> bool:
        return not self.terms


class BooleanPowerGroup(NamedTuple):
    """The group of all Boolean-power elements over a fixed base and ring."""

    base: FiniteGroup
    ring: FiniteBooleanRing

    @property
    def size(self) -> int:
        return self.base.order ** self.ring.atom_count

    def identity(self) -> BPElement:
        return BPElement(self.base, self.ring, ())

    def from_values(self, values: Sequence[int]) -> BPElement:
        if len(values) != self.ring.atom_count:
            raise ValidationError("one value per atom required")
        groups: dict[int, int] = {}
        for i, g in enumerate(values):
            if not 0 <= g < self.base.order:
                raise ValidationError("value out of range")
            if g != 0:
                groups[g] = groups.get(g, 0) | (1 << i)
        terms = tuple(sorted(groups.items()))
        return BPElement(self.base, self.ring, terms)

    def normalize(self, raw_terms: Iterable[tuple[int, int]]) -> BPElement:
        """Normal form of a product of (element, support) factors, in list order."""
        values = [0] * self.ring.atom_count
        for g, mask in raw_terms:
            if not 0 <= g < self.base.order:
                raise ValidationError("term element out of range")
            if not self.ring.is_element(mask):
                raise ValidationError("term support is not a ring element")
            for i in self.ring.atom_indices(mask):
                values[i] = self.base.mul(values[i], g)
        return self.from_values(values)

    def multiply(self, x: BPElement, y: BPElement) -> BPElement:
        if x.base is not self.base or y.base is not self.base \
                or x.ring != self.ring or y.ring != self.ring:
            raise ValidationError("elements belong to a different Boolean power")
        vx, vy = x.values(), y.values()
        return self.from_values([self.base.mul(a, b) for a, b in zip(vx, vy)])


def bp_normalize(base: FiniteGroup, ring: FiniteBooleanRing,
                 raw_terms: Iterable[tuple[int, int]]) -> BPElement:
    return BooleanPowerGroup(base, ring).normalize(raw_terms)


def bp_multiply(x: BPElement, y: BPElement) -> BPElement:
    if x.base is not y.base or x.ring != y.ring:
        raise ValidationError("elements belong to different Boolean powers")
    return BooleanPowerGroup(x.base, x.ring).multiply(x, y)


class MaterializedBooleanPower(NamedTuple):
    """A Boolean power as an explicit table group plus the element bijection.

    Ids encode atom values in mixed radix with atom 0 most significant, so
    the materialized group is literally the direct power P^m.
    """

    power: BooleanPowerGroup
    group: FiniteGroup

    def encode(self, x: BPElement) -> int:
        return int(_coords_id(x.values()[::-1], self.power.base.order))

    def decode(self, gid: int) -> BPElement:
        return self.power.from_values(_atom_values(self, gid).tolist())


def materialize_bp_group(base: FiniteGroup, ring: FiniteBooleanRing,
                         *, caps: Caps = DEFAULT_CAPS) -> MaterializedBooleanPower:
    size = base.order ** ring.atom_count
    caps.check("materialized_order", size)
    grp = direct_power(base, ring.atom_count,
                       name=f"{base.name}^B{ring.atom_count}",
                       caps=caps.with_overrides(order=max(caps.order, size)))
    return MaterializedBooleanPower(power=BooleanPowerGroup(base, ring), group=grp)


def _atom_values(mat: MaterializedBooleanPower, ids: int | np.ndarray) -> np.ndarray:
    """The value at every atom of an id of the power, or of each id of an array along a
    new last axis: the id's digits base |P|, atom 0 most significant, which are its
    little-endian coordinates read backwards."""
    return _coords(ids, mat.power.base.order, mat.power.ring.atom_count)[..., ::-1]


def ideal_normal_subgroup(base: FiniteGroup, ring: FiniteBooleanRing, ideal: BooleanIdeal,
                          *, materialized: MaterializedBooleanPower | None = None,
                          caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """The subgroup of the materialized power supported inside the ideal."""
    if ideal.ring != ring:
        raise ValidationError("ideal belongs to a different ring")
    mat = materialized or materialize_bp_group(base, ring, caps=caps)
    outside = [i for i in range(ring.atom_count) if not ideal.span >> i & 1]
    values = _atom_values(mat, np.arange(mat.group.order))
    return Subgroup._of(mat.group, (values[:, outside] == 0).all(axis=1))


class IdealCorrespondenceReport(NamedTuple):
    base_name: str
    atoms: int
    expected_match: bool           # guaranteed only for simple non-abelian bases
    matches: bool
    normal_count: int
    ideal_count: int
    counterexample: tuple[int, ...] | None  # a normal subgroup not of ideal form


def verify_ideal_correspondence(base: FiniteGroup, ring: FiniteBooleanRing,
                                *, materialized: MaterializedBooleanPower | None = None,
                                caps: Caps = DEFAULT_CAPS) -> IdealCorrespondenceReport:
    """Compare all normal subgroups of the materialized power with the ideal family."""
    mat = materialized or materialize_bp_group(base, ring, caps=caps)
    ideal_keys = set()
    for span in range(1 << ring.atom_count):
        ideal = BooleanIdeal(ring, span)
        sub = ideal_normal_subgroup(base, ring, ideal, materialized=mat, caps=caps)
        ideal_keys.add(sub._key)
        if not sub.is_normal():
            raise GroupLabError("an ideal-form subgroup failed to be normal")
    normals = enumerate_normal_subgroups(mat.group, caps=caps)  # in the canonical order
    missing = [sub for sub in normals if sub._key not in ideal_keys]
    if not ideal_keys <= {sub._key for sub in normals}:
        raise GroupLabError("an ideal-form subgroup is missing from the normal lattice")
    return IdealCorrespondenceReport(
        base_name=base.name,
        atoms=ring.atom_count,
        expected_match=is_simple_nonabelian(base, caps=caps),
        matches=not missing,
        normal_count=len(normals),
        ideal_count=len(ideal_keys),
        counterexample=missing[0].ids if missing else None,
    )


class BPQuotientIso(NamedTuple):
    quotient: FiniteGroup
    projection: GroupHom     # materialized power -> quotient
    power_group: FiniteGroup  # the direct power P^m
    iso: GroupHom            # quotient -> power_group, bijective
    m: int

    @property
    def verified(self) -> bool:
        return self.iso.is_injective() and self.iso.is_surjective()


def bp_quotient_iso(base: FiniteGroup, ring: FiniteBooleanRing, ideal: BooleanIdeal,
                    *, materialized: MaterializedBooleanPower | None = None,
                    caps: Caps = DEFAULT_CAPS) -> BPQuotientIso:
    """Quotient of the materialized power by an ideal subgroup, with the
    constructive isomorphism onto P^m obtained by dropping the ideal's atoms."""
    mat = materialized or materialize_bp_group(base, ring, caps=caps)
    sub = ideal_normal_subgroup(base, ring, ideal, materialized=mat, caps=caps)
    q, proj = quotient(mat.group, sub)
    kept = [i for i in range(ring.atom_count) if not ideal.span >> i & 1]
    m = len(kept)
    if m == ring.atom_count:  # the materialised power is P^m itself, up to its name
        target = mat.group._renamed(f"{base.name}^{m}")
    else:
        big = caps.with_overrides(order=max(caps.order, base.order ** max(m, 1)))
        target = direct_power(base, m, name=f"{base.name}^{m}", caps=big)
    # coset k's first, hence minimal, id, read at the kept atoms as an id of P^m
    _, reps = np.unique(proj.mapping, return_index=True)
    mapping = _coords_id(_atom_values(mat, reps)[:, kept[::-1]], base.order)
    iso = GroupHom(q, target, mapping.astype(np.int32), validate=True)
    if not (iso.is_injective() and iso.is_surjective()):
        raise GroupLabError("atom-tracing map is not a bijection")
    return BPQuotientIso(quotient=q, projection=proj, power_group=target, iso=iso, m=m)


@dataclass(frozen=True)
class FilteredPowerSpec:
    """A field power restricted by subfield constraints on closed point sets."""

    field: FiniteCommutativeAlgebra
    algebra: AugmentedBooleanAlgebra
    tau: dict[str, frozenset[int]]  # label -> allowed subfield, as field element ids

    def __post_init__(self) -> None:
        labels = set(self.algebra.labels())
        if set(self.tau) != labels:
            raise ValidationError("tau must be defined exactly on the algebra labels")
        for label, ids in self.tau.items():
            _check_subfield(self.field, ids, label)
        for a in labels:
            for b in labels:
                ca, cb = self.algebra.closed_set(a), self.algebra.closed_set(b)
                if ca | cb == cb and not self.tau[a] <= self.tau[b]:
                    raise ValidationError("tau is not order-preserving on closed sets")

    def allowed_values(self, atom: int) -> tuple[int, ...]:
        allowed = set(self.field.elements())
        for label in self.algebra.labels():
            if self.algebra.closed_set(label) >> atom & 1:
                allowed &= self.tau[label]
        return tuple(sorted(allowed))


def _check_subfield(field: FiniteCommutativeAlgebra, ids: frozenset[int], label: str) -> None:
    if 0 not in ids or field.one not in ids:
        raise ValidationError(f"tau({label}) must contain 0 and 1")
    for a in ids:
        for b in ids:
            if field.add(a, b) not in ids or field.mul(a, b) not in ids:
                raise ValidationError(f"tau({label}) is not a subfield")


def filtered_power_spec(field: FiniteCommutativeAlgebra, ring: FiniteBooleanRing,
                        constraints: Sequence[tuple[Iterable[int], Iterable[int]]],
                        ) -> FilteredPowerSpec:
    """Build a spec from (point set, subfield ids) constraints.

    The labelled lattice is the closure of the constraint sets plus the whole
    space under intersections and unions; tau extends by intersection.
    """
    whole = ring.one
    masks: dict[int, frozenset[int]] = {whole: frozenset(field.elements())}
    for points, subfield in constraints:
        mask = 0
        for i in points:
            if not 0 <= i < ring.atom_count:
                raise ValidationError("constraint point out of range")
            mask |= 1 << i
        ids = frozenset(int(x) for x in subfield)
        masks[mask] = masks.get(mask, frozenset(field.elements())) & ids
    closed = set(masks)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for b in list(closed):
                for c in (a & b, a | b):
                    if c not in closed:
                        closed.add(c)
                        changed = True
    def derived_tau(mask: int) -> frozenset[int]:
        out = frozenset(field.elements())
        for m, ids in masks.items():
            if mask & m == mask:
                out &= ids
        return out

    ideals = {}
    tau = {}
    for mask in sorted(closed):
        label = f"C{mask}"
        ideals[label] = BooleanIdeal(ring, ring.one ^ mask)
        tau[label] = derived_tau(mask)
    return FilteredPowerSpec(field=field, algebra=AugmentedBooleanAlgebra(ring, ideals), tau=tau)


def filtered_power(spec: FilteredPowerSpec, *, caps: Caps = DEFAULT_CAPS) -> FiniteCommutativeAlgebra:
    """The subalgebra of F^B of functions respecting the subfield constraints, from F's structure
    constants: the values allowed at an atom must be ids 0..p^j - 1, the span of F's first j basis
    elements, whose constants are F's cut to [:j, :j, :j].  Stacked block-diagonally, atom m - 1's
    least significant, an id is mixed-radix, atom 0 most significant, each digit an allowed value."""
    ring = spec.algebra.ring
    field, p = spec.field, spec.field.char
    if field._structure is None:
        raise ValidationError("a filtered power needs a field given by structure constants")
    allowed = [spec.allowed_values(i) for i in range(ring.atom_count)]
    dims = []
    for vals in allowed[::-1]:
        j = split_prime_power(len(vals), p)[0]
        if vals != tuple(range(p**j)):
            raise ValidationError("a filtered power needs every allowed set to be field ids 0..p^j - 1")
        dims.append(j)
    caps.check("materialized_order", p**sum(dims))
    structure = np.zeros((sum(dims),) * 3, dtype=np.int64)
    at = 0
    for j in dims:
        structure[at:at + j, at:at + j, at:at + j] = field._structure[:j, :j, :j]
        at += j
    one_id = 0
    for i, vals in enumerate(allowed):
        one_id = one_id * len(vals) + vals.index(field.one)
    return _from_structure(structure, p, one_id, f"{field.name}^B{ring.atom_count}|tau")
