"""Finite Boolean rings as power sets of an atom list.

Elements are int bitmasks over atoms 0..atom_count-1; addition is XOR,
multiplication is AND.  Every ideal of such a ring is principal, so ideals
are stored by the union of their generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .config import DEFAULT_CAPS, Caps
from .errors import ValidationError

__all__ = [
    "AugmentedBooleanAlgebra",
    "BooleanIdeal",
    "BooleanQuotient",
    "FiniteBooleanRing",
    "RefineChain",
    "RingEmbedding",
    "build_boolean_ring",
    "quotient_ring",
    "refine_chain",
    "stone_points",
]


@dataclass(frozen=True)
class FiniteBooleanRing:
    """Power-set ring on `atom_count` atoms; the multiplicative identity is the full set."""

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 0:
            raise ValidationError("atom count cannot be negative")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        # a + b + a*b
        return a | b

    def is_element(self, mask: int) -> bool:
        return 0 <= mask <= self.one

    def elements(self) -> Iterator[int]:
        return iter(range(self.size))

    def atoms(self) -> list[int]:
        return [1 << i for i in range(self.atom_count)]

    def atom_indices(self, mask: int) -> list[int]:
        return [i for i in range(self.atom_count) if mask >> i & 1]


def build_boolean_ring(n_atoms: int, *, caps: Caps = DEFAULT_CAPS) -> FiniteBooleanRing:
    if n_atoms < 1:
        raise ValidationError("atom count must be positive")
    caps.check("boolean_atoms", n_atoms)
    return FiniteBooleanRing(n_atoms)


@dataclass(frozen=True)
class BooleanIdeal:
    """An ideal, stored by the union of its generators (all ideals are principal)."""

    ring: FiniteBooleanRing
    span: int

    def __post_init__(self) -> None:
        if not self.ring.is_element(self.span):
            raise ValidationError("ideal generator is not a ring element")

    @classmethod
    def from_generators(cls, ring: FiniteBooleanRing, gens: Iterable[int]) -> "BooleanIdeal":
        span = 0
        for g in gens:
            if not ring.is_element(g):
                raise ValidationError(f"generator {g} is not a ring element")
            span |= g
        return cls(ring, span)

    def __contains__(self, mask: int) -> bool:
        return self.ring.is_element(mask) and mask | self.span == self.span

    @property
    def size(self) -> int:
        return 1 << bin(self.span).count("1")

    def elements(self) -> Iterator[int]:
        # Standard submask enumeration, descending then reversed for ascending order.
        out = []
        sub = self.span
        while True:
            out.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & self.span
        return iter(sorted(out))

    def is_proper(self) -> bool:
        return self.span != self.ring.one

    def is_maximal(self) -> bool:
        # Complement of exactly one atom.
        missing = self.ring.one ^ self.span
        return missing != 0 and missing & (missing - 1) == 0


class RingEmbedding(NamedTuple):
    """An injective ring homomorphism between two power-set rings."""

    source: FiniteBooleanRing
    target: FiniteBooleanRing
    atom_images: tuple[int, ...]  # target mask per source atom, pairwise disjoint

    def __call__(self, mask: int) -> int:
        out = 0
        for i, img in enumerate(self.atom_images):
            if mask >> i & 1:
                out |= img
        return out


@dataclass(frozen=True)
class BooleanQuotient:
    """Quotient ring with its atom count and the projection map."""

    ring: FiniteBooleanRing
    atom_count: int
    kernel: BooleanIdeal
    _kept_atoms: tuple[int, ...] = field(repr=False, default=())

    def project(self, mask: int) -> int:
        out = 0
        for j, i in enumerate(self._kept_atoms):
            if mask >> i & 1:
                out |= 1 << j
        return out


def quotient_ring(ring: FiniteBooleanRing, ideal: BooleanIdeal) -> BooleanQuotient:
    """B/S: the power-set ring on the atoms outside the ideal's span."""
    if ideal.ring != ring:
        raise ValidationError("ideal belongs to a different ring")
    kept = tuple(i for i in range(ring.atom_count) if not ideal.span >> i & 1)
    q = FiniteBooleanRing(len(kept))
    return BooleanQuotient(ring=q, atom_count=len(kept), kernel=ideal, _kept_atoms=kept)


def stone_points(ring: FiniteBooleanRing) -> list[BooleanIdeal]:
    """The maximal ideals, one per atom: all subsets missing that atom."""
    return [BooleanIdeal(ring, ring.one ^ (1 << i)) for i in range(ring.atom_count)]


class RefineChain(NamedTuple):
    """Finite approximations of an atomless ring by repeated atom splitting.

    Every finite level is a ring with identity; whether the intended limit
    keeps the identity is recorded only as an annotation on the chain.
    """

    rings: tuple[FiniteBooleanRing, ...]
    embeddings: tuple[RingEmbedding, ...]
    limit_annotation: str = "with-identity"


def refine_chain(start_atoms: int, steps: int, *, limit_annotation: str = "with-identity",
                 caps: Caps = DEFAULT_CAPS) -> RefineChain:
    """Chain of rings where each step splits every atom in two."""
    if start_atoms < 1:
        raise ValidationError("start_atoms must be positive")
    if limit_annotation not in ("with-identity", "without-identity"):
        raise ValidationError("limit annotation must name one of the two atomless limits")
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    caps.check("refine_steps", steps)
    final_atoms = start_atoms << steps
    caps.check("boolean_atoms", final_atoms)
    rings = [FiniteBooleanRing(start_atoms << k) for k in range(steps + 1)]
    embeddings = []
    for k in range(steps):
        src, tgt = rings[k], rings[k + 1]
        images = tuple((0b11) << (2 * i) for i in range(src.atom_count))
        embeddings.append(RingEmbedding(source=src, target=tgt, atom_images=images))
    return RefineChain(rings=tuple(rings), embeddings=tuple(embeddings),
                       limit_annotation=limit_annotation)


class AugmentedBooleanAlgebra:
    """A ring together with ideals indexed by labels.

    Each ideal encodes a closed subset of the (finite) point space: the
    atoms outside its span.  The labelled closed sets must form a lattice,
    and the ideal assignment is order-reversing by construction.
    """

    def __init__(self, ring: FiniteBooleanRing, ideals: dict[str, BooleanIdeal]):
        closed: dict[str, int] = {}
        for label, ideal in ideals.items():
            if ideal.ring != ring:
                raise ValidationError(f"ideal {label!r} belongs to a different ring")
            closed[label] = ring.one ^ ideal.span
        values = set(closed.values())
        for a in values:
            for b in values:
                if (a & b) not in values or (a | b) not in values:
                    raise ValidationError("labelled closed sets do not form a lattice")
        self.ring = ring
        self.ideals = dict(sorted(ideals.items()))
        self._closed = closed

    def closed_set(self, label: str) -> int:
        """Atom mask of the closed set a label names."""
        return self._closed[label]

    def labels(self) -> list[str]:
        return list(self.ideals)
