"""Turning a module with a spanning orbit into a commutative-style ring.

Given a group action on a GF(p) space and a vector v whose translates span,
the space is realized as the quotient of the group algebra GF(p)[S] by the
annihilator of v.  Multiplication descends exactly when that annihilator is
a two-sided ideal; otherwise a concrete witness of ill-definedness is
returned instead of a ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebras import FiniteCommutativeAlgebra
from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError
from .groups import FiniteGroup, _greedy_generators
from .linalg import inv_gfp, is_prime, nullspace_gfp

__all__ = [
    "FaithfulnessReport",
    "GModuleAction",
    "IllDefinedWitness",
    "ModuleRing",
    "OrbitSpan",
    "RingConstruction",
    "TranslateDecomposition",
    "action_from_matrices",
    "faithfulness_report",
    "mr_factor_sizes_for_report",
    "nilpotent_free_check",
    "orbit_span_check",
    "permutation_module_action",
    "ring_construct",
    "sum_zero_action",
    "translate_decomposition",
]


@dataclass(frozen=True)
class GModuleAction:
    """A right action of a finite group on GF(p)^dim by invertible matrices.

    Row vectors act on the right: v^h = v @ matrix(h), so the matrix
    assignment is an ordinary homomorphism into GL(dim, p).
    """

    group: FiniteGroup
    prime: int
    dim: int
    matrices: np.ndarray  # shape (|S|, dim, dim), entries reduced mod p

    def translate(self, vec: Sequence[int], h: int) -> tuple[int, ...]:
        out = (np.asarray(vec, dtype=np.int64) @ self.matrices[h]) % self.prime
        return tuple(int(x) for x in out)

    def vectors(self) -> list[tuple[int, ...]]:
        coords = np.indices((self.prime,) * self.dim).reshape(self.dim, -1).T
        return [tuple(int(x) for x in row) for row in coords]


def action_from_matrices(group: FiniteGroup, prime: int, dim: int,
                         matrices: Mapping[int, Sequence[Sequence[int]]],
                         *, caps: Caps = DEFAULT_CAPS) -> GModuleAction:
    """Build and validate an action from matrices on (at least) a generating set.

    Missing elements are filled by a breadth-first search from the identity,
    f(xs) = f(x)f(s) over generators s among the supplied ids.  The law is then
    checked on every (element, generator) pair, which implies it on the full
    table: the s satisfying it for every x are closed under products.
    """
    if not is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    caps.check("materialized_order", prime**dim)
    n, table = group.order, group.table
    stack = np.zeros((n, dim, dim), dtype=np.int64)
    stack[0] = np.eye(dim, dtype=np.int64)
    known = np.arange(n) == 0
    for eid, rows in matrices.items():
        if not 0 <= int(eid) < n:
            raise ValidationError(f"matrix for element {eid}: {group.name} has ids 0..{n - 1}")
        m = np.asarray(rows, dtype=np.int64) % prime
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix for element {eid} has wrong shape")
        stack[int(eid)] = m
        known[int(eid)] = True
    gens = np.array(_greedy_generators(table, np.flatnonzero(known)), dtype=np.intp)
    seen, frontier = np.arange(n) == 0, np.zeros(1, dtype=np.intp)
    while frontier.size and gens.size:
        # each new y = x*s; supplied elements are expanded too, and keep their matrices
        ys, first = np.unique(table[frontier[:, None], gens], return_index=True)
        fresh = ~seen[ys]
        ys, (xs, ss) = ys[fresh], np.divmod(first[fresh], gens.size)
        seen[ys] = True
        fill = ~known[ys]
        stack[ys[fill]] = (stack[frontier[xs[fill]]] @ stack[gens[ss[fill]]]) % prime
        frontier = ys
    if not seen.all():
        raise ValidationError("matrices do not cover a generating set")
    for a in range(n):
        inv_gfp(stack[a], prime)  # raises if singular
    for s in gens:
        if not np.array_equal(stack[table[:, s]], (stack @ stack[s]) % prime):
            raise ValidationError("matrix assignment is not a homomorphism")
    stack.setflags(write=False)
    return GModuleAction(group=group, prime=prime, dim=dim, matrices=stack)


@dataclass(frozen=True)
class OrbitSpan:
    spans: bool
    basis_elements: tuple[int, ...]          # group element ids, greedy by id
    basis_vectors: tuple[tuple[int, ...], ...]


def orbit_span_check(action: GModuleAction, v: Sequence[int]) -> OrbitSpan:
    """Do the translates of v span the space?  Greedy translate basis if so."""
    p, d = action.prime, action.dim
    chosen_ids: list[int] = []
    chosen_vecs: list[tuple[int, ...]] = []
    current = np.zeros((0, d), dtype=np.int64)
    from .linalg import rank_gfp

    for h in range(action.group.order):
        w = action.translate(v, h)
        trial = np.vstack([current, np.asarray(w, dtype=np.int64)])
        if rank_gfp(trial, p) > current.shape[0]:
            current = trial
            chosen_ids.append(h)
            chosen_vecs.append(w)
        if current.shape[0] == d:
            break
    return OrbitSpan(spans=current.shape[0] == d,
                     basis_elements=tuple(chosen_ids),
                     basis_vectors=tuple(chosen_vecs))


@dataclass(frozen=True)
class TranslateDecomposition:
    elements: tuple[int, ...]  # group element ids whose translates sum to the target
    bound: int                 # max over the whole space of the minimal length


def translate_decomposition(action: GModuleAction, v: Sequence[int], w: Sequence[int],
                            *, caps: Caps = DEFAULT_CAPS) -> TranslateDecomposition:
    """Minimal sum of translates of v equal to w, by BFS over partial sums.

    Ties break toward smaller group element ids.  Also reports the global
    bound: the largest minimal length over all of the space.
    """
    p, d = action.prime, action.dim
    caps.check("materialized_order", p**d)
    span = orbit_span_check(action, v)
    if not span.spans:
        raise ValidationError("translates of v do not span the space")
    translates = [action.translate(v, h) for h in range(action.group.order)]
    zero = tuple([0] * d)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {zero: None}
    frontier = [zero]
    depth = 0
    max_depth = 0
    target = tuple(int(x) % p for x in w)
    while frontier:
        next_frontier = []
        for state in frontier:
            arr = np.asarray(state, dtype=np.int64)
            for h, t in enumerate(translates):
                new = tuple(int(x) for x in (arr + np.asarray(t, dtype=np.int64)) % p)
                if new not in parent:
                    parent[new] = (state, h)
                    next_frontier.append(new)
        if next_frontier:
            depth += 1
            max_depth = depth
        frontier = next_frontier
    if target not in parent:
        raise GroupLabError("spanning translates failed to reach a vector")
    path = []
    cur = target
    while parent[cur] is not None:
        prev, h = parent[cur]
        path.append(h)
        cur = prev
    return TranslateDecomposition(elements=tuple(sorted(path)), bound=max_depth)


@dataclass(frozen=True)
class IllDefinedWitness:
    """Two representations of the same element whose products differ.

    `annihilator_coeffs` represents zero (its translate sum vanishes), yet
    left-multiplying by `multiplier` yields a nonzero value, so products
    would depend on the chosen representation.
    """

    annihilator_coeffs: tuple[int, ...]
    multiplier: int
    product_value: tuple[int, ...]


class ModuleRing:
    """The quotient ring on coordinates over a chosen translate basis.

    Elements are ids encoding GF(p) coordinates little-endian; id 0 is the
    zero vector and the designated generator v is the multiplicative unit.
    """

    def __init__(self, action: GModuleAction, v: tuple[int, ...],
                 basis_elements: tuple[int, ...], basis: np.ndarray,
                 structure: np.ndarray):
        self.action = action
        self.v = v
        self.basis_elements = basis_elements
        self._basis = basis           # d x d, rows are basis translate vectors
        self._basis_inv = inv_gfp(basis, action.prime)
        self._structure = structure   # d x d x d: coords of v^(h_i h_j)
        self.p = action.prime
        self.dim = action.dim
        self.size = action.prime ** action.dim
        self._radix = action.prime ** np.arange(action.dim, dtype=np.int64)
        self.zero = 0
        self.one = self.from_vector(v)

    def coords(self, eid: int | np.ndarray) -> np.ndarray:
        """Coordinates of an id, or of every id of an array along a new last axis."""
        return np.asarray(eid, dtype=np.int64)[..., None] // self._radix % self.p

    def element_id(self, coords: Sequence[int]) -> int:
        return int((np.asarray(coords, dtype=np.int64) % self.p) @ self._radix)

    def to_vector(self, eid: int) -> tuple[int, ...]:
        vec = (self.coords(eid) @ self._basis) % self.p
        return tuple(int(x) for x in vec)

    def from_vector(self, vec: Sequence[int]) -> int:
        coords = (np.asarray(vec, dtype=np.int64) @ self._basis_inv) % self.p
        return self.element_id(coords)

    def add(self, a: int, b: int) -> int:
        return self.element_id((self.coords(a) + self.coords(b)) % self.p)

    def mul(self, a: int, b: int) -> int:
        return self.element_id(self._products(self.coords(a), self.coords(b)))

    def _products(self, ca: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Coordinates of a * b for the coordinates `ca` of a and each row of `coords`."""
        return (coords @ np.tensordot(ca, self._structure, 1)) % self.p

    def is_commutative(self) -> bool:
        s = self._structure
        return bool(np.array_equal(s, np.swapaxes(s, 0, 1)))

    def to_algebra(self, *, name: str | None = None, caps: Caps = DEFAULT_CAPS) -> FiniteCommutativeAlgebra:
        if not self.is_commutative():
            raise ValidationError("ring is not commutative")
        caps.check("materialized_order", self.size)
        coords = self.coords(np.arange(self.size))
        add = np.empty((self.size, self.size), dtype=np.int32)
        mul = np.empty((self.size, self.size), dtype=np.int32)
        for a in range(self.size):
            add[a] = ((coords[a] + coords) % self.p) @ self._radix
            mul[a] = self._products(coords[a], coords) @ self._radix
        return FiniteCommutativeAlgebra(add, mul, char=self.p, one_id=self.one,
                                        name=name or "module-ring")


@dataclass(frozen=True)
class RingConstruction:
    well_defined: bool
    ring: ModuleRing | None
    witness: IllDefinedWitness | None
    translate_bound: int


def ring_construct(action: GModuleAction, v: Sequence[int],
                   *, caps: Caps = DEFAULT_CAPS) -> RingConstruction:
    """Quotient the group algebra by the annihilator of v, if two-sided.

    The annihilator is always a right ideal; the left check is exhaustive
    over a kernel basis.  On failure the first offending (kernel element,
    multiplier) pair becomes the witness.  On success the product is
    verified against the translate formula v^h * v^k = v^(hk) on every pair
    of translates, which is exact: the product is bilinear and the
    translates span.
    """
    p = action.prime
    vt = tuple(int(x) % p for x in v)
    span = orbit_span_check(action, vt)
    if not span.spans:
        raise ValidationError("translates of v do not span the space")
    n = action.group.order
    translate_rows = (np.array(vt, dtype=np.int64) @ action.matrices) % p
    kernel = nullspace_gfp(translate_rows.T, p)  # rows c with c @ translate_rows == 0
    table = action.group.table
    for row in kernel:
        for h in range(n):
            # h * (sum c_g g) has coefficient c_g at position h*g
            value = (row @ translate_rows[table[h]]) % p
            if value.any():
                return RingConstruction(
                    well_defined=False, ring=None,
                    witness=IllDefinedWitness(
                        annihilator_coeffs=tuple(int(x) for x in row),
                        multiplier=h,
                        product_value=tuple(int(x) for x in value),
                    ),
                    translate_bound=translate_decomposition(action, vt, vt, caps=caps).bound,
                )
    # the right check is automatic; assert it on the first basis row anyway
    for row in kernel[:1]:
        for h in range(n):
            if ((row @ translate_rows[table[:, h]]) % p).any():
                raise GroupLabError("annihilator is not a right ideal; action tables broken")

    ring = _translate_ring(action, vt, span)
    decomp = translate_decomposition(action, vt, vt, caps=caps)
    _verify_translate_products(ring, translate_rows)
    return RingConstruction(well_defined=True, ring=ring, witness=None,
                            translate_bound=decomp.bound)


def _translate_ring(action: GModuleAction, v: tuple[int, ...], span: OrbitSpan) -> ModuleRing:
    """The product v^h * v^k = v^(hk) on the translate basis; well defined or not."""
    p = action.prime
    basis = np.array(span.basis_vectors, dtype=np.int64)
    hs = np.array(span.basis_elements, dtype=np.intp)
    prods = action.matrices[action.group.table[np.ix_(hs, hs)]]  # matrix of h_i h_j
    structure = (((np.array(v, dtype=np.int64) @ prods) % p) @ inv_gfp(basis, p)) % p
    return ModuleRing(action, v, span.basis_elements, basis, structure)


def _verify_translate_products(ring: ModuleRing, translate_rows: np.ndarray) -> None:
    """Check v^h * v^k = v^(hk) for all translates, one row of products per h."""
    coords = (translate_rows @ ring._basis_inv) % ring.p
    table = ring.action.group.table
    for h in range(len(coords)):
        if not np.array_equal(ring._products(coords[h], coords), coords[table[h]]):
            raise GroupLabError("ring product disagrees with the translate-sum formula")


def nilpotent_free_check(ring: ModuleRing | FiniteCommutativeAlgebra,
                         *, caps: Caps = DEFAULT_CAPS) -> tuple[bool, int | None]:
    """Exhaustive nilpotence scan via repeated squaring; returns (ok, witness id)."""
    if isinstance(ring, FiniteCommutativeAlgebra):
        size = ring.size
        caps.check("materialized_order", size)
        from .algebras import find_nilpotent

        witness = find_nilpotent(size, ring.mul_table)
        return witness is None, witness
    size = ring.size
    caps.check("materialized_order", size)
    p = ring.p
    ids = np.arange(size, dtype=np.int64)
    cur = ring.coords(ids)
    steps = max(1, int(size).bit_length())
    for _ in range(steps):
        cur = np.einsum("ni,nj,ijk->nk", cur, cur, ring._structure) % p
    flat = cur @ ring._radix
    hits = np.flatnonzero((flat == 0) & (ids != 0))
    if hits.size:
        return False, int(hits[0])
    return True, None


def permutation_module_action(group: FiniteGroup, p: int,
                              *, caps: Caps = DEFAULT_CAPS) -> GModuleAction:
    """The permutation module over GF(p) of a group with a permutation presentation.

    Row vectors are permuted by pullback, (v^x)_j = v_(pi_x(j)), which makes
    the matrix assignment a homomorphism for the stored composition order.
    """
    if group.perm_generators is None:
        raise ValidationError("group has no permutation presentation")
    degree = group.perm_generators.degree
    mats = {}
    for eid in group.perm_generators.element_ids:
        perm = group.permutation_of(eid)
        m = np.zeros((degree, degree), dtype=np.int64)
        for j in range(degree):
            m[perm[j], j] = 1
        mats[eid] = m
    return action_from_matrices(group, p, degree, mats, caps=caps)


def sum_zero_action(group: FiniteGroup, p: int, *, caps: Caps = DEFAULT_CAPS) -> GModuleAction:
    """Restriction of the permutation module to the sum-zero subspace.

    Basis: f_i = e_i - e_(i+1); the classic (degree-1)-dimensional summand.
    """
    from .linalg import solve_gfp

    full = permutation_module_action(group, p, caps=caps)
    degree = full.dim
    if degree < 2:
        raise ValidationError("need degree at least 2")
    basis = np.zeros((degree - 1, degree), dtype=np.int64)
    for i in range(degree - 1):
        basis[i, i] = 1
        basis[i, i + 1] = (p - 1) % p
    mats = {}
    for eid in range(group.order):
        rows = []
        for i in range(degree - 1):
            image = (basis[i] @ full.matrices[eid]) % p
            coeffs = solve_gfp(basis, image, p)
            if coeffs is None:
                raise GroupLabError("sum-zero subspace is not invariant")
            rows.append(coeffs)
        mats[eid] = np.array(rows, dtype=np.int64)
    return action_from_matrices(group, p, degree - 1, mats, caps=caps)


def mr_factor_sizes_for_report(ring: ModuleRing, nilpotent_free: bool,
                               *, caps: Caps = DEFAULT_CAPS) -> str | None:
    """Field-factor sizes of a commutative nilpotent-free ring, for reports."""
    if not nilpotent_free or not ring.is_commutative():
        return None
    from .algebras import mr_decompose

    decomp = mr_decompose(ring.to_algebra(caps=caps), caps=caps)
    return ",".join(str(f.field.size) for f in decomp.factors)


@dataclass(frozen=True)
class FaithfulnessReport:
    kernel_ids: tuple[int, ...]
    faithful: bool
    index_histogram: tuple[tuple[int, int], ...]  # (stabilizer index, vector count)
    regular_vector: tuple[int, ...] | None        # first v with trivial stabilizer


def faithfulness_report(action: GModuleAction, *, caps: Caps = DEFAULT_CAPS) -> FaithfulnessReport:
    """Kernel of the action and per-vector stabilizer indices."""
    p, d = action.prime, action.dim
    caps.check("materialized_order", p**d)
    n = action.group.order
    eye = np.eye(d, dtype=np.int64)
    kernel = tuple(h for h in range(n) if np.array_equal(action.matrices[h] % p, eye))
    vectors = np.array(action.vectors(), dtype=np.int64)
    stab_counts = np.zeros(len(vectors), dtype=np.int64)
    for h in range(n):
        moved = (vectors @ action.matrices[h]) % p
        stab_counts += (moved == vectors).all(axis=1)
    indices = n // stab_counts
    histogram: dict[int, int] = {}
    for idx in indices:
        histogram[int(idx)] = histogram.get(int(idx), 0) + 1
    regular = None
    hits = np.flatnonzero(indices == n)
    if hits.size:
        regular = tuple(int(x) for x in vectors[hits[0]])
    return FaithfulnessReport(
        kernel_ids=kernel,
        faithful=kernel == (0,),
        index_histogram=tuple(sorted(histogram.items())),
        regular_vector=regular,
    )
