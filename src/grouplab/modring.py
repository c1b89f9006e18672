"""Turning a module with a spanning orbit into a commutative-style ring.

Given a group action on a GF(p) space and a vector v whose translates span,
the space is realized as the quotient of the group algebra GF(p)[S] by the
annihilator of v.  Multiplication descends exactly when that annihilator is
a two-sided ideal; otherwise a concrete witness of ill-definedness is
returned instead of a ring.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .algebras import (FiniteCommutativeAlgebra, _coords, _coords_id, _from_structure, _squares,
                       _structure_grid, find_nilpotent)
from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError, integers
from .groups import FiniteGroup, _block_rows, _greedy_generators, _tree
from .linalg import inv_gfp, is_prime, rref_gfp

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
    "nilpotent_free_check",
    "orbit_span_check",
    "permutation_module_action",
    "ring_construct",
    "sum_zero_action",
    "translate_decomposition",
]


class GModuleAction(NamedTuple):
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

    Missing elements are filled along the breadth-first tree from the identity,
    f(xs) = f(x)f(s) over generators s among the supplied ids; supplied elements
    keep their matrices.  The law is then checked on every (element, generator)
    pair, which implies it on the full table: the s satisfying it for every x
    are closed under products.  So only the generators' matrices are inverted:
    every other matrix is a product of theirs.
    """
    if dim < 1:
        raise ValidationError("dim must be positive")
    # p**dim up to just past the cap: a p >= 2 passes it by the power bit_length(limit),
    # so no larger power is formed; a p below 2 is left to the primality test
    limit = caps.materialized_order
    caps.check("materialized_order", min(max(prime, 1) ** min(dim, limit.bit_length()), limit + 1))
    if not is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    n = group.order
    stack = np.zeros((n, dim, dim), dtype=np.int64)
    stack[0] = np.eye(dim, dtype=np.int64)
    known = np.arange(n) == 0
    for eid, rows in matrices.items():
        if not 0 <= int(eid) < n:
            raise ValidationError(f"matrix for element {eid}: {group.name} has ids 0..{n - 1}")
        bad = f"matrix for element {eid} must be rows of integers"
        m = (integers(rows, bad) % prime).astype(np.int64)
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix for element {eid} has wrong shape")
        stack[int(eid)] = m
        known[int(eid)] = True
    gens = _greedy_generators(group, np.flatnonzero(known))
    edges = _tree([group.right(s) for s in gens])
    if len(edges) != n - 1:
        raise ValidationError("matrices do not cover a generating set")
    for y, x, k in edges:  # y = x * gens[k]
        if not known[y]:
            stack[y] = (stack[x] @ stack[gens[k]]) % prime
    for s in gens:
        inv_gfp(stack[s], prime)  # raises if singular
    # f(1) = 1, checked apart for the trivial group, which has no generator
    if not np.array_equal(stack[0], np.eye(dim)) or any(
            not np.array_equal(stack[group.right(s)], (stack @ stack[s]) % prime) for s in gens):
        raise ValidationError("matrix assignment is not a homomorphism")
    stack.setflags(write=False)
    return GModuleAction(group=group, prime=prime, dim=dim, matrices=stack)


class OrbitSpan(NamedTuple):
    spans: bool
    basis_elements: tuple[int, ...]          # group element ids, greedy by id
    basis_vectors: tuple[tuple[int, ...], ...]


def _translates(action: GModuleAction, v: Sequence[int]) -> np.ndarray:
    """The matrix whose row h is the translate v^h."""
    return (np.asarray(v, dtype=np.int64) @ action.matrices) % action.prime


def _span(rows: np.ndarray, p: int, d: int) -> tuple[OrbitSpan, np.ndarray]:
    """The rows outside the span of the earlier ones, which are the pivot columns of the transpose,
    and the reduced row echelon form of the transpose."""
    rref, pivots = rref_gfp(rows.T, p)
    return OrbitSpan(spans=len(pivots) == d, basis_elements=tuple(pivots),
                     basis_vectors=tuple(tuple(int(x) for x in rows[h]) for h in pivots)), rref


def orbit_span_check(action: GModuleAction, v: Sequence[int]) -> OrbitSpan:
    """Do the translates of v span the space?  Greedy translate basis if so."""
    return _span(_translates(action, v), action.prime, action.dim)[0]


class TranslateDecomposition(NamedTuple):
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
    rows = _translates(action, v)
    if not _span(rows, p, d)[0].spans:
        raise ValidationError("translates of v do not span the space")
    return _shortest_sums(rows, p, w)


def _shortest_sums(rows: np.ndarray, p: int, w: Sequence[int]) -> TranslateDecomposition:
    """The decomposition of w into the spanning rows, and the depth of the last vector reached,
    read off the breadth-first tree from 0 over the vector ids (little-endian digits) under
    x -> x + t, one map per distinct row t at its least index h: the tree a queue of partial
    sums builds trying every h in order."""
    d = rows.shape[1]
    coords = _coords(np.arange(p**d), p, d)
    hs = np.sort(np.unique(_coords_id(rows, p), return_index=True)[1])
    edges = _tree([_coords_id(coords + rows[h], p) for h in hs])
    if len(w) != d or len(edges) != p**d - 1:
        raise GroupLabError("spanning translates failed to reach a vector")
    parent, via = np.zeros((2, p**d), dtype=np.int64)  # the vector each came from, and its h
    tree = np.array(edges, dtype=np.int64)
    parent[tree[:, 0]], via[tree[:, 0]] = tree[:, 1], hs[tree[:, 2]]

    def path(x: int) -> list[int]:
        out = []
        while x:
            out.append(int(via[x]))
            x = parent[x]
        return out

    target = _coords_id([int(x) % p for x in w], p)  # w may hold ints past int64
    return TranslateDecomposition(elements=tuple(sorted(path(target))), bound=len(path(edges[-1][0])))


class IllDefinedWitness(NamedTuple):
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
        self.zero = 0
        self.one = self.from_vector(v)

    def coords(self, eid: int | np.ndarray) -> np.ndarray:
        """Coordinates of an id, or of every id of an array along a new last axis."""
        return _coords(eid, self.p, self.dim)

    def element_id(self, coords: Sequence[int]) -> int:
        return int(_coords_id(coords, self.p))

    def to_vector(self, eid: int) -> tuple[int, ...]:
        vec = (self.coords(eid) @ self._basis) % self.p
        return tuple(int(x) for x in vec)

    def from_vector(self, vec: Sequence[int]) -> int:
        coords = (np.asarray(vec, dtype=np.int64) @ self._basis_inv) % self.p
        return self.element_id(coords)

    def add(self, a: int, b: int) -> int:
        return int(_structure_grid(self._structure, self.p, "add", [a], [b])[0, 0])

    def mul(self, a: int, b: int) -> int:
        return int(_structure_grid(self._structure, self.p, "mul", [a], [b])[0, 0])

    def squares(self) -> np.ndarray:
        """The id of x * x for every element x."""
        return _squares(self._structure, self.p)

    def is_commutative(self) -> bool:
        s = self._structure
        return bool(np.array_equal(s, np.swapaxes(s, 0, 1)))

    def to_algebra(self, *, name: str | None = None, caps: Caps = DEFAULT_CAPS) -> FiniteCommutativeAlgebra:
        if not self.is_commutative():
            raise ValidationError("ring is not commutative")
        caps.check("materialized_order", self.size)
        return _from_structure(self._structure, self.p, self.one, name or "module-ring")


class RingConstruction(NamedTuple):
    well_defined: bool
    ring: ModuleRing | None
    witness: IllDefinedWitness | None
    translate_bound: int


def ring_construct(action: GModuleAction, v: Sequence[int],
                   *, caps: Caps = DEFAULT_CAPS) -> RingConstruction:
    """Quotient the group algebra by the annihilator of v, if two-sided.

    The annihilator is always a right ideal; the left check is exhaustive
    over a kernel basis read off the one reduction of the translate matrix,
    a block of rows shifted by every multiplier at once (`_shifts`).  On
    failure the first offending (kernel element, multiplier) pair becomes the
    witness.  On success the product is verified against the translate
    formula v^h * v^k = v^(hk) for every basis translate v^h and every
    translate v^k, which is exact: both sides are linear in v^h, and the
    basis spans.
    """
    p, d = action.prime, action.dim
    vt = tuple(int(x) % p for x in v)
    translate_rows = _translates(action, vt)
    span, rref = _span(translate_rows, p, d)
    if not span.spans:
        raise ValidationError("translates of v do not span the space")
    caps.check("materialized_order", p**d)
    bound = _shortest_sums(translate_rows, p, vt).bound
    group = action.group
    pivots = list(span.basis_elements)  # {c : c @ translate_rows == 0} has a row per other column
    outside = np.ones(group.order, dtype=bool)
    outside[pivots] = False
    free = np.flatnonzero(outside)
    coeffs = (-rref[:, free].T) % p  # [kernel row, pivot]
    for k, values in _shifts(coeffs, free, pivots, translate_rows, group.right, p):
        nonzero = values.any(axis=2)  # [row of the block, h]
        hits = np.flatnonzero(nonzero.any(axis=1))
        if hits.size:
            i = int(hits[0])
            h = int(np.argmax(nonzero[i]))
            row = np.zeros(group.order, dtype=np.int64)
            row[free[k + i]], row[pivots] = 1, coeffs[k + i]
            return RingConstruction(
                well_defined=False, ring=None,
                witness=IllDefinedWitness(
                    annihilator_coeffs=tuple(int(x) for x in row),
                    multiplier=h,
                    product_value=tuple(int(x) for x in values[i, h]),
                ),
                translate_bound=bound,
            )
    # the right check is automatic; assert it on the first basis row anyway
    if free.size and next(_shifts(coeffs[:1], free, pivots, translate_rows, group.left, p))[1].any():
        raise GroupLabError("annihilator is not a right ideal; action tables broken")

    ring = _translate_ring(action, vt, span)
    _verify_translate_products(ring, translate_rows)
    return RingConstruction(well_defined=True, ring=ring, witness=None, translate_bound=bound)


def _shifts(coeffs: np.ndarray, free: np.ndarray, pivots: list[int], translate_rows: np.ndarray,
            column, p: int) -> Iterator[tuple[int, np.ndarray]]:
    """The image of v under h * c for `column` = right, or under c * h for left, for every kernel
    row c and every h, as [row, h, coordinate]: a block of `_block_rows(n * d)` rows at a time,
    with the index of its first row.

    Kernel row k is 1 at column `free[k]` and `coeffs[k]` at the pivots, so its image is the
    translates gathered at that column plus the pivot coefficients times the d translates
    gathered at the pivots.
    """
    n, d = translate_rows.shape
    at_pivots = np.stack([translate_rows[column(x)] for x in pivots])  # [pivot, h, coordinate]
    rows = _block_rows(n * d)
    for k in range(0, len(coeffs), rows):
        block = coeffs[k:k + rows]
        gathered = translate_rows[np.stack([column(x) for x in free[k:k + len(block)].tolist()])]
        yield k, (gathered + np.tensordot(block, at_pivots, 1)) % p


def _translate_ring(action: GModuleAction, v: tuple[int, ...], span: OrbitSpan) -> ModuleRing:
    """The product v^h * v^k = v^(hk) on the translate basis; well defined or not."""
    p = action.prime
    basis = np.array(span.basis_vectors, dtype=np.int64)
    hs = np.array(span.basis_elements, dtype=np.intp)
    prods = action.matrices[[action.group.left(h)[hs] for h in hs]]  # matrix of h_i h_j
    structure = (((np.array(v, dtype=np.int64) @ prods) % p) @ inv_gfp(basis, p)) % p
    return ModuleRing(action, v, span.basis_elements, basis, structure)


def _verify_translate_products(ring: ModuleRing, translate_rows: np.ndarray) -> None:
    """Check v^h * v^k = v^(hk) for all translates, one row of products per basis element h:
    both sides are linear in v^h (v^(hk) is v^h times the matrix of k), and the basis spans."""
    ids = _coords_id(translate_rows @ ring._basis_inv, ring.p)  # the ring id of every translate
    hs = list(ring.basis_elements)
    products = _structure_grid(ring._structure, ring.p, "mul", ids[hs], ids)
    if not np.array_equal(products, ids[[ring.action.group.left(h) for h in hs]]):
        raise GroupLabError("ring product disagrees with the translate-sum formula")


def nilpotent_free_check(ring: ModuleRing | FiniteCommutativeAlgebra,
                         *, caps: Caps = DEFAULT_CAPS) -> tuple[bool, int | None]:
    """Exhaustive nilpotence scan over the squaring map; returns (ok, witness id)."""
    caps.check("materialized_order", ring.size)
    witness = find_nilpotent(ring.squares())
    return witness is None, witness


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
        m = np.zeros((degree, degree), dtype=np.int64)
        m[list(group.permutation_of(eid)), range(degree)] = 1
        mats[eid] = m
    return action_from_matrices(group, p, degree, mats, caps=caps)


def sum_zero_action(group: FiniteGroup, p: int, *, caps: Caps = DEFAULT_CAPS) -> GModuleAction:
    """Restriction of the permutation module to the sum-zero subspace.

    Basis: f_i = e_i - e_(i+1); the classic (degree-1)-dimensional summand.
    A sum-zero u is sum c_i f_i with c_i = u_0 + ... + u_i.  Only the generators'
    matrices are solved for; the others are their products.
    """
    full = permutation_module_action(group, p, caps=caps)
    degree = full.dim
    if degree < 2:
        raise ValidationError("need degree at least 2")
    basis = (np.eye(degree - 1, degree, dtype=np.int64) - np.eye(degree - 1, degree, 1, dtype=np.int64)) % p
    mats = {}
    # invariance under the generators is invariance under the group they generate
    for eid in group.perm_generators.element_ids:
        images = (basis @ full.matrices[eid]) % p
        if (images.sum(axis=1) % p).any():
            raise GroupLabError("sum-zero subspace is not invariant")
        mats[eid] = np.cumsum(images, axis=1)[:, :-1] % p
    return action_from_matrices(group, p, degree - 1, mats, caps=caps)


class FaithfulnessReport(NamedTuple):
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
