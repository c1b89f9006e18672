"""Explicit finite fields and small commutative rings.

Bundled fields: GF(p) for any prime p, plus GF(4), GF(8) and GF(9) via
fixed irreducible polynomials.  Elements of GF(p^k) are polynomial
coefficient vectors encoded base p (little-endian), so 0 is the zero
element, 1 is the one, and the prime subfield is always {0, .., p-1}.
Fields, Z/n, filtered Boolean powers and module rings are all built from
structure constants, through `_from_structure`, and answer from coordinates
through `_structure_grid`; their whole tables are filled only on request.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, NilpotentElementError, ValidationError
from .groups import FiniteGroup, _block_rows, _distinct, _greedy_generators, _is_latin
from .linalg import is_prime, prime_power_base

__all__ = [
    "AlgebraFactor",
    "FiniteCommutativeAlgebra",
    "MRDecomposition",
    "field_by_name",
    "find_nilpotent",
    "gf",
    "mr_decompose",
    "prime_subfield_ids",
    "zmod",
]


class FiniteCommutativeAlgebra:
    """A commutative ring with 1, given by full addition and multiplication tables, or, through
    `_from_structure`, by structure constants over Z/char on the ids of its coordinates.

    The second kind answers from coordinates and fills `add_table` / `mul_table` only when a
    consumer reads them whole; either kind keeps its tables read-only once it has them.
    """

    # the tables, given or filled on first read
    _add: np.ndarray | None = None
    _mul: np.ndarray | None = None
    # structure[i, j, k]: the coordinate k of e_i e_j, for an algebra built from structure constants
    _structure: np.ndarray | None = None

    def __init__(
        self,
        add_table: np.ndarray | Sequence[Sequence[int]],
        mul_table: np.ndarray | Sequence[Sequence[int]],
        *,
        char: int,
        one_id: int,
        name: str = "R",
    ):
        add = np.ascontiguousarray(np.asarray(add_table, dtype=np.int32))
        mul = np.ascontiguousarray(np.asarray(mul_table, dtype=np.int32))
        n = add.shape[0]
        if add.ndim != 2 or add.shape != (n, n) or mul.shape != (n, n):
            raise ValidationError("algebra tables must be square and equal-sized")
        self.size = int(n)
        self.char = int(char)
        self.one = int(one_id)
        self.zero = 0
        self.name = name
        ids = np.arange(n, dtype=np.int32)
        if not np.array_equal(add[0], ids):
            raise ValidationError("element 0 must be the additive identity")
        if not np.array_equal(add, add.T) or not np.array_equal(mul, mul.T):
            raise ValidationError("algebra is not commutative")
        if not (0 <= one_id < n and np.array_equal(mul[one_id], ids)):
            raise ValidationError("designated one is not a multiplicative identity")
        if add.min() < 0 or add.max() >= n or not _is_latin(add):
            raise ValidationError("addition rows are not permutations")
        self._add, self._mul = add, mul
        # the walk ends within n steps, since adding one permutes the ids; char 1 = 0 gives char x = 0
        if len(prime_subfield_ids(self)) != self.char:
            raise ValidationError("characteristic is not the additive order of one")
        self._axioms_on_generators(add, mul)
        add.setflags(write=False)
        mul.setflags(write=False)

    @staticmethod
    def _axioms_on_generators(add: np.ndarray, mul: np.ndarray) -> None:
        """Both associativities and distributivity, exactly, on the greedy generators S of (R, +).

        Light's test on S proves + associative; the c with a(b+c) = ab + ac for all
        a, b are closed under sums; then (ab)c and a(bc) are additive in b and c.
        Rows are compared one bounded block at a time.
        """
        try:  # (R, +) passes every group check but Light's test, which full validation runs
            gens = _greedy_generators(FiniteGroup(add, name="(R, +)"))
        except ValidationError:
            raise ValidationError("addition is not associative") from None
        n = add.shape[0]
        rows = _block_rows(n)
        for s in gens:
            for r in range(0, n, rows):
                block = mul[r:r + rows]  # a(b+s), ab+as
                if not np.array_equal(block[:, add[:, s]], add[block, block[:, s, None]]):
                    raise ValidationError("multiplication does not distribute over addition")
        for s in gens:
            for t in gens:
                if not np.array_equal(mul[mul[:, s], t], mul[:, mul[s, t]]):  # (as)t, a(st)
                    raise ValidationError("multiplication is not associative")

    @property
    def add_table(self) -> np.ndarray:
        """The whole addition table: `add_table[a, b]` is the id of a + b."""
        if self._add is None:
            self._add = self._whole("add")
        return self._add

    @property
    def mul_table(self) -> np.ndarray:
        """The whole multiplication table: `mul_table[a, b]` is the id of a * b."""
        if self._mul is None:
            self._mul = self._whole("mul")
        return self._mul

    def _whole(self, op: str) -> np.ndarray:
        ids = np.arange(self.size)
        table = self._grid(op, ids, ids)
        table.setflags(write=False)
        return table

    def _grid(self, op: str, a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray:
        """The int32 ids of x + y (`op` "add") or x * y ("mul") for x in `a` (rows) and y in `b`
        (columns): read from the table once there is one, else from coordinates."""
        table = self._add if op == "add" else self._mul
        if table is not None:
            return table[np.ix_(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))]
        return _structure_grid(self._structure, self.char, op, a, b)

    def add(self, a: int, b: int) -> int:
        return int(self._grid("add", [a], [b])[0, 0])

    def mul(self, a: int, b: int) -> int:
        return int(self._grid("mul", [a], [b])[0, 0])

    def neg(self, a: int) -> int:
        if self._add is None:
            return int(_coords_id(-_coords(a, self.char, self._structure.shape[0]), self.char))
        return int(np.flatnonzero(self._add[a] == 0)[0])

    def squares(self) -> np.ndarray:
        """The id of x * x for every element x."""
        if self._mul is None:
            return _squares(self._structure, self.char)
        return np.diagonal(self._mul)

    def elements(self) -> range:
        return range(self.size)

    def idempotents(self) -> list[int]:
        return np.flatnonzero(self.squares() == np.arange(self.size)).tolist()

    def is_field(self) -> bool:
        """Whether no product of two nonzero elements is zero, read a bounded block of rows at a time."""
        if self.size < 2:
            return False
        nz = np.arange(1, self.size)
        rows = _block_rows(nz.size)
        return all(self._grid("mul", nz[r:r + rows], nz).all() for r in range(0, nz.size, rows))

    def __repr__(self) -> str:
        return f"FiniteCommutativeAlgebra({self.name!r}, size={self.size})"


def _place_values(m: int, d: int) -> np.ndarray:
    """The place values of the ids that encode d coordinates mod m, little-endian."""
    return m ** np.arange(d, dtype=np.int64)


def _coords(ids: int | np.ndarray, m: int, d: int) -> np.ndarray:
    """The d coordinates of an id, or of every id of an array along a new last axis."""
    return np.asarray(ids, dtype=np.int64)[..., None] // _place_values(m, d) % m


def _coords_id(coords: np.ndarray | Sequence[int], m: int) -> np.ndarray:
    """The id of the coordinates along the last axis, each reduced mod m first."""
    coords = np.asarray(coords, dtype=np.int64) % m
    return coords @ _place_values(m, coords.shape[-1])


def _structure_grid(structure: np.ndarray, m: int, op: str,
                    a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray:
    """The int32 ids of x + y (`op` "add") or x * y ("mul") for x in `a` (rows) and y in `b`
    (columns), in the ring over Z/m with e_i e_j = sum_k structure[i, j, k] e_k, which need not
    be commutative, on the ids of its coordinates: one block of `_block_rows(len(b) * d)` rows
    at a time."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    d = structure.shape[0]
    cb = _coords(b, m, d)
    out = np.empty((a.size, b.size), dtype=np.int32)
    rows = _block_rows(max(b.size * d, 1))
    for r in range(0, a.size, rows):
        ca = _coords(a[r:r + rows], m, d)
        if op == "add":
            out[r:r + rows] = _coords_id(ca[:, None] + cb, m)
        else:
            out[r:r + rows] = _coords_id(cb @ np.tensordot(ca, structure, 1), m)
    return out


def _squares(structure: np.ndarray, m: int) -> np.ndarray:
    """The id of x * x for every id x of the ring over Z/m with e_i e_j = sum_k structure[i, j, k] e_k,
    which need not be commutative, one block of `_block_rows(d * d)` ids at a time."""
    d = structure.shape[0]
    size = m**d
    out = np.empty(size, dtype=np.int64)
    rows = _block_rows(d * d)
    for r in range(0, size, rows):
        c = _coords(np.arange(r, min(r + rows, size)), m, d)
        out[r:r + rows] = _coords_id((c[:, None] @ np.tensordot(c, structure, 1))[:, 0], m)
    return out


def _from_structure(structure: np.ndarray, m: int, one_id: int, name: str) -> FiniteCommutativeAlgebra:
    """The algebra over Z/m with e_i e_j = sum_k structure[i, j, k] e_k, on the ids of its
    coordinates, kept as its structure constants.

    Its axioms are checked on the basis, with the messages of the table checks, which is exact
    because the product is bilinear: commutativity as structure[i, j] = structure[j, i],
    associativity as (e_i e_j) e_l = e_i (e_j e_l) for every basis triple, and the one as
    one e_j = e_j for every j.  Distributivity, the additive group and the characteristic m
    hold by construction.
    """
    t = np.asarray(structure, dtype=np.int64) % m
    d = t.shape[0]
    if not np.array_equal(t, t.swapaxes(0, 1)):
        raise ValidationError("algebra is not commutative")
    if not (0 <= one_id < m**d and np.array_equal(np.tensordot(_coords(one_id, m, d), t, 1) % m, np.eye(d))):
        raise ValidationError("designated one is not a multiplicative identity")
    # (e_i e_j) e_l as [i, j, l, coordinate]; e_i (e_j e_l) = (e_j e_l) e_i, since the product commutes
    triples = np.tensordot(t, t, 1) % m
    if not np.array_equal(triples, np.moveaxis(triples, 2, 0)):
        raise ValidationError("multiplication is not associative")
    algebra = FiniteCommutativeAlgebra.__new__(FiniteCommutativeAlgebra)
    algebra.size, algebra.char, algebra.one, algebra.zero = m**d, m, int(one_id), 0
    algebra.name, algebra._structure = name, t
    return algebra


# Irreducible polynomials for the bundled prime-power fields, little-endian
# coefficients of x^k = -(lower terms).
_IRREDUCIBLE = {
    4: (2, 2, (1, 1)),   # x^2 + x + 1 over GF(2)
    8: (2, 3, (1, 1, 0)),  # x^3 + x + 1 over GF(2)
    9: (3, 2, (1, 0)),   # x^2 + 1 over GF(3)
}


def gf(q: int) -> FiniteCommutativeAlgebra:
    """The finite field with q elements, for prime q or q in {4, 8, 9}.

    GF(p^k) = GF(p)[x]/(f) on the basis 1, x, .., x^(k-1): x^i x^j is row i of C^j
    for the companion matrix C of f, whose row i is x^(i+1).
    """
    if is_prime(q):
        p, structure = q, np.ones((1, 1, 1), dtype=np.int64)
    elif q in _IRREDUCIBLE:
        p, k, poly = _IRREDUCIBLE[q]
        companion = np.eye(k, k, 1, dtype=np.int64)
        companion[-1] = np.negative(poly) % p
        powers = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            powers.append(powers[-1] @ companion % p)
        structure = np.stack(powers, axis=1)  # structure[i, j] is row i of C^j
    else:
        raise ValidationError(f"no bundled field of size {q}")
    field = _from_structure(structure, p, 1, f"GF{q}")
    if not field.is_field():
        raise GroupLabError(f"bundled GF({q}) tables are not a field")
    return field


def zmod(n: int) -> FiniteCommutativeAlgebra:
    """Integers modulo n (a ring, not a field for composite n)."""
    if n < 2:
        raise ValidationError("modulus must be at least 2")
    return _from_structure(np.ones((1, 1, 1), dtype=np.int64), n, 1, f"Z{n}")


_FIELD_NAMES = {"GF2": 2, "GF3": 3, "GF4": 4, "GF5": 5, "GF7": 7, "GF8": 8, "GF9": 9}


def field_by_name(name: str) -> FiniteCommutativeAlgebra:
    if name not in _FIELD_NAMES:
        raise ValidationError(f"unknown field name {name!r}; known: {sorted(_FIELD_NAMES)}")
    return gf(_FIELD_NAMES[name])


def prime_subfield_ids(field: FiniteCommutativeAlgebra) -> frozenset[int]:
    """The ids of the prime subfield, or of a ring's prime subring: 0, 1, 1 + 1, ... up to the
    additive order of the one."""
    multiples = [0]
    while (x := field.add(multiples[-1], field.one)) != 0:
        multiples.append(x)
    return frozenset(multiples)


def find_nilpotent(square: np.ndarray) -> int | None:
    """Smallest id of a nonzero nilpotent element, or None, given the squaring map
    x -> x*x as the id of every square.

    Uses repeated squaring: x is nilpotent iff x^(2^k) = 0 once 2^k covers
    the ring size.
    """
    cur = np.arange(square.size)
    for _ in range(max(1, square.size.bit_length())):
        cur = square[cur]
    hits = np.flatnonzero(cur[1:] == 0)
    return int(hits[0]) + 1 if hits.size else None


class AlgebraFactor(NamedTuple):
    """One field factor of a decomposed ring."""

    idempotent: int                 # its unit, as an element of the parent ring
    element_ids: tuple[int, ...]    # parent-ring ids of its elements, ascending
    field: FiniteCommutativeAlgebra  # reindexed tables over element_ids


class MRDecomposition(NamedTuple):
    factors: tuple[AlgebraFactor, ...]
    # component_ids[x] = tuple of factor-local ids of the projections of x
    component_ids: tuple[tuple[int, ...], ...]


def mr_decompose(ring: FiniteCommutativeAlgebra, *, caps: Caps = DEFAULT_CAPS) -> MRDecomposition:
    """Split a nilpotent-free commutative ring into its field factors.

    Finds the primitive idempotents by splitting 1: a part e that an idempotent f cuts (ef neither
    0 nor e) becomes ef and e - ef, until no idempotent lies strictly below a part.  Builds each
    factor e*R as a field, and verifies that the componentwise projection is a ring isomorphism.
    Raises NilpotentElementError with a witness if the ring has one.
    """
    n = ring.size
    caps.check("materialized_order", n)
    squares = ring.squares()
    witness = find_nilpotent(squares)
    if witness is not None:
        raise NilpotentElementError(witness, f"ring {ring.name}")
    idempotents = np.flatnonzero(squares == np.arange(n))
    parts = [ring.one] if n > 1 else []  # the zero ring has no factors
    prods = ring._grid("mul", parts, idempotents)
    while (cut := (prods != 0) & (prods != np.array(parts)[:, None])).any():
        i, j = np.unravel_index(cut.argmax(), cut.shape)
        e, ef = parts.pop(i), int(prods[i, j])
        parts += [ef, ring.add(e, ring.neg(ef))]
        prods = np.vstack([np.delete(prods, i, axis=0), ring._grid("mul", parts[-2:], idempotents)])
    primitive = np.array(sorted(parts), dtype=np.intp)
    products = ring._grid("mul", primitive, primitive)
    if products[~np.eye(primitive.size, dtype=bool)].any():
        raise GroupLabError("primitive idempotents are not orthogonal")
    total = 0
    for e in primitive.tolist():
        total = ring.add(total, e)
    if total != ring.one:
        raise GroupLabError("primitive idempotents do not sum to one")

    factors = []
    projections = []  # per factor, the local id of e*x for every x
    for e in primitive.tolist():
        row = ring._grid("mul", [e], np.arange(n))[0]  # e*x for every x
        member_ids = _distinct(row, n)
        char = prime_power_base(member_ids.size)
        if char is None:
            raise GroupLabError("a factor of a nilpotent-free ring is not a field")
        local = np.full(n, -1, dtype=np.int32)
        local[member_ids] = np.arange(member_ids.size)
        field = FiniteCommutativeAlgebra(
            local[ring._grid("add", member_ids, member_ids)],
            local[ring._grid("mul", member_ids, member_ids)],
            char=char, one_id=int(local[e]), name=f"{ring.name}.e{e}",
        )
        if not field.is_field():
            raise GroupLabError("a factor of a nilpotent-free ring is not a field")
        factors.append(AlgebraFactor(idempotent=e, element_ids=tuple(member_ids.tolist()),
                                     field=field))
        projections.append(local[row])

    components = tuple(map(tuple, np.array(projections).reshape(len(factors), n).T.tolist()))
    if len(set(components)) != n:
        raise GroupLabError("componentwise projection is not injective")
    sizes = 1
    for f in factors:
        sizes *= f.field.size
    if sizes != n:
        raise GroupLabError("factor sizes do not multiply to the ring size")
    return MRDecomposition(factors=tuple(factors), component_ids=components)
