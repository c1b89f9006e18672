"""Finite groups as immutable Cayley tables with 0-based element ids.

Element 0 is always the identity.  Every canonical order used anywhere in
the package is id-lexicographic, so repeated runs produce identical output
regardless of platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, GroupLabError, ValidationError

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "PermGenerators",
    "Series",
    "Subgroup",
    "build_group",
    "center",
    "centralizer",
    "commutator_subgroup",
    "commuting_pair_count",
    "conjugacy_classes",
    "core",
    "cyclic_group",
    "direct_power",
    "direct_product",
    "is_nilpotent",
    "is_perfect",
    "is_soluble",
    "normal_closure",
    "quotient",
    "series",
    "subgroup_closure",
]


def _closure_mask(table: np.ndarray, gens: Sequence[int], start: Sequence[int] = (0,)) -> np.ndarray:
    """Boolean mask of the closure of `start` under right multiplication by `gens`."""
    seen = np.zeros(table.shape[0], dtype=bool)
    frontier = np.asarray(start, dtype=np.intp)
    seen[frontier] = True
    garr = np.asarray(gens, dtype=np.intp)
    while frontier.size and garr.size:
        prods = table[frontier[:, None], garr]
        frontier = np.unique(prods[~seen[prods]])
        seen[frontier] = True
    return seen


def _greedy_generators(table: np.ndarray, ids: Sequence[int] | None = None) -> list[int]:
    """Small generating set of the subgroup `ids` (default: all of G), chosen by ascending id."""
    ids = np.arange(table.shape[0]) if ids is None else np.asarray(ids, dtype=np.intp)
    gens: list[int] = []
    covered = _closure_mask(table, gens)
    while not covered[ids].all():
        gens.append(int(ids[np.argmin(covered[ids])]))
        covered = _closure_mask(table, gens, np.flatnonzero(covered))
    return gens


_CHECK_BLOCK = 1 << 16  # cells of one block of rows in the table checks


def _is_latin(table: np.ndarray) -> bool:
    """Whether every row and every column of a square table with entries in 0..n-1 is a permutation.

    The rows of the table, then those of its transpose, are marked one bounded
    block at a time, so the scratch stays near `_CHECK_BLOCK` cells at any order.
    """
    n = table.shape[0]
    rows = min(n, max(1, _CHECK_BLOCK // n))  # a small table needs no more scratch than itself
    offsets = np.arange(rows, dtype=np.intp)[:, None] * n
    seen = np.empty(rows * n, dtype=bool)
    for t in (table, table.T):
        for r in range(0, n, rows):
            block = t[r:r + rows]
            mark = seen[:block.size]
            mark[:] = False
            mark[block + offsets[:block.shape[0]]] = True
            if not mark.all():
                return False
    return True


def _light_associativity(table: np.ndarray) -> None:
    # Light's test: associativity on a generating set proves it everywhere.
    # Rows x are compared one bounded block at a time.
    n = table.shape[0]
    rows = max(1, _CHECK_BLOCK // n)
    for g in _greedy_generators(table):
        for r in range(0, n, rows):
            block = table[r:r + rows]
            lhs = table[block[:, g]]      # (x g) y
            rhs = block[:, table[g]]      # x (g y)
            if not np.array_equal(lhs, rhs):
                raise ValidationError("multiplication table is not associative")


@dataclass(frozen=True)
class PermGenerators:
    """Permutation generators a group was closed from, with their element ids."""

    degree: int
    perms: tuple[tuple[int, ...], ...]
    element_ids: tuple[int, ...]


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `table[a, b]` is the id of the product a*b.  The table and inverse array
    are read-only numpy arrays; instances are immutable and safe to share.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[Sequence[int]],
        *,
        name: str = "G",
        perm_generators: PermGenerators | None = None,
        words: tuple[np.ndarray, np.ndarray] | None = None,
        validate: str = "full",
        caps: Caps = DEFAULT_CAPS,
    ) -> None:
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = raw.shape[0]
        if n == 0:
            raise ValidationError("a group has at least one element")
        if raw.dtype.kind not in "iu":
            raise ValidationError(f"multiplication table entries must be integers, not {raw.dtype}")
        caps.check("order", n)
        if validate not in ("full", "basic"):
            raise ValueError(f"unknown validation level {validate!r}")
        # before the int32 cast, which would wrap an entry such as 2**32 into range
        if raw.min() < 0 or raw.max() >= n:
            raise ValidationError("table entry out of range")
        arr = np.ascontiguousarray(raw, dtype=np.int32)
        ids = np.arange(n, dtype=np.int32)
        if not (np.array_equal(arr[0], ids) and np.array_equal(arr[:, 0], ids)):
            raise ValidationError("element 0 must act as the identity")
        if not _is_latin(arr):
            raise ValidationError("table rows/columns are not permutations")
        # every row is a permutation of 0..n-1, so its minimum 0 sits at the inverse
        inverse = arr.argmin(axis=1).astype(np.int32)
        if not np.all(arr[inverse, ids] == 0):
            raise ValidationError("an element lacks a two-sided inverse")
        if validate == "full":
            _light_associativity(arr)
        arr.setflags(write=False)
        inverse.setflags(write=False)
        self.name = name
        self.table = arr
        self.inverse = inverse
        self.perm_generators = perm_generators
        self._words = words
        self._labels: np.ndarray | None = None
        self._pairs: int | None = None
        self._abelian: bool | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, g: int, h: int) -> int:
        """g^h = h^-1 g h."""
        return int(self.table[self.table[self.inverse[h], g], h])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        t = self.table
        return int(t[t[t[self.inverse[a], self.inverse[b]], a], b])

    def element_order(self, a: int) -> int:
        x, k = int(a), 1
        while x != 0:
            x = int(self.table[x, a])
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def exponent(self) -> int:
        e = 1
        for a in self.elements():
            k = self.element_order(a)
            e = e * k // np.gcd(e, k)
        return int(e)

    # -- subgroup helpers --------------------------------------------------

    def subgroup(self, ids: Iterable[int], *, validate: bool = True) -> "Subgroup":
        return Subgroup(self, ids, validate=validate)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup._from_sorted(self, (0,), ())

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), validate=False)

    def permutation_of(self, x: int) -> tuple[int, ...]:
        """Permutation realizing element x, for groups built from generators."""
        if self.perm_generators is None or self._words is None:
            raise ValidationError("group has no permutation presentation")
        parents, genidx = self._words
        chain: list[int] = []
        while x != 0:
            chain.append(int(genidx[x]))
            x = int(parents[x])
        perm = np.arange(self.perm_generators.degree, dtype=np.int32)
        gen_arrays = [np.array(p, dtype=np.int32) for p in self.perm_generators.perms]
        for gi in reversed(chain):
            perm = perm[gen_arrays[gi]]
        return tuple(int(v) for v in perm)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup:
    """A sorted set of element ids closed under the parent's operations."""

    __slots__ = ("group", "ids", "_members", "_gens")

    def __init__(self, group: FiniteGroup, ids: Iterable[int], *, validate: bool = True):
        sorted_ids = tuple(sorted({int(x) for x in ids}))
        if not sorted_ids:
            raise ValidationError("a subgroup is nonempty")
        self.group = group
        self.ids = sorted_ids
        self._members = frozenset(sorted_ids)
        self._gens: tuple[int, ...] | None = None
        if validate:
            self._validate()

    @classmethod
    def _from_sorted(cls, group: FiniteGroup, ids: tuple[int, ...],
                     gens: tuple[int, ...] | None) -> "Subgroup":
        """A subgroup from ids already sorted, unique and closed, taken as they are."""
        sub = cls.__new__(cls)
        sub.group = group
        sub.ids = ids
        sub._members = frozenset(ids)
        sub._gens = gens
        return sub

    def _validate(self) -> None:
        g = self.group
        if self.ids[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        if self.ids[-1] >= g.order:
            raise ValidationError("subgroup id out of range")
        arr = np.array(self.ids, dtype=np.int32)
        if not np.isin(g.inverse[arr], arr).all():
            raise ValidationError("subgroup not closed under inversion")
        if not np.isin(g.table[np.ix_(arr, arr)], arr).all():
            raise ValidationError("subgroup not closed under multiplication")
        if g.order % len(self.ids) != 0:
            raise GroupLabError("Lagrange violation, table is inconsistent")

    @property
    def gens(self) -> tuple[int, ...]:
        """The generators `subgroup_closure` closed it from, else greedy ones by ascending id."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.group.table, self.ids))
        return self._gens

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, x: int) -> bool:
        return x in self._members

    def __iter__(self):
        return iter(self.ids)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other.ids == self.ids
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.ids))

    @property
    def index(self) -> int:
        return self.group.order // len(self.ids)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return self._members.issuperset(other._members)

    def conjugate_by(self, g: int) -> "Subgroup":
        t, inv = self.group.table, self.group.inverse
        arr = np.array(self.ids, dtype=np.int32)
        conj = t[t[inv[g], arr], g]
        return Subgroup(self.group, conj.tolist(), validate=False)

    def is_normal(self) -> bool:
        # Normal iff a union of conjugacy classes, that is, its own core.
        return len(core(self.group, self)) == len(self)

    def as_group(self, *, name: str | None = None) -> tuple[FiniteGroup, "GroupHom"]:
        """Reindexed copy of this subgroup plus the embedding hom into the parent."""
        arr = np.array(self.ids, dtype=np.int32)
        table = _local_ids(self, self.group.table[np.ix_(arr, arr)])
        grp = FiniteGroup(table, name=name or f"{self.group.name}-sub{len(arr)}", validate="basic")
        embed = GroupHom(grp, self.group, arr, validate=False)
        return grp, embed

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.ids)} of {self.group.name})"


def _local_ids(sub: Subgroup, ids) -> np.ndarray:
    """Ids of elements of `sub` in `sub.as_group()`: their positions in the sorted `sub.ids`.

    Elements outside `sub` get -1.
    """
    local = np.full(sub.group.order, -1, dtype=np.int32)
    local[np.array(sub.ids, dtype=np.int32)] = np.arange(len(sub), dtype=np.int32)
    return local[np.asarray(ids)]


class GroupHom:
    """A homomorphism stored as an id-to-id mapping array."""

    __slots__ = ("source", "target", "mapping")

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        mapping: np.ndarray | Sequence[int],
        *,
        validate: bool = True,
    ):
        raw = np.asarray(mapping)
        if raw.shape != (source.order,):
            raise ValidationError("homomorphism mapping has wrong length")
        if raw.min() < 0 or raw.max() >= target.order:
            raise ValidationError("homomorphism image out of range")
        arr = np.ascontiguousarray(raw, dtype=np.int32)
        if validate:
            if arr[0] != 0:
                raise ValidationError("homomorphism must fix the identity")
            lhs = arr[source.table]
            rhs = target.table[arr[:, None], arr[None, :]]
            if not np.array_equal(lhs, rhs):
                raise ValidationError("mapping is not a homomorphism")
        arr.setflags(write=False)
        self.source = source
        self.target = target
        self.mapping = arr

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])

    def image_ids(self) -> np.ndarray:
        return np.unique(self.mapping)

    def image(self) -> Subgroup:
        return Subgroup(self.target, self.image_ids().tolist(), validate=False)

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.flatnonzero(self.mapping == 0).tolist(), validate=False)

    def is_surjective(self) -> bool:
        return self.image_ids().size == self.target.order

    def is_injective(self) -> bool:
        return np.unique(self.mapping).size == self.source.order

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner, mapping inner.source into self.target."""
        if inner.target is not self.source:
            raise ValidationError("homomorphisms do not compose")
        return GroupHom(inner.source, self.target, self.mapping[inner.mapping], validate=False)

    def map_subgroup(self, sub: Subgroup) -> Subgroup:
        if sub.group is not self.source:
            raise ValidationError("subgroup belongs to a different group")
        ids = np.unique(self.mapping[np.array(sub.ids, dtype=np.int32)])
        return Subgroup(self.target, ids.tolist(), validate=False)

    def __repr__(self) -> str:
        return f"GroupHom({self.source.name} -> {self.target.name})"


@dataclass(frozen=True)
class Series:
    """A stabilized descending series of subgroups; terms[0] is the whole group."""

    kind: str  # "derived" | "lower_central"
    terms: tuple[Subgroup, ...]


# -- construction ----------------------------------------------------------


def _perm_closure(
    gen_arrays: list[np.ndarray], degree: int, cap: int
) -> tuple[list[np.ndarray], dict[bytes, int], list[int], list[int]]:
    """BFS closure of permutations under right multiplication by the generators.

    Composition convention: (p * q)(x) = p(q(x)), so right-multiplying the
    permutation array p by generator q is p[q].
    """
    ident = np.arange(degree, dtype=np.int32)
    perms = [ident]
    index: dict[bytes, int] = {ident.tobytes(): 0}
    parents = [-1]
    genidx = [-1]
    qi = 0
    while qi < len(perms):
        cur = perms[qi]
        for gi, gp in enumerate(gen_arrays):
            new = cur[gp]
            key = new.tobytes()
            if key not in index:
                if len(perms) >= cap:
                    raise CapExceeded("order", cap, len(perms) + 1, "permutation closure")
                index[key] = len(perms)
                perms.append(new)
                parents.append(qi)
                genidx.append(gi)
        qi += 1
    return perms, index, parents, genidx


def _group_from_perms(gen_arrays: list[np.ndarray], degree: int, *, name: str,
                      caps: Caps) -> tuple[FiniteGroup, dict[bytes, int]]:
    """The group generated by permutations, and its index: permutation bytes -> element id.

    The Cayley table is built row by row, by left multiplication: element
    i = parent*gen gives i*j = parent*(gen*j), so row i is the parent's row
    read through the left-multiplication column of the generator.
    """
    perms, index, parents, genidx = _perm_closure(gen_arrays, degree, caps.order)
    n = len(perms)
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    left = [np.fromiter((index[g[perm].tobytes()] for perm in perms), dtype=np.intp, count=n)
            for g in gen_arrays]
    for i in range(1, n):
        np.take(table[parents[i]], left[genidx[i]], out=table[i])
    presentation = PermGenerators(
        degree=degree,
        perms=tuple(tuple(int(v) for v in g) for g in gen_arrays),
        element_ids=tuple(index[g.tobytes()] for g in gen_arrays),
    )
    words = (np.array(parents, dtype=np.int32), np.array(genidx, dtype=np.int32))
    grp = FiniteGroup(table, name=name, perm_generators=presentation, words=words,
                      validate="basic", caps=caps)
    return grp, index


def build_group(
    *,
    table: Sequence[Sequence[int]] | np.ndarray | None = None,
    generators: Sequence[Sequence[int]] | None = None,
    degree: int | None = None,
    name: str = "G",
    caps: Caps = DEFAULT_CAPS,
) -> FiniteGroup:
    """Build a validated group from a full table or permutation generators.

    Generator input is closed by breadth-first product saturation; element
    ids follow discovery order with the identity first.
    """
    if (table is None) == (generators is None):
        raise ValidationError("provide exactly one of table= or generators=")
    if table is not None:
        return FiniteGroup(table, name=name, validate="full", caps=caps)
    if degree is None:
        raise ValidationError("generator input requires degree=")
    if degree < 1:
        raise ValidationError("degree must be at least 1")
    gen_arrays = []
    for images in generators or ():
        arr = np.asarray(list(images))
        if (arr.shape != (degree,) or arr.dtype.kind not in "iu"
                or not np.array_equal(np.sort(arr), np.arange(degree))):
            raise ValidationError(f"not a permutation of {degree} points: {list(images)!r}")
        gen_arrays.append(arr.astype(np.int32))
    return _group_from_perms(gen_arrays, degree, name=name, caps=caps)[0]


def cyclic_group(n: int, *, name: str | None = None, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    ids = np.arange(n, dtype=np.int32)
    table = (ids[:, None] + ids[None, :]) % n
    return FiniteGroup(table.astype(np.int32), name=name or f"Z{n}", validate="basic", caps=caps)


def direct_product(a: FiniteGroup, b: FiniteGroup, *, name: str | None = None,
                   caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Direct product with ids encoded as x*|b| + y (first factor most significant)."""
    na, nb = a.order, b.order
    caps.check("order", na * nb)
    t = a.table[:, None, :, None].astype(np.int32) * nb + b.table[None, :, None, :]
    table = t.reshape(na * nb, na * nb)
    return FiniteGroup(table, name=name or f"{a.name}x{b.name}", validate="basic", caps=caps)


def direct_power(p: FiniteGroup, m: int, *, name: str | None = None,
                 caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Direct power P^m; coordinate 0 is the most significant digit of the id."""
    if m < 0:
        raise ValidationError("power must be nonnegative")
    caps.check("order", p.order ** m)
    name = name or f"{p.name}^{m}"
    if m <= 1:
        return FiniteGroup(p.table if m else [[0]], name=name, validate="basic", caps=caps)
    grp = p
    for k in range(2, m + 1):
        grp = direct_product(grp, p, name=name if k == m else None, caps=caps)
    return grp


# -- structural queries ------------------------------------------------------


def subgroup_closure(g: FiniteGroup, gens: Iterable[int], *,
                     start: Subgroup | None = None) -> Subgroup:
    """Subgroup generated by the given element ids, or start*<gens> grown from `start`.

    start*<gens> is the subgroup <start, gens> when `gens` contains generators
    of `start` or normalises it.  The result's `gens` are `start.gens` followed
    by the given ids not already in `start`.
    """
    start = start if start is not None else g.trivial_subgroup()
    gens = list(gens)
    mask = _closure_mask(g.table, gens, start.ids)
    return Subgroup._from_sorted(g, tuple(np.flatnonzero(mask).tolist()),
                                 start.gens + tuple(x for x in gens if x not in start))


def _class_labels(g: FiniteGroup) -> np.ndarray:
    """The conjugacy class number of every element, as a read-only int32 array made once per group.

    Classes are numbered by their smallest member, so class 0 is the identity's.
    """
    if g._labels is None:
        t, ids = g.table, np.arange(g.order)
        labels = np.full(g.order, -1, dtype=np.int32)
        k = 0
        for x in range(g.order):
            if labels[x] < 0:
                labels[t[t[g.inverse, x], ids]] = k  # the orbit {h^-1 x h : h in G}
                k += 1
        labels.setflags(write=False)
        g._labels = labels
    return g._labels


def _class_reps(g: FiniteGroup) -> list[int]:
    """The smallest member of every conjugacy class, ascending (class k's is the k-th)."""
    return np.unique(_class_labels(g), return_index=True)[1].tolist()


def conjugacy_classes(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits of conjugation, ordered by minimal representative."""
    labels = _class_labels(g)
    members = np.argsort(labels, kind="stable")  # ascending ids within each class
    return tuple(tuple(c.tolist()) for c in np.split(members, np.cumsum(np.bincount(labels))[:-1]))


def commuting_pair_count(g: FiniteGroup) -> int:
    """Exact |{(x, y) : xy = yx}| with a class-counting cross-check, computed once per group."""
    if g._pairs is None:
        count = int((g.table == g.table.T).sum())
        if count != g.order * len(_class_reps(g)):
            raise GroupLabError("commuting-pair count disagrees with class count")
        g._pairs = count
    return g._pairs


def centralizer(g: FiniteGroup, ids: Iterable[int]) -> Subgroup:
    """Elements commuting with every element of `ids`; the whole group if empty."""
    mask = np.ones(g.order, dtype=bool)
    for s in ids:
        mask &= g.table[:, s] == g.table[s, :]
    return Subgroup(g, np.flatnonzero(mask).tolist(), validate=False)


def center(g: FiniteGroup) -> Subgroup:
    """The elements in one-element conjugacy classes."""
    labels = _class_labels(g)
    central = np.bincount(labels)[labels] == 1
    return Subgroup._from_sorted(g, tuple(np.flatnonzero(central).tolist()), None)


def commutator_subgroup(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [x, y], x in a, y in b: the normal closure in <a, b>
    of the commutators of their generators (Holt, Eick, O'Brien, Handbook of CGT, 2005)."""
    if a.group is not b.group:
        raise ValidationError("subgroups live in different groups")
    g = a.group
    seeds = [g.commutator(x, y) for x in a.gens for y in b.gens]
    return _normal_closure(g, seeds, a.gens + b.gens)


def series(g: FiniteGroup, kind: str) -> Series:
    """Derived or lower central series, stopped at the first repeated term."""
    if kind not in ("derived", "lower_central"):
        raise ValidationError(f"unknown series kind {kind!r}")
    whole = g.whole_subgroup()
    terms = [whole]
    while True:
        cur = terms[-1]
        left = cur if kind == "derived" else whole
        nxt = commutator_subgroup(left, cur)
        if nxt == cur:
            break
        terms.append(nxt)
        if len(nxt) == 1:
            break
    return Series(kind, tuple(terms))


def is_perfect(g: FiniteGroup) -> bool:
    whole = g.whole_subgroup()
    return commutator_subgroup(whole, whole) == whole


def is_nilpotent(g: FiniteGroup) -> bool:
    return len(series(g, "lower_central").terms[-1]) == 1


def is_soluble(g: FiniteGroup) -> bool:
    return len(series(g, "derived").terms[-1]) == 1


def _coset_reps(g: FiniteGroup, ids: Sequence[int]) -> np.ndarray:
    """For every element x, the minimal id in its left coset x*H of H = `ids`."""
    return g.table[:, np.array(ids, dtype=np.int32)].min(axis=1)


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; coset ids follow minimal representatives."""
    if n.group is not g:
        raise ValidationError("subgroup belongs to a different group")
    if not n.is_normal():
        raise ValidationError("subgroup is not normal")
    rep = _coset_reps(g, n.ids)
    reps = np.unique(rep)
    idx_of = np.full(g.order, -1, dtype=np.int32)
    idx_of[reps] = np.arange(reps.size, dtype=np.int32)
    proj = idx_of[rep]
    qtable = proj[g.table[np.ix_(reps, reps)]]
    q = FiniteGroup(qtable, name=f"{g.name}/{len(n)}", validate="basic")
    return q, GroupHom(g, q, proj, validate=False)


def core(g: FiniteGroup, h: Subgroup) -> Subgroup:
    """Largest normal subgroup of g inside h (the intersection of all conjugates)."""
    if h.group is not g:
        raise ValidationError("subgroup belongs to a different group")
    # the classes all of whose members lie in h
    labels = _class_labels(g)
    sizes = np.bincount(labels)
    inside = np.bincount(labels[np.array(h.ids)], minlength=sizes.size) == sizes
    return Subgroup._from_sorted(g, tuple(np.flatnonzero(inside[labels]).tolist()), None)


def _normal_closure(g: FiniteGroup, seeds: Iterable[int], conjugators: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing `seeds` that every conjugator normalises.

    Each seed, and each conjugate c^s of a new generator c, not yet inside becomes a generator.
    """
    sub = g.trivial_subgroup()
    pending = list(seeds)
    for c in pending:
        if c not in sub:
            sub = subgroup_closure(g, sub.gens + (c,), start=sub)
            pending.extend(g.conjugate(c, s) for s in conjugators)
    return sub


def normal_closure(g: FiniteGroup, x: int) -> Subgroup:
    """Smallest normal subgroup containing x: the closure of <x> under conjugation by G."""
    return _normal_closure(g, (x,), _greedy_generators(g.table))
