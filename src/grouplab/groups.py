"""Finite groups with 0-based element ids, read through the columns of their Cayley tables.

A group given by a table keeps it; a group built from permutation generators
keeps its permutations, and a direct product its two factors, and each
computes the columns it is asked for.  Element 0 is always the identity.
Every canonical order used anywhere in the package is id-lexicographic, so
repeated runs produce identical output regardless of platform.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError, integers

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


def _distinct(ids: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct values of `ids`, all in range(n), with the dtype np.unique gives.
    Read through a mask: a plain np.unique imports numpy.ma, about 1.2 MB."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return seen.nonzero()[0].astype(ids.dtype, copy=False)


def _close(seen: np.ndarray, targets: np.ndarray) -> tuple[int, np.ndarray]:
    """Close the flat mask `seen`, in place, under the maps x -> targets[j, x]: each step marks the
    products of the frontier straight into the mask, and the next frontier is what it newly marked.
    Returns the number of steps that marked a point and the points the last of them marked (the
    starting points if none did), ascending."""
    frontier = last = seen.nonzero()[0]
    depth = 0
    while targets.size and frontier.size:
        before = seen.copy()
        seen[targets[:, frontier]] = True
        frontier = (seen != before).nonzero()[0]
        if frontier.size:
            depth, last = depth + 1, frontier
    return depth, last


def _closure_mask(g: FiniteGroup, gens: Sequence[int], start: Sequence[int] = (0,)) -> np.ndarray:
    """Boolean mask of the closure of `start` under right multiplication by `gens`."""
    seen = np.zeros(g.order, dtype=bool)
    seen[np.asarray(start, dtype=np.intp)] = True
    _close(seen, np.array([g.right(s) for s in gens]))  # row i: the products x*gens[i]
    return seen


def _greedy_generators(g: FiniteGroup, ids: Sequence[int] | None = None,
                       start: Sequence[int] = (0,)) -> list[int]:
    """Small generating set of the subgroup `ids` (default: all of G, made once per group),
    chosen by ascending id, over its subgroup `start` when every chosen element normalises it:
    `start` and the result generate `ids`."""
    if ids is None and g._gens is not None:
        return list(g._gens)
    want = np.arange(g.order) if ids is None else np.asarray(ids, dtype=np.intp)
    gens: list[int] = []
    covered = _closure_mask(g, gens, start)
    while not covered[want].all():
        gens.append(int(want[np.argmin(covered[want])]))
        covered = _closure_mask(g, gens, np.flatnonzero(covered))
        if not covered[gens[-1]]:  # 0 * s = s, unless the columns are wrong
            raise GroupLabError(f"{g.name}: generator {gens[-1]} is not in the closure it generates; "
                                "wrong columns")
    if ids is None:
        g._gens = tuple(gens)
    return gens


def _orbit_minima(perms: Sequence[np.ndarray], n: int) -> np.ndarray:
    """For every point 0..n-1, the least point of its orbit under the permutations.

    Min-label propagation, one permutation at a time in turn, each by pointer
    jumping: a step takes the least of a label and the label 2^k places on along
    the cycle, then squares the step, so a cycle costs log steps, not its
    length.  A step that lowers nothing leaves the labels constant on the
    cycles; once that holds for every permutation in a row, each orbit is
    labelled by its least point.
    """
    label = np.arange(n)
    stable, turn = 0, 0  # the permutations in a row whose cycles the labels are constant on
    while stable < len(perms):
        step = perms[turn % len(perms)]
        turn += 1
        stable += 1
        while True:
            wider = np.minimum(label, label[step])
            if not (wider < label).any():
                break
            label, step, stable = wider, step[step], 1
    return label


_CHECK_BLOCK = 1 << 16  # cells of one block of rows in the whole-table passes
_ID16_LIMIT = 1 << 15   # largest order whose element ids are stored as int16


def _id_dtype(order: int) -> type:
    """The dtype of the element ids in the table and inverse of a group of `order`.

    int16 while every id fits, int32 above: the table is most of a group's
    memory, and int16 halves it.  Signed, so that a -1 sentinel keeps its meaning.
    """
    return np.int16 if order <= _ID16_LIMIT else np.int32


def _block_rows(width: int) -> int:
    """Rows of `width` cells in one block of at most `_CHECK_BLOCK` cells, or one."""
    return max(1, _CHECK_BLOCK // width)


def _is_latin(table: np.ndarray) -> bool:
    """Whether every row and every column of a square table with entries in 0..n-1 is a permutation.

    The rows of the table, then those of its transpose, are marked one bounded
    block at a time, so the scratch stays near `_CHECK_BLOCK` cells at any order.
    """
    n = table.shape[0]
    rows = min(n, _block_rows(n))  # a small table needs no more scratch than itself
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


def _light_associativity(g: FiniteGroup) -> None:
    # Light's test: associativity on a generating set proves it everywhere.
    # Rows x are compared one bounded block at a time.
    table, n = g.table, g.order
    rows = _block_rows(n)
    for s in _greedy_generators(g):
        for r in range(0, n, rows):
            block = table[r:r + rows]
            lhs = table[block[:, s]]      # (x s) y
            rhs = block[:, table[s]]      # x (s y)
            if not np.array_equal(lhs, rhs):
                raise ValidationError("multiplication table is not associative")


def _table_inverse(table: np.ndarray) -> np.ndarray:
    """The inverse array of a square table of ids in range, after checking that element 0
    is the identity, that the table is Latin and that every element has a two-sided inverse."""
    n = table.shape[0]
    ids = np.arange(n, dtype=table.dtype)
    if not (np.array_equal(table[0], ids) and np.array_equal(table[:, 0], ids)):
        raise ValidationError("element 0 must act as the identity")
    if not _is_latin(table):
        raise ValidationError("table rows/columns are not permutations")
    # every row is a permutation of 0..n-1, so its minimum 0 sits at the inverse;
    # taken a block of rows at a time, since argmin copies a read-only array whole
    rows = _block_rows(n)
    inverse = np.concatenate([table[r:r + rows].argmin(axis=1) for r in range(0, n, rows)])
    inverse = inverse.astype(table.dtype)
    if not np.all(table[inverse, ids] == 0):
        raise ValidationError("an element lacks a two-sided inverse")
    inverse.setflags(write=False)
    return inverse


def _tree(maps: Sequence[np.ndarray], start: Sequence[int] = (0,)) -> list[tuple[int, int, int]]:
    """The breadth-first tree from the points `start` under the maps x -> maps[k][x]: every other
    point reached, as (point, the point it was first reached from, k), in the order a queue reaches them."""
    lists = [m.tolist() for m in maps]
    queue, reached, edges = list(start), set(start), []
    for p in queue:
        for k, m in enumerate(lists):
            j = m[p]
            if j not in reached:
                reached.add(j)
                queue.append(j)
                edges.append((j, p, k))
    return edges


def _table_from_rows(rows: Sequence[np.ndarray], n: int, dtype: type) -> np.ndarray:
    """The table of the group of order n generated by elements whose rows (s*x for every x)
    are `rows`, along the breadth-first tree from the identity 0: an element j first reached
    as s*p has row j = row s read at row p, as (s p) x = s (p x)."""
    table = np.empty((n, n), dtype=dtype)
    table[0] = np.arange(n)
    edges = _tree(rows)
    if len(edges) != n - 1:
        raise GroupLabError("the generators do not generate the group")
    for j, p, k in edges:
        np.take(rows[k], table[p], out=table[j])
    return table


_KEY_DEGREE = 15  # largest degree whose permutations have int64 keys: 15**15 < 2**63 <= 16**16
_MAX_DEGREE = 1 << 16  # largest degree whose points fit the uint16 rows of `_perm_closure`


def _perm_keys(rows: np.ndarray) -> np.ndarray:
    """Sort keys of permutations given as rows: their digits in radix degree up to
    `_KEY_DEGREE`, summed by Horner's rule one column at a time (one int64 per row),
    and their bytes above it (so the rows must share one dtype)."""
    degree = rows.shape[1]
    if degree <= _KEY_DEGREE:
        keys = np.zeros(rows.shape[0], dtype=np.int64)
        for column in rows.T[::-1]:
            keys *= degree
            keys += column
        return keys
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * degree))).ravel()


class _Perms:
    """The permutations behind a group built from generators: row i of `perms` is
    element i, and `ids[searchsorted(keys, key)]` the id of a permutation.  Level i of
    the stabiliser `chain` holds, for each image b of point i under the elements fixing
    points 0..i-1, the least of them taking i to b (or n): its transversal element.
    The columns of the identity, the generators and the transversal elements are
    key-searched on first use and kept in `pinned` for the group's lifetime; any other
    column is composed from those of its factors, with no key formed, and not kept.
    A pinned column is never evicted, and a racing thread's equal copy is dropped, so
    threads may share the group.  The table, once built, is kept here, where a renamed
    copy of the group shares it."""

    __slots__ = ("perms", "keys", "ids", "gens", "pinned", "chain", "table")

    def __init__(self, perms: np.ndarray) -> None:
        keys = _perm_keys(perms)
        self.perms, (n, degree) = perms, perms.shape
        self.ids = np.argsort(keys).astype(_id_dtype(n))
        self.keys = keys[self.ids]
        self.gens: tuple[int, ...] = ()  # the ids of the generators the rows were closed from
        self.pinned: dict[tuple[str, int], np.ndarray] = {}
        self.table: np.ndarray | None = None
        self.chain: list[list[int]] = []  # read off the rows (Sims, 1970)
        members = np.arange(n)  # the ids that fix the points before the next level's, ascending
        while members.size > 1:
            images = perms[members, len(self.chain)]
            level = np.full(degree, n)
            np.minimum.at(level, images, members)
            members = members[images == len(self.chain)]
            self.chain.append(level.tolist())

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The element id of every permutation row, each of which must lie in the group."""
        keys = _perm_keys(np.asarray(rows, dtype=self.perms.dtype))
        order = keys.argsort()  # searched in sorted order, the index is walked once, not at random
        pos = np.minimum(np.searchsorted(self.keys, keys[order]), self.keys.size - 1)
        if not np.array_equal(self.keys[pos], keys[order]):
            raise GroupLabError("a permutation outside the group")
        ids = np.empty(order.size, dtype=self.ids.dtype)
        ids[order] = self.ids[pos]
        return ids

    def factors(self, s: int) -> list[int]:
        """The transversal elements u0, u1, ..., uk but the identity with s = u0 u1 ... uk, found by
        sifting: at level i, u takes point i where what is left of s does, and is stripped off its
        left.  What is left is held as its inverse r, as u^-1 t has the inverse r u."""
        r, factors = self.perms[s].argsort().tolist(), []
        for i, level in enumerate(self.chain):
            u = level[r.index(i)]
            if u:
                factors.append(u)
                r = [r[x] for x in self.perms[u].tolist()]
        return factors

    def column(self, side: str, s: int) -> np.ndarray:
        """The ids of x*s ("right") or of s*x ("left") for every x.  With s = u0 u1 ... uk,
        right(s) = right(uk)[... right(u0)] and left(s) = left(u0)[... left(uk)]."""
        key = (side, int(s))
        if key in self.pinned:
            return self.pinned[key]
        factors = [s] if s == 0 or s in self.gens else self.factors(s)
        if len(factors) == 1:
            p = self.perms
            col = self.ids_of(p[:, p[s]] if side == "right" else p[s][p])
            col.setflags(write=False)
            return self.pinned.setdefault(key, col)
        cols = [self.column(side, u) for u in (factors if side == "right" else factors[::-1])]
        col = cols[0]
        for step in cols[1:]:
            col = step.take(col)  # take: faster than a fancy index on int16 ids
        col.setflags(write=False)
        return col

    def element_order(self, s: int) -> int:
        """The order of element s: the lcm of the cycle lengths of its permutation."""
        lengths = np.bincount(_orbit_minima([self.perms[s]], self.perms.shape[1]))
        return int(np.lcm.reduce(lengths[lengths > 0]))


class _Product:
    """The factors behind a direct product A x B, whose element x*|B| + y is the pair (x, y),
    generated by the generators of A paired with 1 and those of B paired with 1 (`gens`).
    Columns are read digit-wise from the factors' columns and not kept; the table,
    once built, is kept here, where a renamed copy of the group shares it."""

    __slots__ = ("a", "b", "gens", "table")

    def __init__(self, a: FiniteGroup, b: FiniteGroup) -> None:
        self.a, self.b = a, b
        self.gens = tuple(x * b.order for x in _greedy_generators(a)) + tuple(_greedy_generators(b))
        self.table: np.ndarray | None = None

    def column(self, side: str, s: int) -> np.ndarray:
        """The ids of x*s ("right") or of s*x ("left") for every x, digit by digit."""
        nb = self.b.order
        x, y = divmod(int(s), nb)
        high = getattr(self.a, side)(x).astype(_id_dtype(self.a.order * nb)) * nb
        col = (high[:, None] + getattr(self.b, side)(y)).ravel()
        col.setflags(write=False)
        return col

    def element_order(self, s: int) -> int:
        """The order of element s: the lcm of its digits' orders."""
        x, y = divmod(int(s), self.b.order)
        return math.lcm(self.a.element_order(x), self.b.element_order(y))


class PermGenerators(NamedTuple):
    """Permutation generators a group was closed from, with their element ids."""

    degree: int
    perms: tuple[tuple[int, ...], ...]
    element_ids: tuple[int, ...]


class FiniteGroup:
    """A finite group read through the columns of its multiplication table.

    `right(s)[x]` and `left(s)[x]` are the ids of x*s and s*x.  A group given
    by its table reads them from it; a group built from permutation generators,
    or a direct product, larger than one check block computes them from its
    permutations or its factors (`_source`), and builds `table` only for a
    consumer that reads it whole.  Tables, columns and the inverse array are
    read-only numpy arrays of dtype `_id_dtype(order)`; instances are
    immutable and safe to share.
    """

    def __init__(
        self,
        table: np.ndarray | Sequence[Sequence[int]],
        *,
        name: str = "G",
        validate: str = "full",
        caps: Caps = DEFAULT_CAPS,
    ) -> None:
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = raw.shape[0]
        if n == 0:
            raise ValidationError("a group has at least one element")
        integers(raw, f"multiplication table entries must be integers, not {raw.dtype}")
        caps.check("order", n)
        if validate not in ("full", "basic"):
            raise ValueError(f"unknown validation level {validate!r}")
        # before the cast to the id dtype, which would wrap an entry such as 2**32 into range
        if raw.min() < 0 or raw.max() >= n:
            raise ValidationError("table entry out of range")
        arr = np.ascontiguousarray(raw, dtype=_id_dtype(n))  # no copy of a table built in its dtype
        self.inverse = _table_inverse(arr)
        arr.setflags(write=False)
        self.name, self._table = name, arr
        if validate == "full":
            _light_associativity(self)

    # the permutation generators of a group built from them, which its `_source` holds
    perm_generators: PermGenerators | None = None
    # the table, for a group with a column source once some consumer reads it whole
    _table: np.ndarray | None = None
    # the permutations of a group built from generators, or the factors of a direct product
    _source: _Perms | _Product | None = None
    # memos: greedy generators of G, class labels, commuting pairs, commutativity
    _gens: tuple[int, ...] | None = None
    _labels: np.ndarray | None = None
    _pairs: int | None = None
    _abelian: bool | None = None

    @property
    def table(self) -> np.ndarray:
        """The whole table: `table[a, b]` is the id of a*b.  A group with a column
        source builds it on first use from the rows of the source's generators,
        checked like a table given as input, and keeps it on the source."""
        if self._table is None:
            source = self._source
            if source.table is None:
                rows = [source.column("left", s) for s in source.gens]
                table = _table_from_rows(rows, self.order, self.inverse.dtype)
                if not np.array_equal(_table_inverse(table), self.inverse):
                    raise GroupLabError("the table and the columns disagree on inverses")
                table.setflags(write=False)
                source.table = table
            self._table = source.table
        return self._table

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.inverse.shape[0])

    def elements(self) -> range:
        return range(self.order)

    def right(self, s: int) -> np.ndarray:
        """Column s of the table: the id of x*s for every x."""
        return self._source.column("right", s) if self._table is None else self._table[:, s]

    def left(self, s: int) -> np.ndarray:
        """Row s of the table: the id of s*x for every x."""
        return self._source.column("left", s) if self._table is None else self._table[s]

    def mul(self, a: int, b: int) -> int:
        return int(self.right(b)[a])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, g: int, h: int) -> int:
        """g^h = h^-1 g h."""
        return int(self.left(self.inverse[h])[self.right(h)[g]])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        return int(self.left(self.inverse[a])[self.left(self.inverse[b])[self.right(b)[a]]])

    def element_order(self, a: int) -> int:
        if self._table is None:  # from the permutation or the digits, keeping no column
            return self._source.element_order(a)
        col = self._table[:, a]
        x, k = int(a), 1
        while x != 0:
            x = int(col[x])
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise."""
        if self._abelian is None:
            gens = _greedy_generators(self)
            self._abelian = all(self.right(b)[a] == self.right(a)[b]
                                for i, a in enumerate(gens) for b in gens[i + 1:])
        return self._abelian

    def exponent(self) -> int:
        return math.lcm(*(self.element_order(a) for a in self.elements()))

    # -- subgroup helpers --------------------------------------------------

    def subgroup(self, ids: Iterable[int], *, validate: bool = True) -> "Subgroup":
        return Subgroup(self, ids, validate=validate)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup._from_sorted(self, (0,), ())

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order), validate=False)

    def permutation_of(self, x: int) -> tuple[int, ...]:
        """Permutation realizing element x, for groups built from generators."""
        if self.perm_generators is None:
            raise ValidationError("group has no permutation presentation")
        return tuple(self._source.perms[x].tolist())

    def _renamed(self, name: str) -> "FiniteGroup":
        """The same group under another name, sharing its read-only arrays, columns and memos.

        Like a group built from the table, it carries no permutation presentation;
        the permutations or factors behind its columns stay.
        """
        grp = copy.copy(self)
        grp.name = name
        grp.perm_generators = None
        return grp

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


class Subgroup:
    """A sorted tuple of element ids closed under the parent's operations, kept as that tuple alone:
    membership bisects it, so no set is held per subgroup."""

    __slots__ = ("group", "ids", "_gens")

    def __init__(self, group: FiniteGroup, ids: Iterable[int], *, validate: bool = True):
        if validate:
            ids = integers(list(ids), "subgroup ids must be a list of integers", 1)
        sorted_ids = tuple(sorted({int(x) for x in ids}))
        if not sorted_ids:
            raise ValidationError("a subgroup is nonempty")
        self.group = group
        self.ids = sorted_ids
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
        sub._gens = gens
        return sub

    def _validate(self) -> None:
        g = self.group
        if self.ids[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        if self.ids[-1] >= g.order:
            raise ValidationError("subgroup id out of range")
        arr = np.array(self.ids, dtype=np.int32)
        if not np.array_equal(_distinct(g.inverse[arr], g.order), arr):
            raise ValidationError("subgroup not closed under inversion")
        # the ids hold the closure of their greedy generators, so they are closed iff they are it
        self._gens = tuple(_greedy_generators(g, arr))
        if np.count_nonzero(_closure_mask(g, self._gens)) != len(arr):
            raise ValidationError("subgroup not closed under multiplication")
        if g.order % len(self.ids) != 0:
            raise GroupLabError("Lagrange violation, table is inconsistent")

    @property
    def gens(self) -> tuple[int, ...]:
        """The generators `subgroup_closure` closed it from, else greedy ones by ascending id."""
        if self._gens is None:
            self._gens = tuple(_greedy_generators(self.group, self.ids))
        return self._gens

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.ids, x)
        return i < len(self.ids) and self.ids[i] == x

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
        mask = np.zeros(self.group.order, dtype=bool)
        mask[list(self.ids)] = True
        return other.ids[-1] < mask.size and bool(mask[list(other.ids)].all())

    def conjugate_by(self, g: int) -> "Subgroup":
        grp = self.group
        conj = grp.right(g)[grp.left(grp.inverse[g])[np.array(self.ids, dtype=np.intp)]]
        return Subgroup(self.group, conj.tolist(), validate=False)

    def is_normal(self) -> bool:
        # Normal iff a union of conjugacy classes, that is, its own core.
        return len(core(self.group, self)) == len(self)

    def as_group(self, *, name: str | None = None) -> tuple[FiniteGroup, "GroupHom"]:
        """Reindexed copy of this subgroup plus the embedding hom into the parent.

        Its table is built from the rows of its generators, not from the parent's table.
        """
        g, arr = self.group, np.array(self.ids, dtype=np.int32)
        rows = [_local_ids(self, g.left(s)[arr]) for s in self.gens]  # in the subgroup's id dtype
        table = _table_from_rows(rows, len(arr), _id_dtype(len(arr)))
        grp = FiniteGroup(table, name=name or f"{g.name}-sub{len(arr)}", validate="basic")
        embed = GroupHom(grp, g, arr, validate=False)
        return grp, embed

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.ids)} of {self.group.name})"


def _local_ids(sub: Subgroup, ids) -> np.ndarray:
    """Ids of elements of `sub` in `sub.as_group()`: their positions in the sorted `sub.ids`,
    of that group's id dtype.

    Elements outside `sub` get -1.
    """
    local = np.full(sub.group.order, -1, dtype=_id_dtype(len(sub)))
    local[np.array(sub.ids, dtype=np.int32)] = np.arange(len(sub))
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
        raw = integers(mapping, "homomorphism images must be integers")
        if raw.shape != (source.order,):
            raise ValidationError("homomorphism mapping has wrong length")
        if raw.min() < 0 or raw.max() >= target.order:
            raise ValidationError("homomorphism image out of range")
        arr = np.ascontiguousarray(raw, dtype=np.int32)
        if validate:
            if arr[0] != 0:
                raise ValidationError("homomorphism must fix the identity")
            # f(xs) = f(x)f(s) for every x and every generator s is the whole law:
            # the s for which it holds for every x are closed under products.
            for s in _greedy_generators(source):
                if not np.array_equal(arr[source.right(s)], target.right(arr[s])[arr]):
                    raise ValidationError("mapping is not a homomorphism")
        arr.setflags(write=False)
        self.source = source
        self.target = target
        self.mapping = arr

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])

    def image_ids(self) -> np.ndarray:
        return _distinct(self.mapping, self.target.order)

    def image(self) -> Subgroup:
        return Subgroup(self.target, self.image_ids().tolist(), validate=False)

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.flatnonzero(self.mapping == 0).tolist(), validate=False)

    def is_surjective(self) -> bool:
        return self.image_ids().size == self.target.order

    def is_injective(self) -> bool:
        return self.image_ids().size == self.source.order

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner, mapping inner.source into self.target."""
        if inner.target is not self.source:
            raise ValidationError("homomorphisms do not compose")
        return GroupHom(inner.source, self.target, self.mapping[inner.mapping], validate=False)

    def map_subgroup(self, sub: Subgroup) -> Subgroup:
        if sub.group is not self.source:
            raise ValidationError("subgroup belongs to a different group")
        ids = _distinct(self.mapping[np.array(sub.ids, dtype=np.int32)], self.target.order)
        return Subgroup(self.target, ids.tolist(), validate=False)

    def __repr__(self) -> str:
        return f"GroupHom({self.source.name} -> {self.target.name})"


class Series(NamedTuple):
    """A stabilized descending series of subgroups; terms[0] is the whole group."""

    kind: str  # "derived" | "lower_central"
    terms: tuple[Subgroup, ...]


# -- construction ----------------------------------------------------------


def _perm_closure(gen_arrays: list[np.ndarray], degree: int, caps: Caps) -> _Perms:
    """The group the permutations generate, one row per element, in breadth-first discovery order.

    Composition convention: (p * q)(x) = p(q(x)), so right-multiplying the
    permutation array p by generator q is p[q].  Layer by layer, the products
    of the newest layer with every generator are taken in row-major (element,
    generator) order, and each new one at its first occurrence there: the order
    in which a queue takes them, one product at a time.
    """
    gens = np.array(gen_arrays, dtype=np.intp).reshape(len(gen_arrays), degree)
    layer = np.arange(degree, dtype=np.uint8 if degree <= 256 else np.uint16)[None, :]
    found, keys = [layer], _perm_keys(layer)  # keys of every element so far, sorted
    while layer.size and gens.size:
        prods = layer[:, gens].reshape(-1, degree)  # [x * s for x in layer for s in gens]
        prod_keys = _perm_keys(prods)
        pos = np.minimum(np.searchsorted(keys, prod_keys), keys.size - 1)
        fresh = np.flatnonzero(keys[pos] != prod_keys)
        fresh = fresh[np.sort(np.unique(prod_keys[fresh], return_index=True)[1])]
        # the element-by-element search stopped at the first element past the cap
        caps.check("order", min(keys.size + fresh.size, caps.order + 1), "permutation closure")
        layer = prods[fresh]
        found.append(layer)
        keys = np.sort(np.concatenate([keys, prod_keys[fresh]]))
    return _Perms(np.concatenate(found))


def _group_from_perms(gen_arrays: list[np.ndarray], degree: int, *, name: str,
                      caps: Caps) -> FiniteGroup:
    """The group generated by permutations, kept as its permutations.

    It is checked in O(n k): the key index is a bijection, element 0 is the
    identity, and the column of every generator permutes the ids.
    """
    source = _perm_closure(gen_arrays, degree, caps)
    perms, keys = source.perms, source.keys
    if not (keys[1:] != keys[:-1]).all() or not np.array_equal(perms[0], np.arange(degree)):
        raise GroupLabError("the permutation index is not a bijection from the identity first")
    source.gens = tuple(source.ids_of(np.reshape(gen_arrays, (-1, degree))).tolist())
    inverse = np.empty_like(perms)  # row x at point perms[x, i] is i: one scatter in the points' dtype
    inverse[np.arange(len(perms))[:, None], perms] = np.arange(degree, dtype=perms.dtype)
    grp = _checked_on_generators(name, source, source.ids_of(inverse))
    grp.perm_generators = PermGenerators(
        degree=degree,
        perms=tuple(tuple(int(v) for v in p) for p in gen_arrays),
        element_ids=source.gens,
    )
    return grp


def _checked_on_generators(name: str, source: _Perms | _Product, inverse: np.ndarray) -> FiniteGroup:
    """The group read through the column source `source`, with the inverse array `inverse`, once
    the column of every generator in `source.gens` permutes the ids.  Its table is built now when
    it fits one check block."""
    grp = FiniteGroup.__new__(FiniteGroup)
    grp.name, grp._source, grp.inverse = name, source, inverse
    inverse.setflags(write=False)
    for s in source.gens:
        if not (np.bincount(grp.right(s), minlength=grp.order) == 1).all():
            raise GroupLabError("a generator does not permute the elements")
    if grp.order ** 2 <= _CHECK_BLOCK:
        grp.table  # a table of one check block costs less than the columns read from it
    return grp


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
    if not 1 <= degree <= _MAX_DEGREE:
        raise ValidationError(f"degree must be in 1..{_MAX_DEGREE}")
    gen_arrays = []
    for images in generators or ():
        bad = f"not a permutation of {degree} points: {list(images)!r}"
        arr = integers(list(images), bad)
        if arr.shape != (degree,) or not np.array_equal(np.sort(arr), np.arange(degree)):
            raise ValidationError(bad)
        gen_arrays.append(arr.astype(np.int32))
    return _group_from_perms(gen_arrays, degree, name=name, caps=caps)


def cyclic_group(n: int, *, name: str | None = None, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    ids = np.arange(n, dtype=_id_dtype(n))
    # row i is (i + j) mod n: the window at i over ids followed by ids again, with no sum to overflow
    table = np.lib.stride_tricks.sliding_window_view(np.concatenate([ids, ids[:-1]]), n)
    return FiniteGroup(table, name=name or f"Z{n}", validate="basic", caps=caps)


def direct_product(a: FiniteGroup, b: FiniteGroup, *, name: str | None = None,
                   caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Direct product with ids encoded as x*|b| + y (first factor most significant).

    It keeps its factors and reads its columns from theirs.  It is checked in
    O(n k), like a group built from generators: element 0 is the identity and
    the column of every factor generator permutes the ids.
    """
    na, nb = a.order, b.order
    caps.check("order", na * nb)
    source, ids = _Product(a, b), np.arange(na * nb)
    if not (np.array_equal(source.column("right", 0), ids) and np.array_equal(source.column("left", 0), ids)):
        raise ValidationError("element 0 must act as the identity")
    inverse = (a.inverse.astype(_id_dtype(na * nb))[:, None] * nb + b.inverse).ravel()
    return _checked_on_generators(name or f"{a.name}x{b.name}", source, inverse)


def direct_power(p: FiniteGroup, m: int, *, name: str | None = None,
                 caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    """Direct power P^m; coordinate 0 is the most significant digit of the id."""
    if m < 0:
        raise ValidationError("power must be nonnegative")
    caps.check("order", p.order ** m)
    name = name or f"{p.name}^{m}"
    if m == 0:
        return FiniteGroup([[0]], name=name, validate="basic", caps=caps)
    if m == 1:
        return p._renamed(name)
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
    mask = _closure_mask(g, gens, start.ids)
    return Subgroup._from_sorted(g, tuple(np.flatnonzero(mask).tolist()),
                                 start.gens + tuple(x for x in gens if x not in start))


def _closure_block_rows(g: FiniteGroup, width: int) -> int:
    """The rows of at most `width` gens that `_closures` closes at once: their int32 targets
    (rows x |G| x width) take at most `_CHECK_BLOCK` bytes."""
    return _block_rows(4 * g.order * width)


def _closures(g: FiniteGroup, rows: Iterable[tuple[Subgroup, tuple]], width: int) -> Iterator[tuple]:
    """The (start, gens) rows whose start*<gens> no earlier row reached, in order, with its sorted ids.
    Rows of at most `width` gens, padded with the identity 0, are closed in blocks of
    `_closure_block_rows`, each in one search of the flattened masks."""
    rows, n, reached, size, kept = iter(rows), g.order, set(), _closure_block_rows(g, width), {}
    while block := list(itertools.islice(rows, size)):
        gens = np.array([row + (0,) * (width - len(row)) for _, row in block], dtype=np.intp)
        firsts = [i for i, (sub, _) in enumerate(block) if not i or sub is not block[i - 1][0]]
        seen = np.zeros((len(firsts), n), dtype=bool)
        for j, i in enumerate(firsts):
            seen[j, block[i][0].ids] = True
        seen = np.repeat(seen, np.diff(firsts + [len(block)]), axis=0)  # each start's mask on its rows
        used, slot = np.unique(gens, return_inverse=True)  # each column read once, kept for one block more:
        kept = {s: kept[s] if s in kept else g.right(s) for s in used.tolist()}  # a start's gens recur
        cols = np.array(list(kept.values()))
        offsets = np.arange(0, seen.size, n, dtype=np.int32)[:, None]  # row r's cells start at r*n
        _close(seen.reshape(-1), (cols[slot.reshape(gens.shape).T] + offsets).reshape(width, -1))
        for row, mask, key in zip(block, seen, map(bytes, np.packbits(seen, axis=1))):
            if key not in reached:
                reached.add(key)
                yield row, tuple(np.flatnonzero(mask).tolist())


def _class_labels(g: FiniteGroup) -> np.ndarray:
    """The conjugacy class number of every element, as a read-only int32 array made once per group.

    Classes are the orbits of conjugation by the generators; they are numbered
    by their smallest member, so class 0 is the identity's.
    """
    if g._labels is None:
        conj = [g.left(g.inverse[s])[g.right(s)] for s in _greedy_generators(g)]  # x -> s^-1 x s
        minima = _orbit_minima(conj, g.order)
        labels = (np.cumsum(minima == np.arange(g.order), dtype=np.int32) - 1)[minima]
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
    """Exact |{(x, y) : xy = yx}|, computed once per group: the sum over classes of
    |class| * |C(rep)|, each term checked against |G| (orbit-stabiliser) and the
    sum against k(G) * |G|."""
    if g._pairs is None:
        reps = _class_reps(g)
        count = 0
        for rep, size in zip(reps, np.bincount(_class_labels(g)).tolist()):
            term = size * int(np.count_nonzero(g.right(rep) == g.left(rep)))
            if term != g.order:
                raise GroupLabError("a class size times its centraliser order is not the group order")
            count += term
        if count != g.order * len(reps):
            raise GroupLabError("commuting-pair count disagrees with class count")
        g._pairs = count
    return g._pairs


def centralizer(g: FiniteGroup, ids: Iterable[int]) -> Subgroup:
    """Elements commuting with every element of `ids`; the whole group if empty."""
    mask = np.ones(g.order, dtype=bool)
    for s in ids:
        mask &= g.right(s) == g.left(s)
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


def _coset_reps(h: Subgroup) -> np.ndarray:
    """For every element x, the minimal id in its left coset x*H.

    With the table at hand and |G| x |H| cells in one check block, one gather
    of the columns of H; otherwise the least point of the orbit of x under
    right multiplication by the generators of H, which reads their columns only.
    """
    g = h.group
    if g._table is not None and g.order * len(h) <= _CHECK_BLOCK:
        return g.table[:, list(h.ids)].min(axis=1)
    return _orbit_minima([g.right(s) for s in h.gens], g.order)


def _distinct_reps(rep: np.ndarray) -> np.ndarray:
    """The distinct least coset representatives of a `_coset_reps` array, ascending: its fixed points."""
    return np.flatnonzero(rep == np.arange(rep.size))


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; coset ids follow minimal representatives.

    Its table is built from the rows of the generators of G, not from G's table.
    """
    if n.group is not g:
        raise ValidationError("subgroup belongs to a different group")
    if not n.is_normal():
        raise ValidationError("subgroup is not normal")
    name = f"{g.name}/{len(n)}"
    if len(n) == 1:
        q = g._renamed(name)
        return q, GroupHom(g, q, np.arange(g.order), validate=False)
    rep = _coset_reps(n)
    reps = _distinct_reps(rep)
    idx_of = np.full(g.order, -1, dtype=_id_dtype(reps.size))  # so the quotient's table is built in it
    idx_of[reps] = np.arange(reps.size)
    proj = idx_of[rep]
    # the images of the generators of G generate G/N; row c of image(s) is proj(s * rep c)
    rows = [proj[g.left(s)[reps]] for s in _greedy_generators(g)]
    q = FiniteGroup(_table_from_rows(rows, reps.size, proj.dtype), name=name, validate="basic")
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

    Each seed, and each conjugate c^s of a new generator c, not yet inside becomes a generator:
    one mask grows under the columns of the generators so far, and one subgroup is made from it.
    """
    seen, gens, cols = np.arange(g.order) == 0, [], []
    pending = list(seeds)
    for c in pending:
        if not seen[c]:
            gens.append(c)
            cols.append(g.right(c))
            _close(seen, np.array(cols))
            pending.extend(g.conjugate(c, s) for s in conjugators)
    return Subgroup._from_sorted(g, tuple(np.flatnonzero(seen).tolist()), tuple(gens))


def normal_closure(g: FiniteGroup, x: int) -> Subgroup:
    """Smallest normal subgroup containing x: the closure of <x> under conjugation by G."""
    return _normal_closure(g, (x,), _greedy_generators(g))
