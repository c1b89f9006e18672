"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's optimized paths: plain
nested loops and exhaustive enumeration only.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from grouplab.config import DEFAULT_CAPS, Caps
from grouplab.errors import CapExceeded, GroupLabError, ValidationError
from grouplab.groups import (
    FiniteGroup,
    Subgroup,
    _perm_closure,
    conjugacy_classes,
    subgroup_closure,
)
from grouplab.linalg import inv_gfp, is_prime, nullspace_gfp
from grouplab.structure import SpreadReport, SpreadWitness


def double_loop_commuting_count(g: FiniteGroup) -> int:
    count = 0
    for x in g.elements():
        for y in g.elements():
            if g.mul(x, y) == g.mul(y, x):
                count += 1
    return count


def naive_is_associative(table: list[list[int]]) -> bool:
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def closure_of(g: FiniteGroup, gens: tuple[int, ...]) -> frozenset[int]:
    seen = {0, *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for y in list(seen):
                for z in (g.mul(x, y), g.mul(y, x), g.inv(x)):
                    if z not in seen:
                        seen.add(z)
                        new.append(z)
        frontier = new
    return frozenset(seen)


def all_subgroups_bruteforce(g: FiniteGroup, max_gens: int = 3) -> set[frozenset[int]]:
    """Subgroups as closures of every generator tuple up to a size bound.

    Valid whenever every subgroup of g needs at most max_gens generators,
    which holds for the tiny groups this oracle is applied to.
    """
    found = {closure_of(g, ())}
    for k in range(1, max_gens + 1):
        for gens in itertools.combinations(range(1, g.order), k):
            found.add(closure_of(g, gens))
    return found


def conjugates_of(g: FiniteGroup, x: int) -> set[int]:
    return {g.conjugate(x, h) for h in g.elements()}


def classes_per_element(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes from one orbit per element, as x^h = h^-1 (x h), sorted by least member."""
    t, inv, ids = g.table, g.inverse, np.arange(g.order)
    orbits = {tuple(np.unique(t[inv, t[x, ids]]).tolist()) for x in g.elements()}
    return tuple(sorted(orbits))


def core_by_conjugates(g: FiniteGroup, h: Subgroup) -> set[int]:
    """The intersection of all conjugates of h."""
    inter = set(h.ids)
    for x in g.elements():
        inter &= set(h.conjugate_by(x).ids)
    return inter


def is_automorphism_all_pairs(g: FiniteGroup, mapping) -> bool:
    """A bijection of the elements with f(xy) = f(x) f(y) on every pair."""
    f = [int(v) for v in mapping]
    if sorted(f) != list(g.elements()):
        return False
    return all(f[g.mul(x, y)] == g.mul(f[x], f[y]) for x in g.elements() for y in g.elements())


def spread_depth_bruteforce(g: FiniteGroup, x: int) -> tuple[int, dict[int, int]]:
    """Minimal number of conjugates of x or x^-1 multiplying to each element.

    Plain layered products: layer k holds everything expressible as a product
    of exactly <= k factors.
    """
    gens = sorted(conjugates_of(g, x) | conjugates_of(g, g.inv(x)))
    depth = {0: 0}
    frontier = [0]
    k = 0
    while frontier:
        k += 1
        new = []
        for y in frontier:
            for c in gens:
                z = g.mul(y, c)
                if z not in depth:
                    depth[z] = k
                    new.append(z)
        frontier = new
    return max(depth.values()), depth


def translate_formula_agrees(ring, action, v: tuple[int, ...]) -> bool:
    """Every ring product equals the translate-sum formula, over all pairs.

    Writes each element as a minimal sum of translates v^h and multiplies
    the sums term by term with v^h * v^k = v^(hk).
    """
    from grouplab.modring import translate_decomposition

    p = action.prime
    decomps = {eid: translate_decomposition(action, v, ring.to_vector(eid)).elements
               for eid in range(ring.size)}
    for a in range(ring.size):
        for b in range(ring.size):
            total = [0] * action.dim
            for hi in decomps[a]:
                for hj in decomps[b]:
                    term = action.translate(v, action.group.mul(hi, hj))
                    total = [(x + y) % p for x, y in zip(total, term)]
            if ring.mul(a, b) != ring.from_vector(total):
                return False
    return True


def ring_tables_pairwise(ring) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of a commutative ring, one pair at a time."""
    add = [[0] * ring.size for _ in range(ring.size)]
    mul = [[0] * ring.size for _ in range(ring.size)]
    for a in range(ring.size):
        for b in range(a, ring.size):
            add[a][b] = add[b][a] = ring.add(a, b)
            mul[a][b] = mul[b][a] = ring.mul(a, b)
    return add, mul


def _canonical(subs: dict[tuple[int, ...], Subgroup]) -> list[Subgroup]:
    return [subs[key] for key in sorted(subs, key=lambda ids: (len(ids), ids))]


def enumerate_subgroups_all_x(
    g: FiniteGroup, *, max_count: int | None = None, caps: Caps = DEFAULT_CAPS
) -> list[Subgroup]:
    """All subgroups, by cyclic extension: grow known subgroups one generator at a time."""
    if g.order > caps.subgroup_order:
        raise CapExceeded("subgroup_order", caps.subgroup_order, g.order)
    limit = max_count if max_count is not None else caps.subgroup_count
    found: dict[tuple[int, ...], Subgroup] = {}
    gens_of: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add(gen_ids: tuple[int, ...]) -> tuple[int, ...] | None:
        sub = subgroup_closure(g, gen_ids)
        if sub.ids in found:
            return None
        if len(found) >= limit:
            raise CapExceeded("subgroup_count", limit, len(found) + 1)
        found[sub.ids] = sub
        gens_of[sub.ids] = gen_ids
        return sub.ids

    add(())
    for x in range(1, g.order):
        add((x,))
    frontier = list(found)
    while frontier:
        new_frontier = []
        for key in frontier:
            base_gens = gens_of[key]
            members = found[key]._members
            for x in range(1, g.order):
                if x in members:
                    continue
                added = add(base_gens + (x,))
                if added is not None:
                    new_frontier.append(added)
        frontier = new_frontier
    return _canonical(found)


def enumerate_normal_subgroups_pairwise(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """All normal subgroups, as the join-closure of conjugacy-class closures."""
    if g.order > caps.order:
        raise CapExceeded("order", caps.order, g.order)
    limit = caps.normal_subgroup_count
    found: dict[tuple[int, ...], Subgroup] = {}

    def add(sub: Subgroup) -> bool:
        if sub.ids in found:
            return False
        if len(found) >= limit:
            raise CapExceeded("normal_subgroup_count", limit, len(found) + 1)
        found[sub.ids] = sub
        return True

    add(g.trivial_subgroup())
    for cls in conjugacy_classes(g):
        add(subgroup_closure(g, cls))
    changed = True
    while changed:
        changed = False
        current = list(found.values())
        for a, b in itertools.combinations(current, 2):
            if a.contains_subgroup(b) or b.contains_subgroup(a):
                continue
            join = subgroup_closure(g, a.ids + b.ids)
            if add(join):
                changed = True
    return _canonical(found)


def conjugate_spread_per_element(g: FiniteGroup) -> SpreadReport:
    """Conjugate spread with one breadth-first search per element."""
    t = g.table
    witnesses = []
    overall = 0
    for x in range(g.order):
        gens = np.array(sorted(conjugates_of(g, x) | conjugates_of(g, g.inv(x))), dtype=np.intp)
        depth = np.full(g.order, -1, dtype=np.int32)
        depth[0] = 0
        frontier = np.array([0], dtype=np.int32)
        d = 0
        while frontier.size:
            prods = np.unique(t[np.ix_(frontier, gens)])
            new = prods[depth[prods] < 0]
            d += 1
            depth[new] = d
            frontier = new
        reached = depth >= 0
        m_x = int(depth[reached].max())
        worst = int(np.flatnonzero(reached & (depth == m_x))[0])
        witnesses.append(SpreadWitness(element=x, depth=m_x, worst=worst))
        overall = max(overall, m_x)
    return SpreadReport(m=overall, witnesses=tuple(witnesses))


def sylow_subgroup_restarting(g: FiniteGroup, p: int) -> Subgroup:
    """A maximal p-subgroup, rescanning all elements after each one added."""
    from grouplab.linalg import split_prime_power

    gens: tuple[int, ...] = ()
    current = g.trivial_subgroup()
    while True:
        extended = False
        for x in range(1, g.order):
            if x in current:
                continue
            if split_prime_power(g.element_order(x), p)[1] != 1:
                continue
            candidate = subgroup_closure(g, gens + (x,))
            if split_prime_power(len(candidate), p)[1] == 1:
                gens = gens + (x,)
                current = candidate
                extended = True
                break
        if not extended:
            break
    return current


def commutator_subgroup_all_pairs(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [x, y], x in a, y in b."""
    if a.group is not b.group:
        raise ValidationError("subgroups live in different groups")
    g = a.group
    t, inv = g.table, g.inverse
    barr = np.array(b.ids, dtype=np.int32)
    gens: set[int] = set()
    for x in a.ids:
        # [x, y] = x^-1 y^-1 x y, vectorized over y
        c = t[t[t[inv[x], inv[barr]], x], barr]
        gens.update(int(v) for v in np.unique(c))
    return subgroup_closure(g, gens)


def class_closure(g: FiniteGroup, cls: Iterable[int]) -> tuple[Subgroup, tuple[int, ...]]:
    """<cls> and the class elements that generate it, taken greedily by ascending id.

    Each step grows the subgroup so far under one more element outside it.
    """
    sub = g.trivial_subgroup()
    gens: tuple[int, ...] = ()
    for c in cls:
        if c not in sub:
            gens += (int(c),)
            sub = subgroup_closure(g, gens, start=sub)
    return sub, gens


def table_by_columns(gen_arrays: list[np.ndarray], degree: int,
                     cap: int = DEFAULT_CAPS.order) -> np.ndarray:
    """Cayley table of the group the permutations generate, filled column by column.

    Element j = parent*gen gives i*j = (i*parent)*gen, so column j is the
    parent's column read through the right-multiplication column of the generator.
    """
    perms, index, parents, genidx = _perm_closure(gen_arrays, degree, cap)
    n = len(perms)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    gen_cols = [np.fromiter((index[perm[g].tobytes()] for perm in perms), dtype=np.int32, count=n)
                for g in gen_arrays]
    for j in range(1, n):
        # column for j = parent * gen: i*j = (i*parent)*gen
        table[:, j] = gen_cols[genidx[j]][table[:, parents[j]]]
    return table


def rows_and_columns_are_permutations(arr: np.ndarray) -> bool:
    """Latin-square predicate by sorting the whole table along each axis."""
    ids = np.arange(arr.shape[0], dtype=np.int32)
    return bool(np.array_equal(np.sort(arr, axis=1), np.broadcast_to(ids, arr.shape))
                and np.array_equal(np.sort(arr, axis=0), np.broadcast_to(ids[:, None], arr.shape)))


def action_matrices_all_pairs(group: FiniteGroup, prime: int, dim: int, matrices) -> np.ndarray:
    """Matrices of an action: missing ones filled from all known pairs until nothing changes,
    then the homomorphism law checked on every pair of elements."""
    if not is_prime(prime):
        raise ValidationError(f"{prime} is not prime")
    n = group.order
    mats: list[np.ndarray | None] = [None] * n
    mats[0] = np.eye(dim, dtype=np.int64)
    for eid, rows in matrices.items():
        if not 0 <= int(eid) < n:
            raise ValidationError(f"matrix for element {eid}: {group.name} has ids 0..{n - 1}")
        m = np.asarray(rows, dtype=np.int64) % prime
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix for element {eid} has wrong shape")
        mats[int(eid)] = m
    changed = True
    while changed:
        changed = False
        known = [i for i in range(n) if mats[i] is not None]
        for a in known:
            for b in known:
                ab = group.mul(a, b)
                if mats[ab] is None:
                    mats[ab] = (mats[a] @ mats[b]) % prime
                    changed = True
    if any(m is None for m in mats):
        raise ValidationError("matrices do not cover a generating set")
    stack = np.stack([m for m in mats]) % prime
    for a in range(n):
        inv_gfp(stack[a], prime)  # raises if singular
        for b in range(n):
            if not np.array_equal(stack[group.mul(a, b)], (stack[a] @ stack[b]) % prime):
                raise ValidationError("matrix assignment is not a homomorphism")
    return stack


def ideal_witness_by_scatter(action, v: tuple[int, ...]):
    """First (kernel row, h) whose left shift h * row does not annihilate v, with its value,
    by writing each shifted coefficient vector out one entry at a time; None if two-sided.

    Also asserts the right-ideal property on the first kernel row the same way.
    """
    p, n = action.prime, action.group.order
    rows = np.array([action.translate(v, h) for h in range(n)], dtype=np.int64)
    kernel = nullspace_gfp(rows.T, p)
    for row in kernel:
        for h in range(n):
            shifted = np.zeros(n, dtype=np.int64)
            for gidx in range(n):
                shifted[action.group.mul(h, gidx)] = row[gidx]
            value = (shifted @ rows) % p
            if value.any():
                return tuple(int(x) for x in row), h, tuple(int(x) for x in value)
    for row in kernel[:1]:
        for h in range(n):
            out = np.zeros(n, dtype=np.int64)
            for gidx in range(n):
                out[action.group.mul(gidx, h)] = row[gidx]
            if ((out @ rows) % p).any():
                raise GroupLabError("annihilator is not a right ideal")
    return None
