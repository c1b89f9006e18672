"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's optimized paths: plain
nested loops and exhaustive enumeration only.
"""

from __future__ import annotations

import itertools

from grouplab.groups import FiniteGroup


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
