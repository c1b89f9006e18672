"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's optimized paths: plain
nested loops and exhaustive enumeration only.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from grouplab.config import DEFAULT_CAPS, Caps
from grouplab.corpus import Corpus, _bundled_builders
from grouplab.errors import CapExceeded, GroupLabError, ValidationError
from grouplab.groups import (
    FiniteGroup,
    Subgroup,
    _class_labels,
    _class_reps,
    _closure_mask,
    _closures,
    _coset_reps,
    _distinct_reps,
    _greedy_generators,
    _id_dtype,
    _local_ids,
    build_group,
    center,
    commutator_subgroup,
    conjugacy_classes,
    core,
    quotient,
    subgroup_closure,
)
from grouplab.linalg import inv_gfp, is_prime, nullspace_gfp, prime_power_base, rank_gfp, split_prime_power
from grouplab.measure import ExteriorReport
from grouplab.structure import (
    SpreadReport,
    SpreadWitness,
    _conjugates,
    _record,
    enumerate_normal_subgroups,
    enumerate_subgroups,
)


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


def is_hom_all_pairs(source: FiniteGroup, target: FiniteGroup, mapping) -> bool:
    """f(0) = 0 and f(xy) = f(x) f(y) on every pair, as two whole tables compared at once."""
    arr = np.asarray(mapping)
    if arr[0] != 0:
        return False
    return bool(np.array_equal(arr[source.table], target.table[arr[:, None], arr[None, :]]))


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


def normal_closure_per_step(g: FiniteGroup, seeds: Iterable[int], conjugators: Sequence[int]) -> Subgroup:
    """Smallest subgroup containing `seeds` that every conjugator normalises, one `subgroup_closure`
    per generator it adds: each seed, and each conjugate c^s of a new generator c, not yet inside."""
    sub = g.trivial_subgroup()
    pending = list(seeds)
    for c in pending:
        if c not in set(sub.ids):
            sub = subgroup_closure(g, sub.gens + (c,), start=sub)
            pending.extend(g.conjugate(c, s) for s in conjugators)
    return sub


def inverse_by_argsort(g: FiniteGroup) -> np.ndarray:
    """The inverse array of a group built from permutations: the ids of the rows' argsorts."""
    return g._source.ids_of(np.argsort(g._source.perms, axis=1))


def perm_keys_by_digit_sum(rows: np.ndarray) -> np.ndarray:
    """The int64 sort keys of permutation rows of degree at most 15 in one expression: every digit
    times its power of the degree, an n x degree int64 temporary, summed along the rows."""
    degree = rows.shape[1]
    return (rows * degree ** np.arange(degree, dtype=np.int64)).sum(axis=1)


def coset_action_by_int32_points(g: FiniteGroup, chain: Sequence[Subgroup]
                                 ) -> list[tuple[FiniteGroup, list[int]]]:
    """Level n of the action of g on the first n coset spaces of `chain`, its points numbered in
    int32 across the spaces, built from the images of the greedy generators of g, with the id there
    of every element of g, found by its permutation."""
    blocks, offset, out = [], 0, []
    for sub in chain:
        rep = coset_reps_by_gather(g, sub.ids)
        reps = np.unique(rep).astype(np.int32)
        point_of = np.empty(g.order, dtype=np.int32)
        point_of[reps] = offset + np.arange(len(reps), dtype=np.int32)
        blocks.append(point_of[rep[g.table[:, reps]]])
        offset += len(reps)
    for n in range(1, len(chain) + 1):
        acting = np.hstack(blocks[:n])
        level = build_group(generators=[acting[x].tolist() for x in _greedy_generators(g)],
                            degree=acting.shape[1], name=f"{g.name}|X{n}")
        index = {level.permutation_of(x): x for x in level.elements()}
        out.append((level, [index[tuple(row)] for row in acting.tolist()]))
    return out


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
            members = set(key)
            for x in range(1, g.order):
                if x in members:
                    continue
                added = add(base_gens + (x,))
                if added is not None:
                    new_frontier.append(added)
        frontier = new_frontier
    return _canonical(found)


def enumerate_subgroups_per_subgroup(
    g: FiniteGroup, *, max_count: int | None = None, caps: Caps = DEFAULT_CAPS
) -> list[Subgroup]:
    """All subgroups, by cyclic extension (Neubüser): grow each found H by one x outside it.

    Every subgroup is reached from the trivial one by adding generators one at
    a time.  As <H, x> = <H, xh> for h in H, x ranges only over the minimal
    representatives of the left cosets xH other than H; each closure grows from H.
    """
    caps.check("subgroup_order", g.order)
    caps = caps.with_overrides(subgroup_count=max_count)
    found: dict[tuple[int, ...], Subgroup] = {}
    worklist = [g.trivial_subgroup()]
    _record(found, worklist[0], "subgroup_count", caps)
    for h in worklist:
        for x in np.unique(coset_reps_by_gather(g, h.ids))[1:].tolist():
            sub = subgroup_closure(g, h.gens + (x,), start=h)
            if _record(found, sub, "subgroup_count", caps):
                worklist.append(sub)
    return _canonical(found)


def enumerate_normal_subgroups_all_principals(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """All normal subgroups, as joins of principal normal subgroups from a worklist.

    The principals are the normal closures <x^G>, one per class.  Every normal N
    is the join of the principals inside it, so joining each newly found N with
    each principal P not inside N reaches them all.  N*P grows from N under P.gens.
    """
    caps.check("order", g.order)
    found: dict[tuple[int, ...], Subgroup] = {}
    _record(found, g.trivial_subgroup(), "normal_subgroup_count", caps)
    gens = _greedy_generators(g)
    closures = (normal_closure_per_step(g, (x,), gens) for x in _class_reps(g)[1:])
    principals = {p.ids: p for p in closures}
    worklist = [p for p in principals.values() if _record(found, p, "normal_subgroup_count", caps)]
    for n in worklist:
        for p in principals.values():
            if not n.contains_subgroup(p):
                join = subgroup_closure(g, p.gens, start=n)
                if _record(found, join, "normal_subgroup_count", caps):
                    worklist.append(join)
    return _canonical(found)


def subgroup_classes_one_at_a_time(g: FiniteGroup, caps: Caps) -> list[list[Subgroup]]:
    """Every subgroup, one conjugacy class per list with its representative first.

    Cyclic extension (Neubüser) of one representative H per class: as
    <H, x> = <H, xh> for h in H, x ranges over the minimal representatives of
    the left cosets xH other than H, each closure grown from H.  That reaches a
    member of every class, as <H^h, x> = <H, x^(h^-1)>^h.  A new subgroup brings
    its whole class, and each conjugate is recorded against `subgroup_count`.
    """
    caps.check("subgroup_order", g.order)
    found: dict[tuple[int, ...], Subgroup] = {}
    classes: list[list[Subgroup]] = []

    def add_class(sub: Subgroup) -> None:
        conjugates = _conjugates(g, sub)
        for c in conjugates:
            _record(found, c, "subgroup_count", caps)
        classes.append(conjugates)

    add_class(g.trivial_subgroup())
    for cls in classes:
        h = cls[0]
        for x in np.unique(_coset_reps(h))[1:].tolist():
            sub = subgroup_closure(g, h.gens + (x,), start=h)
            if sub.ids not in found:
                add_class(sub)
    return classes


def subgroup_classes_by_coset_reps(g: FiniteGroup, caps: Caps) -> list[list[Subgroup]]:
    """Every subgroup, one conjugacy class per list with its representative first.

    Cyclic extension of one representative H per class by every least left-coset
    representative x other than H itself, as <H, x> = <H, xh> for h in H; each
    level of classes is extended in batched closure rows.  A new subgroup brings
    its whole class, and each conjugate is recorded against `subgroup_count`.
    """
    caps.check("subgroup_order", g.order)
    found: dict[tuple[int, ...], Subgroup] = {}
    classes: list[list[Subgroup]] = []

    def add_class(sub: Subgroup) -> None:
        conjugates = _conjugates(g, sub)
        for c in conjugates:
            _record(found, c, "subgroup_count", caps)
        classes.append(conjugates)

    add_class(g.trivial_subgroup())
    done = 0
    while done < len(classes):
        level, done = [cls[0] for cls in classes[done:]], len(classes)
        rows = ((h, h.gens + (x,)) for h in level for x in _distinct_reps(_coset_reps(h))[1:].tolist())
        for (_, gens), ids in _closures(g, rows, 1 + max(len(h.gens) for h in level)):
            if ids not in found:
                add_class(Subgroup._from_sorted(g, ids, gens))
    return classes


def enumerate_normal_subgroups_one_at_a_time(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """All normal subgroups, as joins of principal normal subgroups from a worklist.

    The principals are the normal closures <x^G>, one per class, deduped by ids.
    Every normal N is the join of the principals inside it, so joining each newly
    found N with each principal P = <x^G> not inside N reaches them all.  N*P
    depends only on the class of xN in G/N, so the principals outside N are keyed
    by the least coset representative over the class of x and joined once per
    key.  N*P grows from N under P.gens.
    """
    caps.check("order", g.order)
    found: dict[tuple[int, ...], Subgroup] = {}
    _record(found, g.trivial_subgroup(), "normal_subgroup_count", caps)
    gens = _greedy_generators(g)
    closures = ((x, normal_closure_per_step(g, (x,), gens)) for x in _class_reps(g)[1:])
    principals = {p.ids: (x, p) for x, p in closures}
    worklist = [p for _, p in principals.values() if _record(found, p, "normal_subgroup_count", caps)]
    labels = _class_labels(g)
    class_count = int(labels.max()) + 1
    for n in worklist:
        outside = [(x, p) for x, p in principals.values() if x not in n]  # P <= N iff x in N
        if len(outside) > 1:
            key = np.full(class_count, g.order)
            np.minimum.at(key, labels, _coset_reps(n))
            keyed: dict[int, tuple[int, Subgroup]] = {}
            for x, p in outside:
                keyed.setdefault(int(key[labels[x]]), (x, p))
            outside = list(keyed.values())
        for _, p in outside:
            join = subgroup_closure(g, p.gens, start=n)
            if _record(found, join, "normal_subgroup_count", caps):
                worklist.append(join)
    return sorted(found.values(), key=lambda sub: (len(sub), sub.ids))


def closure_mask_by_unique(table: np.ndarray, gens: Sequence[int], start: Sequence[int] = (0,)) -> np.ndarray:
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


def perm_closure_by_dict(
    gen_arrays: list[np.ndarray], degree: int, caps: Caps = DEFAULT_CAPS
) -> tuple[list[np.ndarray], dict[bytes, int], list[int], list[int]]:
    """Queue-based closure of permutations under right multiplication by the generators,
    one product at a time, with a bytes -> id dict: (perms, index, parents, genidx).

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
                caps.check("order", len(perms) + 1, "permutation closure")
                index[key] = len(perms)
                perms.append(new)
                parents.append(qi)
                genidx.append(gi)
        qi += 1
    return perms, index, parents, genidx


def commuting_pair_count_blockwise(g: FiniteGroup, block: int = 1 << 16) -> int:
    """|{(x, y) : xy = yx}| from the whole table: each block of rows x*y against the
    matching transposed block of columns y*x, at most `block` cells at a time."""
    t = g.table
    rows = max(1, block // g.order)
    return sum(int(np.count_nonzero(t[r:r + rows] == t[:, r:r + rows].T))
               for r in range(0, g.order, rows))


def class_labels_per_element(g: FiniteGroup) -> np.ndarray:
    """Class numbers by smallest member: each unlabelled x, ascending, labels its whole
    orbit {h^-1 x h : h in G}, read off the whole table."""
    t, ids = g.table, np.arange(g.order)
    labels = np.full(g.order, -1, dtype=np.int32)
    k = 0
    for x in range(g.order):
        if labels[x] < 0:
            labels[t[t[g.inverse, x], ids]] = k
            k += 1
    return labels


def coset_reps_by_gather(g: FiniteGroup, ids: Sequence[int]) -> np.ndarray:
    """For every x, the least id of x*h over all h in `ids`, one |G| x |H| gather."""
    return g.table[:, np.array(ids, dtype=np.intp)].min(axis=1)


def table_by_columns(gen_arrays: list[np.ndarray], degree: int,
                     caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Cayley table of the group the permutations generate, filled column by column.

    Element j = parent*gen gives i*j = (i*parent)*gen, so column j is the
    parent's column read through the right-multiplication column of the generator.
    """
    perms, index, parents, genidx = perm_closure_by_dict(gen_arrays, degree, caps)
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


def orbit_span_by_rank(action, v: Sequence[int]):
    """The greedy translate basis of v, one rank computation per translate in id order:
    a translate joins when it raises the rank of those chosen so far."""
    from grouplab.modring import OrbitSpan

    p, d = action.prime, action.dim
    chosen_ids: list[int] = []
    chosen_vecs: list[tuple[int, ...]] = []
    current = np.zeros((0, d), dtype=np.int64)
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


def translate_decompositions_by_search(action, v: Sequence[int], targets: Iterable[Sequence[int]],
                                       *, caps: Caps = DEFAULT_CAPS) -> list:
    """Minimal sums of translates of v equal to each target, with the bound, by a
    breadth-first search over partial sums kept as tuples in a dict; each state tries
    every translate in id order.  The search runs once for all targets."""
    from grouplab.modring import TranslateDecomposition

    p, d = action.prime, action.dim
    caps.check("materialized_order", p**d)
    span = orbit_span_by_rank(action, v)
    if not span.spans:
        raise ValidationError("translates of v do not span the space")
    translates = [action.translate(v, h) for h in range(action.group.order)]
    zero = tuple([0] * d)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {zero: None}
    frontier = [zero]
    depth = 0
    max_depth = 0
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
    out = []
    for w in targets:
        target = tuple(int(x) % p for x in w)
        if target not in parent:
            raise GroupLabError("spanning translates failed to reach a vector")
        path = []
        cur = target
        while parent[cur] is not None:
            prev, h = parent[cur]
            path.append(h)
            cur = prev
        out.append(TranslateDecomposition(elements=tuple(sorted(path)), bound=max_depth))
    return out


def minimal_generator_count_from_class_reps(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Smallest k such that some k elements generate g.

    Searches k = 1, 2, ... exhaustively; the first chosen generator ranges
    only over conjugacy-class representatives (conjugating a generating set
    yields a generating set).
    """
    n = g.order
    if n == 1:
        return 0
    caps.check("subgroup_order", n)
    reps = _class_reps(g)[1:]
    rest = list(range(1, n))
    k = 1
    while True:
        for first in reps:
            others = [x for x in rest if x != first]
            for combo in itertools.combinations(others, k - 1):
                if _closure_mask(g, (first,) + combo).all():
                    return k
        k += 1
        if k > n.bit_length():
            raise GroupLabError("generator search exceeded the log2 bound")


def prufer_rank_of_subgroup_groups(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Max over subgroups of the minimal generating-set size; 0 for the trivial group.

    Each subgroup is rebuilt as a group of its own and searched there.
    """
    best = 0
    for sub in enumerate_subgroups(g, caps=caps):
        if len(sub) == 1:
            continue
        grp, _ = sub.as_group()
        best = max(best, minimal_generator_count_from_class_reps(grp, caps=caps))
    return best


def group_rank_bound_of_quotients(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Max over subgroups H of the Pruefer rank of H / core(H), each quotient built as a group."""
    best = 0
    for h in enumerate_subgroups(g, caps=caps):
        h_core = core(g, h)
        h_grp, _ = h.as_group()
        core_local = Subgroup(h_grp, _local_ids(h, h_core.ids), validate=False)
        q, _ = quotient(h_grp, core_local)
        best = max(best, prufer_rank_of_subgroup_groups(q, caps=caps))
    return best


def product_table_by_broadcast(a: FiniteGroup, b: FiniteGroup) -> np.ndarray:
    """The table of A x B, ids x*|B| + y, as one broadcast sum of the factors' whole tables,
    in the product's id dtype: (na-1)*nb + nb-1 < na*nb fits it."""
    na, nb = a.order, b.order
    high = (np.arange(na) * nb).astype(_id_dtype(na * nb))[a.table]
    return (high[:, None, :, None] + b.table[None, :, None, :]).reshape(na * nb, na * nb)


def conjugates_by_gather(g: FiniteGroup, k: Subgroup) -> list[Subgroup]:
    """The distinct conjugates of `k`, `k` itself first, each with its conjugated `gens`.

    One gather of the whole table gives k^h for every h, as |G| x |K| cells; a
    conjugate is kept at the least h that makes it.
    """
    if g.is_abelian:
        return [k]
    t, inv, every = g.table, g.inverse, np.arange(g.order)[:, None]
    rows = np.sort(t[t[inv[:, None], list(k.ids)], every], axis=1)
    row_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    hs = np.sort(np.unique(row_bytes, return_index=True)[1])[1:]  # h = 0 gives k
    gens = t[t[inv[hs][:, None], list(k.gens)], hs[:, None]].tolist()
    return [k] + [Subgroup._from_sorted(g, tuple(rows[h].tolist()), tuple(c))
                  for h, c in zip(hs.tolist(), gens)]


def quotient_table_by_gather(table: np.ndarray, n_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The table of G/N and the projection, cosets numbered by their least id, the
    representatives' products read off the whole table of G in one gather."""
    reps = table[:, np.array(n_ids, dtype=np.intp)].min(axis=1)
    least = np.unique(reps)
    idx_of = np.full(table.shape[0], -1, dtype=np.int64)
    idx_of[least] = np.arange(least.size)
    proj = idx_of[reps]
    return proj[table[np.ix_(least, least)]], proj


def subgroup_table_by_gather(sub: Subgroup) -> np.ndarray:
    """The table of `sub.as_group()`: the parent's whole table read at the subgroup's ids
    in one gather, relabelled by position in the sorted ids."""
    arr = np.array(sub.ids, dtype=np.intp)
    return _local_ids(sub, sub.group.table[np.ix_(arr, arr)])


def subgroup_error_by_isin(g: FiniteGroup, ids: Sequence[int]) -> str | None:
    """The first subgroup-validation message for a sorted set of ids in range holding 0, or
    None: inverses, then every product of two members looked up in the whole table."""
    arr = np.array(ids, dtype=np.intp)
    if not np.isin(g.inverse[arr], arr).all():
        return "subgroup not closed under inversion"
    if not np.isin(g.table[np.ix_(arr, arr)], arr).all():
        return "subgroup not closed under multiplication"
    return None


def algebra_axioms_exhaustive(add: np.ndarray, mul: np.ndarray) -> None:
    """Associativity of + and *, and distributivity, on every triple, one row a at a time."""
    n = add.shape[0]
    for a in range(n):
        if not np.array_equal(add[add[a, :], :], add[a][add]):
            raise ValidationError("addition is not associative")
        if not np.array_equal(mul[mul[a, :], :], mul[a][mul]):
            raise ValidationError("multiplication is not associative")
        lhs = mul[a][add]  # a * (b + c)
        rhs = add[mul[a][:, None], mul[a][None, :]]  # a*b + a*c
        if not np.array_equal(lhs, rhs):
            raise ValidationError("multiplication does not distribute over addition")


def neumann_search_all_pairs(g: FiniteGroup, *,
                             caps: Caps = DEFAULT_CAPS) -> tuple[Subgroup, Subgroup, int, int]:
    """(K, N, |K| |G:N|^2, |[N, N]|) for the least key (value, |K|, -|N|, K ids, N ids) over every
    pair K <= N of normal subgroups with N/K abelian, K != N unless N = 1.

    Containment is read from one membership matrix, a row per normal subgroup.
    """
    normals = enumerate_normal_subgroups(g, caps=caps)
    member = np.zeros((len(normals), g.order), dtype=bool)
    for row, sub in zip(member, normals):
        row[list(sub.ids)] = True
    sizes = member.sum(axis=1)
    best = None
    for n_sub in normals:
        comm = commutator_subgroup(n_sub, n_sub)
        inside = member[:, list(n_sub.ids)].sum(axis=1) == sizes
        above_comm = member[:, list(comm.ids)].all(axis=1)  # N/K abelian
        for i in np.flatnonzero(inside & above_comm).tolist():
            k_sub = normals[i]
            if k_sub == n_sub and len(n_sub) != 1:
                continue
            value = len(k_sub) * (g.order // len(n_sub)) ** 2
            key = (value, len(k_sub), -len(n_sub), k_sub.ids, n_sub.ids)
            if best is None or key < best[0]:
                best = (key, k_sub, n_sub, value, len(comm))
    return best[1:]


def elementary_abelian_coordinates(g: FiniteGroup, p: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Basis element ids and a full coordinate map for an elementary abelian group."""
    basis: list[int] = []
    span = {0: ()}
    for x in range(1, g.order):
        if x in span:
            continue
        new_span = dict(span)
        for known, coords in span.items():
            acc = known
            for c in range(1, p):
                acc = g.mul(acc, x)
                new_span[acc] = coords + (c,)
        # pad earlier coordinates with 0 for the new basis vector
        span = {elem: coords + (0,) * (len(basis) + 1 - len(coords))
                for elem, coords in new_span.items()}
        basis.append(x)
        if len(span) == g.order:
            break
    if len(span) != g.order:
        raise GroupLabError("coordinate construction failed on an elementary abelian group")
    width = len(basis)
    return basis, {elem: coords + (0,) * (width - len(coords)) for elem, coords in span.items()}


def rho_wedge_by_coordinates(g: FiniteGroup) -> ExteriorReport:
    """The wedge-to-commutator report with the map written out as a matrix over GF(p), one row
    of W's coordinates per basis wedge, and its image dimension that matrix's rank.  Raises
    the errors of `rho_wedge`, in the same order, from W's own table."""
    order = g.order
    if order == 1:
        raise ValidationError("need a nontrivial prime-power order")
    p = min(q for q in range(2, order + 1) if order % q == 0)
    if split_prime_power(order, p)[1] != 1:
        raise ValidationError(f"order {order} is not a power of a single prime")
    whole = g.whole_subgroup()
    w = commutator_subgroup(whole, whole)
    if not center(g).contains_subgroup(w):
        raise ValidationError("commutator subgroup is not central (class > 2)")
    w_grp, _ = w.as_group()
    if any(w_grp.element_order(x) != p for x in range(1, w_grp.order)):
        raise ValidationError("commutator subgroup is not elementary abelian")
    q, proj = quotient(g, w)
    if not q.is_abelian or any(q.element_order(x) != p for x in range(1, q.order)):
        raise ValidationError("central quotient is not elementary abelian")
    u_basis, _ = elementary_abelian_coordinates(q, p)
    u_dim = len(u_basis)
    _, w_coords = elementary_abelian_coordinates(w_grp, p)
    w_dim = len(next(iter(w_coords.values()))) if w_grp.order > 1 else 0
    _, lift = np.unique(proj.mapping, return_index=True)  # the minimal id in each coset
    rows = []
    for i, j in itertools.combinations(range(u_dim), 2):
        c = g.commutator(lift[u_basis[i]], lift[u_basis[j]])
        rows.append(w_coords[int(_local_ids(w, c))] if w_dim else ())
    wedge_dim = u_dim * (u_dim - 1) // 2
    image_dim = rank_gfp(np.array(rows, dtype=np.int64), p) if wedge_dim and w_dim else 0
    kernel_dim = wedge_dim - image_dim
    return ExteriorReport(
        name=g.name, prime=p, commutator_ids=w.ids, u_dim=u_dim, wedge_dim=wedge_dim,
        image_dim=image_dim, kernel_dim=kernel_dim, k=kernel_dim // u_dim if u_dim else None,
    )


def relative_rank_by_all_powers(g: FiniteGroup, base: Subgroup, sub: Subgroup) -> int:
    """d(sub/base) for a p-group sub/base by the Burnside basis theorem, with M grown from
    `base` under the p-th power of every element of `sub`, each taken through the table, and
    the generators of [sub, sub]."""
    index = len(sub) // len(base)
    if index == 1:
        return 0
    p = prime_power_base(index)
    if p is None:
        raise ValueError(f"index {index} is not a prime power")
    t, arr = g.table, np.array(sub.ids, dtype=np.intp)
    powers = arr
    for _ in range(p - 1):
        powers = t[powers, arr]
    gens = np.unique(powers).tolist() + list(commutator_subgroup(sub, sub).gens)
    m_order = np.count_nonzero(_closure_mask(g, gens, base.ids))
    return split_prime_power(len(sub) // m_order, p)[0]


def rank_by_least_coset_reps(g: FiniteGroup, base: Subgroup, sub: Subgroup) -> int:
    """d(sub/base): the least k such that `base` and some k of the least representatives of the
    cosets of `base` in `sub` generate `sub`, each k-subset closed on its own."""
    reps = [x for x in np.unique(_coset_reps(base)).tolist() if x in sub][1:]
    for k in range(len(reps) + 1):
        for combo in itertools.combinations(reps, k):
            if np.count_nonzero(_closure_mask(g, combo, base.ids)) == len(sub):
                return k
    raise GroupLabError("no generating set")


def nilpotent_scan_by_repeated_products(ring) -> tuple[bool, int | None]:
    """Nilpotence scan by squaring every element bit_length(size) times: through the
    multiplication table of an algebra, or, for a module ring, through one einsum of every
    element's coordinates with the structure constants per squaring."""
    size = ring.size
    ids = np.arange(size, dtype=np.int64)
    steps = max(1, int(size).bit_length())
    if hasattr(ring, "mul_table"):
        cur = ids.copy()
        for _ in range(steps):
            cur = ring.mul_table[cur, cur]
    else:
        coords = ring.coords(ids)
        for _ in range(steps):
            coords = np.einsum("ni,nj,ijk->nk", coords, coords, ring._structure) % ring.p
        cur = coords @ ring.p ** np.arange(ring.dim)
    hits = np.flatnonzero((cur == 0) & (ids != 0))
    return (False, int(hits[0])) if hits.size else (True, None)


def atom_values_by_digits(mat, gid: int) -> list[int]:
    """The value at every atom of an id of a materialized Boolean power, one mixed-radix
    digit at a time, atom 0 most significant."""
    n = mat.power.base.order
    values = [0] * mat.power.ring.atom_count
    for i in range(len(values) - 1, -1, -1):
        values[i] = gid % n
        gid //= n
    return values


def field_tables_by_polymul(p: int, k: int, poly: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The int32 tables of GF(p^k) = GF(p)[x]/(x^k + poly) on little-endian base-p ids, one
    pair at a time: coefficient sums, and schoolbook products reduced by x^k = -(poly)."""
    size = p**k

    def digits(x: int) -> list[int]:
        out = []
        for _ in range(k):
            out.append(x % p)
            x //= p
        return out

    def encode(cs: Sequence[int]) -> int:
        out = 0
        for c in reversed(cs):
            out = out * p + (c % p)
        return out

    def polymul(a: list[int], b: list[int]) -> list[int]:
        raw = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    raw[i + j] = (raw[i + j] + ai * bj) % p
        # reduce x^k -> -(poly), highest degree first
        for d in range(2 * k - 2, k - 1, -1):
            c = raw[d]
            if c:
                raw[d] = 0
                for j, pj in enumerate(poly):
                    raw[d - k + j] = (raw[d - k + j] - c * pj) % p
        return raw[:k]

    add = np.zeros((size, size), dtype=np.int32)
    mul = np.zeros((size, size), dtype=np.int32)
    digs = [digits(x) for x in range(size)]
    for a in range(size):
        for b in range(a, size):
            add[a, b] = add[b, a] = encode([(x + y) % p for x, y in zip(digs[a], digs[b])])
            mul[a, b] = mul[b, a] = encode(polymul(digs[a], digs[b]))
    return add, mul


def filtered_power_tables_by_broadcast(spec) -> tuple[np.ndarray, np.ndarray]:
    """The add and mul tables of `filtered_power(spec)`, each as one whole n x n int64 array
    built atom by atom from n x n gathers of the field's values (atom 0 most significant)."""
    ring = spec.algebra.ring
    allowed = [spec.allowed_values(i) for i in range(ring.atom_count)]
    radices = [len(vals) for vals in allowed]
    size = int(np.prod(radices))
    coords = np.zeros((size, ring.atom_count), dtype=np.int32)
    rem = np.arange(size, dtype=np.int64)
    for i in range(ring.atom_count - 1, -1, -1):
        coords[:, i] = rem % radices[i]
        rem //= radices[i]
    value_of = [np.array(vals, dtype=np.int32) for vals in allowed]
    index_of = []
    for vals in allowed:
        lookup = np.full(spec.field.size, -1, dtype=np.int32)
        lookup[list(vals)] = np.arange(len(vals), dtype=np.int32)
        index_of.append(lookup)

    def combine(table: np.ndarray) -> np.ndarray:
        out = np.zeros((size, size), dtype=np.int64)
        for i in range(ring.atom_count):
            vi = value_of[i][coords[:, i]]
            res = table[vi[:, None], vi[None, :]]
            out = out * radices[i] + index_of[i][res]
        return out.astype(np.int32)

    return combine(spec.field.add_table), combine(spec.field.mul_table)


def column_by_key_search(source, side: str, s: int) -> np.ndarray:
    """Column s of a group built from permutations, found by keys: the n products x*s ("right")
    or s*x ("left") as permutations, each looked up in the sorted key index."""
    p = source.perms
    return source.ids_of(p[:, p[s]] if side == "right" else p[s][p])


def columns_by_tree(g: FiniteGroup, ss: Iterable[int]) -> dict[tuple[str, int], np.ndarray]:
    """Both columns of each element of `ss` in a group built from permutations, composed along the
    breadth-first tree of its one-product-at-a-time closure from the generators' key-searched
    columns: with s = g1 g2 ... gd on the tree path, right(s) = right(gd)[... right(g1)] and
    left(s) = left(g1)[... left(gd)]."""
    pg, source = g.perm_generators, g._source
    gen_arrays = [np.array(p, dtype=np.int32) for p in pg.perms]
    _, _, parents, genidx = perm_closure_by_dict(gen_arrays, pg.degree, Caps(order=10**6))
    out = {}
    for side in ("right", "left"):
        steps = [column_by_key_search(source, side, x) for x in pg.element_ids]
        for s in ss:
            col, path, x = np.arange(g.order), [], s
            while x:
                path.append(steps[genidx[x]])
                x = parents[x]
            for step in (path[::-1] if side == "right" else path):
                col = step.take(col)
            out[side, s] = col
    return out


def chain_by_rows(perms: np.ndarray) -> list[dict[int, int]]:
    """The stabiliser chain of the group whose elements are the rows, one row at a time: level i maps
    each image b of point i under the rows fixing points 0..i-1 to the least such row taking i to b,
    for every i until the identity alone fixes the points before it."""
    rows = [tuple(int(v) for v in row) for row in perms]
    members, levels = list(range(len(rows))), []
    while len(members) > 1:
        i, level = len(levels), {}
        for x in members:
            level.setdefault(rows[x][i], x)
        levels.append(level)
        members = [x for x in members if rows[x][i] == i]
    return levels


def algebra_tables_by_blocks(structure: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The int32 add and mul tables of the algebra over Z/m with e_i e_j = sum_k structure[i, j, k] e_k,
    on the little-endian ids of its coordinates, both filled together a block of rows at a time."""
    from grouplab.algebras import _coords, _coords_id
    from grouplab.groups import _block_rows

    d = structure.shape[0]
    size = m**d
    coords = _coords(np.arange(size), m, d)
    add = np.empty((size, size), dtype=np.int32)
    mul = np.empty((size, size), dtype=np.int32)
    rows = _block_rows(size * d)
    for a in range(0, size, rows):
        block = coords[a:a + rows]
        add[a:a + rows] = _coords_id(block[:, None] + coords, m)
        mul[a:a + rows] = _coords_id(coords @ np.tensordot(block, structure, 1), m)
    return add, mul


def ring_construct_per_row(action, v: Sequence[int]) -> tuple[bool, tuple | None, int]:
    """(well defined, witness as (annihilator coefficients, multiplier, product value) or None,
    translate bound), shifting one kernel row at a time through the columns of its support;
    the right-ideal property is asserted on the first kernel row the same way."""
    from grouplab.modring import translate_decomposition

    p, group = action.prime, action.group
    vt = tuple(int(x) % p for x in v)
    rows = np.array([action.translate(vt, h) for h in range(group.order)], dtype=np.int64)
    bound = translate_decomposition(action, vt, vt).bound

    def shifted(row, column):
        return sum(int(row[x]) * rows[column(x)] for x in np.flatnonzero(row).tolist()) % p

    kernel = nullspace_gfp(rows.T, p)
    for row in kernel:
        values = shifted(row, group.right)
        hits = np.flatnonzero(values.any(axis=1))
        if hits.size:
            h = int(hits[0])
            return False, (tuple(int(x) for x in row), h, tuple(int(x) for x in values[h])), bound
    if len(kernel) and shifted(kernel[0], group.left).any():
        raise GroupLabError("annihilator is not a right ideal")
    return True, None, bound


def rref_by_row_loop(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) and its pivot columns, searching each column for a
    pivot row by row and clearing it from every other row one row at a time."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m % p, pivots


def bundled_corpus_eager(caps: Caps = DEFAULT_CAPS) -> Corpus:
    """The bundled corpus built whole, each member closed from its generators and its order
    checked in builder order."""
    groups: dict[str, FiniteGroup] = {}
    for name, order, degree, gens in _bundled_builders():
        g = build_group(generators=gens, degree=degree, name=name, caps=caps)
        if g.order != order:
            raise ValidationError(f"bundled group {name} has order {g.order}, expected {order}")
        groups[name] = g
    return Corpus(groups)


def mr_decompose_pairwise(ring) -> tuple:
    """(factors, component_ids) of a nilpotent-free ring, with `mr_decompose`'s local ids, by the
    pairwise scan: e is primitive when no nonzero idempotent f != e has f e = f, which multiplies
    every pair of nonzero idempotents, a bounded block of rows at a time.  A factor is (idempotent,
    element_ids, char, one, add table, mul table); its char is the additive order of its one."""
    from grouplab.groups import _block_rows

    n = ring.size
    idem = np.array([e for e in ring.idempotents() if e != 0], dtype=np.intp)
    below = np.zeros(idem.size, dtype=bool)  # e with f * e = f for an idempotent f != e
    rows = _block_rows(max(idem.size, 1))
    for r in range(0, idem.size, rows):
        f = idem[r:r + rows, None]
        below |= ((ring._grid("mul", f.ravel(), idem) == f) & (f != idem)).any(axis=0)
    factors, projections = [], []
    for e in idem[~below].tolist():
        row = ring._grid("mul", [e], np.arange(n))[0]
        member_ids = np.array(sorted(set(row.tolist())))
        local = np.full(n, -1, dtype=np.int32)
        local[member_ids] = np.arange(member_ids.size)
        char, acc = 1, e
        while acc != 0:
            acc, char = ring.add(acc, e), char + 1
        factors.append((e, tuple(member_ids.tolist()), char, int(local[e]),
                        local[ring._grid("add", member_ids, member_ids)].tolist(),
                        local[ring._grid("mul", member_ids, member_ids)].tolist()))
        projections.append(local[row])
    return tuple(factors), tuple(map(tuple, np.array(projections).reshape(len(factors), n).T.tolist()))
