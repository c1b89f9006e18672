"""Subgroup enumeration and the searches built on top of it.

All results come back in a canonical order: subgroups by (size, element
tuple), witnesses by ascending id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, GroupLabError, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _class_labels,
    _class_reps,
    _closure_mask,
    _coset_reps,
    _greedy_generators,
    _normal_closure,
    is_nilpotent,
    subgroup_closure,
)
from .linalg import is_prime, split_prime_power

__all__ = [
    "AutomorphismReport",
    "SpreadReport",
    "SpreadWitness",
    "automorphism_group",
    "conjugate_spread",
    "enumerate_normal_subgroups",
    "enumerate_subgroups",
    "is_simple_nonabelian",
    "minimal_generator_count",
    "prufer_rank",
    "sylow_subgroup",
]


def _canonical(subs: dict[tuple[int, ...], Subgroup]) -> list[Subgroup]:
    return [subs[key] for key in sorted(subs, key=lambda ids: (len(ids), ids))]


def _record(found: dict[tuple[int, ...], Subgroup], sub: Subgroup, cap: str, limit: int) -> bool:
    """Add `sub` to `found` unless it is there already; True when it is new."""
    if sub.ids in found:
        return False
    if len(found) >= limit:
        raise CapExceeded(cap, limit, len(found) + 1)
    found[sub.ids] = sub
    return True


def enumerate_subgroups(
    g: FiniteGroup, *, max_count: int | None = None, caps: Caps = DEFAULT_CAPS
) -> list[Subgroup]:
    """All subgroups, by cyclic extension (Neubüser): grow each found H by one x outside it.

    Every subgroup is reached from the trivial one by adding generators one at
    a time.  As <H, x> = <H, xh> for h in H, x ranges only over the minimal
    representatives of the left cosets xH other than H; each closure grows from H.
    """
    caps.check("subgroup_order", g.order)
    limit = max_count if max_count is not None else caps.subgroup_count
    found: dict[tuple[int, ...], Subgroup] = {}
    worklist = [g.trivial_subgroup()]
    _record(found, worklist[0], "subgroup_count", limit)
    for h in worklist:
        for x in np.unique(_coset_reps(g, h.ids))[1:].tolist():
            sub = subgroup_closure(g, h.gens + (x,), start=h)
            if _record(found, sub, "subgroup_count", limit):
                worklist.append(sub)
    return _canonical(found)


def enumerate_normal_subgroups(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """All normal subgroups, as joins of principal normal subgroups from a worklist.

    The principals are the normal closures <x^G>, one per class.  Every normal N
    is the join of the principals inside it, so joining each newly found N with
    each principal P not inside N reaches them all.  N*P grows from N under P.gens.
    """
    caps.check("order", g.order)
    limit = caps.normal_subgroup_count
    found: dict[tuple[int, ...], Subgroup] = {}
    _record(found, g.trivial_subgroup(), "normal_subgroup_count", limit)
    gens = _greedy_generators(g.table)
    closures = (_normal_closure(g, (x,), gens) for x in _class_reps(g)[1:])
    principals = {p.ids: p for p in closures}
    worklist = [p for p in principals.values() if _record(found, p, "normal_subgroup_count", limit)]
    for n in worklist:
        for p in principals.values():
            if not n.contains_subgroup(p):
                join = subgroup_closure(g, p.gens, start=n)
                if _record(found, join, "normal_subgroup_count", limit):
                    worklist.append(join)
    return _canonical(found)


def is_simple_nonabelian(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> bool:
    """Nonabelian, and no nontrivial element has a proper normal closure (stops at the first)."""
    if g.is_abelian or g.order == 1:
        return False
    caps.check("order", g.order)
    gens = _greedy_generators(g.table)
    return all(len(_normal_closure(g, (x,), gens)) == g.order for x in _class_reps(g)[1:])


@dataclass(frozen=True)
class SpreadWitness:
    element: int        # the generating element g
    depth: int          # products of conjugates of g^(+-1) needed to cover <g>^G
    worst: int          # smallest element id only reached at that depth


@dataclass(frozen=True)
class SpreadReport:
    m: int
    witnesses: tuple[SpreadWitness, ...]


def conjugate_spread(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> SpreadReport:
    """Least m such that every element of every <x>^G is a product of at most
    m conjugates of x or x^-1.  The empty product covers the identity."""
    caps.check("spread_order", g.order)
    t, labels = g.table, _class_labels(g)
    searched: dict[frozenset[int], tuple[int, int]] = {}  # class pair -> (depth, worst)
    witnesses = []
    for x, pair in enumerate(zip(labels.tolist(), labels[g.inverse].tolist())):
        # The same generators for every x in the class pair {C, C^-1}: one search per pair.
        key = frozenset(pair)
        if key not in searched:
            gens = np.flatnonzero(np.isin(labels, pair))
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
            searched[key] = (m_x, int(np.flatnonzero(reached & (depth == m_x))[0]))
        m_x, worst = searched[key]
        witnesses.append(SpreadWitness(element=x, depth=m_x, worst=worst))
    return SpreadReport(m=max(w.depth for w in witnesses), witnesses=tuple(witnesses))


def minimal_generator_count(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
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
                if _closure_mask(g.table, (first,) + combo).all():
                    return k
        k += 1
        if k > n.bit_length():
            raise GroupLabError("generator search exceeded the log2 bound")


def prufer_rank(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Max over subgroups of the minimal generating-set size; 0 for the trivial group."""
    best = 0
    for sub in enumerate_subgroups(g, caps=caps):
        if len(sub) == 1:
            continue
        grp, _ = sub.as_group()
        best = max(best, minimal_generator_count(grp, caps=caps))
    return best


def sylow_subgroup(g: FiniteGroup, p: int, *, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """A maximal p-subgroup, grown one element at a time (hence Sylow).

    For nilpotent groups the Sylow subgroup is unique; that uniqueness is
    asserted by a normality check.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    current = g.trivial_subgroup()
    # One pass suffices: an x refused once stays refused as `current` grows.
    for x in range(1, g.order):
        if x in current or split_prime_power(g.element_order(x), p)[1] != 1:
            continue
        candidate = subgroup_closure(g, current.gens + (x,), start=current)
        if split_prime_power(len(candidate), p)[1] == 1:
            current = candidate
    if is_nilpotent(g) and not current.is_normal():
        raise GroupLabError("nilpotent group produced a non-normal Sylow subgroup")
    return current


@dataclass(frozen=True)
class AutomorphismReport:
    automorphisms: tuple[GroupHom, ...]
    normal_subgroups: tuple[Subgroup, ...]
    characteristic: tuple[bool, ...]  # aligned with normal_subgroups


def automorphism_group(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> AutomorphismReport:
    """All automorphisms by backtracking over generator images.

    Candidate images are constrained by element order, and each partial
    assignment must restrict to an isomorphism on the subgroup generated so
    far.  Normal subgroups are tagged characteristic when fixed setwise by
    every automorphism.
    """
    n = g.order
    caps.check("automorphism_order", n)
    gens = _greedy_generators(g.table)
    orders = [g.element_order(x) for x in range(n)]

    # Precompute the subgroup chain <gens[:i+1]> with BFS words over it.
    chains: list[np.ndarray] = []
    for i in range(len(gens)):
        chains.append(np.flatnonzero(_closure_mask(g.table, gens[: i + 1])))

    autos: list[np.ndarray] = []

    def build_partial(images: list[int], level: int) -> np.ndarray | None:
        """Map on <gens[:level+1]> determined by the generator images, or None."""
        mapping = np.full(n, -1, dtype=np.int32)
        mapping[0] = 0
        frontier = [0]
        while frontier:
            new_frontier = []
            for x in frontier:
                for ggen, gimg in zip(gens, images):
                    y = int(g.table[x, ggen])
                    fy = int(g.table[mapping[x], gimg])
                    if mapping[y] == -1:
                        mapping[y] = fy
                        new_frontier.append(y)
                    elif mapping[y] != fy:
                        return None
            frontier = new_frontier
        # f(xs) = f(x)f(s) on every edge makes f a homomorphism on the domain; need it injective
        dom = chains[level]
        vals = mapping[dom]
        if np.unique(vals).size != dom.size:
            return None
        return mapping

    def search(level: int, images: list[int], mapping: np.ndarray) -> None:
        if level == len(gens):
            caps.check("automorphism_count", len(autos) + 1)
            autos.append(mapping)
            return
        want = orders[gens[level]]
        for b in range(n):
            if orders[b] != want:
                continue
            trial = images + [b]
            extended = build_partial(trial, level)
            if extended is not None:
                search(level + 1, trial, extended)

    search(0, [], np.arange(n, dtype=np.int32))
    autos.sort(key=lambda m: tuple(int(v) for v in m))
    homs = tuple(GroupHom(g, g, m, validate=False) for m in autos)

    normals = tuple(enumerate_normal_subgroups(g, caps=caps))
    flags = []
    for sub in normals:
        arr = np.array(sub.ids, dtype=np.int32)
        flags.append(all(np.array_equal(np.unique(m[arr]), arr) for m in autos))
    return AutomorphismReport(automorphisms=homs, normal_subgroups=normals,
                              characteristic=tuple(flags))
