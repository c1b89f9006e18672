"""Subgroup enumeration and the searches built on top of it.

All results come back in a canonical order: subgroups by (size, element
tuple), which is (size, key), witnesses by ascending id.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _class_labels,
    _class_reps,
    _close,
    _closure_block_rows,
    _closure_mask,
    _closures,
    _conjugation,
    _coset_reps,
    _distinct,
    _distinct_reps,
    _greedy_generators,
    _normal_closure,
    _orbit_minima,
    _pack,
    _tree,
    commutator_subgroup,
    is_nilpotent,
    subgroup_closure,
)
from .linalg import is_prime, prime_power_base, split_prime_power

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


def _canonical(subs: Iterable[Subgroup]) -> list[Subgroup]:
    return sorted(subs, key=lambda sub: (len(sub), sub._key))


def _record(found: dict[bytes, Subgroup], sub: Subgroup, cap: str, caps: Caps) -> bool:
    """Add `sub` to `found`, by its key, unless it is there already, within the count `cap`; True
    when it is new."""
    if sub._key in found:
        return False
    caps.check(cap, len(found) + 1)
    found[sub._key] = sub
    return True


def _conjugates(g: FiniteGroup, k: Subgroup) -> list[Subgroup]:
    """The distinct conjugates of `k`, `k` itself first: its orbit under x -> s^-1 x s for the
    generators s of G, in queue order, each with the conjugated `gens` of the one it was reached from."""
    if g.is_abelian:
        return [k]
    maps = np.array([_conjugation(g, s) for s in _greedy_generators(g)])
    orbit, seen = [k], {k._key}
    for h in orbit:  # row i of keys and gens: the conjugate by generator i
        keys, size = _pack(g, np.sort(maps.take(h._ids, axis=1), axis=1)), len(h._key)
        gens = maps.take(h.gens, axis=1)
        for i in range(len(maps)):
            if (key := keys[i * size:(i + 1) * size]) not in seen:
                seen.add(key)
                orbit.append(Subgroup._of(g, key, gens[i]))
    return orbit


def _class_minima(g: FiniteGroup):
    """A function taking an array over the elements to, at every element, the least of the array
    over that element's conjugacy class."""
    labels = _class_labels(g)
    by_class = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[by_class], prepend=-1))
    return lambda values: np.minimum.reduceat(values[by_class], starts)[labels]


def _subgroup_classes(g: FiniteGroup, caps: Caps) -> list[list[Subgroup]]:
    """Every subgroup, one conjugacy class per list with its representative first.

    Cyclic extension (Neubüser) of one representative H per class by one x per
    orbit of G under x -> hx and x -> xh for h in H, and x -> x^n for n in the
    normaliser N_G(H), other than H itself: <H, hx> = <H, xh> = <H, x>, and
    <H, x^n> = <H, x>^n lies in the class of <H, x>.  The x taken is the least of
    its orbit, so an x left out closes, after that least, into a class already
    found.  That reaches a member of every class, as <H^h, x> = <H, x^(h^-1)>^h.
    y normalises H iff s y lies in y H for every s in H.gens, and |N_G(H)| times
    the class size must be |G|.  For H normal (a class of one), N_G(H) = G and the
    orbits are the preimages of the classes of G/H: the least coset
    representative over each class of G (in an abelian group, the cosets xH).
    The cosets are taken as they are when they fit in one `_closures` block: a
    measured heuristic, as there the orbits cost more than the rows they save.
    A new subgroup brings its whole class, and each conjugate is recorded
    against `subgroup_count`.
    """
    caps.check("subgroup_order", g.order)
    found: dict[bytes, Subgroup] = {}
    classes: list[list[Subgroup]] = []
    class_minima = None  # made once, when a normal H needs it

    def add_class(sub: Subgroup) -> None:
        conjugates = _conjugates(g, sub)
        for c in conjugates:
            _record(found, c, "subgroup_count", caps)
        classes.append(conjugates)

    def extensions(h: Subgroup, class_size: int, block: int) -> list[int]:
        nonlocal class_minima
        rep = _coset_reps(h)
        cosets = _distinct_reps(rep)
        if cosets.size <= block:
            return cosets[1:].tolist()
        if class_size == 1:
            class_minima = class_minima or _class_minima(g)
            return _distinct_reps(class_minima(rep))[1:].tolist()
        lefts = [g.left(s) for s in h.gens]
        normaliser = np.flatnonzero(np.logical_and.reduce([rep[left] == rep for left in lefts]))
        if normaliser.size * class_size != g.order:
            raise GroupLabError("a normaliser's order times its class size is not the group order")
        conj = [_conjugation(g, n) for n in _greedy_generators(g, normaliser, h._ids)]
        orbits = _orbit_minima([g.right(s) for s in h.gens] + lefts + conj, g.order)
        return _distinct_reps(orbits)[1:].tolist()

    add_class(g.trivial_subgroup())
    done = 0
    while done < len(classes):  # by levels: a block is closed before it is walked, so reads no later class
        level, done = [(cls[0], len(cls)) for cls in classes[done:]], len(classes)
        width = 1 + max(len(h.gens) for h, _ in level)
        block = _closure_block_rows(g, width)
        rows = ((h, h.gens + (x,)) for h, size in level for x in extensions(h, size, block))
        for (_, gens), key in _closures(g, rows, width):
            if key not in found:
                add_class(Subgroup._of(g, key, gens))
    return classes


def enumerate_subgroups(
    g: FiniteGroup, *, max_count: int | None = None, caps: Caps = DEFAULT_CAPS
) -> list[Subgroup]:
    """All subgroups, by cyclic extension of one representative per conjugacy class."""
    classes = _subgroup_classes(g, caps.with_overrides(subgroup_count=max_count))
    return _canonical(itertools.chain.from_iterable(classes))


def enumerate_normal_subgroups(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> list[Subgroup]:
    """All normal subgroups, as joins of principal normal subgroups from a worklist.

    The principals are the normal closures <x^G>, one per class, deduped by ids.
    Every normal N is the join of the principals inside it, so joining each newly
    found N with each principal P = <x^G> not inside N reaches them all.  N*P
    depends only on the class of xN in G/N, so the principals outside N are keyed
    by the least coset representative over the class of x and joined once per
    key.  N*P grows from N under P.gens.
    """
    caps.check("order", g.order)
    found: dict[bytes, Subgroup] = {}
    _record(found, g.trivial_subgroup(), "normal_subgroup_count", caps)
    gens = _greedy_generators(g)
    closures = ((x, _normal_closure(g, (x,), gens)) for x in _class_reps(g)[1:])
    principals = {p._key: (x, p) for x, p in closures}
    worklist = [p for _, p in principals.values() if _record(found, p, "normal_subgroup_count", caps)]
    xs = np.array([x for x, _ in principals.values()], dtype=np.intp)
    ps = [p for _, p in principals.values()]
    class_minima = _class_minima(g)

    def joins(n: Subgroup) -> list[Subgroup]:
        rep = _coset_reps(n)
        outside = np.flatnonzero(rep[xs])  # P <= N iff x in N, iff xN = N
        key = class_minima(rep)[xs[outside]]
        return [ps[i] for i in np.sort(outside[np.unique(key, return_index=True)[1]]).tolist()]

    width = max((len(p.gens) for p in ps), default=1)
    done = 0
    while done < len(worklist):  # by levels: a block is closed before it is walked, so reads no later N
        level, done = worklist[done:], len(worklist)
        rows = ((n, p.gens) for n in level for p in joins(n))
        for (n, gens), key in _closures(g, rows, width):
            if key not in found:
                join = Subgroup._of(g, key, n.gens + tuple(x for x in gens if x not in n))
                _record(found, join, "normal_subgroup_count", caps)
                worklist.append(join)
    return _canonical(found.values())


def is_simple_nonabelian(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> bool:
    """Nonabelian, and no nontrivial element has a proper normal closure (stops at the first)."""
    if g.is_abelian or g.order == 1:
        return False
    caps.check("order", g.order)
    gens = _greedy_generators(g)
    return all(len(_normal_closure(g, (x,), gens)) == g.order for x in _class_reps(g)[1:])


class SpreadWitness(NamedTuple):
    element: int        # the generating element g
    depth: int          # products of conjugates of g^(+-1) needed to cover <g>^G
    worst: int          # smallest element id only reached at that depth


class SpreadReport(NamedTuple):
    m: int
    witnesses: tuple[SpreadWitness, ...]


def conjugate_spread(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> SpreadReport:
    """Least m such that every element of every <x>^G is a product of at most
    m conjugates of x or x^-1.  The empty product covers the identity."""
    caps.check("spread_order", g.order)
    labels = _class_labels(g)
    searched: dict[frozenset[int], tuple[int, int]] = {}  # class pair -> (depth, worst)
    witnesses = []
    for x, pair in enumerate(zip(labels.tolist(), labels[g.inverse].tolist())):
        # The same generators for every x in the class pair {C, C^-1}: one search per pair.
        key = frozenset(pair)
        if key not in searched:
            gens = np.flatnonzero((labels == pair[0]) | (labels == pair[1]))
            depth, last = _close(np.arange(g.order) == 0, np.array([g.right(s) for s in gens.tolist()]))
            searched[key] = (depth, int(last[0]))
        witnesses.append(SpreadWitness(x, *searched[key]))
    return SpreadReport(m=max(w.depth for w in witnesses), witnesses=tuple(witnesses))


def _relative_rank(g: FiniteGroup, base: Subgroup, sub: Subgroup) -> int:
    """d(sub/base): the smallest k such that `base` and some k elements of `sub` generate `sub`.

    `base` is normal in `sub`.  When sub/base is a p-group this is log_p |sub : M|
    by the Burnside basis theorem, where M/base is its Frattini subgroup: M is
    grown from `base` under the p-th powers of the generators of `sub` and the
    generators of [sub, sub].  Modulo [sub, sub], x -> x^p is a homomorphism, so
    those powers suffice.  Otherwise it is `_rank_by_search`.
    """
    index = len(sub) // len(base)
    if index == 1:
        return 0
    p = prime_power_base(index)
    if p is None:
        return _rank_by_search(g, base, sub)
    powers = []
    for x in sub.gens:  # x^p, walked along the column of x
        col, y = g.right(x), x
        for _ in range(p - 1):
            y = int(col[y])
        powers.append(y)
    m_order = np.count_nonzero(_closure_mask(g, powers + list(commutator_subgroup(sub, sub).gens), base._ids))
    return split_prime_power(len(sub) // m_order, p)[0]


def _rank_by_search(g: FiniteGroup, base: Subgroup, sub: Subgroup) -> int:
    """d(sub/base) by search: as <base, x> = <base, xb> for b in base, the
    candidates are one element t of each coset of `base` in `sub` other than
    `base` itself.  They are taken along the breadth-first tree of those cosets
    under right multiplication by `sub.gens`, which `sub` permutes as `base` is
    normal in it, so a candidate t*s has the column right(s)[right(t)]: one
    gather, made once per search and only once the search reaches it.  For each
    k, from 1 if sub/base is abelian (the commutators of `sub.gens` lie in
    `base`) and from 2 otherwise, each unordered k-subset is tried once, in the
    order its last member is reached.
    """
    start = np.zeros(g.order, dtype=bool)
    start[base._ids] = True

    def generates(combo: Sequence[np.ndarray]) -> bool:
        seen = start.copy()
        _close(seen, np.array(combo))
        return np.count_nonzero(seen) == len(sub)

    rep = _coset_reps(base)
    steps = [g.right(s) for s in sub.gens]
    cols, reached = [np.arange(g.order, dtype=g.inverse.dtype)], {0}

    def grow() -> Iterator[bool]:  # one more candidate column at a time; col[0] is the t of col
        for col in cols:
            for step in steps:
                coset = int(rep[step[col[0]]])
                if coset not in reached:
                    reached.add(coset)
                    cols.append(step[col])
                    yield True

    growing = grow()
    abelian = all(g.commutator(a, b) in base for a, b in itertools.combinations(sub.gens, 2))
    for k in range(1 if abelian else 2, (len(sub) // len(base)).bit_length() + 1):
        j = 1
        while j < len(cols) or next(growing, False):
            if any(generates(combo + (cols[j],)) for combo in itertools.combinations(cols[1:j], k - 1)):
                return k
            j += 1
    raise GroupLabError("generator search exceeded the log2 bound")


def minimal_generator_count(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Smallest k such that some k elements generate g."""
    if g.order == 1:
        return 0
    caps.check("subgroup_order", g.order)
    return _relative_rank(g, g.trivial_subgroup(), g.whole_subgroup())


def prufer_rank(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Max over subgroups of the minimal generating-set size; 0 for the trivial group.

    Conjugate subgroups need equally many generators, so one per class is searched.
    """
    trivial = g.trivial_subgroup()
    return max(_relative_rank(g, trivial, k) for k, *_ in _subgroup_classes(g, caps))


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


class AutomorphismReport(NamedTuple):
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
    gens = _greedy_generators(g)
    orders = [g.element_order(x) for x in range(n)]

    # the breadth-first tree of each prefix <gens[:i+1]> grown from the points of <gens[:i]>:
    # its new edges, and all its points, the domain of a partial map
    trees, domains = [], [np.zeros(1, dtype=np.intp)]
    for i in range(len(gens)):
        trees.append(_tree([g.right(s) for s in gens[: i + 1]], domains[-1].tolist()))
        domains.append(np.concatenate([domains[-1], [j for j, _, _ in trees[-1]]]))
    autos: list[list[int]] = []

    def build_partial(images: list[int], level: int, walk: list[int]) -> list[int] | None:
        """Map on <gens[:level+1]> determined by the generator images, extending the map `walk`
        on <gens[:level]> (-1 elsewhere), or None."""
        cols = [g.right(b).tolist() for b in images]
        walk = walk.copy()
        for j, p, k in trees[level]:  # j = p * gens[k]
            walk[j] = cols[k][walk[p]]
        mapping = np.array(walk, dtype=np.int32)
        # f(xs) = f(x)f(s) on every edge makes f a homomorphism on the domain; need it injective
        dom = domains[level + 1]
        vals = mapping[dom]
        for s, b in zip(gens, images):
            if not np.array_equal(mapping[g.right(s)[dom]], g.right(b)[vals]):
                return None
        if _distinct(vals, n).size != dom.size:
            return None
        return walk

    def search(level: int, images: list[int], walk: list[int]) -> None:
        if level == len(gens):
            caps.check("automorphism_count", len(autos) + 1)
            autos.append(walk)
            return
        want = orders[gens[level]]
        for b in range(n):
            if orders[b] != want:
                continue
            trial = images + [b]
            extended = build_partial(trial, level, walk)
            if extended is not None:
                search(level + 1, trial, extended)

    search(0, [], [0] + [-1] * (n - 1))
    stack = np.array(sorted(autos), dtype=np.int32)
    homs = tuple(GroupHom(g, g, m, validate=False) for m in stack)

    # N is characteristic when every automorphism, a bijection, maps it into itself: one gather of its ids
    normals = tuple(enumerate_normal_subgroups(g, caps=caps))
    flags = []
    for sub in normals:
        inside = np.zeros(n, dtype=bool)
        inside[sub._ids] = True
        flags.append(bool(inside[stack[:, sub._ids]].all()))
    return AutomorphismReport(automorphisms=homs, normal_subgroups=normals,
                              characteristic=tuple(flags))
