"""Commuting-pair statistics, witness decompositions, and lower-bound tables.

All values are exact: counts are ints, fractions are fractions.Fraction,
and the one comparison involving a fractional exponent is done on squared
quantities so both sides are exact rationals.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import GroupLabError, ValidationError
from .groups import (
    FiniteGroup,
    Subgroup,
    _greedy_generators,
    center,
    commutator_subgroup,
    commuting_pair_count,
    conjugacy_classes,
    core,
    quotient,
    subgroup_closure,
)
from .linalg import prime_power_base, split_prime_power
from .structure import _relative_rank, _subgroup_classes, enumerate_normal_subgroups

__all__ = [
    "CommutingStats",
    "EpsilonEvidence",
    "EpsilonRow",
    "ExteriorReport",
    "Inequality1Row",
    "Inequality2Row",
    "InequalityReport",
    "IntermediateBoundRow",
    "NeumannWitness",
    "RhoTables",
    "commuting_pairs",
    "epsilon_evidence",
    "group_rank_bound",
    "neumann_search",
    "rho_table",
    "rho_wedge",
    "verify_inequalities",
]

Corpus = Sequence[tuple[str, FiniteGroup]]


class CommutingStats(NamedTuple):
    name: str
    order: int
    pairs: int
    fraction: Fraction
    class_count: int


def commuting_pairs(g: FiniteGroup, *, name: str | None = None,
                    caps: Caps = DEFAULT_CAPS) -> CommutingStats:
    """Exact commuting-pair count, cross-checked against the class count."""
    caps.check("order", g.order)
    count = commuting_pair_count(g)
    return CommutingStats(
        name=name or g.name,
        order=g.order,
        pairs=count,
        fraction=Fraction(count, g.order**2),
        class_count=len(conjugacy_classes(g)),
    )


class NeumannWitness(NamedTuple):
    """Normal pair K <= N with N/K abelian minimizing |K| * |L:N|^2.

    Admissible pairs require K strictly below N except for the degenerate
    (1, 1) fallback, which is always admissible and makes the bound trivial.
    """

    group_name: str
    k: Subgroup
    n: Subgroup
    value: int
    k_size: int
    n_index: int
    commutator_size: int  # |[N, N]|
    abelian_quotient: bool

    @property
    def bound(self) -> Fraction:
        order = self.k.group.order
        return Fraction(order * order, self.value)


def neumann_search(g: FiniteGroup, *, name: str | None = None,
                   caps: Caps = DEFAULT_CAPS) -> NeumannWitness:
    """Minimize |K| * |L:N|^2 over admissible normal pairs.

    Ties break by smaller |K|, then larger |N|, then lexicographic element
    tuples.  N/K abelian means [N, N] <= K, and [N, N] is normal in L, so for
    each N the pair ([N, N], N) has the least key; a perfect N other than 1 has
    no admissible pair.  N is visited by ascending index, and the search stops
    once |L:N|^2 alone exceeds the best value: strictly, since a later pair with
    |K| = 1 can tie the value and win on |K|.  The returned witness is verified
    against the exact pair count.
    """
    best: tuple | None = None
    for n_sub in sorted(enumerate_normal_subgroups(g, caps=caps), key=len, reverse=True):
        index = g.order // len(n_sub)
        if best is not None and index * index > best[0][0]:
            break
        k_sub = commutator_subgroup(n_sub, n_sub)
        if k_sub == n_sub and len(n_sub) != 1:
            continue
        key = (len(k_sub) * index * index, len(k_sub), -len(n_sub), k_sub.ids, n_sub.ids)
        if best is None or key < best[0]:
            best = (key, k_sub, n_sub)
    (value, *_), k_sub, n_sub = best  # N = 1 is always visited, unless a pair was found before it
    pairs = commuting_pair_count(g)
    if pairs * value < g.order**2:
        raise GroupLabError("commuting-pair bound violated; tables are inconsistent")
    return NeumannWitness(
        group_name=name or g.name,
        k=k_sub,
        n=n_sub,
        value=value,
        k_size=len(k_sub),
        n_index=g.order // len(n_sub),
        commutator_size=len(k_sub),
        abelian_quotient=True,
    )


def group_rank_bound(g: FiniteGroup, *, caps: Caps = DEFAULT_CAPS) -> int:
    """Max over subgroups H of the rank of H / core(H), the per-group input to rho_r.

    A subgroup of H/core(H) is K/C with C = core(H) <= K <= H, and then C = core(K):
    C <= core(K) as C is normal in g and inside K, and core(K) <= C as K <= H.
    Each K is also its own H, so this is the max over subgroups K of d(K/core(K)).
    That does not change under conjugation, so one K per class is searched.
    """
    return max(_relative_rank(g, core(g, k), k) for k, *_ in _subgroup_classes(g, caps))


class RhoTables(NamedTuple):
    """Per-order minima/maxima over a named family of groups.

    kind "com": minimum commuting-pair count among family members of each
    order.  kind "r": maximum of group_rank_bound.  Orders with no member
    carry None, rendered as the "inf" marker in reports.
    """

    kind: str
    family_mode: str
    entries: tuple[tuple[int, int | None], ...]

    def value(self, order: int) -> int | None:
        for o, v in self.entries:
            if o == order:
                return v
        return None


def rho_table(corpus: Corpus, kind: str, *, orders: Sequence[int] | None = None,
              family_mode: str = "corpus", caps: Caps = DEFAULT_CAPS) -> RhoTables:
    if kind not in ("com", "r"):
        raise ValidationError("kind must be 'com' or 'r'")
    wanted = set(orders) if orders is not None else None
    per_order: dict[int, int] = {}
    for member_name, g in corpus:
        if wanted is not None and g.order not in wanted:
            continue
        if kind == "com":
            val = commuting_pairs(g, name=member_name, caps=caps).pairs
            agg = min
        else:
            val = group_rank_bound(g, caps=caps)
            agg = max
        if g.order in per_order:
            per_order[g.order] = agg(per_order[g.order], val)
        else:
            per_order[g.order] = val
    if orders is None:
        order_list = sorted(per_order)
    else:
        order_list = list(orders)
    entries = tuple((o, per_order.get(o)) for o in order_list)
    return RhoTables(kind=kind, family_mode=family_mode, entries=entries)


class ExteriorReport(NamedTuple):
    """Kernel data of the wedge-to-commutator map of a class-2 group."""

    name: str
    prime: int
    commutator_ids: tuple[int, ...]  # the subgroup W = [L, L]
    u_dim: int                       # dim of L/W over GF(p)
    wedge_dim: int                   # u_dim * (u_dim - 1) / 2
    image_dim: int
    kernel_dim: int
    k: int | None                    # None is the infinity marker (u_dim == 0)


def rho_wedge(g: FiniteGroup, *, name: str | None = None,
              caps: Caps = DEFAULT_CAPS) -> ExteriorReport:
    """Build the wedge-to-commutator map over GF(p) and measure its kernel.

    Requires a group of class at most 2 whose commutator subgroup and
    central quotient are both elementary abelian p-groups for the same p.
    The map sends each basis wedge e_i ^ e_j to the commutator of lifts,
    well defined because the commutator subgroup is central and both layers
    have exponent p.
    """
    caps.check("order", g.order)
    order = g.order
    if order == 1:
        raise ValidationError("need a nontrivial prime-power order")
    p = prime_power_base(order)
    if p is None:
        raise ValidationError(f"order {order} is not a power of a single prime")

    whole = g.whole_subgroup()
    w = commutator_subgroup(whole, whole)
    if not center(g).contains_subgroup(w):
        raise ValidationError("commutator subgroup is not central (class > 2)")
    # both layers are abelian, so each has exponent p when its generators do
    if any(g.element_order(x) != p for x in w.gens):
        raise ValidationError("commutator subgroup is not elementary abelian")
    q, proj = quotient(g, w)
    # the basis of L/W by ascending id; canonical lifts: the first, hence minimal, id in each coset
    u_basis = _greedy_generators(q)
    if not q.is_abelian or any(q.element_order(x) != p for x in u_basis):
        raise ValidationError("central quotient is not elementary abelian")

    u_dim = len(u_basis)
    _, lift = np.unique(proj.mapping, return_index=True)
    # W is elementary abelian, so the image of the wedge map is the subgroup the commutators span
    comms = [g.commutator(lift[u_basis[i]], lift[u_basis[j]])
             for i, j in itertools.combinations(range(u_dim), 2)]
    image_dim = split_prime_power(len(subgroup_closure(g, comms)), p)[0]
    wedge_dim = u_dim * (u_dim - 1) // 2
    kernel_dim = wedge_dim - image_dim
    k = kernel_dim // u_dim if u_dim else None
    return ExteriorReport(
        name=name or g.name,
        prime=p,
        commutator_ids=w.ids,
        u_dim=u_dim,
        wedge_dim=wedge_dim,
        image_dim=image_dim,
        kernel_dim=kernel_dim,
        k=k,
    )


class Inequality1Row(NamedTuple):
    order: int
    rho_r: int
    beta: int
    lhs: Fraction  # i^2 / beta^2
    rhs: int       # rho_com(i)
    passed: bool


class IntermediateBoundRow(NamedTuple):
    name: str
    w_size: int
    bound: Fraction  # i^2 / |W|
    pairs: int
    passed: bool


class Inequality2Row(NamedTuple):
    order: int
    prime: int
    log_p: int
    rho_wedge: int
    lhs_squared: Fraction  # p^(a(2k+1-a) + 4a), compared against rho_com(i)^2
    rhs_squared: int
    passed: bool
    intermediate: tuple[IntermediateBoundRow, ...]


class InequalityReport(NamedTuple):
    ineq1: tuple[Inequality1Row, ...]
    ineq2: tuple[Inequality2Row, ...]
    excluded: tuple[str, ...]  # members outside the class-2 hypotheses


def verify_inequalities(corpus: Corpus, *, beta_table: Mapping[int, int] | None = None,
                        caps: Caps = DEFAULT_CAPS) -> InequalityReport:
    """Check the two commuting-count lower bounds over a corpus.

    Bound 1 needs a user-supplied beta table (rank -> bound); it is skipped
    entirely when none is given.  Bound 2 runs on the members satisfying the
    class-2 elementary-abelian-layers hypotheses; other members are listed
    as excluded.  The fractional exponent in bound 2 is compared by squaring
    both sides.
    """
    rows1: list[Inequality1Row] = []
    if beta_table is not None:
        com = rho_table(corpus, "com", caps=caps)
        ranks = rho_table(corpus, "r", caps=caps)
        for order, rho_com in com.entries:
            if rho_com is None:
                continue
            rank = ranks.value(order)
            if rank is None:
                continue
            if rank not in beta_table:
                raise ValidationError(f"beta table missing an entry for rank {rank}")
            beta = int(beta_table[rank])
            lhs = Fraction(order * order, beta * beta)
            rows1.append(Inequality1Row(
                order=order, rho_r=rank, beta=beta, lhs=lhs, rhs=rho_com,
                passed=lhs <= rho_com,
            ))

    applicable: list[tuple[str, FiniteGroup, ExteriorReport]] = []
    excluded: list[str] = []
    for member_name, g in corpus:
        try:
            report = rho_wedge(g, name=member_name, caps=caps)
        except ValidationError:
            excluded.append(member_name)
            continue
        applicable.append((member_name, g, report))

    rows2: list[Inequality2Row] = []
    by_order: dict[int, list[tuple[str, FiniteGroup, ExteriorReport]]] = {}
    for item in applicable:
        by_order.setdefault(item[1].order, []).append(item)
    for order in sorted(by_order):
        members = by_order[order]
        p = members[0][2].prime
        a, _ = split_prime_power(order, p)
        ks = [rep.k for _, _, rep in members if rep.k is not None]
        if not ks:
            continue  # every member carries the infinity marker
        k = min(ks)
        rho_com = min(commuting_pair_count(g) for _, g, _ in members)
        lhs_squared = Fraction(p) ** (a * (2 * k + 1 - a) + 4 * a)
        rhs_squared = rho_com * rho_com
        inter = []
        for member_name, g, rep in members:
            w_size = len(rep.commutator_ids)
            pairs = commuting_pair_count(g)
            bound = Fraction(order * order, w_size)
            inter.append(IntermediateBoundRow(
                name=member_name, w_size=w_size, bound=bound, pairs=pairs,
                passed=bound <= pairs,
            ))
        rows2.append(Inequality2Row(
            order=order, prime=p, log_p=a, rho_wedge=k,
            lhs_squared=lhs_squared, rhs_squared=rhs_squared,
            passed=lhs_squared <= rhs_squared,
            intermediate=tuple(inter),
        ))
    return InequalityReport(ineq1=tuple(rows1), ineq2=tuple(rows2), excluded=tuple(excluded))


class EpsilonRow(NamedTuple):
    name: str
    order: int
    fraction: Fraction
    n1: int  # witness index |L:N|
    n2: int  # witness commutator size |[N, N]|


class EpsilonEvidence(NamedTuple):
    rows: tuple[EpsilonRow, ...]
    epsilon: Fraction            # largest witnessed: the family minimum fraction
    witnesses_bounded: bool      # n1, n2 never exceed their smallest-order values
    fractions_decay: bool        # per-order minima strictly decrease with order


def epsilon_evidence(corpus, *, caps: Caps = DEFAULT_CAPS) -> EpsilonEvidence:
    """Evidence rows for a family: a corpus of (name, group) pairs or a tower."""
    from .towers import InverseSystem

    if isinstance(corpus, InverseSystem):
        corpus = [(f"level{i}", g) for i, g in enumerate(corpus.levels)]
    rows = []
    for member_name, g in sorted(corpus, key=lambda item: (item[1].order, item[0])):
        stats = commuting_pairs(g, name=member_name, caps=caps)
        witness = neumann_search(g, name=member_name, caps=caps)
        rows.append(EpsilonRow(
            name=member_name, order=g.order, fraction=stats.fraction,
            n1=witness.n_index, n2=witness.commutator_size,
        ))
    if not rows:
        raise ValidationError("corpus is empty")
    epsilon = min(r.fraction for r in rows)
    base_order = rows[0].order
    base_n1 = max(r.n1 for r in rows if r.order == base_order)
    base_n2 = max(r.n2 for r in rows if r.order == base_order)
    bounded = all(r.n1 <= base_n1 and r.n2 <= base_n2 for r in rows)
    per_order_min: dict[int, Fraction] = {}
    for r in rows:
        per_order_min[r.order] = min(per_order_min.get(r.order, r.fraction), r.fraction)
    ordered = [per_order_min[o] for o in sorted(per_order_min)]
    decay = len(ordered) > 1 and all(b < a for a, b in zip(ordered, ordered[1:]))
    return EpsilonEvidence(rows=tuple(rows), epsilon=epsilon,
                           witnesses_bounded=bounded, fractions_decay=decay)
