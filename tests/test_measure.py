import re
from fractions import Fraction

import pytest

from grouplab import groups
from grouplab.errors import ValidationError
from grouplab.groups import build_group, commuting_pair_count, direct_power, direct_product
from grouplab.measure import (
    commuting_pairs,
    epsilon_evidence,
    group_rank_bound,
    neumann_search,
    rho_table,
    rho_wedge,
    verify_inequalities,
)
from grouplab.structure import prufer_rank

from oracles import (
    double_loop_commuting_count,
    elementary_abelian_coordinates,
    group_rank_bound_of_quotients,
    neumann_search_all_pairs,
    rho_wedge_by_coordinates,
)


def test_commuting_pairs_examples(corpus):
    assert commuting_pairs(corpus["Z4"]).pairs == 16
    assert commuting_pairs(corpus["S3"]).pairs == 18
    assert commuting_pairs(corpus["Q8"]).pairs == 40
    stats = commuting_pairs(corpus["S3"])
    assert stats.fraction == Fraction(1, 2)
    assert stats.class_count == 3


def test_commuting_pairs_matches_double_loop(corpus):
    for name, g in corpus:
        if g.order <= 60:
            assert commuting_pairs(g).pairs == double_loop_commuting_count(g)


def test_neumann_abelian(corpus):
    w = neumann_search(corpus["Z6"])
    assert len(w.k) == 1 and len(w.n) == 6
    assert w.value == 1
    assert w.bound == Fraction(36)


def test_neumann_s3(corpus):
    w = neumann_search(corpus["S3"])
    assert len(w.k) == 3 and len(w.n) == 6
    assert w.value == 3
    assert w.bound == Fraction(12)
    assert commuting_pairs(corpus["S3"]).pairs >= w.bound


def test_neumann_a5_degenerate(corpus):
    w = neumann_search(corpus["A5"])
    assert len(w.k) == 1 and len(w.n) == 1
    assert w.value == 3600
    assert w.bound == Fraction(1)


@pytest.fixture(scope="module")
def witness_family(corpus, perm_group):
    """The bundled corpus, the benchmark's lattice and large groups, products with rich
    normal lattices, and D8, whose witness (k 1, index 2) ties N = G on value."""
    family = list(corpus) + [(f"Z2^{m}", direct_power(corpus["Z2"], m)) for m in (5, 6)]
    family += [(name, perm_group(name)) for name in ("D4xQ8", "S5", "A5xA5", "S7")]
    for a, b in (("D4", "D4"), ("Q8", "Q8"), ("S3", "S3"), ("A4", "V4"), ("S4", "Z2"),
                 ("Heis27", "Z3"), ("M27", "Z3"), ("Heis27", "Heis27"), ("Z4", "Z2")):
        family.append((f"{a}x{b}", direct_product(corpus[a], corpus[b])))
    family.append(("D4xQ8xZ2", direct_product(perm_group("D4xQ8"), corpus["Z2"])))
    d8 = [[1, 2, 3, 4, 5, 6, 7, 0], [7, 6, 5, 4, 3, 2, 1, 0]]
    family.append(("D8", build_group(generators=d8, degree=8, name="D8")))
    assert len(family) == 42
    return family


def test_neumann_exhaustive_minimality(witness_family):
    # the witness over ([N, N], N) only is the least over every admissible pair
    for name, g in witness_family:
        w = neumann_search(g)
        k_sub, n_sub, value, comm_size = neumann_search_all_pairs(g)
        got = (w.k.ids, w.n.ids, w.value, w.commutator_size)
        assert got == (k_sub.ids, n_sub.ids, value, comm_size), name
        assert commuting_pair_count(g) * w.value >= g.order**2
    w = neumann_search(dict(witness_family)["D8"])
    assert (w.k_size, w.n_index, w.value) == (1, 2, 4)


def test_rho_wedge_matches_the_coordinate_rank(witness_family):
    reports = 0
    for name, g in witness_family:
        try:
            want = rho_wedge_by_coordinates(g)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                rho_wedge(g)
            continue
        assert rho_wedge(g) == want, name
        reports += 1
    assert reports == 20


def test_rho_com_table(corpus):
    table = rho_table(corpus.items(), "com")
    assert table.value(4) == 16   # both order-4 groups abelian
    assert table.value(6) == 18   # min(18, 36)
    assert table.value(8) == 40   # D4/Q8 beat Z8
    assert table.value(12) == 48  # A4
    assert table.value(24) == 120
    assert table.value(60) == 300
    # invariant: never above order squared, equality when all members abelian
    for order, value in table.entries:
        assert value is None or value <= order * order


def test_rho_com_equals_square_iff_all_abelian(corpus):
    table = rho_table(corpus.items(), "com")
    abelian_orders = {}
    for name, g in corpus:
        abelian_orders.setdefault(g.order, True)
        abelian_orders[g.order] &= g.is_abelian
    for order, value in table.entries:
        if abelian_orders[order]:
            assert value == order * order
        else:
            assert value < order * order


def test_rho_com_absent_orders(corpus):
    table = rho_table(corpus.items(), "com", orders=range(1, 25))
    assert table.value(17) is None
    assert table.value(23) is None


def test_rho_r_table(corpus):
    table = rho_table([("S3", corpus["S3"])], "r")
    assert table.value(6) == 1
    table2 = rho_table(corpus.items(), "r", orders=[4, 6, 8])
    assert table2.value(4) == 0  # abelian: every subgroup equals its own core
    assert table2.value(6) == 1
    assert table2.value(8) == 1  # worst case from the non-normal order-2 subgroups of D4


def test_group_rank_bound_s3(corpus):
    # every subgroup of S3 has cyclic quotient by its core except the whole group,
    # whose core is itself
    assert group_rank_bound(corpus["S3"]) == 1
    assert group_rank_bound(corpus["V4"]) == 0  # all subgroups normal -> trivial quotients
    assert group_rank_bound(corpus["S4"]) == 2


def test_group_rank_bound_matches_quotient_groups(corpus, perm_group):
    for g in [g for _, g in corpus] + [perm_group("S5"), perm_group("D4xQ8")]:
        assert group_rank_bound(g) == group_rank_bound_of_quotients(g), g.name


def test_rank_searches_build_no_group(corpus, monkeypatch):
    built = []

    def counted(self, table, **kwargs):
        built.append(kwargs.get("name"))
        init(self, table, **kwargs)

    init = groups.FiniteGroup.__init__
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counted)
    s4 = corpus["S4"]
    assert group_rank_bound(s4) == 2 and prufer_rank(s4) == 2
    assert built == []


def test_rho_wedge_heisenberg(corpus):
    rep = rho_wedge(corpus["Heis27"])
    assert rep.prime == 3
    assert rep.u_dim == 2
    assert rep.wedge_dim == 1
    assert rep.kernel_dim == 0
    assert rep.k == 0
    assert len(rep.commutator_ids) == 3


def test_rho_wedge_matches_kernel_count_oracle(corpus):
    # independent kernel size: evaluate the wedge map on every wedge vector
    g = corpus["Heis27"]
    rep = rho_wedge(g)
    p = rep.prime
    assert p ** rep.kernel_dim == 1  # injective here


def test_rho_wedge_elementary_abelian(corpus):
    rep = rho_wedge(corpus["V4"])
    assert rep.u_dim == 2 and rep.wedge_dim == 1
    assert rep.kernel_dim == 1  # zero map
    assert rep.k == 0
    z2 = rho_wedge(corpus["Z2"])
    assert z2.u_dim == 1 and z2.wedge_dim == 0 and z2.k == 0


def test_rho_wedge_rejects_bad_inputs(corpus):
    with pytest.raises(ValidationError):
        rho_wedge(corpus["Z4"])  # exponent 4 layer
    with pytest.raises(ValidationError):
        rho_wedge(corpus["S3"])  # not a p-group
    with pytest.raises(ValidationError):
        rho_wedge(corpus["Z1"])


def test_rho_wedge_isomorphism_invariant(corpus):
    # relabel Heis27 through a non-identity automorphism and recompute
    import numpy as np

    from grouplab.groups import FiniteGroup
    from grouplab.structure import automorphism_group

    g = corpus["Heis27"]
    base = rho_wedge(g)
    auto = automorphism_group(g, caps=_caps_for_27()).automorphisms[1]
    perm = np.array([auto(x) for x in g.elements()], dtype=np.int64)
    relabeled = np.empty_like(g.table)
    for a in g.elements():
        for b in g.elements():
            relabeled[perm[a], perm[b]] = perm[g.table[a, b]]
    h = FiniteGroup(relabeled, name="relabeled", validate="full")
    other = rho_wedge(h)
    assert (other.u_dim, other.wedge_dim, other.kernel_dim, other.k) == (
        base.u_dim, base.wedge_dim, base.kernel_dim, base.k)


def _caps_for_27():
    from grouplab.config import Caps

    return Caps(automorphism_order=32, automorphism_count=2000)


def test_wedge_diagram_commutes(corpus):
    # [x, y] must equal the wedge map applied to coordinates, for all pairs
    import itertools

    import numpy as np

    from grouplab.groups import quotient

    for name in ("Heis27", "M27", "D4", "Q8"):
        g = corpus[name]
        rep = rho_wedge(g)
        p = rep.prime
        w = g.subgroup(rep.commutator_ids, validate=False)
        q, proj = quotient(g, w)
        u_basis, u_coords = elementary_abelian_coordinates(q, p)
        w_grp, _ = w.as_group()
        _, w_coords = elementary_abelian_coordinates(w_grp, p)
        w_local = {x: i for i, x in enumerate(w.ids)}
        lift = {}
        for x in g.elements():
            lift.setdefault(proj(x), x)
        # matrix rows in basis order
        rows = {}
        for i, j in itertools.combinations(range(rep.u_dim), 2):
            c = g.commutator(lift[u_basis[i]], lift[u_basis[j]])
            rows[(i, j)] = np.array(w_coords[w_local[c]], dtype=np.int64)
        for x in g.elements():
            for y in g.elements():
                cx = np.array(u_coords[proj(x)], dtype=np.int64)
                cy = np.array(u_coords[proj(y)], dtype=np.int64)
                total = np.zeros(len(w_coords[0]) if w_grp.order > 1 else 0, dtype=np.int64)
                for i, j in rows:
                    coef = (cx[i] * cy[j] - cx[j] * cy[i]) % p
                    total = (total + coef * rows[(i, j)]) % p
                commut = g.commutator(x, y)
                expected = np.array(w_coords[w_local[commut]], dtype=np.int64)
                assert np.array_equal(total, expected)


def test_inequality_one(corpus):
    report = verify_inequalities([("S3", corpus["S3"])], beta_table={1: 2, 2: 6})
    row = next(r for r in report.ineq1 if r.order == 6)
    assert row.beta == 2
    assert row.lhs == Fraction(36, 4)
    assert row.rhs == 18
    assert row.passed


def test_inequality_one_missing_beta(corpus):
    with pytest.raises(ValidationError):
        verify_inequalities([("S3", corpus["S3"])], beta_table={2: 6})


def test_inequality_two_extraspecial(corpus):
    members = [(n, corpus[n]) for n in ("D4", "Q8", "Heis27", "M27")]
    report = verify_inequalities(members)
    assert not report.excluded
    by_order = {r.order: r for r in report.ineq2}
    assert by_order[8].lhs_squared == Fraction(64)
    assert by_order[8].rhs_squared == 1600
    assert by_order[8].passed
    assert by_order[27].lhs_squared == Fraction(729)
    assert by_order[27].rhs_squared == 297 * 297
    assert by_order[27].passed
    for row in report.ineq2:
        assert all(r.passed for r in row.intermediate)
    inter27 = {r.name: r for r in by_order[27].intermediate}
    assert inter27["Heis27"].bound == Fraction(729, 3)


def test_inequality_two_abelian_equality(corpus):
    report = verify_inequalities([("Z3", corpus["Z3"])])
    row = report.ineq2[0]
    # trivial commutator subgroup: the intermediate bound is an equality
    assert row.intermediate[0].bound == Fraction(9)
    assert row.intermediate[0].pairs == 9
    assert row.passed


def test_inequality_two_excludes_nonapplicable(corpus):
    report = verify_inequalities([("Z4", corpus["Z4"]), ("V4", corpus["V4"])])
    assert report.excluded == ("Z4",)
    assert len(report.ineq2) == 1


def test_epsilon_abelian_family(corpus):
    ev = epsilon_evidence([("Z2", corpus["Z2"]), ("Z4", corpus["Z4"])])
    assert ev.epsilon == Fraction(1)
    assert all(r.n1 == 1 and r.n2 == 1 for r in ev.rows)
    assert ev.witnesses_bounded
    assert not ev.fractions_decay


def test_epsilon_a5_powers(corpus):
    a5 = corpus["A5"]
    square = direct_product(a5, a5, name="A5xA5")
    ev = epsilon_evidence([("A5", a5), ("A5^2", square)])
    assert [str(r.fraction) for r in ev.rows] == ["1/12", "1/144"]
    assert ev.epsilon == Fraction(1, 144)
    assert ev.fractions_decay
    assert not ev.witnesses_bounded


def test_epsilon_bounded_family(corpus):
    s3 = corpus["S3"]
    s3z2 = direct_product(s3, corpus["Z2"], name="S3xZ2")
    ev = epsilon_evidence([("S3", s3), ("S3xZ2", s3z2)])
    assert ev.epsilon == Fraction(1, 2)
    assert ev.witnesses_bounded
    assert all(r.n1 == 1 and r.n2 == 3 for r in ev.rows)
