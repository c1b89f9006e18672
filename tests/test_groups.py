import numpy as np
import pytest

from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import (
    Subgroup,
    build_group,
    center,
    centralizer,
    commutator_subgroup,
    commuting_pair_count,
    conjugacy_classes,
    core,
    cyclic_group,
    direct_power,
    direct_product,
    is_perfect,
    is_soluble,
    normal_closure,
    quotient,
    series,
    subgroup_closure,
)

from grouplab import groups
from grouplab.corpus import bundled_towers
from oracles import (
    classes_per_element,
    core_by_conjugates,
    double_loop_commuting_count,
    naive_is_associative,
    rows_and_columns_are_permutations,
    table_by_columns,
)


def test_trivial_group_from_table():
    g = build_group(table=[[0]], name="triv")
    assert g.order == 1
    assert g.inv(0) == 0


def test_build_from_generators_s3():
    g = build_group(generators=[[1, 0, 2], [1, 2, 0]], degree=3)
    assert g.order == 6
    assert len(conjugacy_classes(g)) == 3
    # discovery order: identity first
    assert g.mul(0, 3) == 3


def test_table_validation_rejects_bad_rows():
    with pytest.raises(ValidationError):
        build_group(table=[[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(ValidationError):
        build_group(table=[[0, 1], [0, 1]])
    with pytest.raises(ValidationError):
        build_group(table=[[1, 0], [0, 1]])  # 0 not the identity
    with pytest.raises(ValidationError, match="out of range"):
        build_group(table=[[0, 1], [1, 2**32]])  # 2**32 would wrap to 0 in int32


def test_table_validation_rejects_nonassociative_latin_square(monkeypatch):
    # a Latin square with identity that fails associativity (order-5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert not naive_is_associative(table)
    with pytest.raises(ValidationError):
        build_group(table=table)
    # checked a row block at a time, the defect sits in some block
    for block_rows in (1, 2):
        monkeypatch.setattr(groups, "_CHECK_BLOCK", block_rows * len(table))
        with pytest.raises(ValidationError, match="not associative"):
            build_group(table=table)


def test_light_test_agrees_with_naive_associativity(corpus, monkeypatch):
    for name in ("S3", "Q8", "Z6", "D4"):
        g = corpus[name]
        assert naive_is_associative(g.table.tolist())
        # rebuilding from the table runs the generator-based check
        build_group(table=g.table.tolist(), name=name)
        monkeypatch.setattr(groups, "_CHECK_BLOCK", 3 * g.order)
        build_group(table=g.table.tolist(), name=name)
        monkeypatch.undo()


def test_generator_validation():
    with pytest.raises(ValidationError):
        build_group(generators=[[0, 0, 1]], degree=3)
    with pytest.raises(ValidationError):
        build_group(generators=[[1, 0]], degree=3)


def test_order_cap():
    from grouplab.config import Caps

    with pytest.raises(CapExceeded):
        cyclic_group(20, caps=Caps(order=10))


def test_inverse_and_commutator(corpus):
    g = corpus["S3"]
    for x in g.elements():
        assert g.mul(x, g.inv(x)) == 0
        for y in g.elements():
            lhs = g.mul(g.mul(g.mul(g.inv(x), g.inv(y)), x), y)
            assert g.commutator(x, y) == lhs


def test_burnside_identity_small(corpus):
    for name in ("Z1", "Z6", "S3", "Q8", "A4", "D4"):
        g = corpus[name]
        assert double_loop_commuting_count(g) == commuting_pair_count(g)
        assert commuting_pair_count(g) == g.order * len(conjugacy_classes(g))


def test_conjugacy_classes_s3(corpus):
    sizes = sorted(len(c) for c in conjugacy_classes(corpus["S3"]))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_a5(corpus):
    assert len(conjugacy_classes(corpus["A5"])) == 5


def test_abelian_classes_are_singletons(corpus):
    g = corpus["Z12"]
    assert all(len(c) == 1 for c in conjugacy_classes(g))


def _class_map_groups(corpus, perm_group):
    """Every bundled group, plus S5, D4xQ8 and A5xA5."""
    return [g for _, g in corpus.items()] + [
        perm_group("S5"), perm_group("D4xQ8"), direct_product(corpus["A5"], corpus["A5"])]


def test_class_labels_match_per_element_orbits(corpus, perm_group):
    for g in _class_map_groups(corpus, perm_group):
        classes = conjugacy_classes(g)
        assert classes == classes_per_element(g), g.name
        labels = groups._class_labels(g)
        assert labels.dtype == np.int32 and not labels.flags.writeable
        assert all(labels[x] == k for k, cls in enumerate(classes) for x in cls), g.name
        assert groups._class_reps(g) == [cls[0] for cls in classes], g.name
        assert commuting_pair_count(g) == g.order * len(classes), g.name


def test_center_is_centralizer_of_everything(corpus, perm_group):
    for g in _class_map_groups(corpus, perm_group):
        assert center(g) == centralizer(g, g.elements()), g.name


def test_core_is_intersection_of_conjugates(corpus, perm_group):
    from grouplab.structure import enumerate_subgroups

    checked = 0
    for g in [g for _, g in corpus.items()] + [perm_group("S5")]:
        for h in enumerate_subgroups(g):
            inter = core_by_conjugates(g, h)
            assert set(core(g, h).ids) == inter, (g.name, h.ids)
            assert h.is_normal() == (inter == set(h.ids)), (g.name, h.ids)
            checked += 1
    assert checked > 156  # S5 alone has 156 subgroups


def test_centralizer(corpus):
    s3 = corpus["S3"]
    assert len(centralizer(s3, [])) == 6
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    assert len(centralizer(s3, [transposition])) == 2
    q8 = corpus["Q8"]
    assert len(center(q8)) == 2


def test_series_abelian(corpus):
    s = series(corpus["Z6"], "derived")
    assert [len(t) for t in s.terms] == [6, 1]


def test_series_perfect(corpus):
    s = series(corpus["A5"], "derived")
    assert [len(t) for t in s.terms] == [60]
    assert is_perfect(corpus["A5"])


def test_series_heisenberg(corpus):
    s = series(corpus["Heis27"], "lower_central")
    assert [len(t) for t in s.terms] == [27, 3, 1]
    assert len(center(corpus["Heis27"])) == 3


def test_series_terms_normal_in_previous(corpus):
    for name in ("S4", "Q8", "Heis27"):
        g = corpus[name]
        for kind in ("derived", "lower_central"):
            terms = series(g, kind).terms
            assert terms[0] == g.whole_subgroup()
            for prev, nxt in zip(terms, terms[1:]):
                assert set(nxt.ids) < set(prev.ids)
                grp, _ = prev.as_group()
                local = {x: i for i, x in enumerate(prev.ids)}
                inner = Subgroup(grp, [local[x] for x in nxt.ids])
                assert inner.is_normal()


def test_is_perfect_cases(corpus):
    assert is_perfect(corpus["Z1"])
    assert not is_perfect(corpus["S3"])
    whole = corpus["S3"].whole_subgroup()
    derived = commutator_subgroup(whole, whole)
    assert len(derived) == 3


def test_soluble(corpus):
    assert is_soluble(corpus["S4"])
    assert not is_soluble(corpus["A5"])


def test_quotient_by_trivial(corpus):
    g = corpus["S3"]
    q, hom = quotient(g, g.trivial_subgroup())
    assert q.order == 6
    assert hom.is_injective() and hom.is_surjective()


def test_quotient_s3_by_a3(corpus):
    g = corpus["S3"]
    a3 = next(s for s in _normals(g) if len(s) == 3)
    q, hom = quotient(g, a3)
    assert q.order == 2
    assert hom.kernel() == a3
    assert hom.is_surjective()


def test_quotient_q8_by_center(corpus):
    q8 = corpus["Q8"]
    q, _ = quotient(q8, center(q8))
    assert q.order == 4
    assert q.is_abelian
    assert all(q.element_order(x) <= 2 for x in q.elements())


def test_quotient_rejects_non_normal(corpus):
    s3 = corpus["S3"]
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    h = subgroup_closure(s3, [transposition])
    with pytest.raises(ValidationError):
        quotient(s3, h)


def _normals(g):
    from grouplab.structure import enumerate_normal_subgroups

    return enumerate_normal_subgroups(g)


def test_core_examples(corpus):
    s3 = corpus["S3"]
    a3 = next(s for s in _normals(s3) if len(s) == 3)
    assert core(s3, a3) == a3  # normal subgroup is its own core
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    h = subgroup_closure(s3, [transposition])
    assert len(core(s3, h)) == 1
    # literal intersection of conjugates agrees
    inter = set(h.ids)
    for g_el in s3.elements():
        inter &= set(h.conjugate_by(g_el).ids)
    assert inter == set(core(s3, h).ids)


def test_core_is_largest_normal_inside(corpus):
    # the core contains every normal subgroup of L sitting inside H
    for name in ("S3", "D4", "A4", "S4"):
        g = corpus[name]
        from grouplab.structure import enumerate_subgroups

        normals = _normals(g)
        for h in enumerate_subgroups(g):
            c = core(g, h)
            assert c.is_normal()
            assert set(c.ids) <= set(h.ids)
            for n in normals:
                if set(n.ids) <= set(h.ids):
                    assert set(n.ids) <= set(c.ids)


def test_core_sylow2_of_s4(corpus):
    from grouplab.structure import sylow_subgroup

    s4 = corpus["S4"]
    d4 = sylow_subgroup(s4, 2)
    assert len(d4) == 8
    c = core(s4, d4)
    assert len(c) == 4
    grp, _ = c.as_group()
    assert grp.is_abelian and all(grp.element_order(x) <= 2 for x in grp.elements())


def test_normal_closure(corpus):
    s3 = corpus["S3"]
    assert len(normal_closure(s3, 0)) == 1
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    assert len(normal_closure(s3, transposition)) == 6
    three_cycle = next(x for x in s3.elements() if s3.element_order(x) == 3)
    assert len(normal_closure(s3, three_cycle)) == 3


def test_normal_closure_minimality(corpus):
    g = corpus["S4"]
    for x in g.elements():
        nc = normal_closure(g, x)
        containing = [s for s in _normals(g) if x in s]
        smallest = min(containing, key=len)
        assert nc == smallest


def test_direct_product_and_power(corpus):
    z2 = corpus["Z2"]
    g = direct_power(z2, 3)
    assert g.order == 8 and g.name == "Z2^3"
    once = direct_power(z2, 1)
    assert once is not z2 and once.name == "Z2^1"
    assert np.array_equal(once.table, z2.table)
    assert direct_power(z2, 0).order == 1
    assert g.is_abelian and all(g.element_order(x) <= 2 for x in g.elements())
    p = direct_product(corpus["S3"], z2)
    assert p.order == 12
    assert commuting_pair_count(p) == commuting_pair_count(corpus["S3"]) * 4


def test_subgroup_validation(corpus):
    s3 = corpus["S3"]
    three_cycle = next(x for x in s3.elements() if s3.element_order(x) == 3)
    with pytest.raises(ValidationError):
        Subgroup(s3, [0, three_cycle])  # missing the square, not closed
    with pytest.raises(ValidationError):
        Subgroup(s3, [1, 2])  # missing the identity
    # Lagrange: every closure divides the order
    for x in s3.elements():
        assert s3.order % len(subgroup_closure(s3, [x])) == 0


def test_hom_validation(corpus):
    from grouplab.groups import GroupHom

    z4 = corpus["Z4"]
    z2 = corpus["Z2"]
    mapping = [x % 2 for x in range(4)]  # ids are powers of the generator
    hom = GroupHom(z4, z2, mapping)
    assert hom.is_surjective()
    with pytest.raises(ValidationError):
        GroupHom(z4, z2, [0, 1, 1, 0])
    # 2**32 + 1 would wrap to the valid image 1 in a cast to int32
    for bad in ([0, 1, 0, 2**32 + 1], np.array([0, 1, 0, 2**32 + 1])):
        with pytest.raises(ValidationError, match="out of range"):
            GroupHom(z4, z2, bad)


def test_permutation_of_roundtrip(corpus):
    s3 = corpus["S3"]
    perms = [s3.permutation_of(x) for x in s3.elements()]
    assert len(set(perms)) == 6
    # composition matches the table under (p*q)(x) = p(q(x))
    for a in s3.elements():
        for b in s3.elements():
            composed = tuple(perms[a][perms[b][i]] for i in range(3))
            assert composed == perms[s3.mul(a, b)]


def _perm_groups(corpus, perm_group):
    """Every bundled group and tower level built from permutations, plus S5, S6 and D4xQ8."""
    yield from (g for _, g in corpus.items())
    for system in bundled_towers(corpus).values():
        yield from (g for g in system.levels if g.perm_generators is not None)
    yield from (perm_group(name) for name in ("S5", "S6", "D4xQ8"))


def test_row_built_tables_match_column_built_oracle(corpus, perm_group):
    orders = []
    for g in _perm_groups(corpus, perm_group):
        pg = g.perm_generators
        gens = [np.array(p, dtype=np.int32) for p in pg.perms]
        assert np.array_equal(g.table, table_by_columns(gens, pg.degree)), g.name
        orders.append(g.order)
    assert {120, 720, 64} <= set(orders)


def _latin_mutants(table: np.ndarray):
    """Copies with one defect: two entries swapped within a column (rows repeat a value)
    or within a row (columns repeat one), in the first and in the last rows or columns."""
    n = table.shape[0]
    for a, b in ((1, 2), (n - 2, n - 1)):
        for c in (1, n - 1):
            col = table.copy()
            col[[a, b], c] = col[[b, a], c]
            row = table.copy()
            row[c, [a, b]] = row[c, [b, a]]
            yield col
            yield row


@pytest.mark.parametrize("block_rows", [1, 7, 16, None])
def test_blockwise_latin_check_matches_whole_table_sort(corpus, perm_group, monkeypatch, block_rows):
    tables = [corpus[name].table for name in ("S3", "Q8", "S4", "A5")]
    # S6, order 720, spans several blocks at the default size, the last one ragged
    tables.append(perm_group("S6").table)
    ragged_multiblock = 0
    for table in tables:
        n = table.shape[0]
        if block_rows is not None:
            monkeypatch.setattr(groups, "_CHECK_BLOCK", block_rows * n)
        rows = max(1, groups._CHECK_BLOCK // n)
        ragged_multiblock += n > rows and n % rows != 0
        assert groups._is_latin(table) and rows_and_columns_are_permutations(table)
        for mutant in _latin_mutants(table):
            assert not rows_and_columns_are_permutations(mutant)
            assert not groups._is_latin(mutant)
    assert ragged_multiblock or block_rows == 1  # one-row blocks are never ragged
