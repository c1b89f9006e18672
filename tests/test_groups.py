import itertools
import tracemalloc

import numpy as np
import pytest

from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import (
    FiniteGroup,
    Subgroup,
    _conjugation,
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
from grouplab.structure import enumerate_subgroups

from grouplab import groups
from grouplab.corpus import bundled_towers
from conftest import s6_tower_levels
from oracles import (
    classes_per_element,
    core_by_conjugates,
    coset_reps_by_gather,
    double_loop_commuting_count,
    naive_is_associative,
    rows_and_columns_are_permutations,
    subgroup_table_by_gather,
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
    # the same group under a new name, sharing the read-only arrays
    assert q.table is g.table and q.inverse is g.inverse and q.name == "S3/1"
    assert np.array_equal(hom.mapping, np.arange(6))


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


def test_conjugation_is_by_the_inverse_on_the_left(corpus, perm_group):
    """x^h = h^-1 x h in every path that conjugates: `conjugate`, the map `_conjugation` and
    `conjugate_by`, against products taken one at a time."""
    for g in (corpus["S4"], corpus["Q8"], perm_group("S5"), perm_group("D4xQ8")):
        subs = enumerate_subgroups(g)[1::7]
        for h in g.elements():
            want = [g.mul(g.inv(h), g.mul(x, h)) for x in g.elements()]
            assert [g.conjugate(x, h) for x in g.elements()] == want, (g.name, h)
            assert _conjugation(g, h).tolist() == want, (g.name, h)
            for sub in subs:
                assert sub.conjugate_by(h).ids == tuple(sorted(want[x] for x in sub)), (g.name, h, sub)


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
    assert once.table is z2.table and once.perm_generators is None
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


def test_membership_by_bisection_and_mask_matches_sets(corpus, perm_group):
    for g in (corpus["S4"], perm_group("D4xQ8"), direct_power(corpus["Z2"], 5)):
        subs = enumerate_subgroups(g)
        sets = [set(sub.ids) for sub in subs]
        for sub, members in zip(subs, sets):
            for x in range(-1, g.order + 1):  # -1 and the order lie outside every subgroup
                want = x in members
                assert (x in sub) == (np.int64(x) in sub) == (np.int16(x) in sub) == want, (g.name, sub, x)
        for (a, in_a), (b, in_b) in itertools.product(zip(subs, sets), repeat=2):
            assert a.contains_subgroup(b) == (in_a >= in_b), (g.name, a, b)


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
    """Every bundled group and tower level built from permutations, plus S5, S6 and D4xQ8,
    and the levels of S6 on a stabiliser chain (degrees up to 157), each freshly built."""
    yield from (build_group(generators=g.perm_generators.perms, degree=g.perm_generators.degree,
                            name=name) for name, g in corpus.items())
    for system in bundled_towers(corpus).values():
        yield from (g for g in system.levels if g.perm_generators is not None)
    yield from (perm_group(name) for name in ("S5", "S6", "D4xQ8"))
    yield from s6_tower_levels(perm_group("S6"))


def test_row_built_tables_match_column_built_oracle(corpus, perm_group):
    orders = []
    for g in _perm_groups(corpus, perm_group):
        pg = g.perm_generators
        gens = [np.array(p, dtype=np.int32) for p in pg.perms]
        # past one check block, the table is built on first use, after columns from the permutations
        assert (g._table is None) == (g.order ** 2 > groups._CHECK_BLOCK), g.name
        last = g.right(g.order - 1)
        assert np.array_equal(g.table, table_by_columns(gens, pg.degree)), g.name
        assert g.table is g.table and not g.table.flags.writeable and g.table.dtype == g.inverse.dtype
        assert np.array_equal(g.right(g.order - 1), last), g.name
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


@pytest.mark.parametrize("block", [1, 7, None])
def test_blockwise_coset_reps_match_one_shot_minimum(corpus, perm_group, monkeypatch, block):
    from grouplab.structure import enumerate_subgroups

    if block is not None:
        monkeypatch.setattr(groups, "_CHECK_BLOCK", block)
    s6 = perm_group("S6")
    cases = [(corpus["S4"], sub) for sub in enumerate_subgroups(corpus["S4"])]
    # at the default size the 720 rows of S6 span eight blocks of 91, the last one ragged
    cases += [(s6, s6.whole_subgroup()), (s6, subgroup_closure(s6, [1, 2]))]
    for g, sub in cases:
        one_shot = coset_reps_by_gather(g, sub.ids)
        assert np.array_equal(groups._coset_reps(sub), one_shot), (g.name, len(sub))


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_blockwise_commuting_count_matches_double_loop(corpus, monkeypatch, block_rows):
    for name in ("Z1", "Z6", "S3", "Q8", "S4", "A5"):
        g = corpus[name]
        if block_rows is not None:
            monkeypatch.setattr(groups, "_CHECK_BLOCK", block_rows * g.order)
        fresh = FiniteGroup(g.table, name=name)  # nothing memoised yet
        pairs = double_loop_commuting_count(g)
        assert commuting_pair_count(fresh) == pairs, name
        assert fresh.is_abelian == (pairs == g.order ** 2), name


def test_read_only_table_needs_less_than_a_table_of_scratch(perm_group):
    table = perm_group("S6").table
    assert not table.flags.writeable
    tracemalloc.start()
    try:
        g = FiniteGroup(table, name="S6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.table is table and np.array_equal(table[np.arange(720), g.inverse], np.zeros(720))
    assert peak < table.nbytes


def test_id_dtype_is_int16_while_every_id_fits():
    assert groups._id_dtype(1) is np.int16
    assert groups._id_dtype(32768) is np.int16  # ids 0..32767
    assert groups._id_dtype(32769) is np.int32
    assert groups._id_dtype(100_000) is np.int32  # the CLI's hard cap on any order


def _loop_product(a: FiniteGroup, b: FiniteGroup) -> list[list[int]]:
    """The direct product's table from its definition: (x1, x2)(y1, y2) = (x1 y1, x2 y2)."""
    nb = b.order
    return [[a.mul(x // nb, y // nb) * nb + b.mul(x % nb, y % nb) for y in range(a.order * nb)]
            for x in range(a.order * nb)]


def _constructed(corpus, perm_group):
    """(label, group, its table as an oracle or a Python loop computes it), one or more per constructor."""
    from grouplab.boolean import build_boolean_ring
    from grouplab.boolpower import materialize_bp_group
    from grouplab.towers import coset_action_system

    s3, s4, z2 = corpus["S3"], corpus["S4"], corpus["Z2"]
    yield "table", FiniteGroup(s4.table.tolist(), name="S4"), s4.table.tolist()
    for name in ("S5", "S6"):
        g = perm_group(name)
        gens = [np.array(p, dtype=np.int32) for p in g.perm_generators.perms]
        yield name, g, table_by_columns(gens, g.perm_generators.degree)
    for n in (1, 2, 7, 12):
        yield f"Z{n}", cyclic_group(n), [[(x + y) % n for y in range(n)] for x in range(n)]
    yield "S3xZ2", direct_product(s3, z2), _loop_product(s3, z2)
    yield "S3^2", direct_power(s3, 2), _loop_product(s3, s3)
    yield "Z2^0", direct_power(z2, 0), [[0]]
    yield "Z2^3", direct_power(z2, 3), [[x ^ y for y in range(8)] for x in range(8)]
    mat = materialize_bp_group(s3, build_boolean_ring(2))
    yield "S3^B2", mat.group, _loop_product(s3, s3)
    v4 = next(n for n in _normals(s4) if len(n) == 4)
    q, proj = quotient(s4, v4)
    _, lift = np.unique(proj.mapping, return_index=True)  # the least id of every coset
    yield "S4/V4", q, [[proj(s4.mul(x, y)) for y in lift] for x in lift]
    a4 = next(n for n in _normals(s4) if len(n) == 12)
    sub, _ = a4.as_group()
    yield "A4<S4", sub, [[a4.ids.index(s4.mul(x, y)) for y in a4.ids] for x in a4.ids]
    chain = [s4.whole_subgroup(), a4, v4, s4.trivial_subgroup()]
    for level in coset_action_system(s4, chain).system.levels:
        gens = [np.array(p, dtype=np.int32) for p in level.perm_generators.perms]
        yield level.name, level, table_by_columns(gens, level.perm_generators.degree)


def test_every_constructor_builds_its_table_and_inverse_in_the_id_dtype(corpus, perm_group):
    labels = []
    for label, g, expected in _constructed(corpus, perm_group):
        dtype = groups._id_dtype(g.order)
        assert g.table.dtype == g.inverse.dtype == dtype, label
        assert np.array_equal(g.table, np.array(expected)), label
        assert all(g.mul(x, g.inv(x)) == 0 for x in g.elements()), label
        labels.append(label)
    assert len(labels) == 18


def test_mixed_id_widths_give_the_same_tables_ids_and_reports(corpus, perm_group, monkeypatch, tmp_path):
    """With int16 ids only up to order 20, factors and quotients cross the width both ways."""
    from grouplab.cli import main
    from grouplab.corpus import bundled_corpus

    s4, a4, z2 = corpus["S4"], corpus["A4"], corpus["Z2"]
    v4 = next(n for n in _normals(s4) if len(n) == 4)
    unpatched = {
        "A4xZ2": direct_product(a4, z2),
        "S4/V4": quotient(s4, v4)[0],
        "S5": perm_group("S5"),
    }
    argv = ["analyze-group", "--out"]
    assert main([*argv, str(tmp_path / "int16.json")]) == 0

    monkeypatch.setattr(groups, "_ID16_LIMIT", 20)
    narrow_a4 = FiniteGroup(a4.table, name="A4")
    wide_s4 = FiniteGroup(s4.table, name="S4")
    assert narrow_a4.table.dtype == np.int16 and wide_s4.table.dtype == np.int32
    product = direct_product(narrow_a4, FiniteGroup(z2.table, name="Z2"))  # int16 factors
    q = quotient(wide_s4, Subgroup(wide_s4, v4.ids))[0]                      # an int32 group
    patched = {"A4xZ2": product, "S4/V4": q, "S5": perm_group("S5")}
    assert [g.table.dtype for g in patched.values()] == [np.int32, np.int16, np.int32]
    for name, g in patched.items():
        assert g.inverse.dtype == g.table.dtype, name
        assert np.array_equal(g.table, unpatched[name].table), name
        assert np.array_equal(g.inverse, unpatched[name].inverse), name
    rebuilt = bundled_corpus()
    assert {g.table.dtype.type for _, g in rebuilt.items()} == {np.int16, np.int32}
    for name, g in rebuilt.items():
        assert g.table.dtype == groups._id_dtype(g.order), name
        assert np.array_equal(g.table, corpus[name].table), name
    assert main([*argv, str(tmp_path / "mixed.json")]) == 0
    assert (tmp_path / "mixed.json").read_bytes() == (tmp_path / "int16.json").read_bytes()


def test_direct_product_allocates_no_table_wider_than_its_own(corpus, monkeypatch):
    s4 = corpus["S4"]
    # The whole-table checks keep a scratch of `_CHECK_BLOCK` cells at any order, bounded
    # by the blockwise tests above; at four rows a block, the product's table is the one
    # n^2 allocation left to measure.
    monkeypatch.setattr(groups, "_CHECK_BLOCK", 4 * s4.order ** 2)
    tracemalloc.start()
    try:
        g = direct_product(s4, s4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.table.dtype == np.int16
    assert peak <= 1.25 * g.table.nbytes


def test_distinct_matches_np_unique_in_values_and_dtype():
    rng = np.random.default_rng(29)
    for dtype in (np.uint8, np.int16, np.int32, np.intp):
        for shape in ((0,), (1,), (40,), (6, 9), (0, 3)):
            n = int(rng.integers(1, 100))
            ids = rng.integers(0, n, size=shape).astype(dtype)
            want, got = np.unique(ids), groups._distinct(ids, n)
            assert got.dtype == want.dtype and np.array_equal(got, want), (dtype, shape)



def _reached(maps: list[np.ndarray]) -> set[int]:
    """Every point reachable from 0 under the maps, by a plain fixpoint."""
    reached, changed = {0}, True
    while changed:
        grown = reached | {int(m[x]) for m in maps for x in reached}
        reached, changed = grown, grown != reached
    return reached


def test_tree_reaches_each_point_once_from_an_earlier_parent(corpus, perm_group):
    cases = [[g.right(s) for s in groups._greedy_generators(g)] for _, g in corpus.items()]
    s4 = corpus["S4"]
    cases.append([s4.right(3)])  # one element: it generates a proper subgroup
    cases.append([np.array([1, 2, 2, 0, 4]), np.array([0, 0, 1, 1, 1])])  # not permutations
    d4xq8 = perm_group("D4xQ8")
    cases.append([d4xq8.left(s) for s in d4xq8._source.gens])
    for maps in cases:
        edges = groups._tree(maps)
        points = [j for j, _, _ in edges]
        assert len(set(points)) == len(points) and 0 not in points
        assert set(points) | {0} == _reached(maps)
        position = {0: -1, **{j: i for i, j in enumerate(points)}}
        for i, (j, p, k) in enumerate(edges):
            assert int(maps[k][p]) == j
            assert position[p] < i  # the parent comes first
        # a queue takes parents in the order it reached them, and each one's maps in turn
        order = [(position[p], k) for _, p, k in edges]
        assert order == sorted(order)
        # grown from the points the first map reaches: each other point once, from one before it
        first = [0] + [j for j, _, _ in groups._tree(maps[:1])]
        grown = groups._tree(maps, first)
        points = [j for j, _, _ in grown]
        assert len(set(points)) == len(points) and set(points) == _reached(maps) - set(first)
        assert all(p in first or p in points[:i] for i, (_, p, _) in enumerate(grown))
    assert groups._tree([]) == []


def test_subgroup_as_group_reads_generator_rows_not_the_parent_table(corpus, perm_group):
    s7 = perm_group("S7")
    gens = s7._source.ids_of(np.array([[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 0, 5, 6],
                                       [0, 1, 2, 3, 4, 6, 5]]))  # S5 x S2
    h = subgroup_closure(s7, gens.tolist())
    built = [(h, h.as_group())]
    assert len(h) == 240 and s7._table is None  # the gather would build S7's 5040^2 table
    built += [(sub, sub.as_group()) for sub in enumerate_subgroups(corpus["S4"])]
    for sub, (grp, embed) in built:
        assert np.array_equal(embed.mapping, sub.ids)
        assert np.array_equal(grp.table, subgroup_table_by_gather(sub)), sub
        assert grp.table.dtype == grp.inverse.dtype
