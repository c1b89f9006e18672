import itertools

import pytest

from grouplab.config import Caps
from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import (
    _greedy_generators,
    _normal_closure,
    commutator_subgroup,
    conjugacy_classes,
    direct_power,
    direct_product,
    normal_closure,
    subgroup_closure,
)
from grouplab.structure import (
    automorphism_group,
    conjugate_spread,
    enumerate_normal_subgroups,
    enumerate_subgroups,
    is_simple_nonabelian,
    minimal_generator_count,
    prufer_rank,
    sylow_subgroup,
)

from oracles import (
    all_subgroups_bruteforce,
    class_closure,
    commutator_subgroup_all_pairs,
    conjugate_spread_per_element,
    enumerate_normal_subgroups_pairwise,
    enumerate_subgroups_all_x,
    is_automorphism_all_pairs,
    spread_depth_bruteforce,
    sylow_subgroup_restarting,
)


def test_enumerators_match_exhaustive_oracles(corpus):
    rich = [("Z2^4", direct_power(corpus["Z2"], 4)),
            ("D4xZ2", direct_product(corpus["D4"], corpus["Z2"]))]
    for name, g in list(corpus) + rich:
        assert [s.ids for s in enumerate_subgroups(g)] == \
            [s.ids for s in enumerate_subgroups_all_x(g)], name
        assert [s.ids for s in enumerate_normal_subgroups(g)] == \
            [s.ids for s in enumerate_normal_subgroups_pairwise(g)], name


def test_greedy_class_closure_matches_plain_closure(corpus):
    for name, g in corpus:
        gens = _greedy_generators(g.table)
        for cls in conjugacy_classes(g):
            sub = _normal_closure(g, cls[:1], gens)
            assert sub == subgroup_closure(g, cls) == class_closure(g, cls)[0], (name, cls)
            assert set(sub.gens) <= set(cls) and subgroup_closure(g, sub.gens) == sub


def test_commutator_subgroup_matches_all_pairs_oracle(corpus):
    pairs = 0
    for name, g in corpus:
        assert g.order <= 60, name
        for a, b in itertools.product(enumerate_subgroups(g), repeat=2):
            assert commutator_subgroup(a, b) == commutator_subgroup_all_pairs(a, b), (name, a, b)
            pairs += 1
    assert pairs == 5323
    a5_squared = direct_power(corpus["A5"], 2)
    for a, b in itertools.product(enumerate_normal_subgroups(a5_squared), repeat=2):
        assert commutator_subgroup(a, b) == commutator_subgroup_all_pairs(a, b), (a, b)


def test_subgroups_are_generated_by_their_gens(corpus):
    for name, g in corpus:
        subs = enumerate_subgroups(g)
        normals = enumerate_normal_subgroups(g)
        whole = g.whole_subgroup()
        found = subs + normals + [sylow_subgroup(g, p) for p in (2, 3, 5)]
        found += [commutator_subgroup(a, whole) for a in subs]
        found += [commutator_subgroup(a, b) for a, b in itertools.product(normals, repeat=2)]
        for sub in found:
            assert subgroup_closure(g, sub.gens) == sub, (name, sub)


@pytest.mark.parametrize("cap", ["normal_subgroup_count", "subgroup_count"])
def test_lattice_caps_fire_at_the_lattice_size(corpus, cap):
    g = direct_power(corpus["Z2"], 4)
    count = 67  # subspaces of GF(2)^4: 1 + 15 + 35 + 15 + 1

    def enumerate_(limit):
        if cap == "subgroup_count":
            return enumerate_subgroups(g, max_count=limit)
        return enumerate_normal_subgroups(g, caps=Caps(normal_subgroup_count=limit))

    assert len(enumerate_(count)) == count
    with pytest.raises(CapExceeded) as info:
        enumerate_(count - 1)
    assert (info.value.cap_name, info.value.limit, info.value.actual) == (cap, count - 1, count)


def test_subgroup_counts(corpus):
    assert len(enumerate_subgroups(corpus["Z2"])) == 2
    assert len(enumerate_subgroups(corpus["S3"])) == 6
    assert len(enumerate_subgroups(corpus["V4"])) == 5
    assert len(enumerate_subgroups(corpus["Q8"])) == 6
    assert len(enumerate_subgroups(corpus["S4"])) == 30


def test_subgroups_match_bruteforce(corpus):
    for name in ("S3", "V4", "Q8", "Z12", "D4"):
        g = corpus[name]
        got = {frozenset(s.ids) for s in enumerate_subgroups(g)}
        assert got == all_subgroups_bruteforce(g)


def test_subgroup_canonical_order(corpus):
    subs = enumerate_subgroups(corpus["S3"])
    keys = [(len(s), s.ids) for s in subs]
    assert keys == sorted(keys)


def test_subgroup_caps(corpus):
    with pytest.raises(CapExceeded):
        enumerate_subgroups(corpus["S3"], caps=Caps(subgroup_order=4))
    with pytest.raises(CapExceeded):
        enumerate_subgroups(corpus["S4"], max_count=5)


def test_normal_subgroups(corpus):
    assert [len(s) for s in enumerate_normal_subgroups(corpus["S3"])] == [1, 3, 6]
    assert [len(s) for s in enumerate_normal_subgroups(corpus["A5"])] == [1, 60]
    # abelian: every subgroup is normal
    z12 = corpus["Z12"]
    assert {s.ids for s in enumerate_normal_subgroups(z12)} == \
        {s.ids for s in enumerate_subgroups(z12)}


def test_normal_subgroups_match_filtering(corpus):
    for name in ("S4", "D4", "Q8", "A4"):
        g = corpus[name]
        via_lattice = {s.ids for s in enumerate_normal_subgroups(g)}
        via_filter = {s.ids for s in enumerate_subgroups(g) if s.is_normal()}
        assert via_lattice == via_filter


def test_is_simple_nonabelian(corpus):
    assert is_simple_nonabelian(corpus["A5"])
    assert not is_simple_nonabelian(corpus["S3"])
    assert not is_simple_nonabelian(corpus["Z7"])


def test_is_simple_nonabelian_matches_lattice(corpus):
    for name, g in list(corpus) + [("A5^2", direct_power(corpus["A5"], 2))]:
        two_normals = len(enumerate_normal_subgroups(g)) == 2
        assert is_simple_nonabelian(g) == (not g.is_abelian and two_normals), name


def test_spread_matches_per_element_oracle(corpus, perm_group):
    for name, g in list(corpus) + [("S5", perm_group("S5"))]:
        assert conjugate_spread(g) == conjugate_spread_per_element(g), name


def test_spread_exponent_two_abelian(corpus):
    report = conjugate_spread(corpus["V4"])
    assert report.m == 1


def test_spread_s3_matches_oracle(corpus):
    s3 = corpus["S3"]
    report = conjugate_spread(s3)
    assert report.m == 2
    for witness in report.witnesses:
        depth_max, depth = spread_depth_bruteforce(s3, witness.element)
        assert witness.depth == depth_max
        assert depth[witness.worst] == witness.depth
        closure = normal_closure(s3, witness.element)
        assert set(depth) == set(closure.ids)


def test_spread_q8_golden(corpus):
    # frozen from the brute-force oracle
    report = conjugate_spread(corpus["Q8"])
    assert report.m == 2
    oracle_m = max(spread_depth_bruteforce(corpus["Q8"], x)[0] for x in corpus["Q8"].elements())
    assert oracle_m == 2


def test_spread_witness_depths(corpus):
    g = corpus["A4"]
    report = conjugate_spread(g)
    for witness in report.witnesses:
        _, depth = spread_depth_bruteforce(g, witness.element)
        assert depth[witness.worst] == witness.depth
        assert all(d <= witness.depth for d in depth.values())


def test_spread_cap(corpus):
    with pytest.raises(CapExceeded):
        conjugate_spread(corpus["A5"], caps=Caps(spread_order=32))


def test_minimal_generator_count(corpus):
    assert minimal_generator_count(corpus["Z1"]) == 0
    assert minimal_generator_count(corpus["Z12"]) == 1
    assert minimal_generator_count(corpus["V4"]) == 2
    assert minimal_generator_count(corpus["S3"]) == 2
    assert minimal_generator_count(corpus["Q8"]) == 2


def test_prufer_rank(corpus):
    assert prufer_rank(corpus["Z16"]) == 1
    assert prufer_rank(corpus["V4"]) == 2
    assert prufer_rank(corpus["S3"]) == 2
    assert prufer_rank(corpus["Q8"]) == 2
    assert prufer_rank(corpus["Z1"]) == 0


def test_sylow(corpus):
    s3 = corpus["S3"]
    syl3 = sylow_subgroup(s3, 3)
    assert len(syl3) == 3
    assert sorted(syl3.ids) == sorted(normal_closure(s3, syl3.ids[1]).ids)
    # p not dividing the order: trivial
    assert len(sylow_subgroup(s3, 5)) == 1
    z12 = corpus["Z12"]
    syl2 = sylow_subgroup(z12, 2)
    assert len(syl2) == 4 and syl2.is_normal()
    s4 = corpus["S4"]
    assert len(sylow_subgroup(s4, 2)) == 8
    assert len(sylow_subgroup(s4, 3)) == 3
    with pytest.raises(ValidationError):
        sylow_subgroup(s3, 4)


def test_sylow_matches_rescanning_oracle(corpus):
    for name, g in corpus:
        for p in (2, 3, 5):
            assert sylow_subgroup(g, p) == sylow_subgroup_restarting(g, p), (name, p)


def test_automorphisms_z2(corpus):
    report = automorphism_group(corpus["Z2"])
    assert len(report.automorphisms) == 1


def test_automorphisms_v4(corpus):
    report = automorphism_group(corpus["V4"])
    assert len(report.automorphisms) == 6
    # characteristic subgroups: only the trivial one and the whole group
    marked = [sub for sub, flag in zip(report.normal_subgroups, report.characteristic) if flag]
    assert sorted(len(s) for s in marked) == [1, 4]


def test_automorphisms_s3_all_inner(corpus):
    s3 = corpus["S3"]
    report = automorphism_group(s3)
    assert len(report.automorphisms) == 6
    inner = set()
    for h in s3.elements():
        inner.add(tuple(s3.conjugate(x, h) for x in s3.elements()))
    got = {tuple(int(v) for v in a.mapping) for a in report.automorphisms}
    assert got == inner
    # every normal subgroup of S3 is characteristic
    assert all(report.characteristic)


def test_automorphism_cap(corpus):
    with pytest.raises(CapExceeded):
        automorphism_group(corpus["S4"], caps=Caps(automorphism_order=8))


def test_automorphisms_are_homs(corpus):
    from grouplab.groups import GroupHom

    g = corpus["D4"]
    report = automorphism_group(g)
    assert len(report.automorphisms) == 8
    for a in report.automorphisms:
        GroupHom(g, g, a.mapping, validate=True)  # raises if not a hom
        assert sorted(int(v) for v in a.mapping) == list(g.elements())


def test_automorphisms_pass_all_pairs_oracle(corpus):
    checked = 0
    products = [("S3xZ2", direct_product(corpus["S3"], corpus["Z2"])),
                ("D4xZ2", direct_product(corpus["D4"], corpus["Z2"]))]
    for name, g in list(corpus) + products:
        if g.order > Caps().automorphism_order:
            continue
        for a in automorphism_group(g).automorphisms:
            assert is_automorphism_all_pairs(g, a.mapping), name
            checked += 1
    assert checked > 120  # Aut(A5) alone has 120


def test_automorphism_group_orders(corpus):
    # S3xZ2 is the dihedral group of order 12; in both products some injective
    # generator-image maps are not homomorphisms
    cases = [(corpus["S3"], 6), (corpus["D4"], 8), (corpus["Q8"], 24),
             (direct_power(corpus["Z2"], 3), 168),
             (direct_product(corpus["S3"], corpus["Z2"]), 12),
             (direct_product(corpus["D4"], corpus["Z2"]), 64)]
    assert [len(automorphism_group(g).automorphisms) for g, _ in cases] == [n for _, n in cases]
