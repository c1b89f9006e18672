from fractions import Fraction

import numpy as np
import pytest

from conftest import s6_stabiliser_chain
from grouplab.config import Caps
from grouplab.corpus import _alternating_subgroup, bundled_towers
from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import GroupHom, cyclic_group, subgroup_closure
from grouplab.towers import (
    build_system,
    closure_trace,
    commutator_level_check,
    coset_action_system,
    cp_sequence,
    direct_power_system,
    quotient_trace,
)
from oracles import coset_action_by_int32_points


@pytest.fixture(scope="module")
def towers(corpus):
    return bundled_towers(corpus)


def test_single_level_system(corpus):
    sys_ = build_system([corpus["Z2"]], [])
    assert len(sys_) == 1
    assert sys_.top is corpus["Z2"]


def test_mod_tower_valid():
    z2, z4, z8 = cyclic_group(2), cyclic_group(4), cyclic_group(8)
    p1 = GroupHom(z4, z2, [x % 2 for x in range(4)])
    p2 = GroupHom(z8, z4, [x % 4 for x in range(8)])
    sys_ = build_system([z2, z4, z8], [p1, p2])
    assert [g.order for g in sys_.levels] == [2, 4, 8]
    comp = sys_.composite(2, 0)
    assert [comp(x) for x in range(8)] == [x % 2 for x in range(8)]


def test_non_surjective_projection_rejected():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    constant = GroupHom(z4, z2, [0, 0, 0, 0])
    with pytest.raises(ValidationError):
        build_system([z2, z4], [constant])


def test_tower_length_cap():
    z2 = cyclic_group(2)
    ident = GroupHom(z2, z2, [0, 1])
    with pytest.raises(CapExceeded):
        build_system([z2] * 40, [ident] * 39, caps=Caps(tower_length=32))


def test_coset_action_whole_group_chain(corpus):
    g = corpus["S3"]
    cas = coset_action_system(g, [g.whole_subgroup()])
    assert [lvl.order for lvl in cas.system.levels] == [1]


def test_coset_action_s3(corpus):
    g = corpus["S3"]
    a3 = subgroup_closure(g, [next(x for x in g.elements() if g.element_order(x) == 3)])
    cas = coset_action_system(g, [g.whole_subgroup(), a3, g.trivial_subgroup()])
    assert [lvl.order for lvl in cas.system.levels] == [1, 2, 6]
    # trivial-core chain: the top level is the group itself
    top_map = cas.to_level[-1]
    assert top_map.is_injective() and top_map.is_surjective()


def test_coset_action_z8(corpus):
    z8 = corpus["Z8"]
    chain = [z8.whole_subgroup(), subgroup_closure(z8, [2]),
             subgroup_closure(z8, [4]), z8.trivial_subgroup()]
    cas = coset_action_system(z8, chain)
    assert [lvl.order for lvl in cas.system.levels] == [1, 2, 4, 8]


def test_coset_action_matches_the_int32_point_oracle(corpus, towers, perm_group):
    """Points in the least dtype that holds them: the same levels, generators and maps as int32 points."""
    s6, z8, s3 = perm_group("S6"), corpus["Z8"], corpus["S3"]
    cases = [
        ("s6-stabilisers", s6, s6_stabiliser_chain(s6)),
        ("z8-chain", z8, [z8.whole_subgroup(), subgroup_closure(z8, [2]), subgroup_closure(z8, [4]),
                          z8.trivial_subgroup()]),
        ("s3-cosets", s3, [s3.whole_subgroup(), _alternating_subgroup(s3), s3.trivial_subgroup()]),
    ]
    for name, g, chain in cases:
        cas, expected = coset_action_system(g, chain), coset_action_by_int32_points(g, chain)
        for system in [cas.system] + ([towers[name]] if name in towers else []):
            assert len(system.levels) == len(expected), name
            for i, (level, mapping) in enumerate(expected):
                got = system.levels[i]
                assert got.perm_generators == level.perm_generators, (name, i)
                assert [got.permutation_of(x) for x in got.elements()] == \
                    [level.permutation_of(x) for x in level.elements()], (name, i)
                if i:  # the permutation of x at level i restricts to its permutation at level i - 1
                    proj = np.empty(level.order, dtype=np.int64)
                    proj[mapping] = expected[i - 1][1]
                    assert system.projections[i - 1].mapping.tolist() == proj.tolist(), (name, i)
        assert [hom.mapping.tolist() for hom in cas.to_level] == [m for _, m in expected], name
    assert [lvl.perm_generators.degree for lvl in towers["z8-chain"].levels] == [1, 3, 7, 15]


def test_coset_action_rejects_non_descending(corpus):
    z8 = corpus["Z8"]
    with pytest.raises(ValidationError):
        coset_action_system(z8, [subgroup_closure(z8, [4]), subgroup_closure(z8, [2])])


def test_tower_compatibility(towers):
    for sys_ in towers.values():
        k = len(sys_) - 1
        for j in range(k + 1):
            via_steps = sys_.composite(k, j)
            mapping = np.arange(sys_.levels[k].order, dtype=np.int64)
            for i in range(k - 1, j - 1, -1):
                mapping = sys_.projections[i].mapping[mapping]
            assert np.array_equal(via_steps.mapping, mapping)


def test_closure_trace(corpus, towers):
    sys_ = towers["z8-chain"]
    top = sys_.top
    origin = subgroup_closure(top, [x for x in top.elements() if top.element_order(x) == 4][:1])
    trace = closure_trace(sys_, origin)
    # the order-4 subgroup dies at the level acting on its own cosets
    assert [len(s) for s in trace.per_level] == [1, 1, 2, 4]


def test_quotient_trace_z8(towers):
    sys_ = towers["z8-chain"]
    top = sys_.top
    two = subgroup_closure(top, [x for x in top.elements() if top.element_order(x) == 4][:1])
    four = subgroup_closure(top, [x for x in top.elements() if top.element_order(x) == 2][:1])
    qt = quotient_trace(sys_, four, two)
    assert [q.order for q in qt.levels] == [1, 1, 2, 2]
    for hom in qt.projections:
        assert hom.is_surjective()


def test_quotient_trace_trivial_when_equal(towers):
    sys_ = towers["s3-cosets"]
    top = sys_.top
    a3 = subgroup_closure(top, [next(x for x in top.elements() if top.element_order(x) == 3)])
    qt = quotient_trace(sys_, a3, a3)
    assert all(q.order == 1 for q in qt.levels)


def test_quotient_trace_s3(towers):
    sys_ = towers["s3-cosets"]
    top = sys_.top
    a3 = subgroup_closure(top, [next(x for x in top.elements() if top.element_order(x) == 3)])
    qt = quotient_trace(sys_, top.trivial_subgroup(), a3)
    assert [q.order for q in qt.levels] == [1, 1, 3]


def test_quotient_trace_requires_normal(towers):
    sys_ = towers["s3-cosets"]
    top = sys_.top
    transposition = subgroup_closure(
        top, [next(x for x in top.elements() if top.element_order(x) == 2)])
    with pytest.raises(ValidationError):
        quotient_trace(sys_, transposition, top.whole_subgroup())


def test_commutator_level_check_trivial(towers):
    sys_ = towers["z8-chain"]
    top = sys_.top
    report = commutator_level_check(sys_, top.trivial_subgroup(), top.trivial_subgroup())
    assert report.passed


def test_commutator_level_check_q8_tower(corpus):
    q8 = corpus["Q8"]
    i_sub = subgroup_closure(q8, [next(x for x in q8.elements() if q8.element_order(x) == 4)])
    cas = coset_action_system(q8, [q8.whole_subgroup(), i_sub, q8.trivial_subgroup()])
    top = cas.system.top
    report = commutator_level_check(cas.system, top.whole_subgroup(), top.whole_subgroup())
    assert report.passed


def test_commutator_level_check_all_towers(towers):
    for sys_ in towers.values():
        top = sys_.top
        report = commutator_level_check(sys_, top.whole_subgroup(), top.whole_subgroup())
        assert report.passed
        assert report.first_failure is None


def test_cp_sequences(towers):
    assert cp_sequence(towers["z8-chain"]) == (Fraction(1),) * 4
    assert cp_sequence(towers["s3-cosets"]) == (Fraction(1), Fraction(1), Fraction(1, 2))
    assert cp_sequence(towers["a5-square"]) == (Fraction(1, 12), Fraction(1, 144))


def test_cp_sequences_non_increasing(towers):
    for sys_ in towers.values():
        seq = cp_sequence(sys_)
        assert all(b <= a for a, b in zip(seq, seq[1:]))


def test_direct_power_system(corpus):
    sys_ = direct_power_system(corpus["Z2"], 3)
    assert [g.order for g in sys_.levels] == [2, 4, 8]
    for hom in sys_.projections:
        assert hom.is_surjective()
    with pytest.raises(CapExceeded):
        direct_power_system(corpus["A5"], 3)
