import numpy as np
import pytest

from grouplab.algebras import mr_decompose
from grouplab.cli import _bundled_actions
from grouplab.config import DEFAULT_CAPS
from grouplab.errors import GroupLabError, ValidationError
from grouplab.modring import (
    _translate_ring,
    _verify_translate_products,
    action_from_matrices,
    faithfulness_report,
    nilpotent_free_check,
    orbit_span_check,
    permutation_module_action,
    ring_construct,
    sum_zero_action,
    translate_decomposition,
)
from oracles import ring_tables_pairwise, translate_formula_agrees

SWAP = {1: [[0, 1], [1, 0]]}


@pytest.fixture(scope="module")
def swap_gf3(corpus):
    return action_from_matrices(corpus["Z2"], 3, 2, SWAP)


@pytest.fixture(scope="module")
def regular_gf2(corpus):
    return action_from_matrices(corpus["Z2"], 2, 2, SWAP)


def test_action_validation(corpus):
    z2 = corpus["Z2"]
    with pytest.raises(ValidationError):
        action_from_matrices(z2, 4, 2, SWAP)  # 4 is not prime
    with pytest.raises(ValidationError):
        action_from_matrices(z2, 3, 2, {})  # no generators covered
    with pytest.raises(ValidationError):
        action_from_matrices(z2, 3, 2, {1: [[1, 0], [1, 0]]})  # singular
    with pytest.raises(ValidationError):
        # involution sent to a matrix of order 3: not a homomorphism
        action_from_matrices(z2, 7, 2, {1: [[0, 1], [6, 6]]})


def test_orbit_span(swap_gf3):
    span = orbit_span_check(swap_gf3, (1, 0))
    assert span.spans
    assert span.basis_elements == (0, 1)
    assert span.basis_vectors == ((1, 0), (0, 1))
    assert not orbit_span_check(swap_gf3, (0, 0)).spans
    assert not orbit_span_check(swap_gf3, (1, 1)).spans  # diagonal orbit


def test_trivial_action_never_spans(corpus):
    trivial = action_from_matrices(corpus["Z2"], 3, 2, {1: [[1, 0], [0, 1]]})
    for vec in trivial.vectors():
        assert not orbit_span_check(trivial, vec).spans


def test_translate_decomposition(swap_gf3):
    zero = translate_decomposition(swap_gf3, (1, 0), (0, 0))
    assert zero.elements == ()
    single = translate_decomposition(swap_gf3, (1, 0), (0, 1))
    assert single.elements == (1,)
    pair = translate_decomposition(swap_gf3, (1, 0), (1, 1))
    assert pair.elements == (0, 1)
    assert pair.bound == 4  # (2, 2) needs four translates
    with pytest.raises(ValidationError):
        translate_decomposition(swap_gf3, (1, 1), (1, 0))


def test_ring_construct_trivial_action_is_prime_field(corpus):
    one = action_from_matrices(corpus["Z1"], 5, 1, {})
    built = ring_construct(one, (1,))
    assert built.well_defined
    ring = built.ring
    assert ring.size == 5
    alg = ring.to_algebra()
    assert alg.is_field()


def test_ring_construct_swap(swap_gf3):
    built = ring_construct(swap_gf3, (1, 0))
    assert built.well_defined
    ring = built.ring
    assert ring.is_commutative()
    # unit is v itself
    for x in range(ring.size):
        assert ring.mul(ring.one, x) == x
    # single translates multiply by the group law
    ve = ring.from_vector((1, 0))
    vs = ring.from_vector((0, 1))
    assert ring.mul(ve, vs) == vs
    assert ring.mul(vs, vs) == ve
    ok, witness = nilpotent_free_check(ring)
    assert ok and witness is None
    decomp = mr_decompose(ring.to_algebra())
    assert [f.field.size for f in decomp.factors] == [3, 3]


def test_ring_construct_regular_char2_nilpotent(regular_gf2):
    built = ring_construct(regular_gf2, (1, 0))
    assert built.well_defined
    ring = built.ring
    ok, witness = nilpotent_free_check(ring)
    assert not ok
    assert ring.to_vector(witness) == (1, 1)
    # (e + s)^2 expands to zero because the cross terms double up
    x = ring.from_vector((1, 1))
    assert ring.mul(x, x) == 0


def test_ring_construct_abelian_always_well_defined(corpus):
    # every bundled abelian action: annihilator is automatically two-sided
    z4 = corpus["Z4"]
    rotate = action_from_matrices(z4, 3, 2, {1: [[0, 1], [2, 0]]})  # order 4 in GL(2, 3)
    built = ring_construct(rotate, (1, 0))
    assert built.well_defined
    assert built.ring.is_commutative()


def test_ring_construct_ill_defined_witness(corpus):
    std = sum_zero_action(corpus["S3"], 5)
    built = ring_construct(std, (1, 0))
    assert not built.well_defined
    w = built.witness
    assert w is not None
    # the witness coefficients really annihilate v
    coeffs = np.array(w.annihilator_coeffs, dtype=np.int64)
    translates = np.array([std.translate((1, 0), h) for h in range(6)], dtype=np.int64)
    assert not ((coeffs @ translates) % 5).any()
    # but the shifted combination does not
    assert any(v != 0 for v in w.product_value)


def test_bilinearity_of_constructed_ring(swap_gf3):
    ring = ring_construct(swap_gf3, (1, 0)).ring
    for a in range(ring.size):
        for b in range(ring.size):
            for c in range(ring.size):
                assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c), ring.mul(b, c))
                assert ring.mul(c, ring.add(a, b)) == ring.add(ring.mul(c, a), ring.mul(c, b))


def test_associativity_of_constructed_ring(swap_gf3):
    ring = ring_construct(swap_gf3, (1, 0)).ring
    for a in range(ring.size):
        for b in range(ring.size):
            for c in range(ring.size):
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


def test_faithfulness_trivial_action(corpus):
    trivial = action_from_matrices(corpus["Z2"], 3, 2, {1: [[1, 0], [0, 1]]})
    rep = faithfulness_report(trivial)
    assert rep.kernel_ids == (0, 1)
    assert not rep.faithful
    assert rep.regular_vector is None


def test_faithfulness_swap(swap_gf3):
    rep = faithfulness_report(swap_gf3)
    assert rep.faithful
    assert rep.kernel_ids == (0,)
    assert rep.regular_vector is not None
    # v = (1, 0) has trivial stabilizer: index == |S| vectors exist
    hist = dict(rep.index_histogram)
    assert hist[2] == 6  # all off-diagonal vectors
    assert hist[1] == 3  # the diagonal


def test_faithfulness_scalar_action(corpus):
    neg = action_from_matrices(corpus["Z2"], 3, 2, {1: [[2, 0], [0, 2]]})
    rep = faithfulness_report(neg)
    assert rep.faithful
    hist = dict(rep.index_histogram)
    assert hist[1] == 1  # only the origin is fixed
    assert hist[2] == 8


def test_translate_decomposition_minimality_oracle(swap_gf3):
    # brute force: smallest k with some k-tuple of translates summing to w
    import itertools

    translates = [swap_gf3.translate((1, 0), h) for h in range(2)]

    def brute_min(w):
        if all(x == 0 for x in w):
            return 0
        for k in range(1, 9):
            for combo in itertools.product(range(2), repeat=k):
                total = (0, 0)
                for h in combo:
                    total = tuple((a + b) % 3 for a, b in zip(total, translates[h]))
                if total == w:
                    return k
        raise AssertionError("unreachable for a spanning orbit")

    for w in swap_gf3.vectors():
        got = translate_decomposition(swap_gf3, (1, 0), w)
        assert len(got.elements) == brute_min(tuple(w))


def test_faithfulness_histogram_totals(swap_gf3):
    rep = faithfulness_report(swap_gf3)
    assert sum(count for _, count in rep.index_histogram) == 9


def test_permutation_module_action_is_hom(corpus):
    action = permutation_module_action(corpus["S3"], 3)
    assert action.dim == 3
    # validated in the constructor; spot-check one product
    g = corpus["S3"]
    a, b = 1, 2
    lhs = (action.matrices[g.mul(a, b)]) % 3
    rhs = (action.matrices[a] @ action.matrices[b]) % 3
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("name", ["swap-gf3", "regular-gf2", "s3-std-gf5"])
def test_translate_product_check_matches_pairwise_oracle(corpus, name):
    # the ring the translate basis would carry, built even where it is ill defined
    action, v = _bundled_actions(corpus, DEFAULT_CAPS)[name]
    ring = _translate_ring(action, v, orbit_span_check(action, v))
    rows = np.array([action.translate(v, h) for h in range(action.group.order)])
    try:
        _verify_translate_products(ring, rows)
        exact = True
    except GroupLabError:
        exact = False
    assert exact == translate_formula_agrees(ring, action, v)
    assert exact == ring_construct(action, v).well_defined


@pytest.mark.parametrize("name", ["swap-gf3", "regular-gf2", "z4-regular-gf3"])
def test_to_algebra_matches_pairwise_oracle(corpus, name):
    if name == "z4-regular-gf3":  # 81 elements
        shift = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
        action, v = action_from_matrices(corpus["Z4"], 3, 4, {1: shift}), (1, 0, 0, 0)
    else:
        action, v = _bundled_actions(corpus, DEFAULT_CAPS)[name]
    ring = ring_construct(action, v).ring
    add, mul = ring_tables_pairwise(ring)
    alg = ring.to_algebra()
    assert alg.add_table.tolist() == add
    assert alg.mul_table.tolist() == mul
