import json

import numpy as np
import pytest

from grouplab.algebras import FiniteCommutativeAlgebra, gf, mr_decompose, zmod
from grouplab.cli import _bundled_actions, main
from grouplab.config import DEFAULT_CAPS
from grouplab.errors import GroupLabError, ValidationError
from grouplab.groups import build_group, direct_power, direct_product
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
from oracles import (
    action_matrices_all_pairs,
    ideal_witness_by_scatter,
    nilpotent_scan_by_repeated_products,
    orbit_span_by_rank,
    ring_construct_per_row,
    ring_tables_pairwise,
    translate_decompositions_by_search,
    translate_formula_agrees,
)

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


def _shift(dim):
    return [[int(j == (i + 1) % dim) for j in range(dim)] for i in range(dim)]


def _oracle_actions(corpus):
    """(name, group, prime, dim, matrices): the bundled actions given on every element and on
    element 1 alone, Z4 regular over GF(3) and GF(5), and the S3 and S4 permutation modules
    over GF(2) given on ids 0-2."""
    for name, (action, _) in _bundled_actions(corpus, DEFAULT_CAPS).items():
        g = action.group
        yield name, g, action.prime, action.dim, {h: action.matrices[h] for h in g.elements()}
        yield name + "-gens", g, action.prime, action.dim, {1: action.matrices[1]}
    for p in (3, 5):
        yield f"z4-regular-gf{p}", corpus["Z4"], p, 4, {1: _shift(4)}
    for name in ("S3", "S4"):
        perm = permutation_module_action(corpus[name], 2)
        yield name + "-perm", corpus[name], 2, perm.dim, {h: perm.matrices[h] for h in range(3)}


def test_action_fill_matches_all_pairs_oracle(corpus):
    for name, g, p, dim, mats in _oracle_actions(corpus):
        try:
            expected = action_matrices_all_pairs(g, p, dim, mats)
        except ValidationError:  # the first ids need not generate
            with pytest.raises(ValidationError, match="generating set"):
                action_from_matrices(g, p, dim, mats)
            continue
        assert np.array_equal(action_from_matrices(g, p, dim, mats).matrices, expected), name


@pytest.mark.parametrize("name, p, dim, mats, message", [
    ("Z2", 4, 2, SWAP, "not prime"),
    ("Z2", 3, 2, {}, "generating set"),
    ("Z2", 3, 2, {1: [[1, 0], [1, 0]]}, "singular"),
    ("Z2", 7, 2, {1: [[0, 1], [6, 6]]}, "not a homomorphism"),
    ("Z4", 3, 2, {9: [[1, 0], [0, 1]]}, "ids 0..3"),
    ("Z4", 3, 2, {1: [[1, 0, 0], [0, 1, 0]]}, "wrong shape"),
    # a correct generator, and a wrong matrix supplied for the non-generator 2
    ("Z4", 3, 4, {1: _shift(4), 2: np.eye(4, dtype=int).tolist()}, "not a homomorphism"),
    ("Z4", 5, 2, {0: [[2, 0], [0, 2]], 1: [[0, 1], [4, 0]]}, "not a homomorphism"),
    # the generators commute and 1 squares to the identity, but 2 does not
    ("V4", 5, 1, {1: [[4]], 2: [[2]]}, "not a homomorphism"),
    # the trivial group has no generator, but the identity must still map to 1
    ("Z1", 3, 1, {0: [[2]]}, "not a homomorphism"),
])
def test_action_rejects_bad_matrices_like_all_pairs_oracle(corpus, name, p, dim, mats, message):
    with pytest.raises(ValidationError, match=message):
        action_matrices_all_pairs(corpus[name], p, dim, mats)
    with pytest.raises(ValidationError, match=message):
        action_from_matrices(corpus[name], p, dim, mats)


@pytest.mark.parametrize("name, p, mats", [
    ("Z4", 3, {1: [[2]], 2: [[0]]}),  # 2 = 1 * 1 is no generator
    ("Z1", 3, {0: [[0]]}),            # nor is the identity
])
def test_action_rejects_singular_non_generator_matrix_as_no_homomorphism(corpus, name, p, mats):
    # only the generators' matrices are inverted; a singular matrix elsewhere breaks the law
    with pytest.raises(ValidationError):
        action_matrices_all_pairs(corpus[name], p, 1, mats)
    with pytest.raises(ValidationError, match="^matrix assignment is not a homomorphism$"):
        action_from_matrices(corpus[name], p, 1, mats)


def test_ring_construct_on_z2_9_sign_module(corpus):
    g = direct_power(corpus["Z2"], 9)  # the unit vectors are the ids 2**i
    action = action_from_matrices(g, 3, 1, {1 << i: [[2]] for i in range(9)})
    built = ring_construct(action, (1,))
    assert (built.well_defined, built.translate_bound) == (True, 1)
    assert built.ring.size == 3 and g._table is None


def _s3_group_algebra(corpus):
    """The regular module of S3 over GF(2) and e_0, which carry the group algebra GF(2)[S3]."""
    s3 = corpus["S3"]
    regular = build_group(generators=[s3.table[:, s].tolist() for s in (1, 2)], degree=6)
    return permutation_module_action(regular, 2), (1, 0, 0, 0, 0, 0)


def _module_rings(corpus):
    """Every well-defined ring the tests here construct, by name."""
    rings = {name: ring_construct(action, v).ring
             for name, (action, v) in _bundled_actions(corpus, DEFAULT_CAPS).items()}
    rings["z1-gf5"] = ring_construct(action_from_matrices(corpus["Z1"], 5, 1, {}), (1,)).ring
    rotate = action_from_matrices(corpus["Z4"], 3, 2, {1: [[0, 1], [2, 0]]})
    rings["z4-rotate-gf3"] = ring_construct(rotate, (1, 0)).ring
    for p in (3, 5):
        shift = action_from_matrices(corpus["Z4"], p, 4, {1: _shift(4)})
        rings[f"z4-regular-gf{p}"] = ring_construct(shift, (1, 0, 0, 0)).ring
    rings["s3-group-algebra-gf2"] = ring_construct(*_s3_group_algebra(corpus)).ring
    return {name: ring for name, ring in rings.items() if ring is not None}  # s3-std-gf5 is ill defined


def test_nilpotent_check_matches_repeated_product_oracle(corpus):
    rings = _module_rings(corpus)
    assert len(rings) == 7
    nilpotent = 0
    for name, ring in rings.items():
        got = nilpotent_free_check(ring)
        assert got == nilpotent_scan_by_repeated_products(ring), name
        nilpotent += not got[0]
        if ring.is_commutative():  # the same ids in its table form
            alg = ring.to_algebra()
            assert nilpotent_free_check(alg) == nilpotent_scan_by_repeated_products(alg) == got, name
    assert nilpotent >= 2
    for alg in (zmod(4), zmod(12), zmod(7), gf(4), gf(9)):
        assert nilpotent_free_check(alg) == nilpotent_scan_by_repeated_products(alg), alg.name
    assert nilpotent_free_check(zmod(12)) == (False, 6)


def test_ring_construct_witness_matches_scatter_oracle(corpus):
    actions = [(a, v) for a, v in _bundled_actions(corpus, DEFAULT_CAPS).values()]
    actions.append((sum_zero_action(corpus["S4"], 5), (1, 0, 0)))
    actions.append((action_from_matrices(corpus["Z4"], 3, 4, {1: _shift(4)}), (1, 0, 0, 0)))
    ill = 0
    for action, v in actions:
        built, expected = ring_construct(action, v), ideal_witness_by_scatter(action, v)
        assert built.well_defined == (expected is None)
        if expected is not None:
            w = built.witness
            assert (w.annihilator_coeffs, w.multiplier, w.product_value) == expected
            ill += 1
    assert ill >= 2


def _late_witness_action(corpus):
    """S3 x Z2^7 acting through S3 by its sum-zero module over GF(5), and v = (1, 0): the first 127
    kernel rows are x - 1 for x in 1 x Z2^7, which act as 1, so the witness lies past the first block."""
    g = direct_product(corpus["S3"], direct_power(corpus["Z2"], 7))
    std = sum_zero_action(corpus["S3"], 5).matrices
    mats = {**{s * 128: std[s] for s in range(6)}, **{1 << i: np.eye(2, dtype=int) for i in range(7)}}
    return action_from_matrices(g, 5, 2, mats), (1, 0)


def test_ring_construct_matches_the_per_row_oracle(corpus, perm_group):
    late = _late_witness_action(corpus)
    cases = list(_bundled_actions(corpus, DEFAULT_CAPS).values())
    cases += [(ring.action, ring.v) for ring in _module_rings(corpus).values()]
    sign = action_from_matrices(direct_power(corpus["Z2"], 9), 3, 1, {1 << i: [[2]] for i in range(9)})
    cases += [(sign, (1,)), (sum_zero_action(corpus["S4"], 5), (1, 0, 0)), late,
              (permutation_module_action(perm_group("S6"), 2), (1, 0, 0, 0, 0, 0))]
    for action, v in cases:
        built = ring_construct(action, v)
        w = built.witness
        witness = w and (w.annihilator_coeffs, w.multiplier, w.product_value)
        assert (built.well_defined, witness, built.translate_bound) == ring_construct_per_row(action, v), v
    # that witness's kernel row is 1 at a free column past the 127 of 1 x Z2^7
    assert not any(ring_construct(*late).witness.annihilator_coeffs[1:128])


def test_ring_from_module_reads_no_whole_table(corpus, tmp_path, monkeypatch):
    action = action_from_matrices(corpus["Z4"], 5, 4, {1: _shift(4)})
    alg = ring_construct(action, (1, 0, 0, 0)).ring.to_algebra()
    assert [f.field.size for f in mr_decompose(alg).factors] == [5, 5, 5, 5]
    assert alg._add is None and alg._mul is None

    def whole(self):
        raise AssertionError(f"{self.name}: a whole table was read")

    monkeypatch.setattr(FiniteCommutativeAlgebra, "add_table", property(whole))
    monkeypatch.setattr(FiniteCommutativeAlgebra, "mul_table", property(whole))
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"group": "Z4", "p": 5, "dim": 4, "matrices": {"1": _shift(4)}}))
    assert main(["ring-from-module", "--action-file", str(path), "--out", str(tmp_path / "out")]) == 0
    row, = json.loads((tmp_path / "out").read_text())["items"]
    assert row["mr_factor_sizes"] == "5,5,5,5"


def test_ring_construct_noncommutative_group_algebra(corpus):
    # the regular module of S3 over GF(2), generated by e_0: the group algebra GF(2)[S3]
    s3 = corpus["S3"]
    regular = build_group(generators=[s3.table[:, s].tolist() for s in (1, 2)], degree=6)
    action, v = permutation_module_action(regular, 2), (1, 0, 0, 0, 0, 0)
    built = ring_construct(action, v)
    assert built.well_defined and not built.ring.is_commutative()
    assert translate_formula_agrees(built.ring, action, v)


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


def _assert_span_and_search_match_oracles(action, v, targets):
    span = orbit_span_check(action, v)
    assert span == orbit_span_by_rank(action, v), (action.group.name, v)
    if not span.spans:
        with pytest.raises(ValidationError, match="do not span"):
            translate_decomposition(action, v, v)
        return
    expected = translate_decompositions_by_search(action, v, targets)
    for w, want in zip(targets, expected):
        assert translate_decomposition(action, v, w) == want, (action.group.name, v, w)


def test_span_and_search_match_oracles_on_every_pair(corpus):
    actions = [a for a, _ in _bundled_actions(corpus, DEFAULT_CAPS).values()]
    actions.append(action_from_matrices(corpus["Z2"], 3, 2, {1: [[1, 0], [0, 1]]}))  # trivial
    actions.append(action_from_matrices(corpus["Z4"], 3, 4, {1: _shift(4)}))
    for action in actions:
        vectors = action.vectors()
        for v in vectors:
            _assert_span_and_search_match_oracles(action, v, vectors)


def test_span_and_search_match_oracles_on_larger_modules(corpus, perm_group):
    s6 = perm_group("S6")
    for action in (action_from_matrices(corpus["Z4"], 5, 4, {1: _shift(4)}),
                   sum_zero_action(corpus["S4"], 5), permutation_module_action(s6, 2)):
        p, d = action.prime, action.dim
        # the vector the CLI takes for an action file without one: the first that spans
        v = next(vec for vec in action.vectors() if orbit_span_check(action, vec).spans)
        targets = [(0,) * d, v, (p - 1,) * d, tuple(i % p for i in range(d)), (1,) + (0,) * (d - 1)]
        _assert_span_and_search_match_oracles(action, v, targets)
        assert not orbit_span_check(action, (0,) * d).spans
    assert s6._table is None


def test_ring_construct_on_s6_modules_reads_columns_and_matches_scatter_oracle(perm_group):
    s6 = perm_group("S6")
    cases = [(permutation_module_action(s6, 2), (1, 0, 0, 0, 0, 0), 1, (0, 1, 0, 0, 0, 1), 6),
             (sum_zero_action(s6, 3), (1, 0, 0, 0, 0), 2, (2, 1, 1, 1, 1), 4)]
    for action, v, multiplier, value, bound in cases:
        built = ring_construct(action, v)
        assert s6._table is None
        assert not built.well_defined and built.translate_bound == bound
        w = built.witness
        assert (w.multiplier, w.product_value) == (multiplier, value)
        assert (w.annihilator_coeffs, w.multiplier, w.product_value) == ideal_witness_by_scatter(action, v)


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


def test_s6_module_actions_are_filled_from_generators_without_a_table(perm_group):
    s6 = perm_group("S6")
    perm = permutation_module_action(s6, 2)
    std = sum_zero_action(s6, 3)
    assert s6.order == 720 and s6._table is None
    basis = np.eye(6, dtype=np.int64)[:-1] - np.eye(6, k=1, dtype=np.int64)[:-1]  # e_i - e_(i+1)
    for x in s6.elements():
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[list(s6.permutation_of(x)), range(6)] = 1
        assert np.array_equal(perm.matrices[x], expected % 2), x
        # the restriction: f_i^x written in the basis f
        assert np.array_equal((std.matrices[x] @ basis) % 3, (basis @ expected) % 3), x


@pytest.mark.parametrize("name", ["swap-gf3", "regular-gf2", "s3-std-gf5", "s4-std-gf3", "s3-regular-gf2"])
def test_translate_product_check_matches_pairwise_oracle(corpus, name):
    # the ring the translate basis would carry, built even where it is ill defined
    if name == "s4-std-gf3":  # 27 elements, ill defined
        action, v = sum_zero_action(corpus["S4"], 3), (1, 0, 0)
    elif name == "s3-regular-gf2":  # 64 elements, not commutative
        action, v = _s3_group_algebra(corpus)
    else:
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
