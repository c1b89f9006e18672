import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouplab.algebras import (
    FiniteCommutativeAlgebra,
    _from_structure,
    field_by_name,
    find_nilpotent,
    gf,
    mr_decompose,
    prime_subfield_ids,
    zmod,
)
from grouplab.errors import NilpotentElementError, ValidationError
from grouplab.modring import nilpotent_free_check
from oracles import algebra_axioms_exhaustive, algebra_tables_by_blocks, field_tables_by_polymul, mr_decompose_pairwise


@pytest.mark.parametrize("q,p", [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)])
def test_bundled_fields_are_fields(q, p):
    field = gf(q)
    assert field.size == q
    assert field.char == p
    assert field.is_field()
    # prime subfield is an initial segment
    sub = prime_subfield_ids(field)
    assert sub == frozenset(range(p))
    for a in sub:
        for b in sub:
            assert field.add(a, b) in sub and field.mul(a, b) in sub


@pytest.mark.parametrize("q, p, k, poly", [(4, 2, 2, (1, 1)), (8, 2, 3, (1, 1, 0)), (9, 3, 2, (1, 0))])
def test_prime_power_field_tables_match_polynomial_products(q, p, k, poly):
    field = gf(q)
    add, mul = field_tables_by_polymul(p, k, poly)
    assert field.add_table.dtype == field.mul_table.dtype == np.int32
    assert np.array_equal(field.add_table, add) and np.array_equal(field.mul_table, mul)


@pytest.mark.parametrize("build, n", [*((gf, q) for q in (2, 3, 5, 7)), *((zmod, n) for n in range(2, 13))])
def test_prime_fields_and_integers_mod_n_match_broadcasts(build, n):
    ring, ids = build(n), np.arange(n)
    assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
    assert np.array_equal(ring.add_table, (ids[:, None] + ids) % n)
    assert np.array_equal(ring.mul_table, (ids[:, None] * ids) % n)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_axioms(a, b, c):
    field = gf(9)
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))


def test_gf4_structure():
    field = gf(4)
    # x * x = x + 1 for the generator under x^2 + x + 1
    assert field.mul(2, 2) == 3
    assert field.mul(2, 3) == 1  # x * (x+1) = x^2 + x = 1


def test_unknown_field_name():
    with pytest.raises(ValidationError):
        field_by_name("GF6")
    assert field_by_name("GF8").size == 8


def test_zmod4_nilpotent():
    ring = zmod(4)
    witness = find_nilpotent(np.diagonal(ring.mul_table))
    assert witness == 2
    with pytest.raises(NilpotentElementError) as err:
        mr_decompose(ring)
    assert err.value.witness == 2


def test_mr_decompose_field_is_single_factor():
    decomp = mr_decompose(gf(4))
    assert len(decomp.factors) == 1
    assert decomp.factors[0].field.size == 4


def test_mr_decompose_zmod6():
    decomp = mr_decompose(zmod(6))
    assert sorted(f.field.size for f in decomp.factors) == [2, 3]
    # componentwise map is injective over the whole ring
    assert len(set(decomp.component_ids)) == 6


def test_prime_subfield_is_the_multiples_of_one():
    four = gf(4)
    swap = np.array([0, 2, 1, 3])  # ids 1 and 2 exchanged, so the one is id 2 and 1 * 1 = 3
    relabelled = FiniteCommutativeAlgebra(swap[four.add_table][np.ix_(swap, swap)],
                                          swap[four.mul_table][np.ix_(swap, swap)], char=2, one_id=2)
    assert relabelled.mul(1, 1) == 3
    assert prime_subfield_ids(relabelled) == frozenset({0, 2})


@pytest.mark.parametrize("char", [0, -3, 1, 4, 10**9])
def test_table_char_must_be_the_additive_order_of_one(char):
    two = gf(2)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="^characteristic is not the additive order of one$"):
        FiniteCommutativeAlgebra(two.add_table, two.mul_table, char=char, one_id=1)
    assert time.perf_counter() - start < 1
    FiniteCommutativeAlgebra(two.add_table, two.mul_table, char=2, one_id=1)


@pytest.mark.parametrize("one_id", [-1, 2, 7])  # -1 would read the last row, GF(2)'s one
def test_table_one_id_must_be_an_id(one_id):
    two = gf(2)
    with pytest.raises(ValidationError, match="^designated one is not a multiplicative identity$"):
        FiniteCommutativeAlgebra(two.add_table, two.mul_table, char=2, one_id=one_id)


def _power(field: str, atoms: int):
    from grouplab.boolean import build_boolean_ring
    from grouplab.boolpower import filtered_power, filtered_power_spec

    return filtered_power(filtered_power_spec(field_by_name(field), build_boolean_ring(atoms), []))


@pytest.mark.parametrize("build, count", [(lambda: zmod(6), 2), (lambda: zmod(30), 3),
                                          (lambda: _power("GF2", 9), 9), (lambda: _power("GF2", 11), 11),
                                          (lambda: _power("GF3", 6), 6)],
                         ids=["Z6", "Z30", "GF2^9", "GF2^11", "GF3^6"])
def test_mr_decompose_matches_the_pairwise_scan(build, count):
    ring = build()
    found = _decomposition(ring)[0]
    assert len(found[0]) == count
    assert found == mr_decompose_pairwise(ring)


def test_zero_ring_has_no_factors():
    zero = FiniteCommutativeAlgebra([[0]], [[0]], char=1, one_id=0, name="0")
    assert mr_decompose(zero) == ((), ((),)) == mr_decompose_pairwise(zero)


def test_mr_decompose_product_of_fields():
    from grouplab.boolean import build_boolean_ring
    from grouplab.boolpower import filtered_power, filtered_power_spec

    spec = filtered_power_spec(gf(2), build_boolean_ring(2), [])
    ring = filtered_power(spec)
    decomp = mr_decompose(ring)
    assert [f.field.size for f in decomp.factors] == [2, 2]
    for factor in decomp.factors:
        assert factor.field.is_field()


_AXIOMS = ("addition is not associative", "multiplication is not associative",
           "multiplication does not distribute over addition")


def _suite_algebras(corpus) -> list:
    """The algebras the suite builds: bundled fields, Z/n, filtered powers and module rings."""
    from grouplab.boolean import build_boolean_ring
    from grouplab.boolpower import filtered_power, filtered_power_spec
    from grouplab.cli import _bundled_actions
    from grouplab.config import DEFAULT_CAPS
    from grouplab.modring import action_from_matrices, ring_construct

    out = [gf(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)] + [zmod(n) for n in range(2, 17)]
    for field, atoms, constraints in ((gf(2), 2, []), (gf(4), 2, []), (gf(4), 2, [(range(2), [0, 1])]),
                                      (gf(4), 2, [([0], [0, 1])]), (gf(9), 3, [([0], range(3))])):
        out.append(filtered_power(filtered_power_spec(field, build_boolean_ring(atoms), constraints)))
    shift = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
    actions = [*_bundled_actions(corpus, DEFAULT_CAPS).values(),
               (action_from_matrices(corpus["Z4"], 3, 4, {1: shift}), (1, 0, 0, 0))]
    for action, v in actions:
        built = ring_construct(action, v)
        if built.well_defined:
            out.append(built.ring.to_algebra())
    return out


def _verdict(check, add, mul) -> str | None:
    try:
        check(add, mul)
    except ValidationError as exc:
        assert str(exc) in _AXIOMS
        return str(exc)
    return None


def test_axioms_on_generators_accept_every_algebra_of_the_suite(corpus):
    algebras = _suite_algebras(corpus)
    assert {a.size for a in algebras} >= {2, 16, 81, 243}
    for alg in algebras:
        add, mul = np.array(alg.add_table), np.array(alg.mul_table)
        assert _verdict(algebra_axioms_exhaustive, add, mul) is None, alg.name
        assert _verdict(FiniteCommutativeAlgebra._axioms_on_generators, add, mul) is None, alg.name


def _structure_algebras(corpus) -> list:
    """The algebras of the suite built from structure constants, with no table built yet."""
    algebras = [alg for alg in _suite_algebras(corpus) if alg._structure is not None]
    assert all(alg._add is None and alg._mul is None for alg in algebras)
    return algebras


def test_lazy_tables_match_the_block_fill_oracle(corpus):
    algebras = _structure_algebras(corpus)
    assert {a.size for a in algebras} >= {2, 16, 81}
    for alg in algebras:
        add, mul = algebra_tables_by_blocks(alg._structure, alg.char)
        assert alg.add_table.dtype == alg.mul_table.dtype == np.int32, alg.name
        assert np.array_equal(alg.add_table, add) and np.array_equal(alg.mul_table, mul), alg.name
        assert alg.add_table is alg.add_table and not alg.mul_table.flags.writeable  # kept, read-only
        FiniteCommutativeAlgebra(alg.add_table, alg.mul_table, char=alg.char, one_id=alg.one)


def _decomposition(alg) -> tuple:
    """Everything `mr_decompose`, `nilpotent_free_check` and the idempotents report of an algebra."""
    try:
        decomp = mr_decompose(alg)
    except NilpotentElementError as exc:
        found = ("nilpotent", exc.witness)
    else:
        found = (tuple((f.idempotent, f.element_ids, f.field.char, f.field.one,
                        f.field.add_table.tolist(), f.field.mul_table.tolist()) for f in decomp.factors),
                 decomp.component_ids)
    return found, nilpotent_free_check(alg), alg.idempotents(), alg.squares().tolist()


def test_structure_algebras_decompose_as_their_tables_do(corpus):
    decomposed = 0
    for alg in _structure_algebras(corpus):
        got = _decomposition(alg)
        assert alg._add is None and alg._mul is None, alg.name  # answered from coordinates
        tables = FiniteCommutativeAlgebra(alg.add_table, alg.mul_table, char=alg.char, one_id=alg.one,
                                          name=alg.name)
        assert got == _decomposition(tables), alg.name
        if got[0][0] != "nilpotent":
            assert got[0] == mr_decompose_pairwise(alg) == mr_decompose_pairwise(tables), alg.name
        assert [alg.neg(x) for x in alg.elements()] == [tables.neg(x) for x in tables.elements()]
        assert alg.is_field() == tables.is_field()
        decomposed += got[0][0] != "nilpotent"
    assert decomposed >= 10


def _basis_structure(products: dict[tuple[int, int], tuple[int, ...]], dim: int) -> np.ndarray:
    """Structure constants over GF(2) on the basis 1 = e_0, e_1, ..., e_(dim-1): e_i e_j is the sum
    of the e_b for b in products[i, j], and e_0 is the one; products[j, i] defaults to products[i, j]."""
    t = np.zeros((dim, dim, dim), dtype=np.int64)
    t[0], t[:, 0] = np.eye(dim, dtype=np.int64), np.eye(dim, dtype=np.int64)
    for i in range(1, dim):
        for j in range(1, dim):
            t[i, j, list(products.get((i, j), products.get((j, i), ())))] = 1
    return t


def _structure_mutants():
    """(structure, m, one id, the table path's message), each failing one axiom."""
    yield _basis_structure({(1, 2): (0,), (2, 1): ()}, 3), 2, 1, "algebra is not commutative"
    yield _basis_structure({(1, 1): (2,), (1, 2): (0,)}, 3), 2, 1, "multiplication is not associative"
    yield gf(4)._structure, 2, 2, "designated one is not a multiplicative identity"  # x is no one
    yield np.ones((1, 1, 1), dtype=np.int64), 6, 5, "designated one is not a multiplicative identity"


def test_structure_mutants_fail_with_the_table_message():
    for structure, m, one, message in _structure_mutants():
        with pytest.raises(ValidationError, match=f"^{message}$"):
            _from_structure(structure, m, one, "mutant")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FiniteCommutativeAlgebra(*algebra_tables_by_blocks(structure, m), char=m, one_id=one)
    # the non-associative mutant is `_vector_algebra`'s e^2 = f, ef = 1, f^2 = 0, on the same ids
    add, mul = algebra_tables_by_blocks(_basis_structure({(1, 1): (2,), (1, 2): (0,)}, 3), 2)
    want_add, want_mul = _vector_algebra({(1, 1): (2,), (1, 2): (0,), (2, 2): ()}, 3)
    assert np.array_equal(add, want_add) and np.array_equal(mul, want_mul)


def _vector_algebra(products: dict[tuple[int, int], tuple[int, ...]], dim: int):
    """Tables of the commutative GF(2)-algebra with basis 1 = e_0, e_1, ..., e_(dim-1), where
    bit i of an id is the coefficient of e_i and e_i e_j (0 < i <= j) is the sum of the
    e_b for b in products[i, j]."""
    n = 1 << dim
    ids = np.arange(n)
    basis = np.zeros((dim, dim), dtype=np.int64)  # basis[i, j]: e_i e_j as an id
    basis[0] = basis[:, 0] = 1 << np.arange(dim)
    for (i, j), bits in products.items():
        basis[i, j] = basis[j, i] = sum(1 << b for b in bits)
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            both = ((ids[:, None] >> i) & (ids[None, :] >> j) & 1).astype(bool)
            mul ^= np.where(both, basis[i, j], 0)
    return ids[:, None] ^ ids[None, :], mul


def _single_axiom_mutants():
    """(add, mul, char, the one axiom that fails), each passing the constructor's earlier checks."""
    f8 = gf(8)
    add, mul = np.array(f8.add_table), np.array(f8.mul_table)
    # swap 3 and 7 at (1,2), (5,6), (1,6), (5,2) and their mirrors: a commutative loop, not a group
    loop = add.copy()
    for x, y in ((1, 2), (5, 6), (1, 6), (5, 2)):
        loop[x, y] = loop[y, x] = 10 - loop[x, y]
    yield loop, mul, 2, "addition is not associative"
    # the field's multiplication relabelled by swapping 2 and 3 (an isomorphic ring on the
    # same set, so still associative, but no longer distributive over the old addition)
    perm = np.array([0, 1, 3, 2, 4, 5, 6, 7])
    yield add, perm[mul[np.ix_(np.argsort(perm), np.argsort(perm))]], 2, \
        "multiplication does not distribute over addition"
    # 1, e, f over GF(2) with e^2 = f, ef = 1, f^2 = 0: bilinear, commutative, (ee)f != e(ef)
    add3, mul3 = _vector_algebra({(1, 1): (2,), (1, 2): (0,), (2, 2): ()}, 3)
    yield add3, mul3, 2, "multiplication is not associative"
    # the same products among 512 elements: the axioms are checked at every size
    add9, mul9 = _vector_algebra({(1, 1): (2,), (1, 2): (0,), (2, 2): ()}, 9)
    yield add9, mul9, 2, "multiplication is not associative"


def test_single_axiom_mutants_fail_with_their_message():
    for add, mul, char, message in _single_axiom_mutants():
        assert _verdict(algebra_axioms_exhaustive, add, mul) == message
        with pytest.raises(ValidationError, match=f"^{message}$"):
            FiniteCommutativeAlgebra(add, mul, char=char, one_id=1)


def _corruptions(rng, count: int):
    """Random corruptions of fields and Z/n that keep the constructor's earlier checks:
    a relabelled addition or multiplication (fixing 0 and 1), one changed product, or a
    symmetric swap of two sums u, v on the cells x+y, x'+y', x+y', x'+y (x' = x+d and
    y' = y+d for an involution d), which leaves a commutative loop."""
    bases = [gf(q) for q in (4, 5, 7, 8, 9)] + [zmod(n) for n in (4, 6, 8, 9, 10, 12)]
    for _ in range(count):
        alg = bases[rng.integers(len(bases))]
        add, mul = np.array(alg.add_table), np.array(alg.mul_table)
        n = alg.size
        perm = np.concatenate([[0, 1], 2 + rng.permutation(n - 2)])
        inv = np.argsort(perm)
        kind = rng.integers(4)
        involutions = np.flatnonzero((add[np.arange(n), np.arange(n)] == 0) & (np.arange(n) > 0))
        if kind == 3 and involutions.size:
            d = rng.choice(involutions)
            x, y = rng.integers(1, n, size=2)
            xs, ys = (x, add[x, d]), (y, add[y, d])
            if 0 not in xs + ys and not set(xs) & set(ys):
                u, v = add[x, y], add[x, ys[1]]
                for a in xs:
                    for b in ys:
                        add[a, b] = add[b, a] = u + v - add[a, b]
        elif kind == 0:
            add = perm[add[np.ix_(inv, inv)]]
        elif kind == 1:
            mul = perm[mul[np.ix_(inv, inv)]]
        else:
            a, b = rng.choice(np.r_[0, 2:n], size=2)
            mul[a, b] = mul[b, a] = rng.integers(n)
        yield alg, add, mul


def test_axioms_on_generators_agree_with_the_exhaustive_loop_on_random_corruptions():
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys((None, *_AXIOMS), 0)
    for alg, add, mul in _corruptions(rng, 1200):
        want = _verdict(algebra_axioms_exhaustive, add, mul)
        got = _verdict(FiniteCommutativeAlgebra._axioms_on_generators, add, mul)
        assert (got is None) == (want is None), (alg.name, want, got)
        if got is None:  # accepted: the whole constructor accepts it too
            FiniteCommutativeAlgebra(add, mul, char=alg.char, one_id=1)
        seen[want] += 1
    assert min(seen.values()) >= 20, seen
