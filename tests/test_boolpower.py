import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouplab.algebras import FiniteCommutativeAlgebra, _from_structure, gf, mr_decompose
from grouplab.boolean import BooleanIdeal, build_boolean_ring
from grouplab.boolpower import (
    BooleanPowerGroup,
    _atom_values,
    bp_multiply,
    bp_quotient_iso,
    filtered_power,
    filtered_power_spec,
    ideal_normal_subgroup,
    materialize_bp_group,
    verify_ideal_correspondence,
)
from grouplab.cli import main
from grouplab.corpus import bundled_corpus
from grouplab.errors import CapExceeded, ValidationError
from oracles import atom_values_by_digits, filtered_power_tables_by_broadcast

_S3 = bundled_corpus()["S3"]


@pytest.fixture(scope="module")
def s3_power(corpus):
    return BooleanPowerGroup(corpus["S3"], build_boolean_ring(2))


def test_normalize_empty(s3_power):
    assert s3_power.normalize([]).is_identity()


def test_normalize_cancellation(corpus, s3_power):
    s3 = corpus["S3"]
    g = next(x for x in s3.elements() if s3.element_order(x) == 3)
    x = s3_power.normalize([(g, 0b11), (s3.inv(g), 0b11)])
    assert x.is_identity()


def test_normalize_overlapping_supports(corpus, s3_power):
    s3 = corpus["S3"]
    g, h = 1, 2
    x = s3_power.normalize([(g, 0b11), (h, 0b10)])
    # atom 0 carries g, atom 1 carries g*h
    assert x.values() == [g, s3.mul(g, h)]


raw_terms = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=0, max_size=6
)


@given(raw_terms)
def test_normalize_idempotent(corpus_terms):
    from grouplab.corpus import bundled_corpus

    s3 = _S3
    bp = BooleanPowerGroup(s3, build_boolean_ring(2))
    x = bp.normalize(corpus_terms)
    again = bp.normalize(list(x.terms))
    assert again == x


@given(st.permutations(list(range(4))))
def test_normalize_disjoint_order_independent(perm):
    s3 = _S3
    bp = BooleanPowerGroup(s3, build_boolean_ring(4))
    terms = [(1, 0b0001), (2, 0b0010), (3, 0b0100), (4, 0b1000)]
    shuffled = [terms[i] for i in perm]
    assert bp.normalize(shuffled) == bp.normalize(terms)


def test_multiply_identity_and_inverse(corpus, s3_power):
    s3 = corpus["S3"]
    x = s3_power.normalize([(2, 0b01)])
    assert bp_multiply(x, s3_power.identity()) == x
    involution = next(g for g in s3.elements() if s3.element_order(g) == 2)
    y = s3_power.normalize([(involution, 0b01)])
    assert bp_multiply(y, y).is_identity()


def test_multiply_mismatch(corpus, s3_power):
    other = BooleanPowerGroup(corpus["S3"], build_boolean_ring(3))
    with pytest.raises(ValidationError):
        bp_multiply(s3_power.identity(), other.identity())


def test_multiply_matches_materialized(corpus, s3_power):
    mat = materialize_bp_group(corpus["S3"], build_boolean_ring(2))
    for a in range(0, 36, 5):
        for b in range(0, 36, 7):
            x, y = mat.decode(a), mat.decode(b)
            assert mat.encode(bp_multiply(x, y)) == mat.group.mul(a, b)


def test_materialize_sizes(corpus):
    assert materialize_bp_group(corpus["Z2"], build_boolean_ring(3)).group.order == 8
    mat = materialize_bp_group(corpus["S3"], build_boolean_ring(1))
    assert mat.group.order == 6
    # one atom: literally the base group's table
    assert (mat.group.table == corpus["S3"].table).all()
    with pytest.raises(CapExceeded):
        materialize_bp_group(corpus["A5"], build_boolean_ring(3))


def test_materialized_is_elementary_abelian_for_z2(corpus):
    g = materialize_bp_group(corpus["Z2"], build_boolean_ring(3)).group
    assert g.is_abelian and all(g.element_order(x) <= 2 for x in g.elements())


def test_encode_decode_roundtrip(corpus):
    mat = materialize_bp_group(corpus["S3"], build_boolean_ring(2))
    for gid in range(mat.group.order):
        assert mat.encode(mat.decode(gid)) == gid


def test_atom_values_are_decoded_values(corpus):
    mat = materialize_bp_group(corpus["S3"], build_boolean_ring(3))
    values = _atom_values(mat, np.arange(mat.group.order))
    digits = [atom_values_by_digits(mat, gid) for gid in range(mat.group.order)]
    assert values.tolist() == digits == [mat.decode(gid).values() for gid in range(mat.group.order)]


def test_atom_evaluation_is_isomorphism(corpus):
    # multiplication of values matches the materialized table, exhaustively
    s3 = corpus["S3"]
    mat = materialize_bp_group(s3, build_boolean_ring(2))
    for a in range(36):
        va = mat.decode(a).values()
        for b in range(36):
            vb = mat.decode(b).values()
            prod = [s3.mul(x, y) for x, y in zip(va, vb)]
            assert mat.group.mul(a, b) == mat.encode(mat.power.from_values(prod))


def test_ideal_subgroup_extremes(corpus):
    s3 = corpus["S3"]
    ring = build_boolean_ring(2)
    trivial = ideal_normal_subgroup(s3, ring, BooleanIdeal(ring, 0))
    assert len(trivial) == 1
    whole = ideal_normal_subgroup(s3, ring, BooleanIdeal(ring, ring.one))
    assert len(whole) == 36


def test_ideal_subgroups_always_normal(corpus):
    ring = build_boolean_ring(2)
    for name in ("S3", "Z4"):
        base = corpus[name]
        for span in range(4):
            sub = ideal_normal_subgroup(base, ring, BooleanIdeal(ring, span))
            assert sub.is_normal()
            assert len(sub) == base.order ** bin(span).count("1")


def test_correspondence_fails_for_z4(corpus):
    rep = verify_ideal_correspondence(corpus["Z4"], build_boolean_ring(2))
    assert not rep.matches
    assert not rep.expected_match
    assert rep.ideal_count == 4
    assert rep.counterexample is not None


def test_quotient_iso_all_ideals_s3(corpus):
    ring = build_boolean_ring(2)
    for span in range(4):
        iso = bp_quotient_iso(corpus["S3"], ring, BooleanIdeal(ring, span))
        assert iso.m == 2 - bin(span).count("1")
        assert iso.verified
        assert iso.quotient.order == 6**iso.m


def test_quotient_chain_sizes_non_increasing(corpus):
    # along a chain of growing ideals the power degree never increases
    ring = build_boolean_ring(3)
    spans = [0b000, 0b001, 0b011, 0b111]
    ms = [bp_quotient_iso(corpus["Z2"], ring, BooleanIdeal(ring, s)).m for s in spans]
    assert ms == sorted(ms, reverse=True)
    assert ms == [3, 2, 1, 0]


def test_filtered_power_whole_space(corpus):
    field = gf(4)
    ring = build_boolean_ring(2)
    alg = filtered_power(filtered_power_spec(field, ring, []))
    assert alg.size == 16


def test_filtered_power_gf2_constraint():
    field = gf(4)
    ring = build_boolean_ring(2)
    spec = filtered_power_spec(field, ring, [(range(2), [0, 1])])
    alg = filtered_power(spec)
    assert alg.size == 4
    decomp = mr_decompose(alg)
    assert [f.field.size for f in decomp.factors] == [2, 2]


def test_filtered_power_single_point_constraint():
    field = gf(4)
    ring = build_boolean_ring(2)
    spec = filtered_power_spec(field, ring, [([0], [0, 1])])
    alg = filtered_power(spec)
    assert alg.size == 8
    decomp = mr_decompose(alg)
    assert sorted(f.field.size for f in decomp.factors) == [2, 4]


@pytest.mark.parametrize("q, atoms, constraints", [
    (4, 2, []), (4, 3, [([0, 2], [0, 1])]),
    (8, 2, []), (8, 3, [([1], [0, 1])]),
    (9, 2, []), (9, 3, [([0, 1], [0, 1, 2])]),
    (3, 3, []), (5, 3, []), (2, 4, []), (9, 3, [([0], [0, 1, 2]), ([1, 2], [0, 1, 2])]),
])
def test_filtered_power_tables_match_the_broadcast_oracle(q, atoms, constraints):
    spec = filtered_power_spec(gf(q), build_boolean_ring(atoms), constraints)
    alg = filtered_power(spec)
    add, mul = filtered_power_tables_by_broadcast(spec)
    assert alg.size == add.shape[0] and (alg.size < q**atoms) == bool(constraints)
    assert np.array_equal(alg.add_table, add) and np.array_equal(alg.mul_table, mul)


def test_filtered_power_fills_its_tables_in_bounded_blocks():
    # GF(3) over 7 atoms: 2,187 elements, whose two int32 tables would take 19.1 MB each; the
    # power keeps its structure constants, and neither the build nor the decomposition fills a table
    spec = filtered_power_spec(gf(3), build_boolean_ring(7), [])
    tracemalloc.start()
    try:
        alg = filtered_power(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.size == 2187 and peak < 10**6
    assert [f.field.size for f in mr_decompose(alg).factors] == [3] * 7
    assert alg._add is None and alg._mul is None


def test_filtered_power_reads_no_whole_table(tmp_path, monkeypatch):
    def whole(self):
        raise AssertionError(f"{self.name}: a whole table was read")

    monkeypatch.setattr(FiniteCommutativeAlgebra, "add_table", property(whole))
    monkeypatch.setattr(FiniteCommutativeAlgebra, "mul_table", property(whole))
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps({"field": "GF9", "atoms": 3,
                                "constraints": [{"points": [0], "subfield": "GF3"}]}))
    assert main(["boolean-power", "--spec", str(path), "--out", str(tmp_path / "out")]) == 0
    row, = json.loads((tmp_path / "out").read_text())["items"]
    assert (row["size"], row["factor_sizes"]) == (243, "9,9,3")


def test_filtered_power_needs_a_field_from_structure_constants():
    four = gf(4)
    tables = FiniteCommutativeAlgebra(four.add_table, four.mul_table, char=2, one_id=1)
    with pytest.raises(ValidationError, match="a field given by structure constants"):
        filtered_power(filtered_power_spec(tables, build_boolean_ring(2), []))
    # GF(4) on the basis x, 1: the one is id 2, and the prime subfield {0, 2} is no leading range
    swapped = _from_structure(four._structure[::-1, ::-1, ::-1], 2, 2, "GF4'")
    spec = filtered_power_spec(swapped, build_boolean_ring(2), [([0], [0, 2])])
    with pytest.raises(ValidationError, match="field ids 0..p\\^j - 1"):
        filtered_power(spec)


def test_filtered_power_rejects_non_subfield():
    field = gf(4)
    ring = build_boolean_ring(2)
    with pytest.raises(ValidationError):
        filtered_power_spec(field, ring, [([0], [0, 2])])  # {0, x} is not a subfield


def test_filtered_ideal_correspondence_for_field_power():
    # every ideal of F^B comes from an ideal of B, checked exhaustively
    field = gf(2)
    ring = build_boolean_ring(2)
    alg = filtered_power(filtered_power_spec(field, ring, []))
    n = alg.size

    def is_ideal(subset):
        if 0 not in subset:
            return False
        for a in subset:
            for b in subset:
                if alg.add(a, b) not in subset:
                    return False
            for r in range(n):
                if alg.mul(a, r) not in subset:
                    return False
        return True

    ideals = {frozenset(s) for k in range(n + 1)
              for s in itertools.combinations(range(n), k) if is_ideal(set(s))}
    # ideal-of-B shapes: value vanishes off the span
    from_b = set()
    for span in range(4):
        members = []
        for x in range(n):
            coords = ((x >> 1) & 1, x & 1)  # atom 0 is the most significant digit
            if all(c == 0 or (span >> i) & 1 for i, c in enumerate(coords)):
                members.append(x)
        from_b.add(frozenset(members))
    assert ideals == from_b
