"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact: integer and rational comparisons only.
"""

import json
from fractions import Fraction

import pytest

from grouplab.boolean import BooleanIdeal, build_boolean_ring
from grouplab.boolpower import bp_quotient_iso, verify_ideal_correspondence
from grouplab.cli import main
from grouplab.corpus import bundled_corpus, bundled_towers
from grouplab.groups import commuting_pair_count, conjugacy_classes, direct_product
from grouplab.measure import neumann_search, rho_wedge, verify_inequalities
from grouplab.modring import action_from_matrices, nilpotent_free_check, ring_construct
from grouplab.algebras import mr_decompose
from grouplab.structure import conjugate_spread
from grouplab.towers import commutator_level_check, cp_sequence

from oracles import double_loop_commuting_count, neumann_search_all_pairs, spread_depth_bruteforce

CORPUS = bundled_corpus()
TOWERS = bundled_towers(CORPUS)


def _verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_criterion_01_burnside_identity():
    for name, g in CORPUS:
        assert g.order <= 120
        double = double_loop_commuting_count(g)
        assert double == g.order * len(conjugacy_classes(g))
        assert double == commuting_pair_count(g)
    _verdict(1, "Burnside identity, exact, all bundled groups")


def test_criterion_02_neumann_inequality_and_minimality():
    for name, g in CORPUS:
        witness = neumann_search(g, name=name)
        pairs = commuting_pair_count(g)
        # the displayed bound, exactly: pairs >= |L|^2 / (|K| |L:N|^2)
        assert pairs * witness.value >= g.order**2
        # independent exhaustive re-search over all admissible pairs
        k_sub, n_sub, value, _ = neumann_search_all_pairs(g)
        assert (witness.k, witness.n, witness.value) == (k_sub, n_sub, value)
    _verdict(2, "Neumann witness bound holds and is minimal, all bundled groups")


def test_criterion_03_ideal_correspondence():
    a5 = CORPUS["A5"]
    for atoms in (1, 2):
        ring = build_boolean_ring(atoms)
        report = verify_ideal_correspondence(a5, ring)
        assert report.expected_match
        assert report.matches
        assert report.ideal_count == 2**atoms
        assert report.normal_count == 2**atoms
    z4 = CORPUS["Z4"]
    failing = verify_ideal_correspondence(z4, build_boolean_ring(2))
    assert not failing.matches
    assert failing.counterexample is not None
    _verdict(3, "normal subgroups of A5^B are exactly the ideal family; Z4 control fails")


def test_criterion_04_quotient_power_isomorphisms():
    cases = [("Z2", 3), ("S3", 2), ("A5", 2)]
    for name, atoms in cases:
        base = CORPUS[name]
        ring = build_boolean_ring(atoms)
        for span in range(1 << atoms):
            ideal = BooleanIdeal(ring, span)
            iso = bp_quotient_iso(base, ring, ideal)
            assert iso.m == atoms - bin(span).count("1")
            assert iso.verified
            assert iso.quotient.order == base.order**iso.m
    _verdict(4, "every quotient by an ideal subgroup is a verified direct power")


def test_criterion_05_cp_sequences():
    for name, system in sorted(TOWERS.items()):
        seq = cp_sequence(system)
        assert all(b <= a for a, b in zip(seq, seq[1:]))
    a5 = CORPUS["A5"]
    c = Fraction(commuting_pair_count(a5), a5.order**2)
    assert cp_sequence(TOWERS["a5-square"]) == (c, c * c)
    square = direct_product(a5, a5)
    assert Fraction(commuting_pair_count(square), square.order**2) == c * c
    _verdict(5, "commuting fractions non-increasing; power family follows c^m")


def test_criterion_06_wedge_and_inequality_two():
    members = [(n, CORPUS[n]) for n in ("D4", "Q8", "Heis27", "M27")]
    for name, g in members:
        report = rho_wedge(g, name=name)
        assert report.u_dim == 2
        assert report.wedge_dim == 1
        assert report.kernel_dim == 0
        assert report.k == 0
    full = verify_inequalities(members)
    assert not full.excluded
    assert len(full.ineq2) == 2
    for row in full.ineq2:
        assert row.passed
        assert all(r.passed for r in row.intermediate)
    by_order = {r.order: r for r in full.ineq2}
    assert by_order[8].lhs_squared == Fraction(64)
    assert by_order[27].lhs_squared == Fraction(729)
    assert by_order[27].rhs_squared == 297**2
    inter = {r.name: r for r in by_order[27].intermediate}
    assert inter["Heis27"].bound == Fraction(729, 3)
    _verdict(6, "wedge pipeline and inequality (2) pass exactly on extraspecial groups")


def test_criterion_07_commutator_level_check():
    for name, system in sorted(TOWERS.items()):
        top = system.top
        report = commutator_level_check(system, top.whole_subgroup(), top.whole_subgroup())
        assert report.passed, f"{name} failed at level {report.first_failure}"
        assert all(report.per_level)
    _verdict(7, "image of commutator equals commutator of images on every tower level")


def test_criterion_08_conjugate_spread():
    s3 = CORPUS["S3"]
    report = conjugate_spread(s3)
    oracle_m = max(spread_depth_bruteforce(s3, x)[0] for x in s3.elements())
    assert report.m == oracle_m == 2
    for name, g in CORPUS:
        assert g.order <= 60
        rep = conjugate_spread(g)
        for witness in rep.witnesses:
            _, depth = spread_depth_bruteforce(g, witness.element)
            assert depth[witness.worst] == witness.depth
            assert max(depth.values()) == witness.depth
    _verdict(8, "spread terminates with oracle-verified witnesses on the whole corpus")


def test_criterion_09_ring_pipeline():
    z2 = CORPUS["Z2"]
    swap = {1: [[0, 1], [1, 0]]}
    built = ring_construct(action_from_matrices(z2, 3, 2, swap), (1, 0))
    assert built.well_defined
    ring = built.ring
    assert ring.is_commutative()
    ok, _ = nilpotent_free_check(ring)
    assert ok
    decomp = mr_decompose(ring.to_algebra())
    assert [f.field.size for f in decomp.factors] == [3, 3]

    regular = ring_construct(action_from_matrices(z2, 2, 2, swap), (1, 0))
    assert regular.well_defined
    ok, witness = nilpotent_free_check(regular.ring)
    assert not ok
    assert regular.ring.to_vector(witness) == (1, 1)
    _verdict(9, "swap ring splits into two prime fields; char-2 regular ring is flagged")


_SUITE = [
    ["analyze-group"],
    ["neumann"],
    ["rho", "--kind", "com", "--max-order", "60"],
    ["rho", "--kind", "r", "--max-order", "27"],
    ["boolean-power", "--base", "S3", "--atoms", "2"],
    ["boolean-power", "--base", "Z4", "--atoms", "2"],
    ["inverse-system"],
    ["ring-from-module"],
    ["verify-inequalities", "--group", "D4", "--group", "Q8",
     "--group", "Heis27", "--group", "M27"],
]


def _run_suite(tmp_path, tag):
    outputs = []
    for i, args in enumerate(_SUITE):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{tag}-{i}.{fmt}"
            code = main(args + ["--format", fmt, "--out", str(out)])
            assert code == 0, f"{args} exited {code}"
            outputs.append(out.read_bytes())
    return outputs


def test_criterion_10_determinism(tmp_path):
    first = _run_suite(tmp_path, "run1")
    second = _run_suite(tmp_path, "run2")
    assert first == second
    assert any(first)
    _verdict(10, "two consecutive full CLI runs are byte-identical")
