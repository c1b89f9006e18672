"""The generator check of `GroupHom` against the all-pairs law of `oracles.is_hom_all_pairs`."""

import numpy as np
import pytest

from grouplab import groups
from grouplab.boolean import BooleanIdeal, build_boolean_ring
from grouplab.boolpower import bp_quotient_iso, materialize_bp_group
from grouplab.corpus import bundled_towers
from grouplab.errors import ValidationError
from grouplab.groups import GroupHom, direct_power, quotient, subgroup_closure
from grouplab.structure import automorphism_group, enumerate_normal_subgroups
from grouplab.towers import direct_power_system, quotient_trace
from oracles import is_hom_all_pairs


def _suite_homs(corpus):
    """Every kind of hom the suite builds: tower and quotient projections, the Boolean-power
    quotient isomorphisms and their projections, quotient traces and automorphisms."""
    towers = bundled_towers(corpus)
    towers["S3^3"] = direct_power_system(corpus["S3"], 3)
    for system in towers.values():
        yield from system.projections
    z8, s3 = towers["z8-chain"].top, towers["s3-cosets"].top
    yield from quotient_trace(towers["z8-chain"], subgroup_closure(z8, [4]),
                              subgroup_closure(z8, [2])).projections
    a3 = next(n for n in enumerate_normal_subgroups(s3) if len(n) == 3)
    yield from quotient_trace(towers["s3-cosets"], s3.trivial_subgroup(), a3).projections
    for name in ("S3", "Q8", "D4", "A4", "S4"):
        g = corpus[name]
        yield from (quotient(g, n)[1] for n in enumerate_normal_subgroups(g))
    for base, atoms in (("S3", 2), ("S3", 3), ("Z4", 2), ("Z4", 3), ("A5", 2)):
        ring = build_boolean_ring(atoms)
        mat = materialize_bp_group(corpus[base], ring)
        for span in range(1 << atoms):
            iso = bp_quotient_iso(corpus[base], ring, BooleanIdeal(ring, span), materialized=mat)
            yield iso.projection
            yield iso.iso
    for name in ("S3", "D4", "Q8"):
        yield from automorphism_group(corpus[name]).automorphisms


def test_image_queries_match_np_unique(corpus):
    homs = 0
    for hom in _suite_homs(corpus):
        src, image = hom.source, np.unique(hom.mapping)
        got = hom.image_ids()
        assert got.dtype == image.dtype and np.array_equal(got, image), hom
        assert hom.is_injective() == (image.size == src.order), hom
        for sub in (src.whole_subgroup(), subgroup_closure(src, groups._greedy_generators(src)[:1])):
            want = np.unique(hom.mapping[np.array(sub.ids)]).tolist()
            assert list(hom.map_subgroup(sub).ids) == want, hom
        homs += 1
    assert homs == 129


def _mutants(hom):
    """The mapping with one image changed, with two images swapped, and a constant map."""
    f, n, m = hom.mapping, hom.source.order, hom.target.order
    changed = f.copy()
    changed[n - 1] = (changed[n - 1] + 1) % m
    swapped = f.copy()
    swapped[[1, n - 1]] = swapped[[n - 1, 1]]
    return changed, swapped, np.full(n, m - 1)


def _accepted(source, target, mapping) -> bool:
    try:
        GroupHom(source, target, mapping)
    except ValidationError as exc:
        assert str(exc) in ("homomorphism must fix the identity", "mapping is not a homomorphism")
        return False
    return True


def test_generator_check_agrees_with_all_pairs_law(corpus):
    homs = rejected = 0
    for hom in _suite_homs(corpus):
        src, tgt = hom.source, hom.target
        assert is_hom_all_pairs(src, tgt, hom.mapping), hom
        assert _accepted(src, tgt, hom.mapping), hom
        homs += 1
        if src.order > 1 and src.order * tgt.order <= 216 * 216:
            for mutant in _mutants(hom):
                ok = is_hom_all_pairs(src, tgt, mutant)
                assert _accepted(src, tgt, mutant) == ok, hom
                rejected += not ok
    assert homs > 120 and rejected > 250


def _second_generator_mutant(g):
    """An endomap f of g with f(x s1) = f(x) s1 for every x, for the first greedy generator s1,
    that is no hom: the identity except on the coset s2<s1>, sent to <s1> by s2 s1^k -> s1^k."""
    s1, s2 = groups._greedy_generators(g)[:2]
    f = np.arange(g.order)
    x, y = s2, 0
    while True:
        f[x] = y
        x, y = g.mul(x, s1), g.mul(y, s1)
        if x == s2:
            return f, s1, s2


def _law_holds_on(g, f, s) -> bool:
    return bool(np.array_equal(f[g.table[:, s]], g.table[f, f[s]]))


def test_only_the_second_generator_rejects(corpus):
    checked = 0
    for name in ("S3", "Q8", "D4", "A4", "S4", "A5"):
        g = corpus[name]
        if len(groups._greedy_generators(g)) < 2:
            continue
        f, s1, s2 = _second_generator_mutant(g)
        assert _law_holds_on(g, f, s1) and not _law_holds_on(g, f, s2), name
        assert not is_hom_all_pairs(g, g, f), name
        with pytest.raises(ValidationError, match="^mapping is not a homomorphism$"):
            GroupHom(g, g, f)
        checked += 1
    assert checked >= 4


def test_shared_power_is_the_direct_power(corpus):
    # for the empty ideal the quotient and the target reuse the materialised power's table
    for base, atoms in (("S3", 2), ("Z4", 3), ("A5", 2)):
        ring = build_boolean_ring(atoms)
        mat = materialize_bp_group(corpus[base], ring)
        iso = bp_quotient_iso(corpus[base], ring, BooleanIdeal(ring, 0), materialized=mat)
        assert iso.quotient.table is mat.group.table and iso.power_group.table is mat.group.table
        assert iso.power_group.name == f"{base}^{atoms}"
        assert np.array_equal(iso.power_group.table, direct_power(corpus[base], atoms).table)
        assert np.array_equal(iso.iso.mapping, np.arange(mat.group.order))
