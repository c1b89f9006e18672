import itertools
import tracemalloc

import numpy as np
import pytest

import grouplab.groups
import grouplab.structure
import oracles

from grouplab.config import DEFAULT_CAPS, Caps
from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import (
    Subgroup,
    _class_reps,
    _closure_mask,
    _closures,
    _greedy_generators,
    _local_ids,
    _normal_closure,
    commutator_subgroup,
    conjugacy_classes,
    core,
    direct_power,
    direct_product,
    normal_closure,
    quotient,
    subgroup_closure,
)
from grouplab.linalg import prime_power_base, split_prime_power
from grouplab.structure import (
    _canonical,
    _conjugates,
    _rank_by_search,
    _subgroup_classes,
    _relative_rank,
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
    IdTupleSubgroup,
    all_subgroups_bruteforce,
    class_closure,
    closure_mask_by_unique,
    commutator_subgroup_all_pairs,
    conjugates_by_gather,
    conjugate_spread_per_element,
    enumerate_normal_subgroups_all_principals,
    enumerate_normal_subgroups_one_at_a_time,
    enumerate_normal_subgroups_pairwise,
    enumerate_subgroups_all_x,
    enumerate_subgroups_per_subgroup,
    is_automorphism_all_pairs,
    minimal_generator_count_from_class_reps,
    normal_closure_per_step,
    prufer_rank_of_subgroup_groups,
    rank_by_least_coset_reps,
    relative_rank_by_all_powers,
    spread_depth_bruteforce,
    subgroup_classes_by_coset_reps,
    subgroup_classes_one_at_a_time,
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


def test_enumerators_match_per_subgroup_oracles(corpus, perm_group):
    groups = list(corpus) + [(name, perm_group(name)) for name in ("S5", "D4xQ8")]
    for name, g in groups + [("Z2^4", direct_power(corpus["Z2"], 4))]:
        assert [s.ids for s in enumerate_subgroups(g)] == \
            [s.ids for s in enumerate_subgroups_per_subgroup(g)], name
        assert [s.ids for s in enumerate_normal_subgroups(g)] == \
            [s.ids for s in enumerate_normal_subgroups_all_principals(g)], name


def test_closure_mask_matches_unique_oracle(corpus):
    rng = np.random.default_rng(7)
    for name, g in corpus:
        for _ in range(20):
            gens = rng.integers(0, g.order, size=rng.integers(0, 4)).tolist()
            start = rng.integers(0, g.order, size=rng.integers(1, 4)).tolist()
            assert np.array_equal(_closure_mask(g, gens, start),
                                  closure_mask_by_unique(g.table, gens, start)), (name, gens, start)


@pytest.mark.parametrize("enumerate_, group, count, limit", [
    (enumerate_normal_subgroups, "Z2^5", 374, 2100),
    (enumerate_subgroups, "S5", 156, 520),
])
def test_lattice_closure_counts(corpus, perm_group, monkeypatch, enumerate_, group, count, limit):
    g = direct_power(corpus["Z2"], 5) if group == "Z2^5" else perm_group(group)
    calls = []
    closure_mask = grouplab.groups._closure_mask
    monkeypatch.setattr(grouplab.groups, "_closure_mask",
                        lambda *args: calls.append(1) or closure_mask(*args))
    assert len(enumerate_(g)) == count
    assert 0 < len(calls) <= limit


def test_batched_enumerators_match_one_at_a_time_oracles(corpus, perm_group):
    # the same subgroups, found from the same (H, x) or (N, P) first, in the same order
    groups = list(corpus) + [("Z2^5", direct_power(corpus["Z2"], 5)), ("Z4^3", direct_power(corpus["Z4"], 3))]
    groups += [(name, perm_group(name)) for name in ("D4xQ8", "S5")]
    for name, g in groups:
        assert [[(s.ids, s.gens) for s in cls] for cls in _subgroup_classes(g, DEFAULT_CAPS)] == \
            [[(s.ids, s.gens) for s in cls] for cls in subgroup_classes_one_at_a_time(g, DEFAULT_CAPS)], name
    for name, g in groups + [(name, perm_group(name)) for name in ("A5xA5", "S7")]:
        assert [(s.ids, s.gens) for s in enumerate_normal_subgroups(g)] == \
            [(s.ids, s.gens) for s in enumerate_normal_subgroups_one_at_a_time(g)], name


def test_orbit_representatives_find_the_coset_extension_classes(corpus, perm_group, monkeypatch):
    """One x per orbit of x -> hx, x -> xh and conjugation by N_G(H) finds the classes that every
    least coset representative finds, in the same order and with the same gens.  With one-row
    closure blocks every H but G takes its orbits (the cosets in an abelian group)."""
    groups = list(corpus) + [("Z2^5", direct_power(corpus["Z2"], 5)), ("Z4^3", direct_power(corpus["Z4"], 3))]
    groups += [(name, perm_group(name)) for name in ("D4xQ8", "S5", "S6")]
    caps = Caps(subgroup_order=1000)
    rows = []  # the (H, gens) rows closed
    for module in (grouplab.structure, oracles):
        monkeypatch.setattr(module, "_closures", lambda g, rows_, width, closures=module._closures:
                            closures(g, (r for r in rows_ if not rows.append(r)), width))
    found = {}
    for name, g in groups:
        rows.clear()
        want = [[(s.ids, s.gens) for s in cls] for cls in subgroup_classes_by_coset_reps(g, caps)]
        coset_rows = len(rows)
        assert [[(s.ids, s.gens) for s in cls] for cls in _subgroup_classes(g, caps)] == want, name
        rows.clear()
        with monkeypatch.context() as patched:
            patched.setattr(grouplab.groups, "_CHECK_BLOCK", 1)
            classes = _subgroup_classes(g, caps)
        assert [[(s.ids, s.gens) for s in cls] for cls in classes] == want, name
        found[name] = (sum(map(len, classes)), len(classes), coset_rows, len(rows))
    assert found["S5"] == (156, 19, 496, 85) and found["S6"] == (1455, 56, 5890, 587)
    assert found["D4xQ8"][2:] == (1143, 778) and found["Z2^5"] == (374, 374, 2077, 2077)


def test_batched_closure_rows_match_unique_oracle(corpus, perm_group, monkeypatch):
    # rows of 0 to 3 gens padded to width 3, blocks of a few rows, repeated closures skipped across blocks
    rng = np.random.default_rng(11)
    monkeypatch.setattr(grouplab.groups, "_CHECK_BLOCK", 1 << 10)
    for g in (corpus["S4"], corpus["Q8"], corpus["Heis27"], perm_group("S5")):
        starts = [subgroup_closure(g, rng.integers(0, g.order, size=r % 3).tolist()) for r in range(4)]
        rows = [(starts[r % 4], tuple(rng.integers(0, g.order, size=r % 4).tolist())) for r in range(24)]
        wanted, reached = [], set()
        for start, gens in rows:  # each closure with the first row that reaches it
            ids = tuple(np.flatnonzero(closure_mask_by_unique(g.table, gens, start.ids)).tolist())
            if ids not in reached:
                reached.add(ids)
                wanted.append(((start, gens), ids))
        assert [(row, Subgroup._of(g, key).ids) for row, key in _closures(g, rows, 3)] == wanted, g.name
        assert len(wanted) < len(rows), g.name


@pytest.mark.parametrize("enumerate_, group, count", [
    (enumerate_normal_subgroups, "Z2^5", 374),
    (enumerate_subgroups, "S5", 156),
])
def test_batched_extension_needs_fewer_closures_than_subgroups(corpus, perm_group, monkeypatch,
                                                              enumerate_, group, count):
    g = direct_power(corpus["Z2"], 5) if group == "Z2^5" else perm_group(group)
    calls = []  # closure searches, one-row and batched
    close = grouplab.groups._close
    monkeypatch.setattr(grouplab.groups, "_close",
                        lambda *args: calls.append(1) or close(*args))
    assert len(enumerate_(g)) == count
    assert 0 < len(calls) < count


def test_conjugates_by_generator_orbit_match_the_gather(corpus, perm_group):
    caps = Caps(subgroup_order=1000)
    groups = list(corpus) + [(name, perm_group(name)) for name in ("S5", "D4xQ8", "S6")]
    for name, g in groups:
        for k, *_ in _subgroup_classes(g, caps):
            conjugates = _conjugates(g, k)
            assert conjugates[0] is k, (name, k)
            ids = [c.ids for c in conjugates]
            assert len(set(ids)) == len(ids), (name, k)
            assert set(ids) == {c.ids for c in conjugates_by_gather(g, k)}, (name, k)
            for c in conjugates:
                assert subgroup_closure(g, c.gens).ids == c.ids, (name, c)


def test_subgroups_of_s6_build_no_table(perm_group):
    s6 = perm_group("S6")
    assert len(enumerate_subgroups(s6, caps=Caps(subgroup_order=1000))) == 1455
    assert s6._table is None


def test_automorphisms_read_columns_only(perm_group, monkeypatch):
    monkeypatch.setattr(grouplab.groups, "_CHECK_BLOCK", 1 << 10)  # D4xQ8's 4,096 cells: above a block
    g = perm_group("D4xQ8")
    report = automorphism_group(g)
    assert (len(report.automorphisms), sum(report.characteristic)) == (3072, 10)
    assert g._table is None


def test_greedy_class_closure_matches_plain_closure(corpus):
    for name, g in corpus:
        gens = _greedy_generators(g)
        for cls in conjugacy_classes(g):
            sub = _normal_closure(g, cls[:1], gens)
            assert sub == subgroup_closure(g, cls) == class_closure(g, cls)[0], (name, cls)
            assert set(sub.gens) <= set(cls) and subgroup_closure(g, sub.gens) == sub


def test_normal_closure_on_one_mask_matches_the_per_step_oracle(corpus, perm_group):
    # the same ids and the same gens as one `subgroup_closure` per generator added
    groups = list(corpus) + [("Z2^5", direct_power(corpus["Z2"], 5)), ("Z4^3", direct_power(corpus["Z4"], 3))]
    groups += [(name, perm_group(name)) for name in ("D4xQ8", "S5", "A5xA5", "S7")]
    for name, g in groups:
        gens = _greedy_generators(g)
        for x in _class_reps(g)[1:]:
            got, want = _normal_closure(g, (x,), gens), normal_closure_per_step(g, (x,), gens)
            assert (got.ids, got.gens) == (want.ids, want.gens), (name, x)
    for g in (direct_power(corpus["A5"], 2), corpus["S4"]):
        for a, b in itertools.product(enumerate_normal_subgroups(g), repeat=2):
            seeds = [g.commutator(x, y) for x in a.gens for y in b.gens]
            got, want = commutator_subgroup(a, b), normal_closure_per_step(g, seeds, a.gens + b.gens)
            assert (got.ids, got.gens) == (want.ids, want.gens), (g.name, a, b)


def test_subgroup_classes_hold_no_set_per_subgroup(perm_group):
    """A subgroup keeps its sorted ids alone: the class list of S6 (1,455 subgroups) peaks at
    0.98-1.12 MB under tracemalloc, where a frozenset of the ids per subgroup took 2.3-2.5 MB.
    The bound is 1.12 MB and a quarter."""
    assert "_members" not in Subgroup.__slots__ and not hasattr(Subgroup, "_members")
    s6 = perm_group("S6")
    tracemalloc.start()
    try:
        classes = _subgroup_classes(s6, Caps(subgroup_order=720))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, classes)) == 1455
    assert peak < 1_400_000, peak


@pytest.mark.parametrize("name", ["S4", "D4xQ8", "Z2^5", "S6"])
def test_packed_subgroups_answer_as_their_id_tuples(corpus, perm_group, name):
    """Every subgroup, held as packed ids, against the id tuple it was held as before: `ids`,
    `gens`, `in`, `contains_subgroup`, equality, hash and the canonical order."""
    g = corpus["S4"] if name == "S4" else direct_power(corpus["Z2"], 5) if name == "Z2^5" else perm_group(name)
    subs = enumerate_subgroups(g, caps=Caps(subgroup_order=720))
    table = g.table  # read after the enumeration, which reads columns only
    tuples = [IdTupleSubgroup(table, s.gens) for s in subs]
    assert [s.ids for s in subs] == [t.ids for t in tuples], name
    assert sorted(tuples, key=IdTupleSubgroup.canonical_key) == tuples, name
    assert _canonical(subs[::-1]) == subs, name
    assert all(type(x) is int for s in subs for x in s.ids + s.gens + tuple(s)), name
    assert all(t.ids == IdTupleSubgroup(table, t.ids).ids for t in tuples[:50]), name
    fresh = [Subgroup(g, t.ids) for t in tuples]  # no recorded gens: greedy ones
    assert [f.gens for f in fresh] == [tuple(t.greedy_gens) for t in tuples], name
    assert fresh == subs and [hash(f) for f in fresh] == [hash(s) for s in subs], name
    assert len(set(subs) | set(fresh)) == len({t.ids for t in tuples}) == len(subs), name
    assert all(len(s) == len(t.ids) and s.index == g.order // len(t.ids) for s, t in zip(subs, tuples)), name
    rng = np.random.default_rng(37)
    points = [-1, 0, g.order - 1, g.order, 1 << 15, 1 << 40, np.int64(1), np.int16(2)]
    for s, t in zip(subs, tuples):
        probe = points + rng.integers(0, g.order, 8).tolist()
        assert [x in s for x in probe] == [x in t for x in probe], (name, s)
    pairs = itertools.product(range(len(subs)), repeat=2)
    if len(subs) ** 2 > 40_000:
        pairs = zip(rng.integers(0, len(subs), 40_000).tolist(), rng.integers(0, len(subs), 40_000).tolist())
    for i, j in pairs:
        assert subs[i].contains_subgroup(subs[j]) == tuples[i].contains_subgroup(tuples[j]), (name, i, j)


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


def test_subgroup_cap_counts_every_conjugate(corpus):
    s4 = corpus["S4"]  # 30 subgroups in 11 classes, of up to 6 conjugates
    assert len(enumerate_subgroups(s4, max_count=30)) == 30
    for limit in range(1, 30):  # some limits fall inside a class
        with pytest.raises(CapExceeded) as info:
            enumerate_subgroups(s4, max_count=limit)
        assert (info.value.cap_name, info.value.limit, info.value.actual) == \
            ("subgroup_count", limit, limit + 1)


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


def test_spread_of_s4_x_z16_reads_columns_and_matches_per_element_oracle(corpus):
    g = direct_product(corpus["S4"], corpus["Z16"])  # order 384, above the size built with its table
    report = conjugate_spread(g)
    assert g._table is None and report.m == 8
    assert report == conjugate_spread_per_element(g)


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


def test_minimal_generator_count_matches_class_rep_search(corpus, perm_group):
    # D4xQ8 is left to the CI stretch step, which asserts the oracle's value 4:
    # the oracle alone takes about 2.5-4 s on it.
    for g in [g for _, g in corpus] + [perm_group("S5")]:
        assert minimal_generator_count(g) == minimal_generator_count_from_class_reps(g), g.name


def test_prufer_rank_matches_subgroups_as_groups(corpus):
    for g in [g for _, g in corpus] + [direct_power(corpus["Z2"], 4)]:
        assert prufer_rank(g) == prufer_rank_of_subgroup_groups(g), g.name


@pytest.mark.parametrize("name", ["S4", "D4"])
def test_relative_rank_is_rank_of_quotient(corpus, name):
    g = corpus[name]
    subgroups = enumerate_subgroups(g)
    for n in enumerate_normal_subgroups(g):
        for k in subgroups:
            if k.contains_subgroup(n):
                k_grp, _ = k.as_group()
                q, _ = quotient(k_grp, Subgroup(k_grp, _local_ids(k, n.ids)))
                assert _relative_rank(g, n, k) == minimal_generator_count_from_class_reps(q)


def test_minimal_generator_count_of_z2_9_builds_no_table(corpus):
    g = direct_power(corpus["Z2"], 9)
    assert minimal_generator_count(g) == 9 and g._table is None


def test_relative_rank_matches_all_powers_oracle(corpus, perm_group):
    groups = [(g, DEFAULT_CAPS) for _, g in corpus]
    groups += [(perm_group(name), DEFAULT_CAPS) for name in ("S5", "D4xQ8")]
    groups.append((perm_group("S6"), Caps(subgroup_order=1000)))
    groups += [(direct_power(corpus["Z2"], 5), DEFAULT_CAPS), (direct_power(corpus["Z3"], 4), DEFAULT_CAPS),
               (direct_product(corpus["Q8"], corpus["Z4"]), DEFAULT_CAPS),
               (direct_product(corpus["D4"], corpus["S3"]), DEFAULT_CAPS)]
    checked = 0
    for g, caps in groups:
        for k, *_ in _subgroup_classes(g, caps):
            for base in (g.trivial_subgroup(), core(g, k)):
                if prime_power_base(len(k) // len(base)) is not None:
                    assert _relative_rank(g, base, k) == relative_rank_by_all_powers(g, base, k), (g.name, k, base)
                    checked += 1
    assert checked == 1022  # of 2,014 (class representative, base) pairs


def test_rank_search_matches_least_coset_reps(corpus, perm_group):
    """The tree-ordered search over one element per coset, from k = 2 on a nonabelian quotient,
    finds the rank that the least coset representatives give, for every quotient of a class
    representative by the trivial group or its core whose order is not a prime power."""
    groups = [corpus[name] for name in ("S3", "S4", "A4", "A5", "Z12")] + [perm_group("S5")]
    groups += [direct_product(corpus["D4"], corpus["S3"]), direct_product(corpus["S3"], corpus["Z4"])]
    checked = 0
    for g in groups:
        for k, *_ in _subgroup_classes(g, DEFAULT_CAPS):
            for base in {b.ids: b for b in (core(g, k), g.trivial_subgroup())}.values():
                if len(k) > len(base) and prime_power_base(len(k) // len(base)) is None:
                    assert _rank_by_search(g, base, k) == rank_by_least_coset_reps(g, base, k), (g.name, k, base)
                    checked += 1
    assert checked == 54


def test_burnside_rank_matches_search_on_p_quotients(corpus):
    checked = 0
    for name, g in corpus:
        trivial = g.trivial_subgroup()
        for k in enumerate_subgroups(g):
            for base in (core(g, k), trivial):
                index = len(k) // len(base)
                p = next((q for q in range(2, index + 1) if index % q == 0), index)
                if index > 1 and split_prime_power(index, p)[1] == 1:
                    assert _relative_rank(g, base, k) == _rank_by_search(g, base, k), (name, k, base)
                    checked += 1
    assert checked == 231


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
        report = automorphism_group(g)
        for a in report.automorphisms:
            assert is_automorphism_all_pairs(g, a.mapping), name
            checked += 1
        maps = [a.mapping.tolist() for a in report.automorphisms]
        assert maps == sorted(maps), name
        # characteristic: every automorphism maps the subgroup onto itself, one map at a time
        assert report.characteristic == tuple(
            all({m[x] for x in sub.ids} == set(sub.ids) for m in maps) for sub in report.normal_subgroups), name
    assert checked > 120  # Aut(A5) alone has 120


def test_automorphism_group_orders(corpus):
    # S3xZ2 is the dihedral group of order 12; in both products some injective
    # generator-image maps are not homomorphisms
    cases = [(corpus["S3"], 6), (corpus["D4"], 8), (corpus["Q8"], 24),
             (direct_power(corpus["Z2"], 3), 168),
             (direct_product(corpus["S3"], corpus["Z2"]), 12),
             (direct_product(corpus["D4"], corpus["Z2"]), 64)]
    assert [len(automorphism_group(g).automorphisms) for g, _ in cases] == [n for _, n in cases]
