"""Groups built from generators, read through columns, against the whole-table path.

A group built from permutation generators keeps its permutations and computes
the columns it is asked for; the oracles of `oracles.py` close the generators
one product at a time and read a whole table.  Both must agree on element
ids, inverses, closures, class labels, coset representatives and pair counts.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

import grouplab.groups

from conftest import _PERM_GROUPS, s6_tower_levels
from grouplab.cli import _canonical_row
from grouplab.config import DEFAULT_CAPS, Caps
from grouplab.corpus import load_corpus
from grouplab.errors import CapExceeded, GroupLabError, ValidationError
from grouplab.groups import (
    FiniteGroup,
    _Perms,
    _class_labels,
    _closure_mask,
    _coset_reps,
    _orbit_minima,
    _perm_keys,
    build_group,
    commuting_pair_count,
    subgroup_closure,
)
from oracles import (
    chain_by_rows,
    class_labels_per_element,
    closure_mask_by_unique,
    column_by_key_search,
    columns_by_tree,
    commuting_pair_count_blockwise,
    coset_reps_by_gather,
    inverse_by_argsort,
    perm_closure_by_dict,
    perm_keys_by_digit_sum,
    table_by_columns,
)

_S7_TABLE_BYTES = 5040 * 5040 * 2  # one int16 Cayley table of S7: 50.8 MB
_LARGE = {  # name -> (degree, generators): a transposition and an 8-cycle; (0 1 2) and (1 2 3 4 5 6 7)
    "S8": (8, [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]),
    "A8": (8, [[1, 2, 0, 3, 4, 5, 6, 7], [0, 2, 3, 4, 5, 6, 7, 1]]),
}


def large_group(name: str) -> FiniteGroup:
    """S8 (order 40,320) or A8 (order 20,160), freshly built."""
    degree, gens = _LARGE[name]
    return build_group(generators=gens, degree=degree, name=name, caps=Caps(order=40320))


def _generator_groups(corpus, perm_group):
    """Freshly built: the bundled corpus, S5, S6, D4xQ8, A5xA5, S7 and the S6 tower levels."""
    for name, g in corpus.items():
        pg = g.perm_generators
        yield build_group(generators=pg.perms, degree=pg.degree, name=name)
    yield from (perm_group(name) for name in ("S5", "S6", "D4xQ8", "A5xA5", "S7"))
    yield from s6_tower_levels(perm_group("S6"))


def _gen_arrays(g: FiniteGroup) -> list[np.ndarray]:
    return [np.array(p, dtype=np.int32) for p in g.perm_generators.perms]


def test_layered_closure_keeps_the_queue_order_ids_and_inverses(corpus, perm_group):
    wide = build_group(generators=[[(x + 1) % 300 for x in range(300)]], degree=300, name="Z300")
    degrees = []
    for g in [*_generator_groups(corpus, perm_group), wide]:
        pg = g.perm_generators
        perms, index, _, _ = perm_closure_by_dict(_gen_arrays(g), pg.degree, Caps(order=10**5))
        assert [g.permutation_of(x) for x in g.elements()] == [tuple(p.tolist()) for p in perms], g.name
        assert g.inverse.tolist() == [index[np.argsort(p).astype(np.int32).tobytes()] for p in perms]
        assert list(pg.element_ids) == [index[p.tobytes()] for p in _gen_arrays(g)], g.name
        degrees.append(pg.degree)
    assert {7, 37, 157, 300} <= set(degrees)  # int64 keys, byte keys, uint16 points
    assert wide._source.perms.dtype == np.uint16


def test_scatter_inverse_matches_argsort(perm_group):
    # D300 on 300 points: uint16 rows, scattered in uint16
    d300 = build_group(generators=[[(x + 1) % 300 for x in range(300)], [(-x) % 300 for x in range(300)]],
                       degree=300, name="D300")
    for g in [*(perm_group(name) for name in _PERM_GROUPS), d300]:
        assert g.inverse.dtype == grouplab.groups._id_dtype(g.order), g.name
        assert np.array_equal(g.inverse, inverse_by_argsort(g)), g.name
    assert d300.order == 600 and d300._source.perms.dtype == np.uint16


def test_chain_is_read_off_the_rows(corpus, perm_group):
    """Level i holds the least element fixing points 0..i-1 for each image of point i, and the
    factors of every element (every 7th above order 720) are one element a level, identity ones
    left out, whose product is the element."""
    for g in [*_generator_groups(corpus, perm_group), large_group("A8")]:
        source, perms = g._source, g._source.perms
        levels = chain_by_rows(perms)
        assert [{b: u for b, u in enumerate(level) if u < g.order} for level in source.chain] == levels, g.name
        for s in range(g.order) if g.order <= 720 else range(0, g.order, 7):
            factors, row = source.factors(s), np.arange(perms.shape[1])
            for u in factors:
                row = row[perms[u]]  # (p * u)(x) = p(u(x))
            assert np.array_equal(row, perms[s]), (g.name, s)
            at = [next(i for i, level in enumerate(levels) if u in level.values()) for u in factors]
            assert at == sorted(set(at)) and 0 not in factors, (g.name, s)


def _replaced(g: FiniteGroup, rng: np.random.Generator, steps: int = 4) -> FiniteGroup:
    """The same group from generators changed by product replacement, g_i -> g_i g_j or g_j g_i
    for some j != i, so that its breadth-first tree differs from that of its own generators."""
    gens = _gen_arrays(g)
    for _ in range(steps):
        i, j = rng.choice(len(gens), size=2, replace=False)
        gens[i] = gens[i][gens[j]] if rng.integers(2) else gens[j][gens[i]]
    return build_group(generators=[p.tolist() for p in gens], degree=g.perm_generators.degree,
                       name=f"{g.name}'")


def _no_key_search(self, rows):
    raise GroupLabError("a key search")


def _transversals(g: FiniteGroup) -> set[int]:
    """The transversal elements of every level of the chain, the identity included."""
    return {u for level in g._source.chain for u in level if u < g.order}


def _pin_transversals(g: FiniteGroup) -> dict:
    """Read the columns of the identity, the generators and every transversal element, both sides;
    the pinned columns after."""
    source = g._source
    for s in {0, *source.gens, *_transversals(g)}:
        for side in ("right", "left"):
            source.column(side, s)
    return dict(source.pinned)


def chain_columns_agree(g: FiniteGroup, every: Iterable[int], monkeypatch) -> None:
    """Once the transversal columns are pinned, the columns of the elements `every`, both sides,
    form no key and pin nothing more, are read-only in the id dtype, and equal both the ones
    composed along the closure's breadth-first tree and the ones a key search finds."""
    source, pinned = g._source, _pin_transversals(g)
    with monkeypatch.context() as patched:
        patched.setattr(_Perms, "ids_of", _no_key_search)
        cols = {(side, s): source.column(side, s) for s in every for side in ("right", "left")}
    assert source.pinned.keys() == pinned.keys(), g.name
    for (side, s), want in columns_by_tree(g, every).items():
        col = cols[side, s]
        assert np.array_equal(col, want), (g.name, side, s)
        assert np.array_equal(col, column_by_key_search(source, side, s)), (g.name, side, s)
        assert col.dtype == g.inverse.dtype and not col.flags.writeable, (g.name, side, s)


def test_chain_columns_match_the_tree_and_the_key_search(perm_group, monkeypatch):
    """For the named groups, the same groups from product-replaced generators (other trees, other
    generator ids), the S6 tower levels (two of degree above `_KEY_DEGREE`, with byte keys), and a
    sample of S8 and A8: every element up to order 720, every 7th above."""
    rng = np.random.default_rng(23)
    named = [perm_group(name) for name in _PERM_GROUPS]
    replaced = [_replaced(g, rng) for g in named]
    assert [h.order for h in replaced] == [g.order for g in named]
    for g in [*named, *replaced, *s6_tower_levels(perm_group("S6"))]:
        chain_columns_agree(g, range(g.order) if g.order <= 720 else range(0, g.order, 7), monkeypatch)
    for name in _LARGE:  # every 7th of these is a CI step: 2 minutes of key searches
        g = large_group(name)
        chain_columns_agree(g, range(0, g.order, 7 * 97), monkeypatch)


def test_pinned_columns_are_the_transversals_once(perm_group):
    """Only the columns of the identity, the generators and the transversal elements are kept,
    each the same object on every read; a composed column is made anew on each read, equal."""
    rng = np.random.default_rng(29)
    for g in [perm_group("S7"), perm_group("A5xA5"), large_group("S8")]:
        source, pinned = g._source, _pin_transversals(g)
        assert pinned.keys() == {(side, s) for s in {0, *source.gens, *_transversals(g)}
                                 for side in ("right", "left")}, g.name
        for s in rng.choice(g.order, size=40, replace=False).tolist():
            for side in ("right", "left"):
                col = source.column(side, s)
                again = source.column(side, s)
                assert np.array_equal(col, again), (g.name, side, s)
                assert (col is again) == ((side, s) in pinned), (g.name, side, s)
        assert source.pinned.keys() == pinned.keys(), g.name
        assert all(source.pinned[key] is col for key, col in pinned.items()), g.name
    assert len(_transversals(large_group("S8")) - {0}) == 7 + 6 + 5 + 4 + 3 + 2 + 1


def test_threads_read_the_columns_of_one_thread(monkeypatch):
    """Four threads reading columns of one fresh A5xA5 and one fresh S8, each pinning what it
    reads first, get the columns one thread reads from another copy of the group."""
    rng = np.random.default_rng(31)
    for build in (lambda: build_group(generators=_PERM_GROUPS["A5xA5"][1], degree=10, name="A5xA5"),
                  lambda: large_group("S8")):
        one, shared = build(), build()
        sample = rng.choice(one.order, size=24, replace=False).tolist()
        expected = {(side, s): one._source.column(side, s) for s in sample for side in ("right", "left")}
        keys = list(expected) * 4
        reads = [[keys[i] for i in rng.permutation(len(keys))] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the pinning too
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                wrong = pool.map(lambda order: [key for key in order if not np.array_equal(
                    shared._source.column(*key), expected[key])], reads, timeout=120)
                assert list(wrong) == [[]] * 4, one.name
        finally:
            sys.setswitchinterval(interval)


def _table_path(g: FiniteGroup) -> FiniteGroup:
    """The same group from its whole table, filled by the column-by-column oracle."""
    table = table_by_columns(_gen_arrays(g), g.perm_generators.degree, Caps(order=10**5))
    return FiniteGroup(table, name=g.name, validate="basic", caps=Caps(order=10**5))


def test_column_path_matches_table_path(corpus, perm_group):
    rng = np.random.default_rng(11)
    for g in _generator_groups(corpus, perm_group):
        t = _table_path(g)
        assert np.array_equal(g.inverse, t.inverse), g.name
        assert np.array_equal(_class_labels(g), class_labels_per_element(t)), g.name
        assert commuting_pair_count(g) == commuting_pair_count_blockwise(t), g.name
        for _ in range(4):
            gens = rng.integers(0, g.order, size=rng.integers(0, 3)).tolist()
            start = rng.integers(0, g.order, size=rng.integers(1, 3)).tolist()
            assert np.array_equal(_closure_mask(g, gens, start),
                                  closure_mask_by_unique(t.table, gens, start)), (g.name, gens, start)
            # cyclic subgroups everywhere, and two-generated ones up to order 720
            sub = subgroup_closure(g, gens[:1] if g.order > 720 else gens)
            reps = coset_reps_by_gather(t, sub.ids)
            orbits = _orbit_minima([g.right(s) for s in sub.gens], g.order)  # at every order
            assert np.array_equal(_coset_reps(sub), reps) and np.array_equal(orbits, reps), g.name
        for s in (*g.perm_generators.element_ids, g.order - 1):
            assert np.array_equal(g.right(s), t.table[:, s]) and np.array_equal(g.left(s), t.table[s])
        if g.order > 720:
            assert g._table is None, g.name  # every answer above came from columns


def test_perm_keys_sum_one_column_at_a_time(perm_group):
    """The Horner keys equal the digit-sum keys on every stretch group and on S8, and on S8's
    40,320 rows hold about one int64 per row, where the digit sum peaks at 2.9 MB."""
    s8 = build_group(generators=[[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]], degree=8,
                     name="S8", caps=Caps(order=40320))
    for g in [perm_group(name) for name in _PERM_GROUPS] + [s8]:
        rows = g._source.perms
        assert np.array_equal(_perm_keys(rows), perm_keys_by_digit_sum(rows)), g.name
    tracemalloc.start()
    try:
        _perm_keys(s8._source.perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_large_neumann_rows_build_no_table(tmp_path):
    """Loading A5xA5 and S7 from generator files and answering `neumann` for them needs
    less memory than one table of S7, and leaves both groups without a table."""
    for name in ("A5xA5", "S7"):
        degree, gens = _PERM_GROUPS[name]
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"name": name, "degree": degree, "generators": gens}), encoding="utf-8")
    tracemalloc.start()
    try:
        corpus = load_corpus(tmp_path)
        rows = [_canonical_row(name, g, DEFAULT_CAPS, full=False) for name, g in corpus.items()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r["name"], r["pairs"], r["neumann_value"]) for r in rows] == \
        [("A5xA5", 25 * 3600, 3600 ** 2), ("S7", 15 * 5040, 2520)]
    for _, g in corpus.items():
        assert g._table is None and g._source.table is None, g.name
    assert peak < _S7_TABLE_BYTES


def test_a_chain_of_one_long_orbit_reads_its_columns_from_its_table(perm_group):
    """Z1000 given as one 1000-cycle: its chain is one level whose orbit is the whole group, so its
    transversal columns, both sides, would be two tables.  It builds its one table when it is
    built, reads every column from it and pins nothing beyond the generators' columns."""
    n = 1000
    g = build_group(generators=[[(x + 1) % n for x in range(n)]], degree=n, name="Z1000", caps=Caps(order=n))
    assert g._table is not None
    xs = np.arange(n)
    for s in range(n):  # element s is the shift by s
        assert np.array_equal(g.right(s), (xs + s) % n) and np.array_equal(g.left(s), (xs + s) % n), s
    assert commuting_pair_count(g) == n * n
    assert g._source.pinned.keys() <= {(side, s) for s in (0, *g._source.gens) for side in ("right", "left")}
    for name in _PERM_GROUPS:  # short orbits: few transversals, so a table only within one check block
        h = perm_group(name)
        assert (h._table is not None) == (h.order ** 2 <= 1 << 16), name


def test_renamed_table_free_group_keeps_its_columns(perm_group):
    g = perm_group("S6")
    copy = g._renamed("T")
    assert copy.perm_generators is None and copy._table is None
    with pytest.raises(ValidationError, match="no permutation presentation"):
        copy.permutation_of(1)
    for s in (1, 7, 719):
        assert np.array_equal(copy.right(s), g.right(s)) and np.array_equal(copy.left(s), g.left(s))
    assert copy.table is g.table  # built once, for both


def test_layered_closure_raises_at_the_cap_with_the_queue_text():
    gens = [[1, 0, 2, 3], [1, 2, 3, 0]]  # S4
    arrays = [np.array(p, dtype=np.int32) for p in gens]
    for k in range(1, 24):
        with pytest.raises(CapExceeded) as layered:
            build_group(generators=gens, degree=4, caps=Caps(order=k))
        with pytest.raises(CapExceeded) as queued:
            perm_closure_by_dict(arrays, 4, Caps(order=k))
        assert str(layered.value) == str(queued.value) == \
            f"cap 'order' exceeded: {k + 1} > {k} (permutation closure)"
    assert build_group(generators=gens, degree=4, caps=Caps(order=24)).order == 24


_WRONG_COLUMNS = textwrap.dedent("""
    import numpy as np
    from conftest import _PERM_GROUPS
    from grouplab.errors import GroupLabError
    from grouplab.groups import _greedy_generators, build_group

    class Fixed:  # every column is the identity's, so no element covers itself
        def column(self, side, s):
            return np.arange(720)

    degree, gens = _PERM_GROUPS["S6"]
    g = build_group(generators=gens, degree=degree, name="S6")
    g._source, g._gens = Fixed(), None
    try:
        _greedy_generators(g)
    except GroupLabError as exc:
        print(exc)
""")


def test_greedy_generators_fail_on_wrong_columns_instead_of_hanging():
    # in a child with a timeout: a search that loops for ever fails the test instead of hanging it
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    out = subprocess.run([sys.executable, "-c", _WRONG_COLUMNS], env=env, capture_output=True, text=True,
                         timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "S6: generator 1 is not in the closure it generates; wrong columns\n"
