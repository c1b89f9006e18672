"""Direct products read through their factors' columns, against the whole-table path.

A direct product keeps its two factors and computes each column digit-wise
from theirs; the oracles of `oracles.py` build its table as one broadcast sum
and read quotients and subgroup closure off whole tables.  Both must agree on
columns, inverses, tables, quotients, element orders and subgroup validation.
"""

import json

import numpy as np
import pytest

from conftest import _PERM_GROUPS
from grouplab.cli import _tower_from_file
from grouplab.config import Caps
from grouplab.corpus import load_corpus
from grouplab.errors import ValidationError
from grouplab.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _greedy_generators,
    _Perms,
    direct_power,
    direct_product,
    quotient,
)
from grouplab.structure import enumerate_normal_subgroups, enumerate_subgroups
from oracles import product_table_by_broadcast, quotient_table_by_gather, subgroup_error_by_isin

_BIG = Caps(order=20_000)
_PRODUCTS = {  # name -> the factors, folded left as ((f0 x f1) x f2) x ...
    "A5xA5": ("A5", "A5"),
    "S3xZ4": ("S3", "Z4"),
    "S4xZ8": ("S4", "Z8"),
    "Q8xD4": ("Q8", "D4"),
    "V4xS3": ("Z2", "Z2", "S3"),
    "Z4^3": ("Z4", "Z4", "Z4"),
    "A4^3": ("A4", "A4", "A4"),  # nested, order 1,728: above one check block
}


def _product(corpus, name: str) -> FiniteGroup:
    first, *rest = factors = _PRODUCTS[name]
    if len(set(factors)) == 1:
        return direct_power(corpus[first], len(factors), caps=_BIG)
    grp = corpus[first]
    for f in rest:
        grp = direct_product(grp, corpus[f], caps=_BIG)
    return grp


def _oracle(corpus, name: str) -> FiniteGroup:
    """The same product from broadcast tables, folded the same way."""
    first, *rest = _PRODUCTS[name]
    grp = corpus[first]
    for f in rest:
        grp = FiniteGroup(product_table_by_broadcast(grp, corpus[f]), validate="basic", caps=_BIG)
    return grp


@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_product_columns_inverse_and_lazy_table_match_the_broadcast_table(corpus, name):
    g, t = _product(corpus, name), _oracle(corpus, name)
    small = g.order <= 256
    assert (g._table is not None) == small  # one check block: built with the group
    assert np.array_equal(g.inverse, t.inverse) and g.inverse.dtype == t.inverse.dtype
    rng = np.random.default_rng(5)
    for s in [0, 1, g.order - 1, *rng.integers(0, g.order, size=24).tolist()]:
        assert np.array_equal(g.right(s), t.table[:, s]), (name, s)
        assert np.array_equal(g.left(s), t.table[s]), (name, s)
    assert [g.element_order(x) for x in g.elements()] == [t.element_order(x) for x in t.elements()]
    assert (g._table is None) == (not small)  # every answer above came from columns
    copy = g._renamed("copy")  # a table the copy builds is kept where the original reads it
    assert np.array_equal(copy.table, t.table) and copy.table.dtype == t.table.dtype
    assert g.table is copy.table


@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_quotients_by_every_normal_subgroup_match_the_gather(corpus, name):
    g, t = _product(corpus, name), _oracle(corpus, name)
    normals = enumerate_normal_subgroups(g, caps=_BIG)
    assert len(normals) == {"A5xA5": 4, "S3xZ4": 11, "S4xZ8": 19, "Q8xD4": 91, "V4xS3": 21,
                             "Z4^3": 129, "A4^3": 53}[name]
    for n in normals:
        q, proj = quotient(g, n)
        table, mapping = quotient_table_by_gather(t.table, n.ids)
        assert np.array_equal(q.table, table) and np.array_equal(proj.mapping, mapping), (name, n)
    assert (g._table is None) == (g.order > 256)


def test_table_free_factor_s7_x_z2_builds_no_table(corpus, perm_group, monkeypatch):
    """S7 x Z2 (order 10,080) over a factor built from generators: columns, inverses,
    element orders, normal subgroups and quotients, with no table of S7 or of the product."""
    s7, z2 = perm_group("S7"), corpus["Z2"]
    g = direct_product(s7, z2, caps=_BIG)
    index = {s7.permutation_of(x): x for x in s7.elements()}

    def mul(u: int, v: int) -> int:  # (x1, y1)(x2, y2) through the permutations of S7
        (x1, y1), (x2, y2) = divmod(u, 2), divmod(v, 2)
        p, q = s7.permutation_of(x1), s7.permutation_of(x2)
        return 2 * index[tuple(p[i] for i in q)] + (y1 + y2) % 2

    for s in (1, 2, 3, 5039 * 2 + 1):
        xs = list(range(0, g.order, 37))
        assert g.right(s)[xs].tolist() == [mul(x, s) for x in xs]
        assert g.left(s)[xs].tolist() == [mul(s, x) for x in xs]
    assert all(mul(x, int(g.inverse[x])) == 0 for x in range(0, g.order, 11))
    assert g.exponent() == 420 and g.element_order(2 * 1 + 1) == 2
    normals = enumerate_normal_subgroups(g, caps=_BIG)
    assert sorted(len(n) for n in normals) == [1, 2, 2520, 5040, 5040, 5040, 10080]
    for n in normals:
        if len(n) > 2:
            q, proj = quotient(g, n)
            reps = np.unique(proj.mapping, return_index=True)[1]  # least id of each coset
            assert np.array_equal(reps, np.sort(reps)) and proj.kernel() == n
            GroupHom(g, q, proj.mapping, validate=True)
            assert q.table.tolist() == [[int(proj.mapping[mul(x, y)]) for y in reps] for x in reps]
    assert s7._table is None and s7._source.table is None and g._table is None
    # by the Z2 of the second factor: S7 itself, element for element, built from the rows
    # of the generators, so S7 computes no column per coset (5,040 would take 50.8 MB)
    composed, sift = [], _Perms.factors
    monkeypatch.setattr(_Perms, "factors", lambda self, s: composed.append(s) or sift(self, s))
    q, proj = quotient(g, next(n for n in normals if len(n) == 2))
    assert len(composed) <= 2 * len(_greedy_generators(g))  # at most both sides of each generator
    assert np.array_equal(proj.mapping, np.arange(g.order) // 2)
    assert np.array_equal(q.table, s7.table)


def test_element_order_reads_no_columns(perm_group, monkeypatch):
    for name, exponent in (("S7", 420), ("S6", 60)):
        g = perm_group(name)
        with monkeypatch.context() as patched:
            patched.setattr(_Perms, "column", lambda self, side, s: pytest.fail(f"{name}: column {side} {s}"))
            assert g.exponent() == exponent and g._table is None
    s6 = perm_group("S6")
    orders = [s6.element_order(x) for x in s6.elements()]
    walked = FiniteGroup(s6.table, validate="basic")  # the same ids; orders by walking its table
    assert orders == [walked.element_order(x) for x in walked.elements()]


def _candidate_id_sets(g: FiniteGroup, rng) -> list[list[int]]:
    """Subgroups, subgroups with one more element (with or without its inverse), and
    random sets holding 0."""
    out = []
    for sub in enumerate_subgroups(g):
        out.append(list(sub.ids))
        x = int(rng.integers(1, g.order))
        out.append(sorted(set(sub.ids) | {x}))
        out.append(sorted(set(sub.ids) | {x, int(g.inverse[x])}))
    for size in (2, 3, 4, g.order // 2):
        out.append(sorted({0, *rng.integers(1, g.order, size=size).tolist()}))
    return out


def test_subgroup_validation_on_generators_matches_isin(corpus):
    rng = np.random.default_rng(17)
    checked = {None: 0, "subgroup not closed under inversion": 0,
               "subgroup not closed under multiplication": 0}
    for g in (corpus["S4"], corpus["Q8"], corpus["D4"], _product(corpus, "S3xZ4")):
        for ids in _candidate_id_sets(g, rng):
            want = subgroup_error_by_isin(g, ids)
            try:
                sub = Subgroup(g, ids)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == want, (g.name, ids)
            checked[want] += 1
            if want is None:  # the greedy generators the check found are the subgroup's
                assert Subgroup(g, ids, validate=False).gens == sub.gens
    assert min(checked.values()) >= 20, checked


def test_tower_file_over_s6_builds_no_table(tmp_path, perm_group):
    degree, gens = _PERM_GROUPS["S6"]
    (tmp_path / "S6.json").write_text(json.dumps({"name": "S6", "degree": degree, "generators": gens}))
    s6 = perm_group("S6")
    perms = [s6.permutation_of(x) for x in s6.elements()]
    chain = [[x for x, p in enumerate(perms) if all(p[a] == a for a in range(depth))]
             for depth in range(4)]
    spec = tmp_path / "chain" / "tower.json"
    spec.parent.mkdir()
    spec.write_text(json.dumps({"group": "S6", "chain": chain}))
    corpus = load_corpus(tmp_path)
    system = _tower_from_file(str(spec), corpus, Caps())
    assert [level.order for level in system.levels] == [1, 720, 720, 720]
    assert corpus["S6"]._table is None and corpus["S6"]._source.table is None
