import hashlib
import importlib
import json
import sys
import tracemalloc

import pytest

from grouplab import boolpower, groups
from grouplab.cli import main
from grouplab.config import Caps
from grouplab.corpus import Corpus, bundled_corpus, load_corpus, load_group_file, save_corpus
from grouplab.errors import CapExceeded, ValidationError
from grouplab.groups import commuting_pair_count, is_nilpotent


def test_bundled_corpus_contents(corpus):
    names = set(corpus.names())
    assert {"S3", "Q8", "V4", "A4", "S4", "A5", "Heis27", "M27", "D4"} <= names
    assert all(f"Z{n}" in names for n in range(1, 17))
    index = corpus.index()
    assert index == sorted(index, key=lambda kv: (kv[1], kv[0]))


def test_extraspecial_shape(corpus):
    from grouplab.groups import center, commutator_subgroup

    for name in ("D4", "Q8", "Heis27", "M27"):
        g = corpus[name]
        whole = g.whole_subgroup()
        derived = commutator_subgroup(whole, whole)
        z = center(g)
        p = 2 if g.order == 8 else 3
        assert len(derived) == p
        assert z == derived
        assert is_nilpotent(g)
    assert corpus["Heis27"].exponent() == 3
    assert corpus["M27"].exponent() == 9


def test_corpus_roundtrip(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    loaded = load_corpus(tmp_path / "corpus")
    assert loaded.names() == corpus.names()
    for name, g in corpus:
        assert loaded[name].order == g.order
        assert commuting_pair_count(loaded[name]) == commuting_pair_count(g)


def test_corpus_roundtrip_of_a_table_group(tmp_path, corpus):
    table = corpus["S3"].table.tolist()
    save_corpus(Corpus({"T6": groups.FiniteGroup(table, name="T6")}), tmp_path / "corpus")
    assert set(json.loads((tmp_path / "corpus" / "T6.json").read_text())) == {"name", "order", "table"}
    assert load_corpus(tmp_path / "corpus")["T6"].table.tolist() == table


def test_load_table_form(tmp_path, corpus):
    payload = {"name": "S3copy", "order": 6, "table": corpus["S3"].table.tolist()}
    path = tmp_path / "S3copy.json"
    path.write_text(json.dumps(payload))
    g = load_group_file(path)
    assert g.order == 6


def test_load_errors_name_the_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "order": 2, "table": [[0, 1], [1, 1]]}))
    with pytest.raises(ValidationError) as err:
        load_group_file(bad)
    assert "bad.json" in str(err.value)


def test_load_rejects_duplicates(tmp_path, corpus):
    root = tmp_path / "c"
    root.mkdir()
    payload = {"name": "dup", "order": 1, "table": [[0]]}
    (root / "a.json").write_text(json.dumps(payload))
    (root / "b.json").write_text(json.dumps(payload))
    (root / "index.json").write_text(json.dumps(
        [{"name": "dup", "order": 1, "file": "a.json"},
         {"name": "dup", "order": 1, "file": "b.json"}]))
    with pytest.raises(ValidationError):
        load_corpus(root)


def test_empty_corpus_warns(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    with pytest.warns(UserWarning):
        loaded = load_corpus(root)
    assert len(loaded) == 0


def _run(tmp_path, args, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_cli_analyze_trivial_group(tmp_path):
    code, text = _run(tmp_path, ["analyze-group", "--group", "Z1"])
    assert code == 0
    payload = json.loads(text)
    item = payload["items"][0]
    assert item["pairs"] == 1
    assert item["fraction"] == "1/1"
    assert payload["version"]


_BUNDLED_FORMS = [  # one bundled form of each subcommand
    ["analyze-group"], ["neumann"], ["rho", "--kind", "com"], ["verify-inequalities"],
    ["inverse-system"], ["boolean-power", "--base", "S3", "--atoms", "1"], ["ring-from-module"],
]


_PER_MEMBER = ("analyze-group", "neumann", "verify-inequalities")  # read each member in its own item


@pytest.mark.parametrize("cap", [3, 5])
@pytest.mark.parametrize("argv", _BUNDLED_FORMS, ids=lambda argv: argv[0])
def test_cli_small_order_cap_names_the_order_cap(tmp_path, capsys, argv, cap):
    code = main(argv + ["--cap-order", str(cap), "--out", str(tmp_path / "x")])
    text = f"cap 'order' exceeded: {cap + 1} > {cap} (permutation closure)"
    if argv[0] == "rho":
        # each order fails on its first member above the cap, and the orders within it are reported
        assert code == 2 and capsys.readouterr().err == ""
        payload, orders = json.loads((tmp_path / "x").read_text()), sorted({o for _, o in bundled_corpus().index()})
        assert payload["errors"] == [{"item": f"order {o}", "error": text} for o in orders if o > cap]
        assert [row["order"] for row in payload["items"]] == [o for o in orders if o <= cap]
        return
    if argv[0] not in _PER_MEMBER:
        # the whole job fails on the first bundled member above the cap, in builder order, Z(cap + 1)
        assert code == 1
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not (tmp_path / "x").exists()
        return
    # each member above the cap fails its own item, and the others are reported
    assert code == 2 and capsys.readouterr().err == ""
    payload, corpus = json.loads((tmp_path / "x").read_text()), bundled_corpus()
    above = [name for name, order in corpus.index() if order > cap]
    assert payload["errors"] == [{"item": name, "error": text} for name in above]
    if argv[0] != "verify-inequalities":
        assert [row["name"] for row in payload["items"]] == [name for name, order in corpus.index()
                                                             if order <= cap]
    else:
        assert sorted({row["order"] for row in payload["items"]}) == [o for o in (2, 3, 4, 5) if o <= cap]


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """The names `build_group` is called with from here on, in every grouplab module that binds it."""
    for short in ("cli", "corpus", "measure", "towers", "boolpower", "modring"):
        importlib.import_module(f"grouplab.{short}")
    calls, original = [], groups.build_group

    def counted(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("grouplab") and getattr(module, "build_group", None) is original:
            monkeypatch.setattr(module, "build_group", counted)
    return calls


def test_bundled_corpus_matches_the_eager_build():
    from oracles import bundled_corpus_eager

    eager, lazy = bundled_corpus_eager(), bundled_corpus()
    assert (lazy.names(), lazy.index(), len(lazy)) == (eager.names(), eager.index(), len(eager))
    assert all(name in lazy for name in eager.names()) and "Z17" not in lazy
    for (name, g), (lazy_name, h) in zip(eager.items(), lazy.items()):
        assert (lazy_name, h.name, h.order) == (name, g.name, g.order)
        assert h.table.dtype == g.table.dtype and h.table.tobytes() == g.table.tobytes(), name


def test_bundled_corpus_builds_a_member_on_first_read(built):
    corpus = bundled_corpus()
    assert built == [] and len(corpus) == 25 and corpus.index()[-1] == ("A5", 60)
    a5 = corpus["A5"]
    assert built == ["A5"] and a5.order == 60
    assert corpus["A5"] is a5 and built == ["A5"]
    with pytest.raises(ValidationError, match="unknown group 'Z17'"):
        corpus["Z17"]
    assert built == ["A5"]


def test_bundled_corpus_checks_the_order_cap_on_a_members_first_read(built):
    corpus = bundled_corpus(caps=Caps(order=24))  # A5 (60) is above the cap, and not read yet
    assert built == [] and corpus.index()[-1] == ("A5", 60)
    with pytest.raises(CapExceeded, match=r"^cap 'order' exceeded: 25 > 24 \(permutation closure\)$"):
        corpus["A5"]
    assert built == ["A5"]
    assert corpus["S4"].order == 24 and built == ["A5", "S4"]


@pytest.mark.parametrize("argv, cap", [
    (["boolean-power", "--spec", "{spec}"], 59),  # reads no bundled group
    (["ring-from-module", "--example", "swap-gf3"], 30),  # reads Z2 and S3
], ids=["boolean-power", "ring-from-module"])
def test_cli_order_cap_fails_only_the_members_a_job_reads(tmp_path, capsys, argv, cap):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"field": "GF9", "atoms": 3, "constraints": [{"points": [0], "subfield": "GF3"}]}))
    argv = [a.replace("{spec}", str(spec)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert main(argv + ["--cap-order", str(cap), "--out", str(tmp_path / "capped")]) == 0
    assert capsys.readouterr().err == ""
    items = [json.loads((tmp_path / name).read_text())["items"] for name in ("plain", "capped")]
    assert items[0] and items[1] == items[0]


def test_cli_spec_and_action_file_build_only_what_they_read(tmp_path, built):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"field": "GF9", "atoms": 3, "constraints": [{"points": [0], "subfield": "GF3"}]}))
    assert main(["boolean-power", "--spec", str(spec), "--out", str(tmp_path / "bp")]) == 0
    assert built == []
    action = tmp_path / "action.json"
    shift = [[int(j == (i + 1) % 4) for j in range(4)] for i in range(4)]
    action.write_text(json.dumps({"group": "Z4", "p": 5, "dim": 4, "matrices": {"1": shift}}))
    assert main(["ring-from-module", "--action-file", str(action), "--out", str(tmp_path / "ring")]) == 0
    assert built == ["Z4"]


def test_cli_empty_corpus_warns_in_one_line(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    code = main(["analyze-group", "--corpus", str(root), "--out", str(tmp_path / "x")])
    assert code == 0
    assert capsys.readouterr().err == f"warning: corpus directory {root} is empty\n"
    assert json.loads((tmp_path / "x").read_text())["items"] == []


def test_cli_bundled_towers_read_the_given_corpus_even_when_empty(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    code = main(["inverse-system", "--corpus", str(root), "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == (f"warning: corpus directory {root} is empty\n"
                                       "error: unknown group 'Z8'\n")
    assert not (tmp_path / "x").exists()


def test_cli_unknown_group(tmp_path):
    code = main(["analyze-group", "--group", "Nope", "--out", str(tmp_path / "x")])
    assert code == 1


def test_cli_partial_failure_exit_code(tmp_path):
    out = tmp_path / "partial"
    code = main(["analyze-group", "--group", "S3", "--group", "Nope", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert len(payload["items"]) == 1
    assert payload["errors"][0]["item"] == "Nope"


def test_cli_csv_schema(tmp_path):
    code, text = _run(tmp_path, ["analyze-group", "--group", "S3", "--format", "csv"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == ("name,order,pairs,fraction,neumann_k_size,neumann_n_index,"
                        "neumann_value,rho_r,rho_wedge")
    assert lines[1].startswith("S3,6,18,1/2,3,1,3,1,")


def test_cli_rho_golden(tmp_path, corpus):
    # golden values derived from the double-loop oracle
    from oracles import double_loop_commuting_count

    golden = {}
    for name, g in corpus:
        if g.order <= 24:
            count = double_loop_commuting_count(g)
            golden[g.order] = min(golden.get(g.order, count), count)
    code, text = _run(tmp_path, ["rho", "--kind", "com", "--max-order", "24"])
    assert code == 0
    items = json.loads(text)["items"]
    got = {row["order"]: row["value"] for row in items}
    for order in range(1, 25):
        assert got[order] == golden.get(order, "inf")


def test_cli_rho_r_golden(tmp_path, corpus):
    # golden values from the oracle that builds every H/core(H) as a group
    from oracles import group_rank_bound_of_quotients

    golden = {}
    for name, g in corpus:
        if g.order <= 24:
            rank = group_rank_bound_of_quotients(g)
            golden[g.order] = max(golden.get(g.order, rank), rank)
    code, text = _run(tmp_path, ["rho", "--kind", "r", "--max-order", "24"])
    assert code == 0
    items = json.loads(text)["items"]
    got = {row["order"]: row["value"] for row in items}
    assert got == {order: golden.get(order, "inf") for order in range(1, 25)}


def test_cli_rho_fails_one_order_at_a_time(tmp_path, corpus, perm_group, built):
    """S6 is over the default `subgroup_order` cap, so `rho --kind r` fails order 720 alone and
    reports order 6, with no partial value.  Bundled members above --max-order are never built."""
    save_corpus(Corpus({"S3": corpus["S3"], "S6": perm_group("S6")}), tmp_path / "corpus")
    code, text = _run(tmp_path, ["rho", "--kind", "r", "--corpus", str(tmp_path / "corpus")])
    payload = json.loads(text)
    assert code == 2
    assert [(row["order"], row["value"]) for row in payload["items"]] == [(6, 1)]
    assert payload["errors"] == [{"item": "order 720", "error": "cap 'subgroup_order' exceeded: 720 > 512"}]
    built.clear()
    code, text = _run(tmp_path, ["rho", "--kind", "r", "--max-order", "6"])
    assert code == 0 and len(json.loads(text)["items"]) == 6
    assert built == [name for name, order in corpus.index() if order <= 6]


@pytest.mark.parametrize("value", ["0", "-3", "100001", "2000000"])
def test_cli_rho_max_order_out_of_range_is_rejected(tmp_path, capsys, value):
    code = main(["rho", "--kind", "com", "--max-order", value, "--out", str(tmp_path / "out")])
    assert code == 1 and not (tmp_path / "out").exists()
    assert capsys.readouterr().err == "error: --max-order must be in 1..100000\n"


def test_cli_no_floats_anywhere(tmp_path):
    for args in (["analyze-group"], ["rho", "--kind", "com"], ["inverse-system"]):
        code, text = _run(tmp_path, args)
        assert code == 0

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(text))


def test_cli_verify_inequalities_with_beta(tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps({"0": 1, "1": 2, "2": 6}))
    code, text = _run(tmp_path, [
        "verify-inequalities", "--group", "S3", "--beta-table", str(beta)])
    assert code == 0
    items = json.loads(text)["items"]
    row = next(r for r in items if r["ineq"] == 1 and r["order"] == 6)
    assert row["passed"] is True
    assert row["lhs"] == "9/1"


def test_cli_ring_from_module(tmp_path):
    code, text = _run(tmp_path, ["ring-from-module"])
    assert code == 0
    items = {r["action"]: r for r in json.loads(text)["items"]}
    assert items["swap-gf3"]["mr_factor_sizes"] == "3,3"
    assert items["regular-gf2"]["nilpotent_witness"] == "1,1"
    assert items["s3-std-gf5"]["well_defined"] is False


def test_cli_action_file(tmp_path):
    spec = tmp_path / "action.json"
    spec.write_text(json.dumps({
        "group": "Z2", "p": 3, "dim": 2,
        "matrices": {"1": [[0, 1], [1, 0]]},
        "v": [1, 0],
    }))
    code, text = _run(tmp_path, ["ring-from-module", "--action-file", str(spec)])
    assert code == 0
    item = json.loads(text)["items"][0]
    assert item["well_defined"] is True
    assert item["mr_factor_sizes"] == "3,3"


@pytest.mark.parametrize("subcommand, flag, name, key", [
    ("inverse-system", "--tower", "z8-chain", "tower"),
    ("ring-from-module", "--example", "swap-gf3", "action"),
])
def test_cli_one_bundled_item_gives_its_rows_of_the_full_run(tmp_path, subcommand, flag, name, key):
    code, full = _run(tmp_path, [subcommand], "full")
    assert code == 0
    code, one = _run(tmp_path, [subcommand, flag, name], "one")
    assert code == 0
    rows = [row for row in json.loads(full)["items"] if row[key] == name]
    assert rows and json.loads(one)["items"] == rows


@pytest.mark.parametrize("subcommand, flag, kind, names", [
    ("inverse-system", "--tower", "tower", ["a5-square", "s3-cosets", "z8-chain"]),
    ("ring-from-module", "--example", "example", ["regular-gf2", "s3-std-gf5", "swap-gf3"]),
])
def test_cli_unknown_bundled_item_is_one_error_line(tmp_path, capsys, subcommand, flag, kind, names):
    assert main([subcommand, flag, "nope", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: unknown {kind} 'nope'; bundled: {names}\n"


def test_cli_action_file_without_v_takes_the_first_spanning_vector(tmp_path, corpus):
    from grouplab.modring import action_from_matrices
    from oracles import orbit_span_by_rank

    rotate = {"1": [[0, 1], [2, 0]]}
    action = action_from_matrices(corpus["Z4"], 3, 2, {1: rotate["1"]})
    v = next(vec for vec in action.vectors() if orbit_span_by_rank(action, vec).spans)
    reports = []
    for payload in ({}, {"v": list(v)}):
        spec = tmp_path / "rotate.json"
        spec.write_text(json.dumps({"group": "Z4", "p": 3, "dim": 2, "matrices": rotate, **payload}))
        code, text = _run(tmp_path, ["ring-from-module", "--action-file", str(spec)])
        assert code == 0
        reports.append(json.loads(text)["items"])
    assert v == (0, 1) and reports[0] == reports[1]


def test_cli_action_file_with_no_spanning_vector_is_one_error_line(tmp_path, capsys):
    spec = tmp_path / "trivial.json"
    spec.write_text(json.dumps({"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[1, 0], [0, 1]]}}))
    assert main(["ring-from-module", "--action-file", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: no vector has spanning translates\n"


def test_cli_tower_file_chain_form(tmp_path, corpus):
    z8 = corpus["Z8"]
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({
        "group": "Z8",
        "chain": [list(z8.elements()), [0, 2, 4, 6], [0, 4], [0]],
    }))
    code, text = _run(tmp_path, ["inverse-system", "--tower-file", str(spec)])
    assert code == 0
    items = json.loads(text)["items"]
    assert [r["order"] for r in items] == [1, 2, 4, 8]
    assert all(r["monotone"] for r in items)


def test_cli_tower_file_levels_form(tmp_path):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({
        "levels": ["Z2", "Z4"],
        "projections": [[0, 1, 0, 1]],
    }))
    code, text = _run(tmp_path, ["inverse-system", "--tower-file", str(spec)])
    assert code == 0
    items = json.loads(text)["items"]
    assert [r["order"] for r in items] == [2, 4]


def test_cli_custom_corpus_dir(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    code, text = _run(tmp_path, [
        "analyze-group", "--group", "Q8", "--corpus", str(tmp_path / "corpus")])
    assert code == 0
    assert json.loads(text)["items"][0]["pairs"] == 40


def test_cli_boolean_power_exit_and_fields(tmp_path):
    code, text = _run(tmp_path, ["boolean-power", "--base", "Z4", "--atoms", "2"])
    assert code == 0
    payload = json.loads(text)
    assert all(not r["correspondence_matches"] for r in payload["items"])
    assert all(r["iso_verified"] for r in payload["items"])


def test_cli_boolean_power_materializes_the_power_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return materialize(*args, **kwargs)

    materialize = boolpower.materialize_bp_group
    # the CLI imports it from boolpower when the handler runs
    monkeypatch.setattr(boolpower, "materialize_bp_group", counted)
    code = main(["boolean-power", "--base", "S3", "--atoms", "2", "--out", str(tmp_path / "out")])
    assert code == 0 and len(calls) == 1
    # the same bytes as when every call materialised its own power
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == (
        "8cf7b9e359e3839a74e6f756dffc2b6f625de96d7676ed28d9df0430348af978")


def _count_tables(monkeypatch) -> tuple[list[int], list[int]]:
    """The orders of the groups `FiniteGroup.__init__` builds, and of every table checked:
    each table given to `__init__` and each built lazily by `FiniteGroup.table`."""
    inits, tables = [], []

    def counted_init(self, table, **kwargs):
        init(self, table, **kwargs)
        inits.append(self.order)

    def counted_inverse(table):
        tables.append(table.shape[0])
        return table_inverse(table)

    init, table_inverse = groups.FiniteGroup.__init__, groups._table_inverse
    monkeypatch.setattr(groups.FiniteGroup, "__init__", counted_init)
    monkeypatch.setattr(groups, "_table_inverse", counted_inverse)
    return inits, tables


def test_cli_boolean_power_builds_no_table_of_the_power_order(tmp_path, monkeypatch):
    inits, tables = _count_tables(monkeypatch)
    code = main(["boolean-power", "--base", "A5", "--atoms", "2", "--out", str(tmp_path / "out")])
    # A5^2 reads its columns from A5's; its quotients' tables are filled from its generators' rows
    assert code == 0 and inits.count(3600) == 0 and tables.count(3600) == 0
    assert 60 in inits  # the counters see the quotients' tables
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == (
        "592d42569b785d6016248c62c9cc24f31ce9b56d4b665f26fae41ca01e4fb6fb")


def test_cli_bundled_towers_build_no_table_of_the_a5_square_order(tmp_path, monkeypatch):
    inits, tables = _count_tables(monkeypatch)
    code = main(["inverse-system", "--out", str(tmp_path / "out")])
    rows = json.loads((tmp_path / "out").read_text())["items"]
    assert code == 0 and [r["order"] for r in rows if r["tower"] == "a5-square"] == [60, 3600]
    assert inits.count(3600) == 0 and tables.count(3600) == 0 and 60 in tables


def test_cli_boolean_power_a5_square_stays_under_one_power_table(tmp_path):
    """The whole `boolean-power --base A5 --atoms 2` flow allocates less than a third
    of one int16 table of A5^2 (25.9 MB)."""
    tracemalloc.start()
    try:
        code = main(["boolean-power", "--base", "A5", "--atoms", "2", "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 8 * 2**20


def test_cli_boolean_power_spec_file(tmp_path):
    spec = tmp_path / "bp.json"
    spec.write_text(json.dumps({"base_group": "S3", "atoms": 2}))
    code, text = _run(tmp_path, ["boolean-power", "--spec", str(spec)])
    assert code == 0
    assert len(json.loads(text)["items"]) == 4


def test_cli_filtered_power_spec_file(tmp_path):
    spec = tmp_path / "filtered.json"
    spec.write_text(json.dumps({
        "field": "GF4", "atoms": 2,
        "constraints": [{"points": [0], "subfield": "GF2"}],
    }))
    code, text = _run(tmp_path, ["boolean-power", "--spec", str(spec)])
    assert code == 0
    row = json.loads(text)["items"][0]
    assert row["size"] == 8
    assert sorted(row["factor_sizes"].split(",")) == ["2", "4"]
    # whole-space constraint: the classic size-4 subalgebra
    spec.write_text(json.dumps({
        "field": "GF4", "atoms": 2,
        "constraints": [{"points": [0, 1], "subfield": "GF2"}],
    }))
    code, text = _run(tmp_path, ["boolean-power", "--spec", str(spec)], name="out2")
    assert code == 0
    assert json.loads(text)["items"][0]["size"] == 4


def test_cli_filtered_power_rejects_non_subfield(tmp_path):
    spec = tmp_path / "filtered.json"
    spec.write_text(json.dumps({
        "field": "GF8", "atoms": 1,
        "constraints": [{"points": [0], "subfield": "GF4"}],
    }))
    code = main(["boolean-power", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize("subcommand, flag, fname, payload", [
    ("inverse-system", "--tower-file", "tower.json", {"group": "Z8", "chain": [[0, "x"]]}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": "three", "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}}),
    ("boolean-power", "--spec", "bp.json", {"base_group": "S3", "atoms": "two"}),
    ("analyze-group", "--corpus", "index.json",
     [{"name": "S3", "order": "six", "file": "S3.json"}]),
    ("analyze-group", "--corpus", "S3.json", [0, 1]),
    ("inverse-system", "--tower-file", "tower.json", {"group": "Z8"}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z4", "p": 5, "dim": 1, "matrices": {"9": [[2]]}}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z4", "p": 5, "dim": 1, "matrices": {"-3": [[2]]}}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z4", "p": 5, "dim": 1, "matrices": {"1": [[2]]}, "v": [1, 0]}),
    # numbers that int() would truncate or read as integers
    ("inverse-system", "--tower-file", "tower.json",
     {"levels": ["Z2", "Z4"], "projections": [[0, 1.9, 0, 1]]}),
    ("inverse-system", "--tower-file", "tower.json",
     {"levels": ["Z2", "Z4"], "projections": [[False, True, False, True]]}),
    ("inverse-system", "--tower-file", "tower.json",
     {"group": "Z8", "chain": [list(range(8)), [0, 4.5], [0]]}),
    ("inverse-system", "--tower-file", "tower.json",
     {"group": "Z8", "chain": [list(range(8)), ["0", "4"], [0]]}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[0, 1.7], [1, 0]]}}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3.9, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3, "dim": 2.0, "matrices": {"1": [[0, 1], [1, 0]]}}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}, "v": [1.2, 0]}),
    ("boolean-power", "--spec", "bp.json", {"base_group": "S3", "atoms": 2.6}),
    ("boolean-power", "--spec", "bp.json",
     {"field": "GF4", "atoms": 2, "constraints": [{"points": [True], "subfield": "GF2"}]}),
    ("verify-inequalities", "--beta-table", "beta.json", {"0": 1, "1": 2.5, "2": 6}),
    *(("verify-inequalities", "--beta-table", "beta.json", {"0": beta, "1": 2, "2": 6})
      for beta in (0, -2)),
    # keys that int() would read as another integer's
    *(("ring-from-module", "--action-file", "action.json",
       {"group": "Z2", "p": 3, "dim": 2, "matrices": {key: [[0, 1], [1, 0]]}})
      for key in ("0_1", " 1", "1.0")),
    *(("verify-inequalities", "--beta-table", "beta.json", {"0": 1, key: 2, "2": 6})
      for key in ("0_1", " 1", "1.0")),
    ("analyze-group", "--corpus", "index.json",
     [{"name": "S3", "order": 6.5, "file": "S3.json"}]),
    ("analyze-group", "--corpus", "S3.json",
     {"name": "S3", "degree": 3.5, "generators": [[1, 0, 2], [1, 2, 0]]}),
    *(("ring-from-module", "--action-file", "action.json",
       {"group": "Z2", "p": 3, "dim": dim, "matrices": {"1": [[0, 1], [1, 0]]}})
      for dim in (0, -1)),
    # inputs that ended in a traceback: an index that is not a list, a file name that is not a
    # string, a base group that is not a string, and fewer levels than projections need
    ("analyze-group", "--corpus", "index.json", None),
    ("analyze-group", "--corpus", "index.json", [{"name": "S3", "order": 6, "file": 5}]),
    ("boolean-power", "--spec", "bp.json", {"base_group": ["A5"], "atoms": 2}),
    ("inverse-system", "--tower-file", "tower.json", {"levels": ["A5"], "projections": [[0, 1, 0, 1]]}),
    ("inverse-system", "--tower-file", "tower.json", {"levels": [], "projections": [[0, 1, 0, 1]]}),
    ("inverse-system", "--tower-file", "tower.json", {"levels": [], "projections": []}),
    # an unknown key and a missing key in each kind of file (a beta table declares no key)
    ("analyze-group", "--corpus", "S3.json",
     {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]], "extra": 1.5}),
    ("analyze-group", "--corpus", "S3.json",
     {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]], "table": [[0]]}),
    ("analyze-group", "--corpus", "S3.json", {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}),
    ("analyze-group", "--corpus", "S3.json", {"name": "S3", "degree": 3}),
    ("analyze-group", "--corpus", "index.json", [{"name": "S3", "order": 6, "file": "S3.json", "x": 1}]),
    ("analyze-group", "--corpus", "index.json", [{"name": "S3", "order": 6}]),
    ("inverse-system", "--tower-file", "tower.json", {"group": "Z8", "chain": [[0]], "extra": 1}),
    ("inverse-system", "--tower-file", "tower.json", {"levels": ["Z2"]}),
    ("inverse-system", "--tower-file", "tower.json", {"chain": [[0]]}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}, "w": [1, 0]}),
    ("ring-from-module", "--action-file", "action.json",
     {"group": "Z2", "p": 3, "matrices": {"1": [[0, 1], [1, 0]]}}),
    ("verify-inequalities", "--beta-table", "beta.json", {"0": 1, "1": 2, "2": 6, "rank": 3}),
    ("boolean-power", "--spec", "bp.json", {"base_group": "S3", "atoms": 2, "extra": 1}),
    ("boolean-power", "--spec", "bp.json", {"base_group": "S3", "atoms": 2, "field": "GF4"}),
    ("boolean-power", "--spec", "bp.json", {"base_group": "S3"}),
    ("boolean-power", "--spec", "bp.json",
     {"field": "GF4", "atoms": 2, "constraints": [{"points": [0], "subfield": "GF2", "x": 0}]}),
    ("boolean-power", "--spec", "bp.json", {"field": "GF4", "atoms": 2, "constraints": [{"points": [0]}]}),
])
def test_cli_malformed_file_is_one_error_line(tmp_path, capsys, corpus,
                                              subcommand, flag, fname, payload):
    if flag == "--corpus":
        save_corpus(Corpus({"S3": corpus["S3"]}), tmp_path)
        target = tmp_path
    else:
        target = tmp_path / fname
    (tmp_path / fname).write_text(json.dumps(payload))
    code = main([subcommand, flag, str(target), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {fname}: ")


_Z2 = {"name": "Z2", "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("subcommand, flag, files, message", [
    ("boolean-power", "--spec", {"spec.json": {"base_group": "nope", "atoms": 2}},
     "error: spec.json: unknown group 'nope'"),
    ("inverse-system", "--tower-file", {"tower.json": {"group": "S3", "chain": [list(range(6)), [0], list(range(6))]}},
     "error: tower.json: chain must be descending"),
    ("analyze-group", "--corpus", {"index.json": [{"file": "nope.json"}]},
     "error: index.json: [0].file: no such file 'nope.json'"),
    ("analyze-group", "--corpus", {"index.json": [{"file": "z2.json", "name": "Y"}], "z2.json": _Z2},
     "error: index.json: [0].name: 'Y' != 'Z2', the name of z2.json"),
    ("analyze-group", "--corpus", {"index.json": [{"file": "z2.json", "order": 3}], "z2.json": _Z2},
     "error: index.json: [0].order: 3 != 2, the order of z2.json"),
    # a fault inside a group file the index lists is named by that file alone
    ("analyze-group", "--corpus",
     {"index.json": [{"file": "z2.json"}], "z2.json": {"name": "Z2", "table": [[0, 1], [1, 1]]}},
     "error: z2.json: table rows/columns are not permutations"),
])
def test_cli_checks_after_the_shape_name_the_file(tmp_path, capsys, subcommand, flag, files, message):
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    target = tmp_path if flag == "--corpus" else tmp_path / next(iter(files))
    assert main([subcommand, flag, str(target), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_cli_unknown_base_on_the_command_line_names_no_file(tmp_path, capsys):
    assert main(["boolean-power", "--base", "nope", "--atoms", "2", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: unknown group 'nope'"]


@pytest.mark.parametrize("argv, files, digest", [
    (["ring-from-module"], {}, "a157817789760e9e9b23b5f596f9216a360133ed0fc8c84f011efb81d4c74f19"),
    (["ring-from-module", "--format", "csv"], {},
     "8ff84e040e8766ae1f0d19b3addc269499e324f86f3a97c9bd5325360e413f7d"),
    (["ring-from-module", "--action-file", "action.json"],
     {"action.json": {"group": "Z4", "p": 5, "dim": 4,
                      "matrices": {"3": [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]}}},
     "77c3b5be1ac02ec5fbb293ceda09eca674c6a2e41783359879928864f99ab8ed"),
    (["boolean-power", "--spec", "spec.json"],
     {"spec.json": {"field": "GF9", "atoms": 3, "constraints": [{"points": [0], "subfield": "GF3"}]}},
     "6c1c31ac7e15a2dfcd11447b510edf7aa423866cbc483b26f1c920f12dd12b2a"),
])
def test_cli_algebra_reports_keep_their_bytes(tmp_path, monkeypatch, argv, files, digest):
    monkeypatch.chdir(tmp_path)  # the report's job field echoes the input path as given
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert main(argv + ["--out", "out"]) == 0
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("p, dim", [
    (4611686018427387847, 2),  # a prime near 2**62: its trial division would take hours
    (1000000000000037, 2),     # a prime near 10**15: seconds of trial division
    (3, 30_000_000),           # p**dim would have millions of digits
    (4, 7),                    # a composite p above the cap reports the cap
])
def test_cli_oversized_action_file_hits_the_cap_before_the_primality_test(tmp_path, capsys, p, dim):
    (tmp_path / "action.json").write_text(json.dumps(
        {"group": "Z2", "p": p, "dim": dim, "matrices": {"1": [[0, 1], [1, 0]]}}))
    argv = ["ring-from-module", "--action-file", str(tmp_path / "action.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: cap 'materialized_order' exceeded: 10001 > 10000"]


@pytest.mark.parametrize("payload", [
    {"name": "Z2", "table": [[0, 1], [1, 0.4]]},
    {"name": "Z2", "table": [[False, True], [True, False]]},
    {"name": "Z3", "degree": 3, "generators": [[0, 1, 2.5]]},
    {"name": "Z2", "table": [[0, 1], [1, 4294967296]]},  # 2**32 wraps to 0 in int32
    "[" * 100000 + "]" * 100000,  # nested past the JSON decoder's recursion limit
])
def test_cli_non_integer_group_file_is_one_error_line(tmp_path, capsys, payload):
    (tmp_path / "bad.json").write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main(["analyze-group", "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad.json: ")


@pytest.mark.parametrize("payload", [
    {"name": "X", "degree": 70000, "generators": [list(range(1, 70000)) + [0]]},
    {"name": "X", "degree": 100000000, "generators": []},
])
def test_cli_degree_above_the_uint16_points_is_rejected_before_any_allocation(tmp_path, capsys, payload):
    (tmp_path / "X.json").write_text(json.dumps(payload))
    tracemalloc.start()
    try:
        code = main(["neumann", "--corpus", str(tmp_path), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and capsys.readouterr().err == "error: X.json: degree must be in 1..65536\n"
    assert peak < 16 * 2**20  # the 100,000,000-point closure allocated 1.2 GB


def test_build_group_takes_degrees_up_to_the_uint16_points():
    assert groups.build_group(generators=[], degree=1 << 16).order == 1
    with pytest.raises(ValidationError, match=r"1\.\.65536"):
        groups.build_group(generators=[], degree=(1 << 16) + 1)
