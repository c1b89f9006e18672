"""Start-up contract: `import grouplab` loads no submodule, each CLI subcommand loads only the
layers it runs and never numpy.ma, `fractions` (with `decimal`) only where a layer builds Fraction
values and `csv` only for a csv report, and the lazy package exports are the eager ones.

Records are `NamedTuple`s, which cost no per-class code generation at import; only the five
records whose constructor validates are dataclasses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grouplab

SRC = str(Path(grouplab.__file__).resolve().parents[1])

# What a child reports: the grouplab submodules it loaded (short names), whether numpy.ma is one,
# the dataclasses those submodules define, and which of csv, decimal and fractions it loaded.
_REPORT = ("mods = [m for name, m in sys.modules.items() if name.startswith('grouplab.')]\n"
           "print(json.dumps([sorted(m.__name__.split('.', 1)[1] for m in mods), 'numpy.ma' in sys.modules,"
           " sorted(k for m in mods for k, v in vars(m).items() if isinstance(v, type)"
           " and '__dataclass_fields__' in vars(v) and v.__module__ == m.__name__),"
           " [m for m in ('csv', 'decimal', 'fractions') if m in sys.modules]]))")
_IMPORT_ONLY = "import json, sys, grouplab\n" + _REPORT
_RUN_CLI = ("import json, sys\n"
            "from grouplab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n" + _REPORT)

_MEASURE = {"cli", "config", "corpus", "errors", "groups", "linalg", "measure", "structure"}
_LOADED = {  # subcommand on bundled inputs -> the grouplab modules it loads
    ("analyze-group", "--group", "S3"): _MEASURE,
    ("neumann", "--group", "S3"): _MEASURE,
    ("rho", "--kind", "r", "--max-order", "4"): _MEASURE,
    ("verify-inequalities", "--group", "Heis27"): _MEASURE,
    ("inverse-system", "--tower", "z8-chain"): {"cli", "config", "corpus", "errors", "groups",
                                                 "towers"},
    ("boolean-power", "--base", "S3", "--atoms", "1"): (_MEASURE - {"measure"}
                                                         | {"algebras", "boolean", "boolpower"}),
    ("ring-from-module", "--example", "swap-gf3"): {"algebras", "cli", "config", "corpus",
                                                    "errors", "groups", "linalg", "modring"},
}

# Which of csv, decimal and fractions a job loads, none of which a bare interpreter has: the two
# fraction modules only with the layers that build Fraction values, csv only for a csv report.
_STDLIB = {argv: ["decimal", "fractions"] if modules & {"measure", "towers"} else []
           for argv, modules in _LOADED.items()}
_STDLIB[("ring-from-module", "--example", "swap-gf3", "--format", "csv")] = ["csv"]

# The records whose constructor validates: the only dataclasses, all in boolean and boolpower.
_VALIDATING = ["BPElement", "BooleanIdeal", "BooleanQuotient", "FilteredPowerSpec", "FiniteBooleanRing"]

# The names the package exported when it imported every module eagerly.
_EXPORTED = [
    "AugmentedBooleanAlgebra", "BPElement", "BooleanIdeal", "BooleanPowerGroup", "CapExceeded",
    "Caps", "CommutingStats", "Corpus", "DEFAULT_CAPS", "FilteredPowerSpec",
    "FiniteBooleanRing", "FiniteCommutativeAlgebra", "FiniteGroup", "GModuleAction",
    "GroupHom", "GroupLabError", "InverseSystem", "ModuleRing", "NeumannWitness",
    "NilpotentElementError", "RhoTables", "Series", "Subgroup", "ValidationError",
    "action_from_matrices", "automorphism_group", "bp_multiply", "bp_normalize",
    "bp_quotient_iso", "build_boolean_ring", "build_group", "build_system", "bundled_corpus",
    "bundled_towers", "center", "centralizer", "closure_trace", "commutator_level_check",
    "commutator_subgroup", "commuting_pair_count", "commuting_pairs", "conjugacy_classes",
    "conjugate_spread", "core", "coset_action_system", "cp_sequence", "cyclic_group",
    "direct_power", "direct_power_system", "direct_product", "enumerate_normal_subgroups",
    "enumerate_subgroups", "epsilon_evidence", "faithfulness_report", "field_by_name",
    "filtered_power", "filtered_power_spec", "gf", "group_rank_bound", "ideal_normal_subgroup",
    "is_nilpotent", "is_perfect", "is_simple_nonabelian", "is_soluble", "load_corpus",
    "materialize_bp_group", "minimal_generator_count", "mr_decompose", "neumann_search",
    "nilpotent_free_check", "normal_closure", "orbit_span_check", "prufer_rank", "quotient",
    "quotient_ring", "quotient_trace", "refine_chain", "rho_table", "rho_wedge",
    "ring_construct", "save_corpus", "series", "stone_points", "subgroup_closure",
    "sylow_subgroup", "translate_decomposition", "verify_ideal_correspondence",
    "verify_inequalities", "zmod",
]


def _child(code: str, *args: str, cwd: Path) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict[tuple[str, ...], list]:
    """Each child's report, keyed by its CLI arguments (() for a bare import); the children
    run side by side."""
    cwd = tmp_path_factory.mktemp("startup")
    children = {(): _child(_IMPORT_ONLY, cwd=cwd)}
    for i, argv in enumerate(_STDLIB):
        children[argv] = _child(_RUN_CLI, *argv, "--out", str(cwd / f"{i}.json"), cwd=cwd)
    out = {}
    for argv, proc in children.items():
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, (argv, stderr.decode()[-400:])
        out[argv] = json.loads(stdout)
    return out


def test_import_loads_no_submodule(loaded):
    assert loaded[()] == [[], False, [], []]


@pytest.mark.parametrize("argv", list(_LOADED), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_layers(loaded, argv):
    modules, has_ma, *_ = loaded[argv]
    assert set(modules) == _LOADED[argv]
    assert not has_ma


@pytest.mark.parametrize("argv", list(_LOADED), ids=lambda argv: argv[0])
def test_subcommand_creates_only_the_validating_dataclasses(loaded, argv):
    dataclasses = loaded[argv][2]
    assert dataclasses == (_VALIDATING if argv[0] == "boolean-power" else [])


@pytest.mark.parametrize("argv", list(_STDLIB), ids=" ".join)
def test_subcommand_loads_fractions_and_csv_only_to_print_them(loaded, argv):
    assert loaded[argv][3] == _STDLIB[argv]


def _record_classes() -> dict[str, type]:
    """Every class of the package that is a NamedTuple or a dataclass, by name."""
    out = {}
    for module in sorted(set(grouplab._MODULE_OF.values())):
        for name, value in vars(importlib.import_module(f"grouplab.{module}")).items():
            if (isinstance(value, type) and value.__module__ == f"grouplab.{module}"
                    and ("_fields" in vars(value) or "__dataclass_fields__" in vars(value))):
                out[name] = value
    return out


def test_records_are_named_tuples_but_the_validating_ones():
    records = _record_classes()
    assert sorted(name for name, cls in records.items() if "__dataclass_fields__" in vars(cls)) == _VALIDATING
    assert len(records) == 40  # 35 NamedTuples


def test_records_are_frozen_and_keep_their_repr():
    from grouplab.boolean import FiniteBooleanRing

    samples = [(cls(*range(len(cls._fields))), cls._fields)
               for name, cls in _record_classes().items() if name not in _VALIDATING]
    for record, fields in samples + [(FiniteBooleanRing(3), ("atom_count",))]:
        shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        assert repr(record) == f"{type(record).__name__}({shown})"
        for attr in (fields[0], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 1)
    assert grouplab.Caps(order=60) == grouplab.DEFAULT_CAPS.with_overrides(order=60, subgroup_order=None)


def test_lazy_exports_are_the_module_objects():
    assert sorted(grouplab.__all__) == _EXPORTED
    for name in _EXPORTED:
        value = getattr(grouplab, name)  # imports the module that defines it
        assert value is getattr(sys.modules[f"grouplab.{grouplab._MODULE_OF[name]}"], name), name
    assert set(_EXPORTED) <= set(dir(grouplab))


def test_unknown_attribute_and_star_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        grouplab.no_such_name  # noqa: B018
    namespace: dict = {}
    exec("from grouplab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_EXPORTED)
    assert all(namespace[name] is getattr(grouplab, name) for name in _EXPORTED)
