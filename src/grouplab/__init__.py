"""grouplab: exact computation with finite groups.

Cayley-table groups with structural queries, finite Boolean rings and
Boolean powers, inverse-system towers, commuting-pair statistics with
witness decompositions, and module-to-ring constructions.  Everything is
exact (integers and rationals) and deterministic.

The names below are exported lazily (PEP 562): ``import grouplab`` loads no
submodule, and the first read of a name imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebras": ("FiniteCommutativeAlgebra", "field_by_name", "gf", "mr_decompose", "zmod"),
    "boolean": ("AugmentedBooleanAlgebra", "BooleanIdeal", "FiniteBooleanRing",
                "build_boolean_ring", "quotient_ring", "refine_chain", "stone_points"),
    "boolpower": ("BPElement", "BooleanPowerGroup", "FilteredPowerSpec", "bp_multiply",
                  "bp_normalize", "bp_quotient_iso", "filtered_power", "filtered_power_spec",
                  "ideal_normal_subgroup", "materialize_bp_group",
                  "verify_ideal_correspondence"),
    "config": ("DEFAULT_CAPS", "Caps"),
    "corpus": ("Corpus", "bundled_corpus", "bundled_towers", "load_corpus", "save_corpus"),
    "errors": ("CapExceeded", "GroupLabError", "NilpotentElementError", "ValidationError"),
    "groups": ("FiniteGroup", "GroupHom", "Series", "Subgroup", "build_group", "center",
               "centralizer", "commutator_subgroup", "commuting_pair_count",
               "conjugacy_classes", "core", "cyclic_group", "direct_power", "direct_product",
               "is_nilpotent", "is_perfect", "is_soluble", "normal_closure", "quotient",
               "series", "subgroup_closure"),
    "measure": ("CommutingStats", "NeumannWitness", "RhoTables", "commuting_pairs",
                "epsilon_evidence", "group_rank_bound", "neumann_search", "rho_table",
                "rho_wedge", "verify_inequalities"),
    "modring": ("GModuleAction", "ModuleRing", "action_from_matrices", "faithfulness_report",
                "nilpotent_free_check", "orbit_span_check", "ring_construct",
                "translate_decomposition"),
    "structure": ("automorphism_group", "conjugate_spread", "enumerate_normal_subgroups",
                  "enumerate_subgroups", "is_simple_nonabelian", "minimal_generator_count",
                  "prufer_rank", "sylow_subgroup"),
    "towers": ("InverseSystem", "build_system", "closure_trace", "commutator_level_check",
               "coset_action_system", "cp_sequence", "direct_power_system", "quotient_trace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
