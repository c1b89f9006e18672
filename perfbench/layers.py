"""The layers the traced run measures, and how its spans become per-layer metrics.

A layer is one grouplab module.  The traced driver (`trace_job.py`) wraps
every public function of these modules; the functions in FUNCTIONS are also
reported one by one.  `Class.method` names wrap that method (`init` means
``__init__``).  Private helpers are not wrapped, so their time is self time
of the public function that called them.
"""

from __future__ import annotations

MODULES = ("corpus", "groups", "structure", "measure", "towers", "boolean",
           "boolpower", "algebras", "modring", "linalg")

FUNCTIONS: dict[str, tuple[str, ...]] = {
    "groups": ("build_group", "FiniteGroup.init", "direct_product", "direct_power",
               "subgroup_closure", "conjugacy_classes", "commuting_pair_count",
               "commutator_subgroup", "quotient"),
    "corpus": ("load_corpus", "bundled_corpus"),
    "structure": ("enumerate_subgroups", "enumerate_normal_subgroups",
                  "minimal_generator_count", "prufer_rank", "is_simple_nonabelian"),
    "measure": ("commuting_pairs", "neumann_search", "group_rank_bound", "rho_wedge"),
    "towers": ("coset_action_system", "direct_power_system", "cp_sequence",
               "commutator_level_check"),
    "boolpower": ("materialize_bp_group", "verify_ideal_correspondence", "bp_quotient_iso",
                  "filtered_power"),
    "modring": ("action_from_matrices", "translate_decomposition", "ring_construct",
                "nilpotent_free_check", "ModuleRing.to_algebra"),
    "algebras": ("mr_decompose",),
    "linalg": ("rank_gfp", "nullspace_gfp"),
}

# Functions whose returned list length is recorded, and whose
# subgroup_closure calls are counted against it.
ENUMERATORS = ("structure.enumerate_subgroups", "structure.enumerate_normal_subgroups")
CLOSURE = "groups.subgroup_closure"
PER_JOB = ("boolpower.materialize_bp_group", "modring.translate_decomposition")
SUBCOMMANDS = ("analyze-group", "neumann", "inverse-system", "boolean-power",
               "ring-from-module")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = ("s", "lower")
        out[f"{mod}.calls"] = ("count", "lower")
        out[f"{mod}.raised"] = ("count", "lower")
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            out[f"{mod}.{fn}.self_s"] = ("s", "lower")
            out[f"{mod}.{fn}.calls"] = ("count", "lower")
    for name in ENUMERATORS:
        out[f"{name}.found"] = ("count", "higher")
        out[f"{name}.closures_per_found"] = ("ratio", "lower")
    for name in PER_JOB:
        out[f"{name}.per_job"] = ("calls/job", "lower")
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = ("s", "lower")
    out["cli.cpu_s"] = ("s", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


def span_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced pass (one per job).

    A span file holds `names` and `spans`, each span being
    [name index, start ns, end ns, parent span index or -1, raised 0/1,
    returned list length or -1].
    """
    out: dict[str, float] = {name: 0 for name in metric_units()
                             if not name.startswith(("cli.", "trace."))}
    callers = dict.fromkeys(PER_JOB, 0)  # jobs that called each function
    for trace in traces:
        names = trace["names"]
        spans = trace["spans"]
        covered = [0] * len(spans)
        enclosing = [-1] * len(spans)
        for i, (ni, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                enclosing[i] = enclosing[parent]
            if names[ni] in ENUMERATORS:
                enclosing[i] = i
        called = set()
        for i, (ni, start, end, _, raised, found) in enumerate(spans):
            name = names[ni]
            mod = name.split(".", 1)[0]
            self_s = (end - start - covered[i]) / 1e9
            out[f"{mod}.self_s"] += self_s
            out[f"{mod}.calls"] += 1
            out[f"{mod}.raised"] += raised
            if f"{name}.calls" in out:
                out[f"{name}.self_s"] += self_s
                out[f"{name}.calls"] += 1
            if name in ENUMERATORS:
                out[f"{name}.found"] += found
            elif name == CLOSURE and enclosing[i] >= 0:
                out[f"{names[spans[enclosing[i]][0]]}.closures_per_found"] += 1
            called.add(name)
        for name in PER_JOB:
            callers[name] += name in called
    for name in ENUMERATORS:
        found = out[f"{name}.found"]
        closures = out[f"{name}.closures_per_found"]
        out[f"{name}.closures_per_found"] = closures / found if found else 0
    for name in PER_JOB:
        jobs = callers[name]
        out[f"{name}.per_job"] = out[f"{name}.calls"] / jobs if jobs else 0
    return out
