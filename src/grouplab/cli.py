"""Batch front door: corpus analysis subcommands with exact JSON/CSV reports.

Reports are byte-deterministic: sorted keys, compact separators, no floats,
rationals rendered as "num/den" strings.  Exit codes: 0 all items succeeded,
2 partial failure, 1 invalid job or total failure.

Each handler imports the layers it runs when it starts, so a job loads only
the modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .config import DEFAULT_CAPS, Caps
from .corpus import Corpus, bundled_corpus, bundled_towers, load_corpus
from .errors import GroupLabError, ValidationError, parsing, read_json
from .groups import FiniteGroup, GroupHom, Subgroup

if TYPE_CHECKING:
    from fractions import Fraction

    from .modring import GModuleAction
    from .towers import InverseSystem

REPORT_COLUMNS_V1 = (
    "name", "order", "pairs", "fraction",
    "neumann_k_size", "neumann_n_index", "neumann_value",
    "rho_r", "rho_wedge",
)
RHO_COLUMNS_V1 = ("kind", "order", "value", "family_mode")
BP_COLUMNS_V1 = (
    "base", "atoms", "ideal_atoms", "quotient_m", "iso_verified",
    "normal_count", "ideal_count", "correspondence_matches", "expected_match",
)
FILTERED_COLUMNS_V1 = ("field", "atoms", "constraints", "size", "factor_sizes",
                       "nilpotent_free")
TOWER_COLUMNS_V1 = ("tower", "level", "order", "pairs", "fraction", "monotone", "commutator_check")
RING_COLUMNS_V1 = (
    "action", "well_defined", "commutative", "nilpotent_free",
    "nilpotent_witness", "translate_bound", "mr_factor_sizes",
)
INEQ_COLUMNS_V1 = (
    "ineq", "order", "prime", "rho_r", "beta", "rho_wedge",
    "lhs", "rhs", "passed", "intermediate_passed",
)

# the input files of the subcommands, as `read_json` shapes (group files and the index are in corpus)
TOWER_SHAPE = ({"group": str, "chain": [1]}, {"levels": [str], "projections": [1]})
ACTION_SHAPE = {"group": str, "p": 0, "dim": 0, "matrices": {int: 2}, "v?": 1}
BETA_SHAPE = {int: 0}
SPEC_SHAPE = ({"field": str, "atoms": 0, "constraints?": [{"points": 1, "subfield": str}]},
              {"base_group": str, "atoms": 0})


def frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(payload: dict, columns: Sequence[str], rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])
        text = buf.getvalue()
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _select_groups(corpus: Corpus, names: list[str] | None
                   ) -> tuple[list[tuple[str, FiniteGroup]], list[dict]]:
    """The members named (all when none are), each read in its own item: an unknown name, or a
    member over a cap, becomes a per-item error."""
    return _per_item([(n, n) for n in names or corpus.names()], lambda name, _: [(name, corpus[name])])


def _canonical_row(name: str, g: FiniteGroup, caps: Caps, *, full: bool) -> dict:
    from .measure import commuting_pairs, group_rank_bound, neumann_search, rho_wedge

    stats = commuting_pairs(g, name=name, caps=caps)
    witness = neumann_search(g, name=name, caps=caps)
    row = {
        "name": name,
        "order": stats.order,
        "pairs": stats.pairs,
        "fraction": frac_str(stats.fraction),
        "neumann_k_size": witness.k_size,
        "neumann_n_index": witness.n_index,
        "neumann_value": witness.value,
        "rho_r": None,
        "rho_wedge": None,
    }
    if full:
        row["rho_r"] = group_rank_bound(g, caps=caps)
        try:
            report = rho_wedge(g, name=name, caps=caps)
            row["rho_wedge"] = report.k if report.k is not None else "inf"
        except ValidationError:
            row["rho_wedge"] = None
    return row


def _per_item(jobs, rows) -> tuple[list[dict], list[dict]]:
    """The rows `rows(name, job)` of each (name, job) pair; an error fails only its own item."""
    items, errors = [], []
    for name, job in jobs:
        try:
            items += rows(name, job)
        except GroupLabError as exc:
            errors.append({"item": name, "error": str(exc)})
    return items, errors


def _bundled(kind: str, bundled: dict, names: list[str] | None) -> dict:
    """The bundled items named (all when none are); an unknown name fails the job."""
    for name in names or ():
        if name not in bundled:
            raise ValidationError(f"unknown {kind} {name!r}; bundled: {sorted(bundled)}")
    return {name: bundled[name] for name in names} if names else bundled


def _cmd_per_group(args, corpus: Corpus, caps: Caps):
    """analyze-group (every column) and neumann (no rank columns)."""
    selected, errors = _select_groups(corpus, args.group)
    full = args.subcommand == "analyze-group"
    items, failed = _per_item(selected, lambda name, g: [_canonical_row(name, g, caps, full=full)])
    return items, errors + failed, REPORT_COLUMNS_V1


def _cmd_rho(args, corpus: Corpus, caps: Caps):
    from .measure import rho_table

    orders = None
    if args.max_order is not None:
        orders = list(range(1, args.max_order + 1))
    table = rho_table(corpus.items(), args.kind, orders=orders,
                      family_mode=args.mode, caps=caps)
    items = [
        {
            "kind": table.kind,
            "order": order,
            "value": value if value is not None else "inf",
            "family_mode": table.family_mode,
        }
        for order, value in table.entries
    ]
    return items, [], RHO_COLUMNS_V1


def _cmd_boolean_power(args, corpus: Corpus, caps: Caps):
    from .boolean import BooleanIdeal, build_boolean_ring
    from .boolpower import bp_quotient_iso, materialize_bp_group, verify_ideal_correspondence

    if args.spec:
        payload = read_json(args.spec, SPEC_SHAPE)
        if "field" in payload:
            with parsing(args.spec):
                return _filtered_power_rows(payload, caps)
        args.base, args.atoms = payload["base_group"], payload["atoms"]
    if not args.base or args.atoms is None:
        raise ValidationError("boolean-power needs --base/--atoms or --spec")
    with parsing(args.spec) if args.spec else nullcontext():
        base = corpus[args.base]
        ring = build_boolean_ring(args.atoms, caps=caps)
    try:
        mat = materialize_bp_group(base, ring, caps=caps)
        report = verify_ideal_correspondence(base, ring, materialized=mat, caps=caps)
    except GroupLabError as exc:
        return [], [{"item": args.base, "error": str(exc)}], BP_COLUMNS_V1

    labels = {span: ",".join(str(i) for i in ring.atom_indices(span)) for span in range(1 << args.atoms)}

    def rows(name: str, span: int) -> list[dict]:
        iso = bp_quotient_iso(base, ring, BooleanIdeal(ring, span), materialized=mat, caps=caps)
        return [{
            "base": args.base,
            "atoms": args.atoms,
            "ideal_atoms": labels[span],
            "quotient_m": iso.m,
            "iso_verified": iso.verified,
            "normal_count": report.normal_count,
            "ideal_count": report.ideal_count,
            "correspondence_matches": report.matches,
            "expected_match": report.expected_match,
        }]

    items, errors = _per_item([(f"{args.base}[{labels[span]}]", span) for span in labels], rows)
    return items, errors, BP_COLUMNS_V1


def _factor_sizes(algebra, caps: Caps) -> str:
    """The sizes of the field factors of a nilpotent-free commutative algebra, comma-separated."""
    from .algebras import mr_decompose

    return ",".join(str(f.field.size) for f in mr_decompose(algebra, caps=caps).factors)


def _filtered_power_rows(payload: dict, caps: Caps):
    from .algebras import field_by_name, prime_subfield_ids
    from .boolean import build_boolean_ring
    from .boolpower import filtered_power, filtered_power_spec

    field = field_by_name(payload["field"])
    ring = build_boolean_ring(payload["atoms"], caps=caps)
    constraints, described = [], []
    for entry in payload.get("constraints", ()):
        sub = field_by_name(entry["subfield"])
        # bundled fields only have the prime subfield and themselves
        if sub.char != field.char or sub.size not in (field.char, field.size):
            raise ValidationError(f"{entry['subfield']} is not a subfield of {payload['field']}")
        ids = prime_subfield_ids(field) if sub.size == field.char else frozenset(field.elements())
        constraints.append((entry["points"], ids))
        described.append(f"{','.join(str(p) for p in entry['points'])}:{entry['subfield']}")
    spec = filtered_power_spec(field, ring, constraints)
    algebra = filtered_power(spec, caps=caps)
    return [{
        "field": payload["field"],
        "atoms": ring.atom_count,
        "constraints": ";".join(described),
        "size": algebra.size,
        "factor_sizes": _factor_sizes(algebra, caps),
        "nilpotent_free": True,
    }], [], FILTERED_COLUMNS_V1


def _tower_from_file(path: str, corpus: Corpus, caps: Caps) -> InverseSystem:
    from .towers import InverseSystem, coset_action_system

    payload = read_json(path, TOWER_SHAPE)
    with parsing(path):
        if "group" in payload:
            g = corpus[payload["group"]]
            return coset_action_system(g, [Subgroup(g, ids) for ids in payload["chain"]], caps=caps).system
        levels = [corpus[name] for name in payload["levels"]]
        maps = payload["projections"]
        if len(maps) == len(levels) - 1:  # else InverseSystem reports the count
            maps = [GroupHom(top, below, m) for top, below, m in zip(levels[1:], levels, maps)]
        return InverseSystem(levels, maps, caps=caps)


def _cmd_inverse_system(args, corpus: Corpus, caps: Caps):
    from .towers import commutator_level_check, cp_sequence

    if args.tower_file:
        towers = {Path(args.tower_file).stem: _tower_from_file(args.tower_file, corpus, caps)}
    else:
        towers = _bundled("tower", bundled_towers(corpus, caps=caps), args.tower)

    def rows(name: str, system: InverseSystem) -> list[dict]:
        seq = cp_sequence(system, caps=caps)
        monotone = all(b <= a for a, b in zip(seq, seq[1:]))
        top = system.top
        check = commutator_level_check(system, top.whole_subgroup(), top.whole_subgroup())
        return [{
            "tower": name,
            "level": level,
            "order": system.levels[level].order,
            "pairs": frac.numerator * system.levels[level].order**2 // frac.denominator,
            "fraction": frac_str(frac),
            "monotone": monotone,
            "commutator_check": check.passed,
        } for level, frac in enumerate(seq)]

    items, errors = _per_item(sorted(towers.items()), rows)
    return items, errors, TOWER_COLUMNS_V1


def _bundled_actions(corpus: Corpus, caps: Caps) -> dict[str, tuple[GModuleAction, tuple[int, ...]]]:
    from .modring import action_from_matrices, sum_zero_action

    z2 = corpus["Z2"]
    swap = {1: [[0, 1], [1, 0]]}
    out = {
        "swap-gf3": (action_from_matrices(z2, 3, 2, swap, caps=caps), (1, 0)),
        "regular-gf2": (action_from_matrices(z2, 2, 2, swap, caps=caps), (1, 0)),
        "s3-std-gf5": (sum_zero_action(corpus["S3"], 5, caps=caps), (1, 0)),
    }
    return out


def _action_from_file(path: str, corpus: Corpus, caps: Caps) -> tuple[GModuleAction, tuple[int, ...]]:
    from .modring import action_from_matrices, orbit_span_check

    payload = read_json(path, ACTION_SHAPE)
    with parsing(path):
        action = action_from_matrices(corpus[payload["group"]], payload["p"], payload["dim"],
                                      payload["matrices"], caps=caps)
        if "v" in payload:
            v = tuple(payload["v"])
            if len(v) != action.dim:
                raise ValidationError(f"v has {len(v)} coordinates, dim is {action.dim}")
            return action, v
    for vec in action.vectors():
        if orbit_span_check(action, vec).spans:
            return action, vec
    raise ValidationError("no vector has spanning translates")


def _cmd_ring_from_module(args, corpus: Corpus, caps: Caps):
    from .modring import nilpotent_free_check, ring_construct

    if args.action_file:
        jobs = {Path(args.action_file).stem: _action_from_file(args.action_file, corpus, caps)}
    else:
        jobs = _bundled("example", _bundled_actions(corpus, caps), args.example)

    def rows(name: str, job: tuple[GModuleAction, tuple[int, ...]]) -> list[dict]:
        built = ring_construct(*job, caps=caps)
        row = {
            "action": name,
            "well_defined": built.well_defined,
            "commutative": None,
            "nilpotent_free": None,
            "nilpotent_witness": None,
            "translate_bound": built.translate_bound,
            "mr_factor_sizes": None,
        }
        if built.well_defined and built.ring is not None:
            ring = built.ring
            row["commutative"] = ring.is_commutative()
            ok, witness = nilpotent_free_check(ring, caps=caps)
            row["nilpotent_free"] = ok
            if witness is not None:
                row["nilpotent_witness"] = ",".join(str(c) for c in ring.to_vector(witness))
            if ok and row["commutative"]:
                row["mr_factor_sizes"] = _factor_sizes(ring.to_algebra(caps=caps), caps)
        return [row]

    items, errors = _per_item(sorted(jobs.items()), rows)
    return items, errors, RING_COLUMNS_V1


def _cmd_verify_inequalities(args, corpus: Corpus, caps: Caps):
    from .measure import verify_inequalities

    beta = None
    if args.beta_table:
        beta = read_json(args.beta_table, BETA_SHAPE)
        with parsing(args.beta_table):
            for rank, value in beta.items():
                if value < 1:  # beta divides in the bound: 0 would divide by zero
                    raise ValidationError(f"beta for rank {rank} must be a positive integer")
    members, errors = _select_groups(corpus, args.group)
    report = verify_inequalities(members, beta_table=beta, caps=caps)
    items = []
    for row in report.ineq1:
        items.append({
            "ineq": 1, "order": row.order, "prime": None,
            "rho_r": row.rho_r, "beta": row.beta, "rho_wedge": None,
            "lhs": frac_str(row.lhs), "rhs": str(row.rhs),
            "passed": row.passed, "intermediate_passed": None,
        })
    for row in report.ineq2:
        items.append({
            "ineq": 2, "order": row.order, "prime": row.prime,
            "rho_r": None, "beta": None, "rho_wedge": row.rho_wedge,
            "lhs": frac_str(row.lhs_squared), "rhs": str(row.rhs_squared),
            "passed": row.passed,
            "intermediate_passed": all(r.passed for r in row.intermediate),
        })
    if not items:
        errors.append({"item": "verify-inequalities", "error": "no applicable corpus members"})
    return items, errors, INEQ_COLUMNS_V1


_HANDLERS = {
    "analyze-group": _cmd_per_group,
    "neumann": _cmd_per_group,
    "rho": _cmd_rho,
    "boolean-power": _cmd_boolean_power,
    "inverse-system": _cmd_inverse_system,
    "ring-from-module": _cmd_ring_from_module,
    "verify-inequalities": _cmd_verify_inequalities,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", help="corpus directory (default: bundled groups)")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--cap-order", type=int, default=None)
    common.add_argument("--cap-subgroups", type=int, default=None)

    parser = argparse.ArgumentParser(prog="grouplab",
                                     description="exact finite-group analysis reports")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze-group", parents=[common], help="full per-group report")
    p.add_argument("--group", action="append", help="group name (repeatable; default all)")

    p = sub.add_parser("neumann", parents=[common],
                       help="commuting counts and witness decompositions")
    p.add_argument("--group", action="append")

    p = sub.add_parser("rho", parents=[common], help="per-order minima/maxima over the corpus")
    p.add_argument("--kind", choices=("com", "r"), required=True)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--mode", default="corpus", help="family annotation recorded in the report")

    p = sub.add_parser("boolean-power", parents=[common],
                       help="ideal correspondence and quotient powers")
    p.add_argument("--base", help="base group name")
    p.add_argument("--atoms", type=int, help="atoms of the Boolean ring")
    p.add_argument("--spec", help="power spec JSON (group or filtered-field form)")

    p = sub.add_parser("inverse-system", parents=[common],
                       help="commuting fractions along towers")
    p.add_argument("--tower", action="append", help="bundled tower name (repeatable)")
    p.add_argument("--tower-file", help="tower spec JSON")

    p = sub.add_parser("ring-from-module", parents=[common],
                       help="module-to-ring construction reports")
    p.add_argument("--example", action="append", help="bundled action name (repeatable)")
    p.add_argument("--action-file", help="action spec JSON")

    p = sub.add_parser("verify-inequalities", parents=[common],
                       help="commuting-count lower bounds")
    p.add_argument("--beta-table", help="JSON map rank -> beta value")
    p.add_argument("--group", action="append")
    return parser


_HARD_CAP = 100_000  # upper bound for any CLI cap override


def _job_echo(args) -> dict:
    """The options that shape the result, excluding the output path."""
    skip = {"subcommand", "out"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        echo[key.replace("_", "-")] = value
    return echo


def _load_corpus(path: str, caps: Caps) -> Corpus:
    """`load_corpus`, with each warning it gives printed as one `warning: ` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        corpus = load_corpus(path, caps=caps)
    for warning in caught:
        sys.stderr.write(f"warning: {warning.message}\n")
    return corpus


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    for flag in (args.cap_order, args.cap_subgroups):
        if flag is not None and not 1 <= flag <= _HARD_CAP:
            sys.stderr.write(f"error: cap overrides must be in 1..{_HARD_CAP}\n")
            return 1
    if getattr(args, "max_order", None) is not None and not 1 <= args.max_order <= _HARD_CAP:
        sys.stderr.write(f"error: --max-order must be in 1..{_HARD_CAP}\n")
        return 1
    caps = DEFAULT_CAPS.with_overrides(order=args.cap_order, subgroup_order=args.cap_subgroups)
    try:
        corpus = _load_corpus(args.corpus, caps) if args.corpus else bundled_corpus(caps=caps)
        items, errors, columns = _HANDLERS[args.subcommand](args, corpus, caps)
    except (GroupLabError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    payload = {
        "tool": "grouplab",
        "version": __version__,
        "subcommand": args.subcommand,
        "job": _job_echo(args),
        "items": items,
        "errors": errors,
    }
    _emit(payload, columns, items, args.format, args.out)
    if errors and items:
        return 2
    if errors and not items:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
