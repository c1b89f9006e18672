"""Exact-answer checker for the benchmark's CLI reports.

Every expected value below is label-invariant, so it holds for every seed.
Commuting-pair counts are not stored: they are derived from the class
number k(G) by the Burnside identity pairs = k(G) * |G|, and the fraction
from the pairs.  An item fails if it is missing, is a per-item error, has a
wrong value, or belongs to a job that exited non-zero or timed out; each
item a report has beyond the expected ones also counts as one failure.
"""

from __future__ import annotations

import json
from fractions import Fraction

# name -> (order, class number k(G), neumann_k_size, neumann_n_index,
#          neumann_value, rho_r, rho_wedge)
GROUP_FACTS: dict[str, tuple] = {
    "Z1": (1, 1, 1, 1, 1, 0, None),
    "Z2": (2, 2, 1, 1, 1, 0, 0),
    "Z3": (3, 3, 1, 1, 1, 0, 0),
    "V4": (4, 4, 1, 1, 1, 0, 0),
    "Z4": (4, 4, 1, 1, 1, 0, None),
    "Z5": (5, 5, 1, 1, 1, 0, 0),
    "S3": (6, 3, 3, 1, 3, 1, None),
    "Z6": (6, 6, 1, 1, 1, 0, None),
    "Z7": (7, 7, 1, 1, 1, 0, 0),
    "D4": (8, 5, 2, 1, 2, 1, 0),
    "Q8": (8, 5, 2, 1, 2, 0, 0),
    "Z8": (8, 8, 1, 1, 1, 0, None),
    "Z9": (9, 9, 1, 1, 1, 0, None),
    "Z10": (10, 10, 1, 1, 1, 0, None),
    "Z11": (11, 11, 1, 1, 1, 0, 0),
    "A4": (12, 4, 4, 1, 4, 1, None),
    "Z12": (12, 12, 1, 1, 1, 0, None),
    "Z13": (13, 13, 1, 1, 1, 0, 0),
    "Z14": (14, 14, 1, 1, 1, 0, None),
    "Z15": (15, 15, 1, 1, 1, 0, None),
    "Z16": (16, 16, 1, 1, 1, 0, None),
    "S4": (24, 5, 12, 1, 12, 2, None),
    "Heis27": (27, 11, 3, 1, 3, 1, 0),
    "M27": (27, 11, 3, 1, 3, 1, 0),
    "A5": (60, 5, 1, 60, 3600, 2, None),
    "Z2^5": (32, 32, 1, 1, 1, 0, 2),
    "D4xQ8": (64, 25, 4, 1, 4, 1, 1),
    "S5": (120, 7, 60, 1, 60, 2, None),
    "A5xA5": (3600, 25, 1, 3600, 12960000, None, None),
    "S7": (5040, 15, 2520, 1, 2520, None, None),
}
BUNDLED_NAMES = ("Z1", "Z2", "Z3", "V4", "Z4", "Z5", "S3", "Z6", "Z7", "D4", "Q8", "Z8",
                 "Z9", "Z10", "Z11", "A4", "Z12", "Z13", "Z14", "Z15", "Z16", "S4",
                 "Heis27", "M27", "A5")

# tower -> per-level (order, class number); every bundled and generated tower
# is monotone and passes the commutator check at every level
TOWERS: dict[str, tuple[tuple[int, int], ...]] = {
    "a5-square": ((60, 5), (3600, 25)),
    "s3-cosets": ((1, 1), (2, 2), (6, 3)),
    "z8-chain": ((1, 1), (2, 2), (4, 4), (8, 8)),
    "s6-stabilisers": ((1, 1), (720, 11), (720, 11), (720, 11)),
}

# base -> (atoms, normal subgroups of the power, ideals, correspondence holds)
BOOLEAN_POWERS = {
    "A5": (2, 4, 4, True),
    "Z4": (3, 129, 8, False),
}

# action -> (well_defined, commutative, nilpotent_free, translate_bound, mr_factor_sizes)
RINGS = {
    "regular-gf2": (True, True, False, 2, None),
    "s3-std-gf5": (False, None, None, 3, None),
    "swap-gf3": (True, True, True, 4, "3,3"),
    "z4-regular-gf5": (True, True, True, 16, "5,5,5,5"),
}

FILTERED_GF9 = {"size": 243, "factor_sizes": "9,9,3", "nilpotent_free": True}


def _frac(pairs: int, order: int) -> str:
    f = Fraction(pairs, order * order)
    return f"{f.numerator}/{f.denominator}"


def group_row(name: str, *, full: bool) -> dict:
    order, classes, k_size, n_index, value, rho_r, rho_wedge = GROUP_FACTS[name]
    pairs = classes * order
    return {
        "order": order, "pairs": pairs, "fraction": _frac(pairs, order),
        "neumann_k_size": k_size, "neumann_n_index": n_index, "neumann_value": value,
        "rho_r": rho_r if full else None, "rho_wedge": rho_wedge if full else None,
    }


def group_rows(names, *, full: bool) -> dict[tuple, dict]:
    return {(name,): group_row(name, full=full) for name in names}


def tower_rows(*towers: str) -> dict[tuple, dict]:
    return {
        (tower, level): {"order": order, "pairs": classes * order,
                         "fraction": _frac(classes * order, order),
                         "monotone": True, "commutator_check": True}
        for tower in towers
        for level, (order, classes) in enumerate(TOWERS[tower])
    }


def boolean_power_rows(base: str) -> dict[tuple, dict]:
    atoms, normals, ideals, matches = BOOLEAN_POWERS[base]
    out = {}
    for span in range(1 << atoms):
        label = ",".join(str(i) for i in range(atoms) if span >> i & 1)
        out[(base, label)] = {"atoms": atoms, "quotient_m": atoms - bin(span).count("1"),
                              "iso_verified": True, "normal_count": normals,
                              "ideal_count": ideals, "correspondence_matches": matches,
                              "expected_match": matches}
    return out


def ring_rows(actions: tuple[str, ...]) -> dict[tuple, dict]:
    fields = ("well_defined", "commutative", "nilpotent_free", "translate_bound",
              "mr_factor_sizes")
    return {(a,): dict(zip(fields, RINGS[a])) for a in actions}


# subcommand -> the report fields that name an item
ITEM_KEYS = {
    "analyze-group": ("name",),
    "neumann": ("name",),
    "inverse-system": ("tower", "level"),
    "boolean-power": ("base", "ideal_atoms"),
    "ring-from-module": ("action",),
}
FILTERED_KEYS = ("field", "atoms")


def check_report(subcommand: str, expected: dict[tuple, dict], exit_code: int | None,
                 text: str | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one job's report against its expected items.

    `exit_code` is None for a job that timed out; `text` is None when the
    job wrote no report.
    """
    attempted = len(expected)
    if exit_code != 0 or text is None:
        return attempted, attempted, [f"{subcommand}: exit {exit_code}"]
    try:
        payload = json.loads(text)
        items, errors = payload["items"], payload["errors"]
    except (ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"{subcommand}: unreadable report ({exc})"]
    reasons = [f"{subcommand}: item error {e}" for e in errors]
    failed = len(errors)
    attempted += len(errors)
    seen = set()
    for item in items:
        keys = FILTERED_KEYS if "field" in item else ITEM_KEYS[subcommand]
        key = tuple(item.get(k) for k in keys)
        want = expected.get(key)
        if want is None or key in seen:
            attempted += 1
            failed += 1
            reasons.append(f"{subcommand}: unexpected item {key}")
            continue
        seen.add(key)
        wrong = {f: item.get(f) for f, v in want.items() if item.get(f, object()) != v}
        if wrong:
            failed += 1
            reasons.append(f"{subcommand}: {key} has {wrong}, expected "
                           f"{ {f: want[f] for f in wrong} }")
    missing = [key for key in expected if key not in seen]
    failed += len(missing)
    reasons.extend(f"{subcommand}: missing item {key}" for key in missing)
    return attempted, failed, reasons
