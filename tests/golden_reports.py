"""Golden reports: the CLI's exit code and the sha256 of its stdout, stderr and `--out` file, for
a fixed list of cases, checked against the manifest `golden/reports.json`.

    PYTHONPATH=src python tests/golden_reports.py             # check the bundled cases
    PYTHONPATH=src python tests/golden_reports.py --bench     # check the benchmark-input cases
    PYTHONPATH=src python tests/golden_reports.py --write     # regenerate the whole manifest

Every case runs in-process through `cli.main`, from one working directory holding its input
files, with relative paths: the report's `job` echo records paths as given.  The bundled cases
(every subcommand form on bundled inputs, in json and csv, at default caps, `--cap-order 5` and
`--cap-subgroups 20`; the GF2-GF9 power specs; action files; one malformed file per input kind)
run in tier-1 (`test_golden.py`).  The benchmark-input cases run the benchmark's jobs on the
files `perfbench/inputs.py` writes at seeds 3 and 11; that file and the job list in
`perfbench/run.py` are imported and only read.  A change that moves report bytes on purpose
regenerates the manifest and names the moved cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from grouplab.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden" / "reports.json"
PERFBENCH = HERE.parent / "perfbench"
BENCH_SEEDS = (3, 11)

_FORMS = {  # one bundled form of each subcommand, and the option forms that change what is read
    "analyze-group": ["analyze-group"],
    "analyze-group-named": ["analyze-group", "--group", "Q8", "--group", "A5", "--group", "Z17"],
    "neumann": ["neumann"],
    "rho-com": ["rho", "--kind", "com"],
    "rho-r": ["rho", "--kind", "r", "--max-order", "12", "--mode", "small"],
    "verify-inequalities": ["verify-inequalities"],
    "verify-inequalities-beta": ["verify-inequalities", "--beta-table", "beta.json"],
    "inverse-system": ["inverse-system"],
    "inverse-system-named": ["inverse-system", "--tower", "z8-chain"],
    "boolean-power": ["boolean-power", "--base", "S3", "--atoms", "2"],
    "ring-from-module": ["ring-from-module"],
    "ring-from-module-named": ["ring-from-module", "--example", "swap-gf3"],
}
_CAPS = {"default": [], "cap-order-5": ["--cap-order", "5"], "cap-subgroups-20": ["--cap-subgroups", "20"]}

_SHIFT4 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
_INPUTS = {  # file -> payload, written into the working directory
    "beta.json": {"0": 1, "1": 1, "2": 2, "3": 6, "4": 24},
    "beta-short.json": {"1": 1},
    **{f"spec-gf{q}.json": {"field": f"GF{q}", "atoms": 3} for q in (2, 3, 4, 5, 7, 8, 9)},
    "spec-gf4-sub.json": {"field": "GF4", "atoms": 2, "constraints": [{"points": [0], "subfield": "GF2"}]},
    "spec-gf9-sub.json": {"field": "GF9", "atoms": 3, "constraints": [{"points": [0, 2], "subfield": "GF3"}]},
    "spec-base.json": {"base_group": "S3", "atoms": 2},
    "action-well.json": {"group": "Z4", "p": 5, "dim": 4, "matrices": {"1": _SHIFT4}, "v": [1, 0, 0, 0]},
    "action-ill.json": {"group": "S3", "p": 5, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]], "2": [[0, 4], [1, 4]]},
                        "v": [1, 0]},
    "action-no-v.json": {"group": "Z4", "p": 5, "dim": 4, "matrices": {"1": _SHIFT4}},
    "action-no-span.json": {"group": "Z2", "p": 3, "dim": 2, "matrices": {"1": [[1, 0], [0, 1]]}, "v": [1, 0]},
    "corpus/S3.json": {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "corpus/Q8.json": {"name": "Q8", "degree": 8, "generators": [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]},
    "tower.json": {"group": "Z4", "chain": [[0, 1, 2, 3], [0, 2], [0]]},
    # one malformed file per input kind
    "bad-group/G.json": {"name": "G", "degree": 3, "generators": [[1, 1, 2]]},
    "bad-index/index.json": [{"name": "S3", "order": 5, "file": "S3.json"}],
    "bad-index/S3.json": {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "bad-tower.json": {"group": "Z4", "chain": [[0, 1, 2, 3], [0, 1]]},
    "bad-action.json": {"group": "Z2", "p": 4, "dim": 2, "matrices": {"1": [[0, 1], [1, 0]]}},
    "bad-beta.json": {"1": 0},
    "bad-spec.json": {"field": "GF6", "atoms": 2},
}
_FILE_CASES = {
    **{f"boolean-power-spec-gf{q}": ["boolean-power", "--spec", f"spec-gf{q}.json"] for q in (2, 3, 4, 5, 7, 8, 9)},
    "boolean-power-spec-gf4-sub": ["boolean-power", "--spec", "spec-gf4-sub.json"],
    "boolean-power-spec-gf9-sub": ["boolean-power", "--spec", "spec-gf9-sub.json"],
    "boolean-power-spec-base": ["boolean-power", "--spec", "spec-base.json"],
    "ring-from-module-well-defined": ["ring-from-module", "--action-file", "action-well.json"],
    "ring-from-module-ill-defined": ["ring-from-module", "--action-file", "action-ill.json"],
    "ring-from-module-without-v": ["ring-from-module", "--action-file", "action-no-v.json"],
    "ring-from-module-no-span": ["ring-from-module", "--action-file", "action-no-span.json"],
    "neumann-corpus": ["neumann", "--corpus", "corpus"],
    "inverse-system-tower-file": ["inverse-system", "--tower-file", "tower.json"],
    "malformed-group": ["neumann", "--corpus", "bad-group"],
    "malformed-index": ["neumann", "--corpus", "bad-index"],
    "malformed-tower": ["inverse-system", "--tower-file", "bad-tower.json"],
    "malformed-action": ["ring-from-module", "--action-file", "bad-action.json"],
    "malformed-beta": ["verify-inequalities", "--beta-table", "bad-beta.json"],
    "malformed-spec": ["boolean-power", "--spec", "bad-spec.json"],
    "beta-missing-rank": ["verify-inequalities", "--beta-table", "beta-short.json"],
    "missing-file": ["ring-from-module", "--action-file", "no-such-file.json"],
    "cap-out-of-range": ["neumann", "--cap-order", "0"],
    "missing-arguments": ["boolean-power"],
}


def bundled_cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, paths relative to a directory `write_inputs` has filled."""
    cases = {}
    for form, argv in _FORMS.items():
        for fmt in ("json", "csv"):
            for cap, flags in _CAPS.items():
                cases[f"{form}.{fmt}.{cap}"] = [*argv, "--format", fmt, *flags]
    for name, argv in _FILE_CASES.items():
        for fmt in ("json", "csv"):
            cases[f"{name}.{fmt}"] = [*argv, "--format", fmt]
    return cases


def write_inputs(root: Path) -> None:
    for name, payload in _INPUTS.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def bench_cases(root: Path) -> dict[str, list[str]]:
    """The benchmark's jobs on its inputs at each of `BENCH_SEEDS`, written under `root`."""
    inputs, run = _module("inputs"), _module("run")  # run.py puts its own directory on sys.path
    cases = {}
    for seed in BENCH_SEEDS:
        inputs.generate(seed, root / f"seed{seed}")
        for _, jobs in sorted(run.WORKLOADS.items()):
            for job in jobs:
                cases[f"bench.seed{seed}.{job.name}"] = [a.replace("{in}", f"seed{seed}") for a in job.argv]
    return cases


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str]) -> dict:
    """Run one case in the current directory: its exit code and the sha256 of its streams and report."""
    out, stdout, stderr = Path("report.out"), io.StringIO(), io.StringIO()
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    report = _sha256(out.read_bytes()) if out.exists() else None
    out.unlink(missing_ok=True)
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()), "stderr": _sha256(stderr.getvalue().encode()),
            "out": report}


def run_cases(bench: bool) -> dict[str, dict]:
    """Every bundled case, or every benchmark-input case, run in a fresh working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        try:
            os.chdir(root)
            if bench:
                cases = bench_cases(root)
            else:
                write_inputs(root)
                cases = bundled_cases()
            return {name: run_case(argv) for name, argv in cases.items()}
        finally:
            os.chdir(cwd)


def moved(got: dict[str, dict], manifest: dict[str, dict]) -> list[str]:
    """The cases whose result differs from the manifest's, or that it lacks."""
    return [name for name, result in got.items() if manifest.get(name) != result]


def load_manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _main(args: list[str]) -> int:
    if "--write" in args:
        manifest = {**run_cases(bench=False), **run_cases(bench=True)}
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(manifest)} cases to {MANIFEST}")
        return 0
    got = run_cases(bench="--bench" in args)
    differ = moved(got, load_manifest())
    for name in differ:
        print(f"moved: {name}")
    print(f"{len(got) - len(differ)} of {len(got)} cases match the manifest")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
