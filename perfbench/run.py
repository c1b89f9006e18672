"""grouplab benchmark: CLI jobs in fresh interpreters, exact-answer checks, traced layers.

    python3 perfbench/run.py --workload lattice|large|algebra --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; grouplab is imported from its ``src``.
Each job is one ``grouplab`` CLI invocation in a fresh, single-threaded
interpreter, timed from spawn to exit by this harness, with its peak RSS
and CPU time read from its own rusage.  Jobs run one at a time.  Inputs are
generated from the seed into a scratch directory inside the checkout that
is removed at exit.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters that import grouplab and load the workload's corpora),
pass time and peak RSS (medians over the passes that fit in --seconds, at
least one) and the share of report items that are correct.  --trace 1
runs one untraced and one traced pass and prints the per-layer metrics of
`layers.py`.  Every report item is checked against exact expected values
(`check.py`), and reports of one job must be byte-identical across the
passes of a run.  The last line of stdout is the JSON result; lines before
it are human-readable detail and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from inputs import ACTION_FILE, CORPORA, POWER_SPEC, TOWER_FILE  # noqa: E402
from layers import SUBCOMMANDS, metric_units, span_metrics  # noqa: E402

JOB_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_REPEATS = 5
BUNDLED = "-"            # stands for the bundled corpus in set-up probes
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

# The set-up probe: a fresh interpreter imports grouplab and loads corpora.
SETUP_CODE = ("import sys, grouplab\n"
              "for d in sys.argv[1:]:\n"
              "    grouplab.bundled_corpus() if d == '-' else grouplab.load_corpus(d)\n")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]      # grouplab arguments; "{in}" is the input directory
    expected: dict[tuple, dict]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def args(self, inputs: Path) -> list[str]:
        return [a.replace("{in}", str(inputs)) for a in self.argv]

    def corpus(self, inputs: Path) -> str:
        args = self.args(inputs)
        return args[args.index("--corpus") + 1] if "--corpus" in args else BUNDLED


# Why these workloads: `lattice` is small groups with rich subgroup lattices
# (structure/measure bound), `large` is big Cayley tables with few normal
# subgroups (groups/towers bound, no subgroup enumeration), `algebra` is the
# materialised Boolean-power and module-ring constructions.  The same
# functions (enumerate_normal_subgroups, commutator_subgroup) run on very
# different inputs across them, so a trade between uses shows as a
# regression on some workload.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "lattice": (
        Job("lattice-analyze", ("analyze-group", "--corpus", "{in}/lattice"),
            check.group_rows(CORPORA["lattice"], full=True)),
        Job("bundled-analyze", ("analyze-group",),
            check.group_rows(check.BUNDLED_NAMES, full=True)),
    ),
    "large": (
        Job("bundled-towers", ("inverse-system",),
            check.tower_rows("a5-square", "s3-cosets", "z8-chain")),
        Job("s6-tower", ("inverse-system", "--corpus", "{in}/s6", "--tower-file",
                         f"{{in}}/{TOWER_FILE}"),
            check.tower_rows("s6-stabilisers")),
        Job("large-neumann", ("neumann", "--corpus", "{in}/large"),
            check.group_rows(CORPORA["large"], full=False)),
    ),
    "algebra": (
        Job("bp-a5", ("boolean-power", "--base", "A5", "--atoms", "2"),
            check.boolean_power_rows("A5")),
        Job("bp-z4", ("boolean-power", "--base", "Z4", "--atoms", "3"),
            check.boolean_power_rows("Z4")),
        Job("bp-gf9", ("boolean-power", "--spec", f"{{in}}/{POWER_SPEC}"),
            {("GF9", 3): check.FILTERED_GF9}),
        Job("ring-bundled", ("ring-from-module",),
            check.ring_rows(("regular-gf2", "s3-std-gf5", "swap-gf3"))),
        Job("ring-z4", ("ring-from-module", "--action-file", f"{{in}}/{ACTION_FILE}"),
            check.ring_rows(("z4-regular-gf5",))),
    ),
}


@dataclass
class JobRun:
    job: Job
    wall_s: float
    rss_kb: int
    cpu_s: float
    exit_code: int | None      # None: killed at the timeout
    report: bytes | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Spawns children one at a time and keeps the run inside its deadline."""

    def __init__(self, scratch: Path, started: float) -> None:
        self.scratch = scratch
        self.deadline = started + RUN_DEADLINE_S
        self.env = child_env()

    def spawn(self, argv: list[str], *, stderr_path: Path) -> tuple[float, int, float, int | None]:
        """(wall s, peak RSS KB, user+sys s, exit code or None on timeout) of one child."""
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if timed_out.is_set() else proc.returncode
        return wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime, code

    def run_job(self, job: Job, inputs: Path, tag: str, spans: Path | None = None) -> JobRun:
        out = self.scratch / f"{tag}-{job.name}.json"
        args = [*job.args(inputs), "--out", str(out)]
        if spans is None:
            argv = [sys.executable, "-m", "grouplab.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "trace_job.py"), str(spans), job.name, "--", *args]
        wall, rss, cpu, code = self.spawn(argv, stderr_path=out.with_suffix(".err"))
        report = out.read_bytes() if out.exists() else None
        if code != 0:
            sys.stdout.write(f"# {job.name}: exit {code}: "
                             f"{out.with_suffix('.err').read_text(errors='replace')[-400:]}\n")
        return JobRun(job, wall, rss, cpu, code, report)

    def setup_probe(self, corpora: list[str], tag: str) -> float:
        wall, _, _, code = self.spawn([sys.executable, "-c", SETUP_CODE, *corpora],
                                      stderr_path=self.scratch / f"{tag}.err")
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}")
        return wall

    def generate(self, seed: int, inputs: Path) -> None:
        _, _, _, code = self.spawn(
            [sys.executable, str(HERE / "inputs.py"), "--seed", str(seed), "--dir", str(inputs)],
            stderr_path=self.scratch / "inputs.err")
        if code != 0:
            err = (self.scratch / "inputs.err").read_text(errors="replace")
            raise RuntimeError(f"input generation failed with exit {code}: {err[-400:]}")


class Tally:
    """Attempted and failed report items over every job run in this process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_report: dict[str, bytes] = {}

    def add(self, run: JobRun) -> None:
        text = run.report.decode("utf-8") if run.report is not None else None
        attempted, failed, reasons = check.check_report(
            run.job.subcommand, run.job.expected, run.exit_code, text)
        first = self.first_report.setdefault(run.job.name, run.report)
        if run.report != first:
            reasons.append(f"{run.job.name}: report bytes differ from the first pass")
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        for reason in reasons:
            sys.stdout.write(f"# FAIL {reason}\n")


def run_pass(runner: Runner, jobs: tuple[Job, ...], inputs: Path, tally: Tally, tag: str,
             traced: bool = False, between: Callable[[], None] | None = None,
             ) -> tuple[list[JobRun], list[dict]]:
    """Run each job once; `between` is called before each job and after the last."""
    runs, traces = [], []
    for job in jobs:
        if between is not None:
            between()
        spans = runner.scratch / f"{tag}-{job.name}.spans.json" if traced else None
        run = runner.run_job(job, inputs, tag, spans)
        tally.add(run)
        runs.append(run)
        if spans is not None and spans.exists():
            traces.append(json.loads(spans.read_text(encoding="utf-8")))
        sys.stdout.write(f"# {tag} {job.name}: {run.wall_s:.3f} s, "
                         f"{run.rss_kb / 1024:.1f} MB, exit {run.exit_code}\n")
    if between is not None:
        between()
    return runs, traces


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "src_lines": src_lines, "python": sys.version.split()[0],
            "numpy": numpy_version, "nproc": os.cpu_count(), "seed": seed,
            "job_timeout_s": JOB_TIMEOUT_S}


def measure(runner: Runner, jobs: tuple[Job, ...], inputs: Path, seconds: int,
            tally: Tally) -> dict:
    corpora = list(dict.fromkeys(job.corpus(inputs) for job in jobs))
    setups: list[float] = []

    def probe() -> None:
        setups.append(runner.setup_probe(corpora, f"setup{len(setups)}"))

    # Set-up probes sit between the first pass's jobs, so that their median
    # samples the machine across the run rather than in one burst.
    pass_walls, pass_rss = [], []
    spent = 0.0
    while not pass_walls or spent + statistics.median(pass_walls) <= seconds:
        runs, _ = run_pass(runner, jobs, inputs, tally, f"pass{len(pass_walls)}",
                           between=None if pass_walls else probe)
        pass_walls.append(sum(r.wall_s for r in runs))
        pass_rss.append(max(r.rss_kb for r in runs) / 1024)
        spent += pass_walls[-1]
    while len(setups) < SETUP_REPEATS:
        probe()
    sys.stdout.write(f"# set-up probes {[round(s, 4) for s in setups]}, "
                     f"passes {[round(p, 3) for p in pass_walls]}\n")
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_walls),
        "peak_rss_mb": statistics.median(pass_rss),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def trace(runner: Runner, jobs: tuple[Job, ...], inputs: Path, tally: Tally) -> dict:
    plain, _ = run_pass(runner, jobs, inputs, tally, "plain")
    traced, traces = run_pass(runner, jobs, inputs, tally, "traced", traced=True)
    values = span_metrics(traces)
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = sum(r.wall_s for r in plain if r.job.subcommand == sub)
    values["cli.cpu_s"] = sum(r.cpu_s for r in plain)
    values["trace.overhead_frac"] = (sum(r.wall_s for r in traced)
                                     / sum(r.wall_s for r in plain) - 1)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in metric_units().items()}


def main() -> int:
    started = time.monotonic()
    # a terminated harness still kills its running child and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "grouplab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no grouplab sources under {ROOT / 'src'}\n")
        return 2

    sys.stdout.write(f"# provenance {json.dumps(provenance(args.seed), sort_keys=True)}\n")
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    try:
        runner = Runner(scratch, started)
        inputs = scratch / "inputs"
        runner.generate(args.seed, inputs)
        runner.setup_probe([BUNDLED], "warmup")  # byte-compiles grouplab once, untimed
        jobs = WORKLOADS[args.workload]
        tally = Tally()
        if args.trace:
            metrics = trace(runner, jobs, inputs, tally)
        else:
            metrics = measure(runner, jobs, inputs, args.seconds, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
