"""Self-tests of the benchmark: checker, traced driver, inputs, metric names.

    python3 -m pytest perfbench -q

They run grouplab in child interpreters with the checkout's ``src`` on the
path, as the benchmark does, so the tracer's patching never leaks into the
test process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
from inputs import GROUPS, TOWER_FILE  # noqa: E402
from layers import metric_units, span_metrics  # noqa: E402


def _child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120, check=False, **kwargs)


def _cli(args: list[str]) -> str:
    proc = _child(["-m", "grouplab.cli", *args])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _traced(tmp_path: Path, job: str, args: list[str]) -> dict:
    spans = tmp_path / f"{job}.spans.json"
    out = tmp_path / f"{job}.json"
    proc = _child([str(HERE / "trace_job.py"), str(spans), job, "--", *args, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    trace["report"] = out.read_bytes()
    return trace


def test_checker_accepts_the_bundled_report_and_rejects_one_altered_pairs_value():
    expected = run.WORKLOADS["lattice"][1].expected
    text = _cli(["analyze-group"])
    assert check.check_report("analyze-group", expected, 0, text) == (25, 0, [])

    payload = json.loads(text)
    payload["items"][6]["pairs"] += 1
    attempted, failed, reasons = check.check_report("analyze-group", expected, 0,
                                                    json.dumps(payload))
    assert (attempted, failed) == (25, 1)
    assert "pairs" in reasons[0]


def test_checker_counts_missing_extra_and_failed_jobs():
    expected = {("S3",): check.group_row("S3", full=False)}
    row = {"name": "S3", **check.group_row("S3", full=False)}
    extra = {"name": "Z2", **check.group_row("Z2", full=False)}
    ok = json.dumps({"items": [row], "errors": []})
    assert check.check_report("neumann", expected, 0, ok)[:2] == (1, 0)
    assert check.check_report("neumann", expected, None, ok)[:2] == (1, 1)
    empty = json.dumps({"items": [], "errors": []})
    assert check.check_report("neumann", expected, 0, empty)[:2] == (1, 1)
    both = json.dumps({"items": [row, extra], "errors": [{"item": "x", "error": "boom"}]})
    assert check.check_report("neumann", expected, 0, both)[:2] == (3, 2)


def test_pairs_follow_the_burnside_identity():
    for name, want in {"Z2^5": 1024, "D4xQ8": 1600, "S5": 840,
                       "A5xA5": 90000, "S7": 75600}.items():
        assert check.group_row(name, full=True)["pairs"] == want
    assert check.tower_rows("s6-stabilisers")[("s6-stabilisers", 1)]["pairs"] == 7920


def test_traced_neumann_s3_enumerates_normal_subgroups_once(tmp_path):
    trace = _traced(tmp_path, "s3", ["neumann", "--group", "S3"])
    metrics = span_metrics([trace])
    assert metrics["structure.enumerate_normal_subgroups.calls"] == 1
    assert metrics["structure.enumerate_normal_subgroups.found"] == 3
    _cli(["neumann", "--group", "S3", "--out", str(tmp_path / "plain.json")])
    assert trace["report"] == (tmp_path / "plain.json").read_bytes()


PROFILED = """
import sys
sys.path.insert(0, sys.argv[1])
import trace_job
tracer = trace_job.Tracer()
trace_job.install(tracer)
import grouplab.groups as groups
import grouplab.cli as cli
code = groups.commutator_subgroup.__wrapped__.__code__
calls = 0
def profile(frame, event, arg):
    global calls
    if event == "call" and frame.f_code is code:
        calls += 1
sys.setprofile(profile)
for argv in (["neumann", "--group", "S3"], ["inverse-system", "--tower", "s3-cosets"]):
    assert cli.main([*argv, "--out", sys.argv[2]]) == 0
sys.setprofile(None)
names = tracer.names
parents = sorted({names[tracer.spans[s[3]][0]] for s in tracer.spans
                  if names[s[0]] == "groups.commutator_subgroup" and s[3] >= 0})
traced = sum(names[s[0]] == "groups.commutator_subgroup" for s in tracer.spans)
print(calls, traced, ",".join(parents))
"""


def test_function_called_from_two_modules_is_counted_from_both(tmp_path):
    proc = _child(["-c", PROFILED, str(HERE), str(tmp_path / "out.json")])
    assert proc.returncode == 0, proc.stderr
    calls, traced, parents = proc.stdout.split()
    assert int(calls) == int(traced) > 0
    assert {"measure.neumann_search", "towers.commutator_level_check"} <= set(parents.split(","))


def test_inputs_repeat_per_seed_and_change_across_seeds(tmp_path):
    def generate(seed: int, name: str) -> dict[str, bytes]:
        out = tmp_path / name
        proc = _child([str(HERE / "inputs.py"), "--seed", str(seed), "--dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.json"))}

    first, again, other = generate(3, "a"), generate(3, "b"), generate(4, "c")
    assert first == again
    assert first.keys() == other.keys()
    assert first["lattice/S5.json"] != other["lattice/S5.json"]
    chain = json.loads(first[TOWER_FILE])["chain"]
    assert [len(c) for c in chain] == [720, 120, 24, 6]
    assert {json.loads(first[f"{corpus}/{name}.json"])["name"]
            for corpus, names in run.CORPORA.items() for name in names} == set(GROUPS)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == metric_units()
    assert len(per_layer) == 115


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_job_has_expected_items(workload):
    for job in run.WORKLOADS[workload]:
        assert job.expected, job.name
        assert job.subcommand in check.ITEM_KEYS
