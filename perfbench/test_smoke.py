"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced, and checks that a corrupted or
missing output is counted as a failed command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str((cwd or HERE.parent) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_workloads_match_the_benchmark_file():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert set(json.loads(proc.stdout.splitlines()[-2])["computed"]) <= set(units)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture
def smoke_round():
    sys.path.insert(0, str(run.SRC))
    from dyninfer import cli

    work = run.WORK_ROOT / "test-smoke"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.prepare(cli, "stationary_yield", "smoke", 0, work)
        segment = run.run_segment(prepared, work, False, 0.0, workloads.load_digests())
        outputs = {c.name: (work / c.output).read_bytes() for c in prepared.commands}
        (entry,) = segment["rounds"]
        exits = {c["name"]: c["exit"] for c in entry["commands"]}
        yield prepared, outputs, exits, segment
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_corrupted_output_counts_as_failed(smoke_round):
    prepared, outputs, exits, segment = smoke_round
    digests = workloads.load_digests()
    assert segment["rounds"][0]["failures"] == {}

    flipped = dict(outputs, evaluate=outputs["evaluate"].replace(b"0", b"1", 1))
    failures = workloads.check_pass(prepared, flipped, exits, digests)
    assert set(failures) == {"evaluate"}

    solve = json.loads(outputs["solve"])
    solve["min_loss"] += 1e-6
    wrong = dict(outputs, solve=json.dumps(solve).encode())
    assert set(workloads.check_pass(prepared, wrong, exits, digests)) == {"solve", "evaluate"}

    missing = dict(outputs, solve=None)
    assert "solve" in workloads.check_pass(prepared, missing, exits, digests)
    assert "solve" in workloads.check_pass(prepared, outputs, dict(exits, solve=1), digests)

    attempted = len(prepared.commands)
    metrics = run.end_to_end_metrics([segment], [(0.1, 0.05)], attempted, len(failures))
    assert metrics["ops_ok_frac"]["value"] == (attempted - 1) / attempted


def test_failed_runs_do_not_count_as_times():
    def entry(seconds, failures):
        return {"commands": [{"name": "solve", "seconds": seconds}], "failures": failures, "ref_s": run.REFERENCE_S}

    segment = {"rounds": [entry(0.5, {}), entry(0.01, {"solve": "exit status 1"}), entry(0.4, {})]}
    assert run.command_times([segment]) == {"solve": [0.5, 0.4]}


def test_times_are_scaled_to_reference_speed():
    slow_host = {"commands": [{"name": "solve", "seconds": 0.6}], "failures": {}, "ref_s": 2 * run.REFERENCE_S}
    assert run.command_times([{"rounds": [slow_host]}]) == {"solve": [0.3]}
    assert run.command_times([{"rounds": [slow_host]}], scaled=False) == {"solve": [0.6]}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "verify_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
