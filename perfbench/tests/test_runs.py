"""Every kind of run, at its shortest length, ends with a result line.

These start the benchmark as the command in BENCHMARK.json names it,
from the repository root, and take about three minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run(ROOT, workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics = result_of(run(ROOT, workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert (ROOT / ".perfbench_traces" / f"{workload}.spans.tsv").exists()


def test_traced_call_counts_repeat_for_a_seed():
    def calls(proc):
        metrics = result_of(proc)["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}

    first = calls(run(ROOT, "learn", 1, seed=11))
    assert first == calls(run(ROOT, "learn", 1, seed=11))
    assert first["learner.evaluate_grammar.calls"] > 0


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
