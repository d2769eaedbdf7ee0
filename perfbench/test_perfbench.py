"""The benchmark's own test: every workload at tiny sizes, no timing gate.

    python3 -m pytest perfbench

Checks the result schema against BENCHMARK.json, that no request fails,
that two runs on one seed give one digest and two seeds give two, and that
the benchmark refuses to run where there is no program to measure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int = 0, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_and_deterministic(workload):
    first, result = parse(bench(workload, seed=1))
    check_result(result, "end_to_end")
    assert first["ops_failed_frac"] == 0
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert first["samples"] >= 3
    again, _ = parse(bench(workload, seed=1))
    other, _ = parse(bench(workload, seed=2))
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    detail, result = parse(bench(workload, seed=1, trace=1))
    check_result(result, "per_layer")
    assert detail["ops_failed_frac"] == 0
    untraced, _ = parse(bench(workload, seed=1))
    assert detail["digest"] == untraced["digest"]
    layers = detail["layers"]
    assert "request" in layers
    assert all(0.0 <= row["busy_frac"] <= 1.0 for name, row in layers.items() if name != "request")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], seed=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
