"""Smoke test of the benchmark itself.

Each workload runs at a tiny size, untraced and traced, and must emit
every metric ``BENCHMARK.json`` names, with its unit, and fail no
operation.  Each full-size workload also runs once through the command
line at the default seed, where the recorded fingerprints apply.

    python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "table1_select": replace(WORKLOADS["table1_select"], n_vertices=12, n_blocks=3),
    "simulate_txload": replace(WORKLOADS["simulate_txload"], n_blocks=8, mempool_rate=20, max_block_txs=15),
    "censor_sweep": replace(WORKLOADS["censor_sweep"], max_depth=6),
}


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run_emits_end_to_end_metrics(name):
    workload = TINY[name]
    raw = worker.measure(workload, workload.prepare(3), 3, seconds=0, trace=False)
    setup, _ = run.start_worker([name, "3", "0", "0", "--probe"], time.monotonic() + 60)
    metrics, extras = run.end_to_end(raw, [setup])
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert raw["failed"] == 0 and extras["fail_ratio"][0] == 0, raw["problems"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_emits_layer_metrics(name):
    workload = TINY[name]
    raw = worker.measure(workload, workload.prepare(3), 3, seconds=0, trace=True)
    metrics = run.per_layer(raw)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("per_layer")
    assert raw["failed"] == 0, raw["problems"]
    assert metrics["trace.overhead_ratio"][0] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_command_line_run_at_default_seed(name):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(DEFAULT_SEED),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "censor_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
