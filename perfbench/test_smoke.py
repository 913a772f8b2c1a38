"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# Layers that do work in each workload; the rest must stay idle.
ACTIVE = {
    "corpus": {"cli", "jsonio", "grassmann", "functors", "strata", "bundle",
               "monoid", "equivariant", "foliation"},
    "cloud": {"cli", "jsonio", "grassmann", "strata", "foliation"},
    "fibers": {"cli", "jsonio", "grassmann", "functors", "strata", "bundle"},
    "orbits": {"cli", "jsonio", "grassmann", "strata", "bundle",
               "equivariant", "foliation"},
}
LAYERS = set(ACTIVE["corpus"])


def bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_end_to_end_metrics(workload):
    proc = bench(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_traced_layers(workload):
    proc = bench(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == want
    busy = {layer for layer in LAYERS
            if metrics[f"{layer}.share"]["value"] > 0}
    assert busy == ACTIVE[workload]
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "corpus", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
