"""Smoke test of the benchmark at its tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

Every workload must emit every metric named in BENCHMARK.json, with its
unit, and no failed job; traced counts must repeat exactly between two
traced runs; and the benchmark must refuse to run without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = ("core.clusters", "dynamics.vectors", "mixed.samples")


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    return result


def units(result) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_emitted(workload):
    result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result_of(run(workload, 1)), result_of(run(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == expected and units(second) == expected
    counts = [n for n in expected if n.endswith(".calls") or n in REPEATED_COUNTS]
    assert all(first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts)
    assert first["metrics"]["cli.self_s"]["value"] > 0


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
