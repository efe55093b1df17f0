"""Smoke test of the benchmark runner at its tiny size (about two minutes).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, traced and untraced, must emit exactly the metrics that
BENCHMARK.json names, each with its unit; a forced gate failure must show up
in failed_frac; and the runner must refuse to run without a seed or without
the spinldp sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run as runner  # noqa: E402
from workloads import LatticeGrowth  # noqa: E402


def invoke(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = invoke("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


class BiasedMoments(LatticeGrowth):
    """lattice-growth with moment_series shifted by +0.5: its gates must fire."""

    def build(self, mods, seed, size, workdir):
        inputs = super().build(mods, seed, size, workdir)
        real = mods.lattice.moment_series
        mods.lattice.moment_series = lambda *args, **kwargs: real(*args, **kwargs) + 0.5
        return inputs


def test_forced_gate_failure_raises_failed_frac():
    record = runner.run_workload(BiasedMoments(), seed=7, seconds=0, trace=0, size="tiny")
    assert record["failed_frac"] > 0
    assert not record["result"]["correct"]
    assert all(any("moment" in f for f in p["failures"]) for p in record["passes"])


def test_missing_seed_is_rejected():
    proc = invoke("--workload", "lattice-growth", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "--seed" in proc.stderr
    assert proc.stdout.strip() == ""


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = invoke("--workload", "lattice-growth", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

