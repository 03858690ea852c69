"""Self-tests of the benchmark: tiny runs of every workload.

    python3 -m pytest perfbench -q        # from the repository root; ~3 min
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from layers import PER_LAYER, TABLE  # noqa: E402
from run import END_TO_END, OPS_PER_SECOND  # noqa: E402

WORKLOADS = tuple(OPS_PER_SECOND)


def bench(*arguments: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def tiny(workload: str, *, trace: int, perturb: bool = False) -> dict:
    arguments = ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"]
    if perturb:
        arguments.append("--perturb")
    completed = bench(*arguments)
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = tiny(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    assert metrics["ok_share"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_answers_are_counted_failed(workload):
    result = tiny(workload, trace=0, perturb=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_share"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_table_sums_to_wall_time(workload):
    result = tiny(workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == PER_LAYER
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.op_wall_s"]
    assert wall > 0
    assert sum(value[name] for name in TABLE) + value["other_s"] == pytest.approx(wall)
    assert abs(value["other_s"]) <= 0.05 * wall


def test_gauge_scales_each_timing_by_the_samples_around_it(monkeypatch):
    levels = iter([1.0] * 6 + [3.0] * 6 + [2.0] * 6)
    monkeypatch.setattr(calibrate, "kernel", lambda: next(levels))
    gauge = calibrate.Gauge()
    gauge.time("op", 5.0)  # before the first sample: warm-up, dropped
    gauge.sample()
    gauge.time("op", 4.0)
    gauge.sample()
    gauge.time("hit", 10.0)
    gauge.sample()
    reference = calibrate.REFERENCE_SECONDS
    assert gauge.scaled["op"] == pytest.approx([4.0 * reference / 2.0])
    assert gauge.scaled["hit"] == pytest.approx([10.0 * reference / 2.5])
    assert gauge.factor() == pytest.approx(2.0 / reference)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = bench("--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
