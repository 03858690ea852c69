"""Fleet telemetry gathered by the coordinator from real shard workers.

One module-scoped fleet of two ``repro shard-worker`` subprocesses; a
release is registered and solved directly on one worker, and the
coordinator's cross-shard aggregate must carry that worker's engine
cache counters, broken down by cache-key prefix.  Locally spawned
workers run their BLAS on one thread unless the operator chose a count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator
from repro.cluster.coordinator import BLAS_THREAD_VARIABLES, _worker_environment
from repro.data.paper_example import S1, paper_published
from repro.knowledge.statements import ConditionalProbability

KNOWLEDGE = [
    ConditionalProbability(given={"gender": "male"}, sa_value=S1, probability=0.0)
]


@pytest.fixture(scope="module")
def coordinator():
    with ClusterCoordinator.spawn_local(2) as fleet:
        handle = fleet.handles[0]
        with handle.client(timeout=30) as client:
            release_id = client.register(paper_published(), name="paper")
            client.posterior(release_id, KNOWLEDGE)
        yield fleet


class TestClusterExecutorPlumbing:
    def test_worker_telemetry_exposes_prefix_counters(self, coordinator):
        telemetry = coordinator.aggregate_telemetry()
        aggregate = telemetry["aggregate"]
        assert aggregate["cache_misses"] > 0
        assert aggregate["cache_by_prefix"]
        for counters in aggregate["cache_by_prefix"].values():
            assert set(counters) == {"hits", "misses", "evictions"}


class TestWorkerEnvironment:
    def test_spawned_workers_carry_the_blas_pin(self, coordinator):
        for handle in coordinator.handles:
            environ = Path(f"/proc/{handle.process.pid}/environ")
            if not environ.exists():
                pytest.skip("no /proc to read a worker's environment from")
            entries = dict(
                entry.split("=", 1)
                for entry in environ.read_text().split("\0")
                if "=" in entry
            )
            for name in BLAS_THREAD_VARIABLES:
                assert entries[name] == os.environ.get(name, "1")

    def test_unset_thread_counts_are_pinned_to_one(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        script = (
            "import os; print(' '.join(os.environ[n] for n in "
            f"{BLAS_THREAD_VARIABLES!r}))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=_worker_environment(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout.split() == ["1"] * len(BLAS_THREAD_VARIABLES)

    def test_an_operator_thread_count_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        env = _worker_environment()
        assert env["OPENBLAS_NUM_THREADS"] == "2"
        assert env["OMP_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] == "4"
