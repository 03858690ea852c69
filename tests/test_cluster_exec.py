"""Fleet telemetry gathered by the coordinator from real shard workers.

One module-scoped fleet of two ``repro shard-worker`` subprocesses; a
release is registered and solved directly on one worker, and the
coordinator's cross-shard aggregate must carry that worker's engine
cache counters, broken down by cache-key prefix.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator
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
