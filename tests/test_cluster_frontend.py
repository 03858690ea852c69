"""The sharded serving front-end over a real worker fleet.

Each test boots a `ShardedFrontend` (on its own event-loop thread) over
freshly spawned ``repro shard-worker`` subprocesses and drives it with
the blocking service client — the same path ``repro serve --shards N``
serves production traffic on.  The failover tests kill real worker
processes and assert the front-end's routing contract: registration
walks rendezvous successors past dead owners, solves re-home pinned
release ids, and fleet health degrades visibly.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    SHARD_PROTOCOL,
    ClusterCoordinator,
    ShardClient,
    ShardedFrontend,
)
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import Q4, S1, paper_published
from repro.knowledge.statements import ConditionalProbability
from repro.service import BackgroundService, ServiceClient, ServiceConfig

KNOWLEDGE = [
    ConditionalProbability(given={"gender": "male"}, sa_value=S1, probability=0.0)
]


@pytest.fixture()
def fleet():
    with ClusterCoordinator.spawn_local(2) as coordinator:
        yield coordinator


@pytest.fixture()
def frontend(fleet):
    service = ShardedFrontend(
        ServiceConfig(port=0), coordinator=fleet, owns_coordinator=False
    )
    with BackgroundService(service) as background:
        with ServiceClient(port=background.port) as client:
            client.wait_until_healthy(timeout=15)
            yield fleet, service, client


def _kill(fleet, worker_id: str) -> None:
    handle = fleet.worker(worker_id)
    handle.process.kill()
    handle.process.wait(timeout=10)


class TestRouting:
    def test_register_and_solve_through_owner(self, frontend):
        fleet, service, client = frontend
        release_id = client.register(paper_published(), name="paper")
        summary = client.release(release_id)
        assert summary["shard"] in fleet.router.worker_ids

        result = client.posterior(release_id, KNOWLEDGE)
        expected = PrivacyMaxEnt(
            paper_published(), knowledge=KNOWLEDGE
        ).posterior()
        assert result.posterior.prob(Q4, S1) == pytest.approx(
            expected.prob(Q4, S1), abs=1e-10
        )

        # The repeat is the owning worker's result cache, relayed.
        repeat = client.posterior(release_id, KNOWLEDGE)
        assert repeat.served_from in ("result-cache", "coalesced")

    def test_telemetry_embeds_fleet_aggregates(self, frontend):
        fleet, service, client = frontend
        release_id = client.register(paper_published(), name="paper")
        client.posterior(release_id, KNOWLEDGE)
        telemetry = client.telemetry()
        cluster = telemetry["cluster"]
        assert len(cluster["workers"]) == fleet.n_workers
        aggregate = cluster["aggregate"]
        assert aggregate["n_solves"] >= 1
        assert aggregate["cache_misses"] > 0
        assert aggregate["cache_by_prefix"]
        for counters in aggregate["cache_by_prefix"].values():
            assert set(counters) == {"hits", "misses", "evictions"}

    def test_worker_state_endpoint_reports_identity(self, frontend):
        fleet, service, client = frontend
        release_id = client.register(paper_published(), name="paper")
        owner = fleet.worker(client.release(release_id)["shard"])
        with ShardClient(owner.host, owner.port) as shard:
            state = shard.shard_state()
        assert state["protocol"] == SHARD_PROTOCOL
        assert state["worker"] == owner.worker_id
        assert state["releases"] >= 1
        assert "cache" in state["engine"]


class TestFailover:
    def test_registration_walks_past_a_dead_owner(self, frontend):
        fleet, service, client = frontend
        release_id = client.register(paper_published(), name="paper")
        owner = client.release(release_id)["shard"]
        _kill(fleet, owner)

        # Re-registering the same release must not 500 on the dead
        # owner: the front-end marks it dead and walks to the rendezvous
        # successor, keeping the pinned client-visible id.
        again = client.register(paper_published(), name="paper")
        assert again == release_id
        survivor = client.release(release_id)["shard"]
        assert survivor != owner
        assert owner in fleet.dead_ids()

    def test_solve_rehomes_release_after_owner_death(self, frontend):
        fleet, service, client = frontend
        release_id = client.register(
            paper_published(), original=None, name="paper"
        )
        baseline = client.posterior(release_id, KNOWLEDGE)
        owner = client.release(release_id)["shard"]
        _kill(fleet, owner)

        moved = client.posterior(release_id, KNOWLEDGE)
        assert moved.posterior.prob(Q4, S1) == pytest.approx(
            baseline.posterior.prob(Q4, S1), abs=1e-10
        )
        assert client.release(release_id)["shard"] != owner

    def test_restarted_owner_relearns_the_release(self, frontend):
        # A supervisor restart: the owner comes back on the same port
        # with an empty store. The front-end must re-register from its
        # stored body instead of relaying the worker's 404 forever.
        import subprocess
        import sys

        from repro.cluster.coordinator import _worker_environment

        fleet, service, client = frontend
        release_id = client.register(paper_published(), name="paper")
        baseline = client.posterior(release_id, KNOWLEDGE)
        owner = client.release(release_id)["shard"]
        handle = fleet.worker(owner)
        _kill(fleet, owner)
        handle.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "shard-worker",
                "--host",
                handle.host,
                "--port",
                str(handle.port),
            ],
            env=_worker_environment(),
        )
        with handle.client(timeout=30) as probe:
            probe.wait_until_healthy(timeout=30)

        moved = client.posterior(release_id, KNOWLEDGE)
        assert moved.posterior.prob(Q4, S1) == pytest.approx(
            baseline.posterior.prob(Q4, S1), abs=1e-10
        )
        assert client.release(release_id)["shard"] == owner

    def test_healthz_degrades_on_dead_shard(self, frontend):
        fleet, service, client = frontend
        victim = fleet.handles[0]
        _kill(fleet, victim.worker_id)
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert "degraded" in str(excinfo.value)
