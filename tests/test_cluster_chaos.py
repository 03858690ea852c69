"""Seeded fault injection: the elastic cluster's claims, proven under fire.

Every test here drives *real* worker subprocesses through deterministic
fault schedules (:mod:`repro.cluster.chaos`): connections refused,
responses cut mid-flight, latency spikes, SIGKILL and respawn with the
same persisted identity.  The invariants asserted are the robustness
acceptance bar for the elastic cluster:

- zero failed client requests while workers die, join, and return;
- a slow wire is not a dead worker;
- posteriors within 1e-10 of a single-engine run;
- a respawned worker with a persisted identity reclaims its rendezvous
  slot without a re-routing storm (``moved == 0`` in the rebalance
  record).

Fault schedules are seeded, so a run that passes passes every time —
the decision logs say exactly what was injected.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterError,
    MembershipConfig,
    ShardedFrontend,
)
from repro.cluster.chaos import ChaosProxy, FaultSchedule, WorkerProcess
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import Q4, S1, paper_published
from repro.knowledge.statements import ConditionalProbability
from repro.service import BackgroundService, ServiceClient, ServiceConfig

#: One seed for the whole suite — date of the paper's conference run.
SEED = 20080612


def wait_for(predicate, *, timeout: float = 30.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


class TestFaultSchedule:
    def test_same_seed_replays_the_same_decisions(self):
        schedule = FaultSchedule(SEED, refuse=0.2, reset=0.2, delay=0.2)
        drawn = [schedule.next_fault() for _ in range(64)]
        assert drawn == schedule.decisions
        assert schedule.replay(64) == drawn
        twin = FaultSchedule(SEED, refuse=0.2, reset=0.2, delay=0.2)
        assert [twin.next_fault() for _ in range(64)] == drawn

    def test_rates_partition_the_draw(self):
        assert set(FaultSchedule(SEED, refuse=1.0).replay(16)) == {"refuse"}
        assert set(FaultSchedule(SEED, delay=1.0).replay(16)) == {"delay"}
        assert set(FaultSchedule(SEED).replay(16)) == {"pass"}
        mixed = FaultSchedule(SEED, refuse=0.3, reset=0.3, delay=0.3)
        counts = dict.fromkeys(("refuse", "reset", "delay", "pass"), 0)
        for kind in mixed.replay(200):
            counts[kind] += 1
        assert all(counts.values())  # every branch reachable

    def test_invalid_rates_raise(self):
        with pytest.raises(ClusterError, match="must be in"):
            FaultSchedule(SEED, refuse=1.2)
        with pytest.raises(ClusterError, match="sum to at most 1"):
            FaultSchedule(SEED, refuse=0.6, reset=0.6)

    def test_counts_tally_the_log(self):
        schedule = FaultSchedule(SEED, refuse=0.5)
        for _ in range(40):
            schedule.next_fault()
        counts = schedule.counts()
        assert sum(counts.values()) == 40
        assert set(counts) <= {"refuse", "pass"}


KNOWLEDGE = [
    ConditionalProbability(
        given={"gender": "male"}, sa_value=S1, probability=0.0
    )
]


class TestElasticFrontend:
    def test_kill_join_and_identity_respawn_with_zero_failed_requests(
        self, tmp_path
    ):
        """The flagship drill: a release keeps serving while its owner
        is SIGKILLed, a replica is promoted, and the owner respawns on
        a new port with its persisted identity — every client request
        succeeds and the rejoin rebalance moves zero keys."""
        expected = PrivacyMaxEnt(
            paper_published(), knowledge=KNOWLEDGE
        ).posterior()
        membership = MembershipConfig.from_env(
            heartbeat_interval=0.2, liveness_timeout=1.2, replication=2
        )
        coordinator = ClusterCoordinator([], allow_empty=True)
        service = ShardedFrontend(
            ServiceConfig(port=0),
            coordinator=coordinator,
            owns_coordinator=True,
            membership=membership,
            accept_joins=True,
        )
        with BackgroundService(service) as background:
            join_target = f"127.0.0.1:{background.port}"
            workers = [
                WorkerProcess(
                    identity_file=str(tmp_path / f"worker{i}.id"),
                    join=[join_target],
                )
                for i in range(2)
            ]
            try:
                for worker in workers:
                    worker.spawn()
                wait_for(
                    lambda: len(coordinator.alive_ids()) == 2,
                    message="both workers to join the front-end",
                )
                by_id = {
                    (tmp_path / f"worker{i}.id").read_text().strip(): w
                    for i, w in enumerate(workers)
                }
                assert set(by_id) == set(coordinator.router.worker_ids)

                with ServiceClient(port=background.port) as client:
                    client.wait_until_healthy(timeout=15)
                    release_id = client.register(
                        paper_published(), name="paper"
                    )
                    baseline = client.posterior(release_id, KNOWLEDGE)
                    assert baseline.posterior.prob(Q4, S1) == pytest.approx(
                        expected.prob(Q4, S1), abs=1e-10
                    )
                    summary = client.release(release_id)
                    owner = summary["shard"]
                    # K=2 over a 2-worker fleet: both hold the release.
                    assert set(summary["replicas"]) | {owner} == set(by_id)

                    # -- SIGKILL the owner; serving must not blink. ----
                    by_id[owner].kill()
                    survived = client.posterior(release_id, KNOWLEDGE)
                    assert survived.posterior.prob(
                        Q4, S1
                    ) == pytest.approx(expected.prob(Q4, S1), abs=1e-10)
                    assert client.release(release_id)["shard"] != owner
                    assert (
                        coordinator.events.counts().get(
                            "release_promoted", 0
                        )
                        >= 1
                    )
                    # The liveness sweep notices the silence too.
                    wait_for(
                        lambda: owner in coordinator.dead_ids(),
                        message="heartbeat sweep to expire the victim",
                    )

                    # -- Respawn with the same identity, new port. -----
                    rebalances_before = coordinator.events.counts().get(
                        "rebalance", 0
                    )
                    by_id[owner].respawn()
                    wait_for(
                        lambda: owner in coordinator.alive_ids(),
                        message="respawned worker to rejoin",
                    )
                    wait_for(
                        lambda: coordinator.events.counts().get(
                            "rebalance", 0
                        )
                        > rebalances_before,
                        message="the rejoin rebalance to run",
                    )
                    rejoin_rebalances = [
                        event
                        for event in coordinator.events.recent()
                        if event["kind"] == "rebalance"
                        and event["worker"] == owner
                    ]
                    assert rejoin_rebalances
                    # No re-routing storm: the returning identity's keys
                    # never moved — at most reseeded onto the fresh
                    # (empty-store) process.
                    for event in rejoin_rebalances:
                        assert event["moved"] == 0

                    # Every request in this test succeeded; one more
                    # after the dust settles, still exact.
                    final = client.posterior(release_id, KNOWLEDGE)
                    assert final.posterior.prob(Q4, S1) == pytest.approx(
                        expected.prob(Q4, S1), abs=1e-10
                    )
            finally:
                for worker in workers:
                    worker.close()

    def test_client_requests_all_succeed_through_flaky_owner_wire(self):
        """Satellite 6's regression drill: with the owner's wire
        refusing and cutting connections, the front-end's retry policy
        and replica promotion keep every client request successful."""
        schedule = FaultSchedule(
            SEED, refuse=0.2, reset=0.1, delay=0.1, delay_seconds=0.02
        )
        with WorkerProcess(worker_id="flaky0") as w0, WorkerProcess(
            worker_id="flaky1"
        ) as w1:
            w0.spawn()
            w1.spawn()
            with ChaosProxy(w1.host, w1.port, schedule) as proxy:
                coordinator = ClusterCoordinator.attach(
                    f"flaky0@{w0.address},flaky1@{proxy.address}"
                )
                service = ShardedFrontend(
                    ServiceConfig(port=0),
                    coordinator=coordinator,
                    owns_coordinator=True,
                )
                with BackgroundService(service) as background:
                    with ServiceClient(port=background.port) as client:
                        client.wait_until_healthy(timeout=15)
                        release_id = client.register(
                            paper_published(), name="paper"
                        )
                        expected = PrivacyMaxEnt(
                            paper_published(), knowledge=KNOWLEDGE
                        ).posterior()
                        # Every round trip below crosses the faulty
                        # wire whenever routing picks the proxied
                        # worker (repeats hit its result cache, still
                        # over the wire) — and every one must succeed.
                        for _ in range(8):
                            result = client.posterior(
                                release_id, KNOWLEDGE
                            )
                            assert result.posterior.prob(
                                Q4, S1
                            ) == pytest.approx(
                                expected.prob(Q4, S1), abs=1e-10
                            )
                            assert (
                                client.release(release_id)["shard"]
                                in coordinator.router.worker_ids
                            )
            # The drill only proves something if the wire really failed.
            counts = schedule.counts()
            assert proxy.connections > 0
            assert counts.get("refuse", 0) + counts.get("reset", 0) >= 1

    def test_latency_spikes_do_not_read_as_death(self):
        """A slow wire is not a dead worker: with every connection to
        one worker delayed, the fleet stays fully alive and every
        request succeeds."""
        schedule = FaultSchedule(SEED, delay=1.0, delay_seconds=0.05)
        with WorkerProcess(worker_id="slow0") as w0, WorkerProcess(
            worker_id="slow1"
        ) as w1:
            w0.spawn()
            w1.spawn()
            with ChaosProxy(w1.host, w1.port, schedule) as proxy:
                coordinator = ClusterCoordinator.attach(
                    f"slow0@{w0.address},slow1@{proxy.address}"
                )
                service = ShardedFrontend(
                    ServiceConfig(port=0),
                    coordinator=coordinator,
                    owns_coordinator=True,
                )
                with BackgroundService(service) as background:
                    with ServiceClient(port=background.port) as client:
                        client.wait_until_healthy(timeout=15)
                        release_id = client.register(
                            paper_published(), name="paper"
                        )
                        expected = PrivacyMaxEnt(
                            paper_published(), knowledge=KNOWLEDGE
                        ).posterior()
                        for _ in range(4):
                            result = client.posterior(release_id, KNOWLEDGE)
                            assert result.posterior.prob(
                                Q4, S1
                            ) == pytest.approx(
                                expected.prob(Q4, S1), abs=1e-10
                            )
                        assert coordinator.dead_ids() == []
            assert proxy.injected["delay"] == proxy.connections > 0
