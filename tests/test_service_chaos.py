"""Front-door fault injection: durable serving, proven under fire.

Every test here drives a *real* ``repro serve --state-dir`` subprocess
(:class:`~repro.cluster.chaos.ServerProcess`) through crash scenarios
the durability layer claims to survive:

- SIGKILL mid-chunked-upload, restart on the same state dir, resume the
  remaining chunks, finalize — and the digest (hence the release id)
  is bit-identical to a one-shot registration of the same payload, with
  zero duplicate store entries;
- SIGKILL after registration — the recovered store answers solves with
  the same posteriors;
- SIGTERM — graceful drain, final snapshot, clean exit code, and a
  restart that recovers from the snapshot alone;
- seeded connection faults (refused, reset mid-response, delayed) on
  the HTTP front door, absorbed entirely by the client's retry policy.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster.chaos import ChaosProxy, FaultSchedule, ServerProcess
from repro.cluster.retry import RetryPolicy
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.core.serialize import published_to_dict
from repro.data.paper_example import Q4, S1, paper_published
from repro.knowledge.statements import ConditionalProbability
from repro.service import (
    BackgroundService,
    PrivacyService,
    ServiceClient,
    ServiceConfig,
)

#: One seed for the whole suite — date of the paper's conference run.
SEED = 20080612

KNOWLEDGE = [
    ConditionalProbability(given={"gender": "male"}, sa_value=S1, probability=0.0)
]


def wire() -> dict:
    return published_to_dict(paper_published())


def split(buckets: list, n: int) -> list[list]:
    return [buckets[i : i + n] for i in range(0, len(buckets), n)]


class TestCrashRecovery:
    def test_sigkill_mid_ingest_resumes_bit_identical(self, tmp_path):
        """The flagship: crash mid-upload, restart, resume, finalize."""
        payload = wire()
        chunks = split(payload["buckets"], 2)
        cut = len(chunks) // 2
        with ServerProcess(state_dir=str(tmp_path / "state")) as server:
            server.spawn()
            with server.client() as client:
                upload_id = client.begin_upload(
                    payload["schema"], name="durable"
                )
                for seq in range(cut):
                    ack = client.upload_chunk(upload_id, seq, chunks[seq])
                    assert ack["n_chunks"] == seq + 1

            server.kill()  # SIGKILL: no drain, no snapshot — journal only
            server.respawn()

            with server.client() as client:
                telemetry = client.telemetry()
                events = telemetry["events"]["counts"]
                assert events.get("journal_replayed", 0) >= 1
                assert events.get("ingest_resumed", 0) >= 1
                durable = telemetry["durability"]
                assert durable["replayed_records"] >= 1 + cut
                assert durable["resumed_uploads"] == 1

                status = client.upload_status(upload_id)
                assert status["n_chunks"] == cut
                for seq in range(cut, len(chunks)):
                    client.upload_chunk(upload_id, seq, chunks[seq])
                summary = client.finalize_upload(upload_id)

                # A one-shot registration of the same payload dedupes
                # against the resumed upload: digest bit-identical,
                # zero duplicate store entries.
                release_id = client.register(paper_published())
                assert release_id == summary["release_id"]
                assert len(client.releases()) == 1

                result = client.posterior(release_id, KNOWLEDGE)
                expected = PrivacyMaxEnt(
                    paper_published(), knowledge=KNOWLEDGE
                ).posterior()
                assert result.posterior.prob(Q4, S1) == pytest.approx(
                    expected.prob(Q4, S1), abs=1e-10
                )

    def test_sigkill_after_register_recovers_store(self, tmp_path):
        with ServerProcess(state_dir=str(tmp_path / "state")) as server:
            server.spawn()
            with server.client() as client:
                release_id = client.register(paper_published(), name="paper")
                baseline = client.posterior(release_id, KNOWLEDGE)
                # One fsync'd journal record per acknowledged registration.
                durable = client.telemetry()["durability"]
                assert durable["journal_records_appended"] == 1

            server.kill()
            server.respawn()

            with server.client() as client:
                releases = client.releases()
                assert [r["release_id"] for r in releases] == [release_id]
                again = client.posterior(release_id, KNOWLEDGE)
                assert again.posterior.prob(Q4, S1) == pytest.approx(
                    baseline.posterior.prob(Q4, S1), abs=1e-10
                )

    def test_sigterm_drains_to_final_snapshot(self, tmp_path):
        state_dir = str(tmp_path / "state")
        with ServerProcess(state_dir=state_dir) as server:
            server.spawn()
            with server.client() as client:
                release_id = client.register(paper_published(), name="paper")

            assert server.terminate(timeout=30.0) == 0
            assert os.path.exists(os.path.join(state_dir, "snapshot.json"))

            server.respawn()
            with server.client() as client:
                telemetry = client.telemetry()
                assert telemetry["durability"]["snapshot_loaded"] is True
                assert [r["release_id"] for r in client.releases()] == [
                    release_id
                ]
                result = client.posterior(release_id, KNOWLEDGE)
                assert result.posterior.prob(Q4, S1) >= 0.0


class TestFrontDoorFaults:
    def test_seeded_faults_are_absorbed_by_client_retry(self):
        """Zero failed requests through a faulty front door."""
        schedule = FaultSchedule(
            SEED, refuse=0.15, reset=0.1, delay=0.1, delay_seconds=0.01
        )
        instance = PrivacyService(ServiceConfig(port=0))
        with BackgroundService(instance) as background:
            with ChaosProxy(
                "127.0.0.1", background.port, schedule
            ) as proxy:
                retry = RetryPolicy(
                    attempts=10, base_delay=0.01, max_delay=0.05
                )
                with ServiceClient(port=proxy.port, retry=retry) as client:
                    client.wait_until_healthy(timeout=15)
                    release_id = client.register_chunked(
                        paper_published(), chunk_buckets=2
                    )
                    for _n in range(10):
                        result = client.posterior(release_id, KNOWLEDGE)
                        assert result.posterior.prob(Q4, S1) >= 0.0
                        assert client.healthz()["status"] == "ok"
        # The schedule is auditable and deterministic: same seed, same
        # decisions — a run that passes passes every time.
        decisions = list(schedule.decisions)
        assert schedule.replay(len(decisions)) == decisions
        assert proxy.connections >= len(
            [d for d in decisions if d != "refuse"]
        )

    def test_faults_actually_fired(self):
        # Paranoia for the test above: the schedule must inject at the
        # configured rates, otherwise "zero failed requests" is vacuous.
        schedule = FaultSchedule(SEED, refuse=0.15, reset=0.1, delay=0.1)
        decisions = schedule.replay(40)
        assert "refuse" in decisions
        assert "reset" in decisions or "delay" in decisions
