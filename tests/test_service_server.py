"""End-to-end tests of the serving subsystem over real sockets.

One module-scoped service (paper example registered once) backs the
read-path tests; flow-control tests (coalescing, backpressure) get
dedicated instances so their counters and queue limits are isolated.
"""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt, assess
from repro.core.serialize import config_to_dict, statement_to_dict
from repro.data.paper_example import (
    Q2,
    Q4,
    S1,
    S2,
    S3,
    paper_published,
    paper_table,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig
from repro.knowledge.statements import Comparison, ConditionalProbability
from repro.maxent.config import MaxEntConfig
from repro.service import (
    BackgroundService,
    PrivacyService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)

BREAST_CANCER_KNOWLEDGE = [
    ConditionalProbability(given={"gender": "male"}, sa_value=S1, probability=0.0)
]


@pytest.fixture(scope="module")
def service():
    instance = PrivacyService(ServiceConfig(port=0))
    with BackgroundService(instance) as background:
        yield background.service


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(port=service.port) as session:
        session.wait_until_healthy(timeout=10)
        yield session


@pytest.fixture(scope="module")
def release_id(client):
    return client.register(
        paper_published(), original=paper_table(), name="paper"
    )


class TestBasicEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0
        assert payload["queue"]["depth"] < payload["queue"]["capacity"]

    def test_healthz_degraded_when_queue_saturated(self, client, service):
        # Health is backpressure-aware: while the admission queue is full
        # (the state in which solves answer 429) the health endpoint must
        # answer 503/"degraded" so load balancers and cluster coordinators
        # stop routing new work here — liveness alone is not health.
        admission = service.admission
        before = admission._pending
        admission._pending = admission.capacity
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 503
            assert "degraded" in str(excinfo.value)
        finally:
            admission._pending = before
        assert client.healthz()["status"] == "ok"

    def test_root_lists_endpoints(self, client):
        payload = client._request("GET", "/")
        assert payload["service"] == "privacy-maxent"
        assert "GET /v1/telemetry" in payload["endpoints"]

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/healthz", {})
        assert excinfo.value.status == 405

    def test_unknown_release_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.posterior("rel-does-not-exist")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_release"


class TestRegistration:
    def test_register_and_list(self, client, release_id):
        releases = client.releases()
        assert any(r["release_id"] == release_id for r in releases)
        summary = client.release(release_id)
        assert summary["n_buckets"] == 3
        assert summary["n_records"] == 10
        assert summary["has_original"] is True

    def test_registration_is_idempotent(self, client, release_id):
        before = len(client.releases())
        again = client.register(
            paper_published(), original=paper_table(), name="paper"
        )
        assert again == release_id
        assert len(client.releases()) == before

    def test_register_without_release_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/releases", {"name": "empty"})
        assert excinfo.value.status == 400

    def test_unknown_body_field_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/releases", {"surprise": 1})
        assert excinfo.value.status == 400


class TestPosterior:
    def test_no_knowledge_matches_library(self, client, release_id):
        result = client.posterior(release_id)
        library = PrivacyMaxEnt(paper_published()).posterior()
        assert result.posterior.prob(Q2, S1) == pytest.approx(0.125)
        np.testing.assert_allclose(
            result.posterior.aligned_to(library).matrix,
            library.matrix,
            atol=1e-12,
        )
        assert result.stats["solver"] == "closed-form"
        assert result.n_knowledge_rows == 0

    def test_knowledge_discloses_grace(self, client, release_id):
        result = client.posterior(release_id, BREAST_CANCER_KNOWLEDGE)
        assert result.posterior.prob(Q4, S1) == pytest.approx(1.0, abs=1e-6)
        library = PrivacyMaxEnt(
            paper_published(), knowledge=BREAST_CANCER_KNOWLEDGE
        ).posterior()
        np.testing.assert_allclose(
            result.posterior.aligned_to(library).matrix,
            library.matrix,
            atol=1e-9,
        )

    def test_repeat_is_served_from_cache_without_resolving(
        self, client, release_id
    ):
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.3
            )
        ]
        before = client.telemetry()["service"]["counters"]
        first = client.posterior(release_id, statements)
        second = client.posterior(release_id, statements)
        after = client.telemetry()["service"]["counters"]
        assert first.served_from == "solve"
        assert second.served_from in ("result-cache", "coalesced")
        assert after["solves_started"] - before.get("solves_started", 0) == 1
        np.testing.assert_allclose(
            second.posterior.matrix, first.posterior.matrix, atol=0
        )

    def test_statement_order_does_not_matter(self, client, release_id):
        a = ConditionalProbability(
            given={"gender": "male"}, sa_value=S2, probability=0.4
        )
        b = ConditionalProbability(
            given={"gender": "female"}, sa_value=S1, probability=0.45
        )
        first = client.posterior(release_id, [a, b])
        second = client.posterior(release_id, [b, a])
        assert second.served_from in ("result-cache", "coalesced")
        assert second.fingerprint == first.fingerprint

    def test_malformed_statement_is_400(self, client, release_id):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                {"statements": [{"type": "telepathy"}]},
            )
        assert excinfo.value.status == 400

    def test_failure_policy_is_part_of_the_result_key(self, client, release_id):
        """A lenient client's cached non-converged result must not be
        served to a strict client asking the same (infeasible) question."""
        # A contradiction presolve cannot detect structurally (a cycle of
        # strict comparisons), so it surfaces only as numeric infeasibility.
        contradiction = [
            Comparison(
                given={"gender": "male"}, more_likely=S2, less_likely=S3,
                margin=0.3,
            ),
            Comparison(
                given={"gender": "male"}, more_likely=S3, less_likely=S2,
                margin=0.3,
            ),
        ]
        lenient = client.posterior(
            release_id,
            contradiction,
            config=MaxEntConfig(raise_on_infeasible=False),
        )
        assert lenient.stats["converged"] is False
        with pytest.raises(ServiceError) as excinfo:
            client.posterior(release_id, contradiction)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "infeasible_knowledge"

    def test_parent_form_config_is_accepted(self, client, release_id):
        """Bodies from clients that still send the retired executor and
        solver knobs in ``config`` keep working and solve the same
        program; a retired knob asking for an ablation is a 400."""
        statements = [
            statement_to_dict(
                ConditionalProbability(
                    given={"gender": "female"}, sa_value=S2, probability=0.35
                )
            )
        ]
        path = f"/v1/releases/{release_id}/posterior"
        current = config_to_dict(MaxEntConfig())
        plain = client._request(
            "POST", path, {"statements": statements, "config": current}
        )
        config = {
            **current,
            "executor": "serial",
            "workers": None,
            "cluster_workers": None,
            "solver": "lbfgs",
            "kernel": "numpy",
            "drop_redundant": False,
        }
        payload = client._request(
            "POST", path, {"statements": statements, "config": config}
        )
        assert payload["stats"]["converged"] is True
        assert payload["posterior"] == plain["posterior"]
        for key, value in (("solver", "gis"), ("drop_redundant", True)):
            body = {"statements": statements, "config": {**config, key: value}}
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", path, body)
            assert excinfo.value.status == 400
            assert key in str(excinfo.value)

    def test_unknown_config_knob_is_400(self, client, release_id):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                {"config": {"warp": 9}},
            )
        assert excinfo.value.status == 400

    def test_bad_json_is_400(self, client, service, release_id):
        connection = http.client.HTTPConnection("127.0.0.1", service.port)
        try:
            connection.request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"bad_json" in response.read()
        finally:
            connection.close()


class TestAssess:
    def test_matches_library_assess(self, client, release_id):
        mining = {"min_support_count": 1, "max_antecedent": 1}
        bounds = [TopKBound(0, 0), TopKBound(2, 2)]
        served = client.assess(release_id, bounds, mining=mining)
        library = assess(
            paper_table(),
            paper_published(),
            bounds,
            mining=MiningConfig(min_support_count=1, max_antecedent=1),
        )
        assert [row["bound"] for row in served] == [
            a.bound for a in library
        ]
        for row, expected in zip(served, library):
            assert row["estimation_accuracy"] == pytest.approx(
                expected.estimation_accuracy, abs=1e-9
            )
            assert row["max_disclosure"] == pytest.approx(
                expected.max_disclosure, abs=1e-9
            )
            assert row["n_constraints"] == expected.n_constraints

    def test_empty_bounds_is_400(self, client, release_id):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", f"/v1/releases/{release_id}/assess", {"bounds": []}
            )
        assert excinfo.value.status == 400

    def test_reregistration_reuses_the_original_carrying_record(
        self, client, release_id
    ):
        # The idempotency digest covers the release payload only, so a
        # bare re-registration of the same bucketization lands on the
        # existing record — which still has its ground truth.
        bare_id = client.register(paper_published(), name="no-truth")
        assert bare_id == release_id
        assessments = client.assess(
            bare_id,
            [TopKBound(1, 1)],
            mining={"min_support_count": 1, "max_antecedent": 1},
        )
        assert len(assessments) == 1

    def test_assess_without_original_is_409_until_reregistered(self, client):
        from repro.anonymize.buckets import BucketizedTable

        rebucketized = BucketizedTable.from_assignment(
            paper_table(), [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        )
        bare_id = client.register(rebucketized, name="no-truth")
        with pytest.raises(ServiceError) as excinfo:
            client.assess(bare_id, [TopKBound(1, 1)])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "no_original"
        # Following the error's advice must work: re-registering the
        # same release WITH the original attaches the ground truth.
        upgraded = client.register(rebucketized, original=paper_table())
        assert upgraded == bare_id
        assessments = client.assess(
            bare_id,
            [TopKBound(1, 1)],
            mining={"min_support_count": 1, "max_antecedent": 1},
        )
        assert len(assessments) == 1


class TestTelemetry:
    def test_snapshot_shape(self, client, release_id):
        client.posterior(release_id)
        telemetry = client.telemetry()
        assert telemetry["status"] == "ok"
        # The retired executor and kernel keys are gone from the engine
        # snapshot.
        retired = {
            "executor", "workers", "shipping", "component_solves",
            "kernel_backend",
        }
        assert not retired & set(telemetry["engine"])
        assert telemetry["queue"]["capacity"] > 0
        assert telemetry["store"]["releases"] >= 1
        assert telemetry["service"]["counters"]["requests_total"] > 0
        endpoint = telemetry["service"]["endpoints"][
            "POST /v1/releases/{id}/posterior"
        ]
        assert endpoint["count"] >= 1
        assert endpoint["p95_seconds"] >= endpoint["p50_seconds"]
        assert telemetry["batching"]["batched_requests"] >= 1

    def test_construction_phase_timers_exposed(self, client, release_id):
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.21
            )
        ]
        client.posterior(release_id, statements)
        engine = client.telemetry()["engine"]
        # Construction cost is observable: compile time recorded by the
        # store, decomposition and fingerprinting measured in-engine.
        assert engine["build_seconds"] > 0.0
        assert engine["decompose_seconds"] > 0.0
        assert engine["fingerprint_seconds"] >= 0.0


class TestCoalescing:
    def test_concurrent_identical_requests_solve_once(self):
        """N identical concurrent requests: exactly one solve happens.

        Every request either ran the solve (1), joined it in flight
        (coalesced) or read the finished result (result-cache) — the
        telemetry counters must add up exactly, whatever the timing.
        """
        instance = PrivacyService(ServiceConfig(port=0))
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.35
            )
        ]
        n_clients = 8
        with BackgroundService(instance) as background:
            seed = ServiceClient(port=background.port)
            seed.wait_until_healthy(timeout=10)
            release = seed.register(paper_published())

            def query(_index):
                with ServiceClient(port=background.port) as session:
                    return session.posterior(release, statements).served_from

            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                served = list(pool.map(query, range(n_clients)))

            telemetry = seed.telemetry()
            counters = telemetry["service"]["counters"]
            assert counters["solves_started"] == 1
            assert served.count("solve") == 1
            coalesced = telemetry["coalescing"]["coalesced"]
            cache_hits = telemetry["store"]["result_cache"]["hits"]
            assert coalesced == served.count("coalesced")
            assert cache_hits == served.count("result-cache")
            assert 1 + coalesced + cache_hits == n_clients
            seed.close()


class TestBackpressure:
    def test_full_queue_gets_429(self):
        """With capacity 1 and a solve parked, the next solve gets 429."""
        instance = PrivacyService(
            ServiceConfig(port=0, max_concurrency=1, max_queue=0)
        )
        solve_started = threading.Event()
        release_solve = threading.Event()
        real_solve = instance.engine.solve

        def slow_solve(space, system, config, **kwargs):
            solve_started.set()
            assert release_solve.wait(30)
            return real_solve(space, system, config, **kwargs)

        instance.engine.solve = slow_solve
        blocked = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.31
            )
        ]
        rejected = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.32
            )
        ]
        with BackgroundService(instance) as background:
            client_a = ServiceClient(port=background.port)
            client_a.wait_until_healthy(timeout=10)
            release = client_a.register(paper_published())

            def occupy():
                return client_a.posterior(release, blocked)

            with ThreadPoolExecutor(max_workers=1) as pool:
                holder = pool.submit(occupy)
                assert solve_started.wait(10)
                # attempts=1: observe the raw 429 verdict instead of the
                # client's Retry-After absorption (which would re-reject
                # and inflate the rejected counter asserted below).
                from repro.cluster.retry import RetryPolicy

                no_retry = RetryPolicy(attempts=1)
                with ServiceClient(
                    port=background.port, retry=no_retry
                ) as client_b:
                    with pytest.raises(ServiceError) as excinfo:
                        client_b.posterior(release, rejected)
                assert excinfo.value.status == 429
                assert excinfo.value.code == "queue_full"
                # Closed-form (no-knowledge) reads bypass the solve
                # queue entirely: they stay answerable under saturation.
                with ServiceClient(port=background.port) as client_c:
                    uniform = client_c.posterior(release)
                assert uniform.stats["solver"] == "closed-form"
                release_solve.set()
                result = holder.result(timeout=30)
            assert result.served_from == "solve"
            telemetry = client_a.telemetry()
            assert telemetry["queue"]["rejected"] == 1
            # After backpressure clears, the rejected request succeeds.
            retry = client_a.posterior(release, rejected)
            assert retry.served_from == "solve"
            client_a.close()


class TestWarmRestart:
    def test_cache_path_restores_engine_cache(self, tmp_path):
        """A restarted service answers from the persisted solve cache."""
        cache_file = tmp_path / "serve-cache.pkl"
        config = ServiceConfig(
            port=0, engine=MaxEntConfig(cache_path=str(cache_file))
        )
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.37
            )
        ]

        with BackgroundService(PrivacyService(config)) as background:
            with ServiceClient(port=background.port) as session:
                session.wait_until_healthy(timeout=10)
                release = session.register(paper_published())
                first = session.posterior(release, statements)
                assert first.stats["cache_hits"] == 0
        assert cache_file.exists()

        with BackgroundService(PrivacyService(config)) as background:
            with ServiceClient(port=background.port) as session:
                session.wait_until_healthy(timeout=10)
                release = session.register(paper_published())
                warm = session.posterior(release, statements)
                assert warm.served_from == "solve"  # fresh result cache...
                assert warm.stats["cache_hits"] > 0  # ...but warm engine
                np.testing.assert_allclose(
                    warm.posterior.matrix, first.posterior.matrix, atol=0
                )
