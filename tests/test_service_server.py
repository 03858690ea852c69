"""End-to-end tests of the serving subsystem over real sockets.

One module-scoped service (paper example registered once) backs the
read-path tests; flow-control tests (coalescing, backpressure) get
dedicated instances so their counters and queue limits are isolated.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt, assess
from repro.core.quantifier import PosteriorTable
from repro.core.serialize import (
    assessment_to_dict,
    bound_to_dict,
    config_to_dict,
    statement_to_dict,
    stats_from_dict,
)
from repro.data.paper_example import (
    Q2,
    Q4,
    S1,
    S2,
    S3,
    S4,
    S5,
    paper_published,
    paper_table,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig
from repro.knowledge.statements import Comparison, ConditionalProbability
from repro.maxent.closed_form import closed_form_solution
from repro.maxent.config import MaxEntConfig
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.solution import MaxEntSolution
from repro.service import (
    BackgroundService,
    PrivacyService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.protocol import json_body
from repro.service.store import RegisteredRelease

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
        # The no-knowledge answer is exactly the Eq. (9) posterior.
        space = GroupVariableSpace(paper_published())
        p = closed_form_solution(space)
        eq9 = PosteriorTable.from_solution(
            MaxEntSolution(space, p, stats_from_dict(result.stats))
        )
        assert result.posterior.prob(Q2, S1) == pytest.approx(0.125)
        np.testing.assert_array_equal(
            result.posterior.aligned_to(eq9).matrix, eq9.matrix
        )
        assert result.stats["solver"] == "closed-form"
        assert result.stats["n_components"] == 3
        assert result.stats["converged"] is True
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

    @pytest.mark.parametrize(
        "fields",
        [
            {"probability": "0.3"},
            {"probability": True},
            {"type": "conditional_interval", "low": "0.1", "high": "0.4"},
            {"type": "conditional_interval", "low": False, "high": 0.4},
            {"type": "conditional_interval", "low": 0.1, "high": True},
            {"given": [["gender", "male"]]},
        ],
        ids=["probability-str", "probability-bool", "low-high-str",
             "low-bool", "high-bool", "given-list"],
    )
    def test_malformed_statement_field_is_400(
        self, client, release_id, fields
    ):
        """Numbers sent as strings or bools and a non-object antecedent
        are rejected as bad requests, not coerced and not a 500."""
        statement = {
            "type": "conditional_probability",
            "given": {"gender": "male"},
            "sa_value": S2,
            "probability": 0.3,
            **fields,
        }
        if statement["type"] == "conditional_interval":
            del statement["probability"]
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                {"statements": [statement]},
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

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

    @pytest.mark.parametrize(
        "key, value, other",
        [
            ("replay", "tolerance", "bitwise"),
            ("use_presolve", True, False),
            ("warm_start", True, False),
            ("infeasibility_threshold", 0.01, 0.05),
        ],
    )
    def test_retired_solver_knob_is_accepted_at_its_default(
        self, client, release_id, key, value, other
    ):
        """A body carrying a knob retired from ``MaxEntConfig`` at the
        value every solve now runs gets the same answer as one without
        it, from the same result-cache entry; any other value is a 400
        naming the key."""
        statements = [
            statement_to_dict(
                ConditionalProbability(
                    given={"gender": "male"}, sa_value=S1, probability=0.15
                )
            )
        ]
        path = f"/v1/releases/{release_id}/posterior"
        current = config_to_dict(MaxEntConfig())
        plain, response = client._raw_request(
            "POST", path, {"statements": statements, "config": current}
        )
        assert response.status == 200
        old, response = client._raw_request(
            "POST",
            path,
            {"statements": statements, "config": {**current, key: value}},
        )
        assert response.status == 200
        old, plain = json.loads(old), json.loads(plain)
        assert old.pop("served_from") == "result-cache"
        plain.pop("served_from")
        assert old == plain
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                path,
                {"statements": statements, "config": {**current, key: other}},
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert key in str(excinfo.value)

    def test_unknown_config_knob_is_400(self, client, release_id):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                {"config": {"warp": 9}},
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "knob",
        [
            {"tol": "1e-8"},
            {"batch_components": True},
            {"cache_size": "x"},
            {"max_iterations": 10.5},
            {"use_presolve": 1},
            {"replay": None},
            {"tol": float("nan")},
            {"drop_redundant": 0},
        ],
        ids=["str-float", "bool-int", "str-int", "float-int", "int-bool",
             "null-str", "nan", "retired-int-bool"],
    )
    def test_wrong_typed_config_value_is_400(self, client, release_id, knob):
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/posterior",
                {"config": knob},
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert next(iter(knob)) in str(excinfo.value)

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


def _post_raw(client, release_id, statements, config=None):
    """One posterior request; returns ``(status, raw body bytes)``."""
    payload = {"statements": [statement_to_dict(s) for s in statements]}
    if config is not None:
        payload["config"] = config_to_dict(config)
    raw, response = client._raw_request(
        "POST", f"/v1/releases/{release_id}/posterior", payload
    )
    return response.status, raw


def _counters(client) -> tuple[int, int, int, int]:
    """(index hits, result-cache hits, result-cache misses, solves)."""
    telemetry = client.telemetry()
    counters = telemetry["service"]["counters"]
    cache = telemetry["store"]["result_cache"]
    return (
        counters.get("request_index_hits", 0),
        cache["hits"],
        cache["misses"],
        counters.get("solves_started", 0),
    )


class TestRequestIndex:
    """A byte-identical repeat is answered from the request index; any
    other request takes the fingerprint path with one counted lookup."""

    def test_hit_bytes_equal_cold_bytes_apart_from_served_from(
        self, client, release_id
    ):
        statements = [
            ConditionalProbability(
                given={"gender": "female"}, sa_value=S3, probability=0.2
            )
        ]
        before = _counters(client)
        status, cold = _post_raw(client, release_id, statements)
        assert status == 200
        status, hit = _post_raw(client, release_id, statements)
        assert status == 200
        after = _counters(client)
        assert b'"served_from":"solve"' in cold
        assert hit.replace(
            b'"served_from":"result-cache"', b'"served_from":"solve"', 1
        ) == cold
        index_hits, hits, misses, solves = (
            a - b for a, b in zip(after, before)
        )
        assert (index_hits, hits, misses, solves) == (1, 1, 1, 1)

    def test_cold_body_is_the_parent_form(self, client, release_id):
        """Cold bytes equal ``json_body`` of the dict the handler built
        before results were kept encoded: same keys, order, separators."""
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S4, probability=0.25
            )
        ]
        status, cold = _post_raw(client, release_id, statements)
        assert status == 200
        decoded = json.loads(cold)
        parent_form = {
            "release_id": release_id,
            "served_from": "solve",
            "posterior": decoded["posterior"],
            "stats": decoded["stats"],
            "n_knowledge_rows": decoded["n_knowledge_rows"],
            "fingerprint": decoded["fingerprint"],
        }
        assert list(decoded) == list(parent_form)
        assert json_body(parent_form) == cold

    def test_config_change_never_gets_the_other_result(
        self, client, release_id
    ):
        contradiction = [
            Comparison(
                given={"gender": "female"}, more_likely=S2, less_likely=S3,
                margin=0.4,
            ),
            Comparison(
                given={"gender": "female"}, more_likely=S3, less_likely=S2,
                margin=0.4,
            ),
        ]
        lenient = MaxEntConfig(raise_on_infeasible=False)
        for _ in range(2):
            status, _ = _post_raw(client, release_id, contradiction, lenient)
            assert status == 200
        for _ in range(2):
            status, raw = _post_raw(client, release_id, contradiction)
            assert status == 409
            assert b"infeasible_knowledge" in raw

    def test_reordered_statements_fall_through_to_the_fingerprint(
        self, client, release_id
    ):
        a = ConditionalProbability(
            given={"degree": "college"}, sa_value=S2, probability=0.2
        )
        b = ConditionalProbability(
            given={"gender": "male"}, sa_value=S3, probability=0.3
        )
        first = client.posterior(release_id, [a, b])
        before = _counters(client)
        reordered = client.posterior(release_id, [b, a])
        after = _counters(client)
        assert first.served_from == "solve"
        assert reordered.served_from == "result-cache"
        assert reordered.fingerprint == first.fingerprint
        # No index hit: parsed, fingerprinted, one counted cache hit.
        assert tuple(x - y for x, y in zip(after, before)) == (0, 1, 0, 0)

    def test_evicted_result_is_resolved_and_counted_once(self):
        """An index entry whose result was evicted falls through to a
        fresh solve; its miss is counted once, not twice."""
        instance = PrivacyService(ServiceConfig(port=0, result_cache_size=1))
        statements = [
            ConditionalProbability(
                given={"gender": "male"}, sa_value=S2, probability=0.3
            )
        ]
        with BackgroundService(instance) as background:
            with ServiceClient(port=background.port) as session:
                session.wait_until_healthy(timeout=10)
                release = session.register(
                    paper_published(), original=paper_table()
                )
                first = session.posterior(release, statements)
                # An assessment's result evicts the posterior's (one
                # entry) without touching the request index.
                session.assess(release, [TopKBound(0, 0)])
                assert len(instance.store.requests) == 1
                before = _counters(session)
                again = session.posterior(release, statements)
                after = _counters(session)
        assert first.served_from == "solve"
        assert again.served_from == "solve"
        assert again.fingerprint == first.fingerprint
        np.testing.assert_array_equal(
            again.posterior.matrix, first.posterior.matrix
        )
        assert tuple(x - y for x, y in zip(after, before)) == (0, 0, 1, 1)

    def test_error_responses_never_populate_the_index(
        self, client, service, release_id
    ):
        path = f"/v1/releases/{release_id}/posterior"
        malformed = {"statements": [{"type": "telepathy"}]}
        infeasible = [
            Comparison(
                given={"gender": "male"}, more_likely=S4, less_likely=S5,
                margin=0.6,
            ),
            Comparison(
                given={"gender": "male"}, more_likely=S5, less_likely=S4,
                margin=0.6,
            ),
        ]
        before = len(service.store.requests)
        for _ in range(2):
            raw, response = client._raw_request("POST", path, malformed)
            assert response.status == 400
            status, raw = _post_raw(client, release_id, infeasible)
            assert status == 409
        assert len(service.store.requests) == before


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

    def test_mined_rules_are_cached_per_whole_mining_config(
        self, client, release_id
    ):
        # Two configs that differ only in antecedent_sizes must not share
        # one cached rule set.
        mining = {"min_support_count": 1, "max_antecedent": 2}
        bounds = [TopKBound(3, 3)]
        client.assess(release_id, bounds, mining=mining)
        served = client.assess(
            release_id, bounds, mining={**mining, "antecedent_sizes": [2]}
        )
        library = assess(
            paper_table(),
            paper_published(),
            bounds,
            mining=MiningConfig(
                min_support_count=1, max_antecedent=2, antecedent_sizes=(2,)
            ),
        )
        assert served[0]["estimation_accuracy"] == pytest.approx(
            library[0].estimation_accuracy, abs=1e-9
        )
        assert served[0]["n_constraints"] == library[0].n_constraints

    def test_served_row_is_the_library_row(self, client, release_id):
        """Server and library score through one row builder: same keys in
        the same order, same bound text, counts and metrics."""
        mining = {"min_support_count": 1, "max_antecedent": 1}
        bounds = [TopKBound(0, 0), TopKBound(2, 2)]
        served = client.assess(
            release_id, bounds, mining=mining, exclude_sa=[S2]
        )
        library = assess(
            paper_table(),
            paper_published(),
            bounds,
            mining=MiningConfig(min_support_count=1, max_antecedent=1),
            exclude_sa=frozenset({S2}),
        )
        for row, assessment in zip(served, library, strict=True):
            expected = assessment_to_dict(assessment)
            assert list(row) == [*expected, "served_from"]
            for key, value in expected.items():
                if key == "stats":
                    continue
                if isinstance(value, float):
                    assert row[key] == pytest.approx(value, abs=1e-9), key
                else:
                    assert row[key] == value, key
        # No knowledge: both sides are the Eq. (9) closed form, exactly.
        assert served[0]["stats"]["solver"] == "closed-form"
        for key in ("estimation_accuracy", "max_disclosure", "effective_l"):
            assert served[0][key] == assessment_to_dict(library[0])[key]
        # The exclusion took effect (a list is not split into characters).
        everything = client.assess(release_id, bounds[:1], mining=mining)
        assert served[0]["effective_l"] != everything[0]["effective_l"]

    @pytest.mark.parametrize(
        "exclude_sa",
        [S2, 5, [{}], [S2, 3], {"sa": S2}, True],
        ids=["bare-string", "int", "object-list", "mixed-list", "object",
             "bool"],
    )
    def test_malformed_exclude_sa_is_400(self, client, release_id, exclude_sa):
        # A bare string must not split into its characters (excluding
        # nothing), and no other shape may reach the metrics as a 500.
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/assess",
                {
                    "bounds": [bound_to_dict(TopKBound(0, 0))],
                    "exclude_sa": exclude_sa,
                },
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "exclude_sa" in str(excinfo.value)

    @pytest.mark.parametrize(
        "epsilon",
        [True, "0.1", float("nan"), float("inf"), [0.1]],
        ids=["bool", "str", "nan", "inf", "list"],
    )
    def test_malformed_bound_epsilon_is_400(self, client, release_id, epsilon):
        bound = {**bound_to_dict(TopKBound(1, 1)), "epsilon": epsilon}
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST",
                f"/v1/releases/{release_id}/assess",
                {"bounds": [bound]},
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "epsilon" in str(excinfo.value)

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


class TestRegisteredRelease:
    def test_rules_cache_key_covers_antecedent_sizes(self):
        record = RegisteredRelease(
            "paper", paper_published(), original=paper_table()
        )
        default = record.rules(MiningConfig(min_support_count=1))
        pairs_only = record.rules(
            MiningConfig(min_support_count=1, antecedent_sizes=(2,))
        )
        assert pairs_only is not default
        assert {r.size for r in pairs_only.positive} == {2}
        assert {r.size for r in default.positive} == {1, 2}
        assert record.rules(MiningConfig(min_support_count=1)) is default


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
        # The closed-form micro-batcher is retired: no-knowledge
        # posteriors are engine solves, with no batching section.
        assert "batching" not in telemetry

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
        first_solve = threading.Lock()
        real_solve = instance.engine.solve

        def slow_solve(space, system, config, **kwargs):
            # Park only the first (knowledge) solve; the no-knowledge
            # read below is an engine solve too and must not block.
            if first_solve.acquire(blocking=False):
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
