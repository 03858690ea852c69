"""Chunked (streaming) release registration: the ingest protocol."""

from __future__ import annotations

import pytest

from repro.core.serialize import published_to_dict, schema_to_dict
from repro.data.paper_example import paper_published
from repro.errors import IngestError
from repro.service import (
    BackgroundService,
    PrivacyService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.ingest import IngestManager, IngestSession, chunk_digest
from repro.service.store import SessionStore, release_digest


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


def wire() -> dict:
    return published_to_dict(paper_published())


def split(buckets: list, n: int) -> list[list]:
    return [buckets[i : i + n] for i in range(0, len(buckets), n)]


class TestIngestSession:
    def test_incremental_digest_matches_one_shot(self):
        payload = wire()
        session = IngestSession("up-1", payload["schema"])
        for seq, chunk in enumerate(split(payload["buckets"], 2)):
            session.add_chunk(seq, chunk, chunk_digest(chunk))
        digest, published = session.build(None)
        assert digest == release_digest(payload)
        assert published.n_buckets == len(payload["buckets"])

    def test_digest_is_chunking_invariant(self):
        payload = wire()
        digests = set()
        for size in (1, 2, 3, 100):
            session = IngestSession("up-x", payload["schema"])
            for seq, chunk in enumerate(split(payload["buckets"], size)):
                session.add_chunk(seq, chunk, chunk_digest(chunk))
            digests.add(session.peek_digest())
        assert len(digests) == 1

    def test_duplicate_chunk_is_acknowledged_not_applied(self):
        payload = wire()
        session = IngestSession("up-2", payload["schema"])
        chunk = payload["buckets"][:2]
        first = session.add_chunk(0, chunk, chunk_digest(chunk))
        again = session.add_chunk(0, chunk, chunk_digest(chunk))
        assert first["duplicate"] is False
        assert again["duplicate"] is True
        assert again["n_chunks"] == 1

    def test_same_seq_different_content_conflicts(self):
        payload = wire()
        session = IngestSession("up-3", payload["schema"])
        a, b = payload["buckets"][:1], payload["buckets"][1:2]
        session.add_chunk(0, a, chunk_digest(a))
        with pytest.raises(IngestError):
            session.add_chunk(0, b, chunk_digest(b))

    def test_sequence_gap_conflicts(self):
        payload = wire()
        session = IngestSession("up-4", payload["schema"])
        chunk = payload["buckets"][:1]
        with pytest.raises(IngestError, match="before"):
            session.add_chunk(3, chunk, chunk_digest(chunk))

    def test_digest_mismatch_conflicts(self):
        payload = wire()
        session = IngestSession("up-5", payload["schema"])
        with pytest.raises(IngestError, match="digest"):
            session.add_chunk(0, payload["buckets"][:1], "0" * 64)

    def test_finalize_digest_claim_is_verified(self):
        payload = wire()
        session = IngestSession("up-6", payload["schema"])
        for seq, chunk in enumerate(split(payload["buckets"], 2)):
            session.add_chunk(seq, chunk, chunk_digest(chunk))
        with pytest.raises(IngestError, match="digest"):
            session.build("f" * 64)
        digest, _published = session.build(release_digest(payload))
        assert digest == release_digest(payload)

    def test_empty_upload_cannot_finalize(self):
        session = IngestSession("up-7", wire()["schema"])
        with pytest.raises(IngestError):
            session.build(None)


class TestIngestManager:
    def test_session_cap_backpressures(self):
        from repro.service.admission import QueueFullError

        manager = IngestManager(max_sessions=2, ttl_seconds=600)
        schema = wire()["schema"]
        manager.begin(schema)
        manager.begin(schema)
        with pytest.raises(QueueFullError):
            manager.begin(schema)

    def test_expired_sessions_are_swept(self):
        manager = IngestManager(max_sessions=1, ttl_seconds=0.0)
        schema = wire()["schema"]
        manager.begin(schema)
        # TTL zero: the first session is already expired, so the cap
        # does not block the next begin.
        manager.begin(schema)
        assert manager.snapshot()["expired"] >= 1

    def test_abort_frees_a_slot(self):
        manager = IngestManager(max_sessions=1, ttl_seconds=600)
        schema = wire()["schema"]
        upload_id = manager.begin(schema).upload_id
        manager.abort(upload_id)
        manager.begin(schema)
        with pytest.raises(LookupError):
            manager.get(upload_id)


class TestChunkedUploadEndToEnd:
    def test_chunked_equals_one_shot_registration(self, client):
        # The acceptance bar: a release streamed in chunks dedups onto
        # the identical one-shot registration — byte-identical digests.
        published = paper_published()
        one_shot = client.register(published, name="one-shot")
        upload_id = client.begin_upload(
            schema_to_dict(published.schema), name="chunked"
        )
        payload = wire()
        for seq, chunk in enumerate(split(payload["buckets"], 2)):
            client.upload_chunk(upload_id, seq, chunk)
        summary = client.finalize_upload(
            upload_id, digest=release_digest(payload)
        )
        assert summary["release_id"] == one_shot
        assert summary["created"] is False
        assert summary["digest"] == release_digest(payload)

    def test_posteriors_match_between_paths(self, client):
        # Same release id ⇒ same posterior; spelled out so the privacy
        # equivalence (not just digest equality) is pinned by a test.
        payload = wire()
        upload_id = client.begin_upload(payload["schema"])
        for seq, chunk in enumerate(split(payload["buckets"], 3)):
            client.upload_chunk(upload_id, seq, chunk)
        summary = client.finalize_upload(upload_id)
        chunked = client.posterior(summary["release_id"])
        one_shot = client.posterior(client.register(paper_published()))
        assert chunked.posterior.matrix == pytest.approx(
            one_shot.posterior.matrix
        )

    def test_chunk_resend_is_idempotent(self, client):
        payload = wire()
        upload_id = client.begin_upload(payload["schema"])
        chunk = payload["buckets"][:2]
        first = client.upload_chunk(upload_id, 0, chunk)
        again = client.upload_chunk(upload_id, 0, chunk)
        assert first["duplicate"] is False
        assert again["duplicate"] is True
        client.abort_upload(upload_id)

    def test_finalize_is_idempotent(self, client):
        payload = wire()
        upload_id = client.begin_upload(payload["schema"])
        for seq, chunk in enumerate(split(payload["buckets"], 2)):
            client.upload_chunk(upload_id, seq, chunk)
        first = client.finalize_upload(upload_id)
        again = client.finalize_upload(upload_id)
        assert again["release_id"] == first["release_id"]
        assert again["digest"] == first["digest"]
        assert again["created"] is False

    def test_gap_is_409(self, client):
        payload = wire()
        upload_id = client.begin_upload(payload["schema"])
        chunk = payload["buckets"][:1]
        with pytest.raises(ServiceError) as excinfo:
            client.upload_chunk(upload_id, 5, chunk)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "ingest_conflict"
        client.abort_upload(upload_id)

    def test_unknown_upload_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.upload_chunk("up-nope", 0, wire()["buckets"][:1])
        assert excinfo.value.status == 404

    def test_status_and_listing(self, client):
        payload = wire()
        upload_id = client.begin_upload(payload["schema"], name="status-me")
        chunk = payload["buckets"][:2]
        client.upload_chunk(upload_id, 0, chunk)
        status = client.upload_status(upload_id)
        assert status["n_chunks"] == 1
        assert status["n_buckets"] == 2
        listing = client._request("GET", "/v1/releases/uploads", None)
        assert any(u["upload_id"] == upload_id for u in listing["uploads"])
        client.abort_upload(upload_id)

    def test_telemetry_counts_ingest(self, client):
        telemetry = client.telemetry()
        assert "ingest" in telemetry
        assert telemetry["ingest"]["started"] >= 1
        assert telemetry["service"]["counters"].get("ingest_chunks", 0) >= 1


class TestRegisterSizeGuard:
    def test_oversized_one_shot_is_413_pointing_at_chunks(self):
        config = ServiceConfig(port=0, register_max_bytes=512)
        with BackgroundService(PrivacyService(config)) as background:
            with ServiceClient(port=background.service.port) as client:
                client.wait_until_healthy(timeout=10)
                with pytest.raises(ServiceError) as excinfo:
                    client.register(paper_published())
                assert excinfo.value.status == 413
                assert "chunked" in str(excinfo.value)
                # The chunked path works under the same tight cap.
                payload = wire()
                upload_id = client.begin_upload(payload["schema"])
                for seq, chunk in enumerate(split(payload["buckets"], 1)):
                    client.upload_chunk(upload_id, seq, chunk)
                summary = client.finalize_upload(upload_id)
                assert summary["digest"] == release_digest(payload)

    def test_session_cap_is_429(self):
        from repro.cluster.retry import RetryPolicy

        config = ServiceConfig(port=0, max_ingest_sessions=1)
        with BackgroundService(PrivacyService(config)) as background:
            # attempts=1: see the raw 429 instead of sleeping through
            # the client's Retry-After absorption.
            with ServiceClient(
                port=background.service.port, retry=RetryPolicy(attempts=1)
            ) as client:
                client.wait_until_healthy(timeout=10)
                schema = wire()["schema"]
                client.begin_upload(schema)
                with pytest.raises(ServiceError) as excinfo:
                    client.begin_upload(schema)
                assert excinfo.value.status == 429
                assert excinfo.value.code == "queue_full"


class TestStoreDigestRegistration:
    def test_register_digest_shares_the_digest_keyspace(self):
        store = SessionStore()
        payload = wire()
        record, created = store.register(payload, paper_published())
        assert created
        again, created_again = store.register_digest(
            release_digest(payload), paper_published()
        )
        assert again.release_id == record.release_id
        assert created_again is False


class TestSampledOutRequestsStillServe:
    def test_rate_zero_service_keeps_answering(self, client):
        # REPRO_TRACE_SAMPLE=0 drops every request trace; the requests
        # themselves must be entirely unaffected.
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        previous = tracer.sample_rate
        tracer.set_sample_rate(0.0)
        try:
            assert client.healthz()["status"] in ("ok", "degraded")
            payload = wire()
            upload_id = client.begin_upload(payload["schema"])
            ack = client.upload_chunk(upload_id, 0, payload["buckets"][:1])
            assert ack["n_buckets"] == 1
            client.abort_upload(upload_id)
            traces = client.traces()
            assert traces["sample_rate"] == 0.0
        finally:
            tracer.set_sample_rate(previous)


def _malformed(case: str) -> dict:
    """The paper release with one value of bucket 0 broken as ``case``."""
    payload = wire()
    bucket = payload["buckets"][0]
    if case == "sa_outside_domain":
        bucket["sa_values"][0] = "Smallpox"
    elif case == "sa_not_a_string":
        bucket["sa_values"][0] = 7
    elif case == "short_qi_tuple":
        bucket["qi_tuples"][0] = bucket["qi_tuples"][0][:1]
    elif case == "qi_tuple_as_string":
        bucket["qi_tuples"][0] = "ab"  # two characters, two QI attributes
    return payload


MALFORMED = (
    "sa_outside_domain",
    "sa_not_a_string",
    "short_qi_tuple",
    "qi_tuple_as_string",
)


class TestMalformedReleases:
    """A release the schema cannot hold is a 400 on both routes, never a
    201 that fails later at posterior time."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_one_shot_registration_is_400(self, client, case):
        before = len(client.releases())
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/releases", {"release": _malformed(case)})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert len(client.releases()) == before

    @pytest.mark.parametrize("case", MALFORMED)
    def test_chunked_upload_is_400(self, client, case):
        # A value the JSON shape forbids fails its chunk; one the schema
        # forbids fails the finalize.  Either way nothing registers.
        payload = _malformed(case)
        before = len(client.releases())
        upload_id = client.begin_upload(payload["schema"])
        try:
            with pytest.raises(ServiceError) as excinfo:
                for seq, chunk in enumerate(split(payload["buckets"], 2)):
                    client.upload_chunk(upload_id, seq, chunk)
                client.finalize_upload(upload_id)
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_request"
        finally:
            client.abort_upload(upload_id)
        assert len(client.releases()) == before

    @pytest.mark.parametrize("case", MALFORMED)
    def test_library_rejects_the_release(self, case):
        from repro.core.serialize import published_from_dict
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            published_from_dict(_malformed(case))

    def test_rejected_chunk_can_be_resent_fixed(self, client):
        payload = wire()
        broken = _malformed("qi_tuple_as_string")["buckets"][:2]
        upload_id = client.begin_upload(payload["schema"])
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.upload_chunk(upload_id, 0, broken)
            assert excinfo.value.status == 400
            for seq, chunk in enumerate(split(payload["buckets"], 2)):
                client.upload_chunk(upload_id, seq, chunk)
            summary = client.finalize_upload(upload_id)
            assert summary["digest"] == release_digest(payload)
        finally:
            client.abort_upload(upload_id)
