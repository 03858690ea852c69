"""Streaming (chunked) release registration sessions.

One-shot ``POST /v1/releases`` carries the whole release in a single
JSON body — fine for thousands of buckets, hopeless for million-row
tables.  The chunked protocol splits the same wire form over many
requests with bounded per-request memory:

1. ``POST /v1/releases/uploads`` — begin: declares the schema, returns
   an ``upload_id``.
2. ``POST /v1/releases/{upload_id}/chunks`` — repeat: each chunk carries
   a contiguous slice of the bucket list, a sequence number and the
   chunk's content digest.  Chunks are idempotent by ``(seq, digest)``:
   a retried chunk is acknowledged without reprocessing, a conflicting
   resend is rejected.
3. ``POST /v1/releases/{upload_id}/finalize`` — registers the
   accumulated release and returns the same summary one-shot
   registration would.

The release content digest — the store's idempotency key — is
accumulated *incrementally*: each chunk's buckets are folded into a
running SHA-256 over exactly the canonical JSON bytes
``release_digest`` would hash for the equivalent one-shot payload, so a
release uploaded in chunks is **bit-identical** (same digest, same
store entry, same posteriors) to the same release posted in one body.
The full JSON document never exists on either side.

Sessions are bounded: at most ``max_sessions`` uploads may be in flight
(beyond that, :class:`~repro.service.admission.QueueFullError` → HTTP
429, the service's standard backpressure), and idle sessions expire
after ``ttl_seconds`` so abandoned uploads cannot pin memory.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import threading
import time
from collections import Counter

from repro.anonymize.buckets import Bucket, BucketizedTable
from repro.core.serialize import bucket_from_dict, schema_from_dict
from repro.errors import IngestError, ReproError
from repro.service.admission import QueueFullError

#: Default cap on concurrent (unfinalized) upload sessions.
DEFAULT_MAX_SESSIONS = 8

#: Default idle TTL; an upload with no traffic for this long is dropped.
DEFAULT_TTL_SECONDS = 600.0


def canonical_json(payload) -> str:
    """The canonical encoding ``release_digest`` hashes (sorted, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def chunk_digest(buckets: list) -> str:
    """Content digest of one chunk's bucket list (the idempotency key)."""
    return hashlib.sha256(canonical_json(buckets).encode("utf-8")).hexdigest()


class IngestSession:
    """One in-flight chunked upload: schema, buckets so far, running digest."""

    def __init__(
        self,
        upload_id: str,
        schema_payload: dict,
        *,
        name: str | None = None,
        expect_digest: str | None = None,
    ) -> None:
        self.upload_id = upload_id
        self.name = name
        self.expect_digest = expect_digest
        # Strict parse up front: a bad schema fails the begin call, not
        # the finalize after a million rows have been shipped.
        self.schema = schema_from_dict(schema_payload)
        self._schema_payload = schema_payload
        # Running hash over the canonical one-shot payload bytes.  Sorted
        # key order puts "buckets" before "schema", so the stream is
        # '{"buckets":[' + b_0 + "," + b_1 + ... + '],"schema":' + S + "}".
        self._hash = hashlib.sha256(b'{"buckets":[')
        self._chunk_digests: list[str] = []
        self._chunk_sizes: list[int] = []
        self._buckets: list[Bucket] = []
        self.n_records = 0
        self.sa_counts: Counter = Counter()
        self.created_at = time.time()
        self.touched_at = self.created_at
        self.finalized: dict | None = None
        self.release_digest: str | None = None
        self._lock = threading.Lock()

    # -- chunk intake ------------------------------------------------------

    def add_chunk(self, seq, raw_buckets, digest, *, journal=None) -> dict:
        """Fold one chunk in; returns the acknowledgement payload.

        Raises :class:`~repro.errors.IngestError` on protocol violations
        (HTTP 409): out-of-order sequence numbers, a digest that does not
        match the chunk's content, or a retried sequence number carrying
        different content.  A malformed bucket is a
        :class:`~repro.errors.ReproError` (HTTP 400), and the chunk may be
        re-sent fixed under the same ``seq``.

        ``journal(seq, raw_buckets)``, when given, is invoked under the
        session lock after validation and before the chunk is applied —
        the write-ahead hook of the durable serving mode.  Running it
        inside the lock is what keeps the journal's chunk order equal to
        the applied order under concurrent posts; duplicates never reach
        it.
        """
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise IngestError(f"chunk seq must be a non-negative integer, got {seq!r}")
        if not isinstance(raw_buckets, list) or not raw_buckets:
            raise IngestError("chunk needs a non-empty 'buckets' list")
        actual = chunk_digest(raw_buckets)
        if digest is not None and digest != actual:
            raise IngestError(
                f"chunk {seq} digest mismatch: body hashes to {actual[:12]}…, "
                f"request claimed {str(digest)[:12]}… (corrupt or re-encoded "
                "in transit)"
            )
        with self._lock:
            self.touched_at = time.time()
            if self.finalized is not None:
                raise IngestError(
                    f"upload {self.upload_id!r} is already finalized as "
                    f"release {self.finalized['release_id']!r}"
                )
            expected_seq = len(self._chunk_digests)
            if seq < expected_seq:
                if self._chunk_digests[seq] != actual:
                    raise IngestError(
                        f"chunk {seq} was already accepted with different "
                        "content; an upload's chunk sequence is immutable"
                    )
                return self._ack(seq, duplicate=True)
            if seq > expected_seq:
                raise IngestError(
                    f"chunk {seq} arrived before chunk {expected_seq}; "
                    "chunks must be posted in sequence order"
                )
            offset = len(self._buckets)
            buckets = []
            for i, raw in enumerate(raw_buckets):
                buckets.append(self._parse_bucket(raw, offset + i, seq))
            # All-or-nothing per chunk: the digest and the bucket list are
            # only advanced once every bucket in the chunk parsed cleanly,
            # so a rejected chunk can be fixed and re-sent under its seq.
            if journal is not None:
                journal(seq, raw_buckets)
            encoded = ",".join(canonical_json(raw) for raw in raw_buckets)
            if offset > 0:
                self._hash.update(b",")
            self._hash.update(encoded.encode("utf-8"))
            self._buckets.extend(buckets)
            for bucket in buckets:
                self.n_records += bucket.size
                self.sa_counts.update(bucket.sa_values)
            self._chunk_digests.append(actual)
            self._chunk_sizes.append(len(raw_buckets))
            return self._ack(seq, duplicate=False)

    def _parse_bucket(self, raw, index: int, seq) -> Bucket:
        try:
            return bucket_from_dict(raw, index)
        except ReproError as exc:
            raise ReproError(f"chunk {seq}: {exc}") from exc

    def _ack(self, seq, *, duplicate: bool) -> dict:
        return {
            "upload_id": self.upload_id,
            "seq": seq,
            "duplicate": duplicate,
            "n_chunks": len(self._chunk_digests),
            "n_buckets": len(self._buckets),
            "n_records": self.n_records,
        }

    # -- finalize ----------------------------------------------------------

    def peek_digest(self) -> str:
        """The release digest of everything folded in so far."""
        closing = b'],"schema":' + canonical_json(self._schema_payload).encode(
            "utf-8"
        ) + b"}"
        h = self._hash.copy()
        h.update(closing)
        return h.hexdigest()

    def build(self, expected_digest: str | None = None) -> tuple[str, BucketizedTable]:
        """Assemble the accumulated release for registration.

        Verifies the incremental digest against the client's expectation
        (from ``begin`` or ``finalize``) when one was supplied, so a
        client that digested its own stream gets end-to-end integrity.
        """
        with self._lock:
            self.touched_at = time.time()
            if self.finalized is not None:
                raise IngestError(
                    f"upload {self.upload_id!r} is already finalized"
                )
            if not self._buckets:
                raise IngestError(
                    f"upload {self.upload_id!r} has no chunks to finalize"
                )
            digest = self.peek_digest()
            for claim, origin in (
                (expected_digest, "finalize"),
                (self.expect_digest, "begin"),
            ):
                if claim is not None and claim != digest:
                    raise IngestError(
                        f"release digest mismatch: accumulated {digest[:12]}…, "
                        f"client expected {str(claim)[:12]}… (from {origin}); "
                        "the upload does not contain what the client sent"
                    )
            published = BucketizedTable(self.schema, self._buckets)
            return digest, published

    def mark_registered(self, digest: str, summary: dict) -> None:
        """Record the registration result and drop the bucket payload."""
        with self._lock:
            self.release_digest = digest
            self.finalized = dict(summary)
            self._buckets = []
            self.sa_counts = Counter()
            self.touched_at = time.time()

    # -- durability --------------------------------------------------------

    def serialize(self) -> dict:
        """This session in replayable wire form, for a state snapshot.

        Live sessions regenerate each chunk's raw bucket dicts from the
        parsed state — :meth:`restore` re-feeds them through
        :meth:`add_chunk`, which rebuilds the incremental SHA-256 from
        the same canonical bytes the original stream hashed (the chunk
        digest already hashes the *parsed* JSON, so regeneration is
        canonical-identical).  Finalized sessions dropped their buckets
        at registration; only the summary needed for idempotent
        re-finalize answers survives.
        """
        with self._lock:
            chunks: list[list[dict]] = []
            if self.finalized is None:
                offset = 0
                for size in self._chunk_sizes:
                    chunks.append(
                        [
                            {
                                "qi_tuples": [list(q) for q in b.qi_tuples],
                                "sa_values": list(b.sa_values),
                            }
                            for b in self._buckets[offset : offset + size]
                        ]
                    )
                    offset += size
            return {
                "upload_id": self.upload_id,
                "name": self.name,
                "expect_digest": self.expect_digest,
                "schema": self._schema_payload,
                "created_at": self.created_at,
                "touched_at": self.touched_at,
                "chunks": chunks,
                "chunk_digests": list(self._chunk_digests),
                "n_records": self.n_records,
                "finalized": (
                    dict(self.finalized) if self.finalized is not None else None
                ),
                "release_digest": self.release_digest,
            }

    @classmethod
    def restore(cls, payload: dict) -> "IngestSession":
        """Rebuild a session from :meth:`serialize` output.

        The running hash state cannot be persisted directly (hash
        objects do not serialize), so live sessions replay their chunks
        — a recovered upload continues from the exact digest state the
        crash interrupted and finalizes bit-identically to an
        uninterrupted one.
        """
        session = cls(
            payload["upload_id"],
            payload["schema"],
            name=payload.get("name"),
            expect_digest=payload.get("expect_digest"),
        )
        for seq, raw_buckets in enumerate(payload.get("chunks") or ()):
            session.add_chunk(seq, raw_buckets, None)
        if payload.get("finalized") is not None:
            session.finalized = dict(payload["finalized"])
            session.release_digest = payload.get("release_digest")
            session._chunk_digests = list(payload.get("chunk_digests") or ())
            session.n_records = int(payload.get("n_records", 0))
        session.created_at = payload["created_at"]
        session.touched_at = payload["touched_at"]
        return session

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready status of this upload."""
        with self._lock:
            status = {
                "upload_id": self.upload_id,
                "name": self.name,
                "n_chunks": len(self._chunk_digests),
                "n_buckets": len(self._buckets),
                "n_records": self.n_records,
                "distinct_sa_values": len(self.sa_counts),
                "created_at_unix": self.created_at,
                "idle_seconds": max(0.0, time.time() - self.touched_at),
                "finalized": self.finalized is not None,
            }
            if self.finalized is not None:
                status["release_id"] = self.finalized["release_id"]
                status["n_buckets"] = self.finalized["n_buckets"]
            return status


class IngestManager:
    """Bounded registry of in-flight uploads with TTL expiry."""

    def __init__(
        self,
        *,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
    ) -> None:
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self._sessions: dict[str, IngestSession] = {}
        self._counter = 0
        self._lock = threading.Lock()
        self.started = 0
        self.finalized = 0
        self.expired = 0
        self.aborted = 0

    def _sweep_locked(self) -> list[str]:
        now = time.time()
        dropped = []
        for upload_id, session in list(self._sessions.items()):
            if now - session.touched_at > self.ttl_seconds:
                del self._sessions[upload_id]
                # Finalized sessions lingering for idempotent re-finalize
                # age out silently; live uploads count as expirations.
                if session.finalized is None:
                    self.expired += 1
                    dropped.append(upload_id)
        return dropped

    def sweep(self) -> list[str]:
        """Expire idle sessions now; returns the live upload ids dropped."""
        with self._lock:
            return self._sweep_locked()

    def begin(
        self,
        schema_payload: dict,
        *,
        name: str | None = None,
        expect_digest: str | None = None,
    ) -> IngestSession:
        """Open a new upload session (429 via ``QueueFullError`` at cap)."""
        with self._lock:
            self._sweep_locked()
            active = sum(
                1 for s in self._sessions.values() if s.finalized is None
            )
            if active >= self.max_sessions:
                raise QueueFullError(
                    active, self.max_sessions, what="ingest upload table"
                )
            self._counter += 1
            upload_id = f"up-{self._counter}-{secrets.token_hex(4)}"
            session = IngestSession(
                upload_id,
                schema_payload,
                name=name,
                expect_digest=expect_digest,
            )
            self._sessions[upload_id] = session
            self.started += 1
            return session

    def get(self, upload_id: str) -> IngestSession:
        """The live session, or ``LookupError`` (→ HTTP 404, like releases)."""
        with self._lock:
            self._sweep_locked()
            session = self._sessions.get(upload_id)
        if session is None:
            raise LookupError(
                f"unknown upload {upload_id!r} (never begun, expired after "
                f"{self.ttl_seconds:g}s idle, or aborted)"
            )
        return session

    def abort(self, upload_id: str) -> dict:
        """Drop an upload and free its accumulated state."""
        with self._lock:
            session = self._sessions.pop(upload_id, None)
            if session is not None:
                self.aborted += 1
        if session is None:
            raise LookupError(f"unknown upload {upload_id!r}")
        return {"upload_id": upload_id, "aborted": True}

    def note_finalized(self) -> None:
        with self._lock:
            self.finalized += 1

    # -- durability --------------------------------------------------------

    def peek(self, upload_id: str) -> IngestSession | None:
        """The session if tracked, without sweeping or raising (replay)."""
        with self._lock:
            return self._sessions.get(upload_id)

    def restore_session(
        self, session: IngestSession, *, count_started: bool = False
    ) -> bool:
        """Adopt a recovered session under its original upload id.

        Idempotent: an id already tracked is left alone (double-replay
        safety), and a session whose idle time already exceeds the TTL
        is refused rather than resurrected — the client was told its
        upload could expire, and a crash does not extend the promise.
        ``count_started`` distinguishes journal replay (the begin was
        never counted; bump ``started``) from snapshot restore (the
        serialized counters already include it).  Returns ``True`` when
        the session was adopted.
        """
        with self._lock:
            if session.upload_id in self._sessions:
                return False
            if (
                session.finalized is None
                and time.time() - session.touched_at > self.ttl_seconds
            ):
                return False
            self._sessions[session.upload_id] = session
            if count_started:
                self.started += 1
            # Keep the id counter monotonic past recovered ids so new
            # uploads cannot collide with pre-crash ones.
            try:
                seq = int(session.upload_id.split("-")[1])
            except (IndexError, ValueError):
                seq = 0
            self._counter = max(self._counter, seq)
            return True

    def serialize(self) -> dict:
        """All tracked sessions plus lifetime counters, for a snapshot."""
        with self._lock:
            sessions = sorted(
                self._sessions.values(), key=lambda s: s.created_at
            )
            return {
                "counter": self._counter,
                "started": self.started,
                "finalized": self.finalized,
                "expired": self.expired,
                "aborted": self.aborted,
                "sessions": [session.serialize() for session in sessions],
            }

    def restore(self, payload: dict) -> tuple[int, int]:
        """Rebuild manager state from :meth:`serialize` output.

        Returns ``(adopted, refused)`` — refused sessions are those the
        TTL already expired (not resurrected) or that were already
        tracked (double-replay no-ops).
        """
        adopted = refused = 0
        for entry in payload.get("sessions", ()):
            if self.restore_session(IngestSession.restore(entry)):
                adopted += 1
            else:
                refused += 1
        with self._lock:
            self._counter = max(self._counter, int(payload.get("counter", 0)))
            self.started = max(self.started, int(payload.get("started", 0)))
            self.finalized = max(
                self.finalized, int(payload.get("finalized", 0))
            )
            self.expired = max(self.expired, int(payload.get("expired", 0)))
            self.aborted = max(self.aborted, int(payload.get("aborted", 0)))
        return adopted, refused

    def list(self) -> list[dict]:
        """Status snapshots of every tracked upload, oldest first."""
        with self._lock:
            self._sweep_locked()
            sessions = sorted(
                self._sessions.values(), key=lambda s: s.created_at
            )
        return [session.snapshot() for session in sessions]

    def snapshot(self) -> dict:
        """JSON-ready counters for the telemetry endpoint."""
        with self._lock:
            active = sum(
                1 for s in self._sessions.values() if s.finalized is None
            )
            return {
                "active": active,
                "tracked": len(self._sessions),
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "started": self.started,
                "finalized": self.finalized,
                "expired": self.expired,
                "aborted": self.aborted,
            }
