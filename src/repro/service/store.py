"""Session state of the serving subsystem: releases, systems, results.

A long-lived service amortizes everything a cold ``PrivacyMaxEnt`` run
pays per query:

- :class:`RegisteredRelease` holds one registered bucketization with its
  :class:`~repro.core.privacy_maxent.ReleaseModel` (the library's own
  space and data-invariant rows, built once), the mined rule sets per
  mining config, and an LRU of the model's compiled constraint systems
  keyed by the knowledge list — so a repeat query skips indexing,
  invariant derivation, mining and compilation entirely and goes
  straight to the (cached, coalesced) solve.  The LRU lives here, where
  repeat requests happen; the library caches no compiled systems.
- :class:`SessionStore` owns the id → release map, the finished-result
  LRU and the request index in front of it.  A result entry is the
  compact JSON encoding of one posterior payload (``posterior``,
  ``stats``, ``n_knowledge_rows``, ``fingerprint``), made once on the
  thread that solved it and keyed by ``release:fingerprint:policy``; the
  bytes are the only copy kept, and the server splices ``release_id`` and
  ``served_from`` in front of them for every answer.  The request index
  maps a digest of (release id, raw request body) to that result key, so
  a byte-identical repeat is a lookup, with no parsing, compilation or
  fingerprinting.

Registration is idempotent: the same release payload (by canonical
content digest) returns the existing id, so fleets of identical clients
don't balloon the store.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from repro.core.privacy_maxent import ReleaseModel
from repro.core.quantifier import PosteriorTable
from repro.core.serialize import (
    published_from_dict,
    published_to_dict,
    statement_to_dict,
    table_from_dict,
    table_to_dict,
)
from repro.engine.cache import SolveCache
from repro.knowledge.mining import MiningConfig, RuleSet, mine_association_rules
from repro.maxent.constraints import ConstraintSystem


def release_digest(payload: dict) -> str:
    """Canonical content digest of a release wire payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def request_key(release_id: str, body: bytes) -> str:
    """Request-index key of one posterior request: its exact bytes."""
    digest = hashlib.sha256(release_id.encode("utf-8"))
    digest.update(b"\0")
    digest.update(body)
    return digest.hexdigest()


def statements_key(statements) -> str:
    """Stable key of a knowledge list (order-insensitive)."""
    encoded = sorted(
        json.dumps(statement_to_dict(s), sort_keys=True) for s in statements
    )
    return hashlib.sha256("\n".join(encoded).encode("utf-8")).hexdigest()


class RegisteredRelease:
    """One registered bucketized release and its compiled artifacts."""

    def __init__(
        self,
        release_id: str,
        published,
        *,
        name: str | None = None,
        original=None,
        system_cache_size: int = 64,
    ) -> None:
        self.release_id = release_id
        self.name = name or release_id
        self.published = published
        self.original = original
        self.created_at = time.time()
        # Indexing and invariant derivation happen once, at registration.
        self.model = ReleaseModel(published)
        self.truth = (
            PosteriorTable.from_table(original) if original is not None else None
        )
        self._rules: dict[MiningConfig, RuleSet] = {}
        self._systems = SolveCache(system_cache_size)
        # Compilation can be requested concurrently from handler
        # coroutines interleaved with executor threads; keep it safe.
        self._lock = threading.Lock()

    @property
    def has_original(self) -> bool:
        """True when ground truth was registered alongside the release."""
        return self.original is not None

    def attach_original(self, original) -> None:
        """Late-bind the ground truth (a re-registration supplied it)."""
        with self._lock:
            self.original = original
            self.truth = PosteriorTable.from_table(original)
            self._rules.clear()

    def compiled_system(self, statements) -> tuple[ConstraintSystem, int, float]:
        """:meth:`ReleaseModel.compile` of ``statements``, cached per
        statement list: ``(system, n_knowledge_rows, build_seconds)``, the
        seconds zero on a hit (the server reports them with the solve)."""
        key = statements_key(statements)
        cached = self._systems.lookup(key)
        if cached is None:
            with self._lock:
                cached = self._systems.get(key)
                if cached is None:
                    system, n_rows, seconds = self.model.compile(statements)
                    self._systems.put(key, (system, n_rows))
                    return system, n_rows, seconds
        return (*cached, 0.0)

    def rules(self, mining: MiningConfig | None = None) -> RuleSet:
        """Association rules mined from the registered original (cached)."""
        if self.original is None:
            raise LookupError(
                f"release {self.release_id!r} was registered without its "
                "original table; assessment needs ground truth to mine from"
            )
        mining = mining or MiningConfig()
        with self._lock:
            rules = self._rules.get(mining)
            if rules is None:
                rules = mine_association_rules(self.original, mining)
                self._rules[mining] = rules
            return rules

    def summary(self) -> dict:
        """JSON-ready registration record."""
        return {
            "release_id": self.release_id,
            "name": self.name,
            "n_buckets": self.published.n_buckets,
            "n_records": self.published.n_records,
            "n_vars": self.model.space.n_vars,
            "has_original": self.has_original,
            "created_at_unix": self.created_at,
            "compiled_systems": len(self._systems),
            "system_cache_hits": self._systems.hits,
        }


class SessionStore:
    """Releases by id plus the finished-result LRU.

    Registrations run on executor threads while list/get serve from the
    event loop, so the registry maps are guarded by a lock.
    """

    def __init__(self, *, result_cache_size: int = 256) -> None:
        self._releases: dict[str, RegisteredRelease] = {}
        self._by_digest: dict[str, str] = {}
        self._counter = 0
        self._lock = threading.Lock()
        self.results = SolveCache(result_cache_size)
        # Uncounted: the results lookup behind it is the counted one.
        self.requests = SolveCache(result_cache_size)

    def cached_body(self, request: str) -> bytes | None:
        """The result bytes a repeat of ``request`` maps to, if cached.

        Makes one counted results lookup on a hit and none otherwise,
        so a request that falls through to the fingerprint path is
        still counted exactly once.  Called on the event loop, where
        every results put happens, so the entry cannot vanish between
        the membership test and the lookup.
        """
        key = self.requests.get(request)
        if key is None or key not in self.results:
            return None
        return self.results.lookup(key)

    def remember_request(self, request: str, key: str) -> None:
        """Index a request answered 200 from result ``key``."""
        self.requests.put(request, key)

    def register(
        self, payload: dict, published, *, name: str | None = None, original=None
    ) -> tuple[RegisteredRelease, bool]:
        """Register a release; returns ``(record, created)``.

        ``payload`` is the wire form used for the idempotency digest so
        re-posting an identical release returns the existing record.  A
        re-registration can still *add* what the first one lacked — the
        original table (enabling assess) or a fresh name.
        """
        return self.register_digest(
            release_digest(payload), published, name=name, original=original
        )

    def register_digest(
        self, digest: str, published, *, name: str | None = None, original=None
    ) -> tuple[RegisteredRelease, bool]:
        """Register under a precomputed content digest.

        The chunked-ingest path accumulates the digest incrementally while
        streaming (the full wire payload never exists in memory) and lands
        here — sharing the digest keyspace with :meth:`register` is what
        makes a chunked upload idempotent against the equivalent one-shot
        registration, and vice versa.
        """
        with self._lock:
            existing_id = self._by_digest.get(digest)
            record = self._releases.get(existing_id) if existing_id else None
        if record is not None:
            if original is not None and record.original is None:
                record.attach_original(original)
            if name is not None:
                record.name = name
            return record, False
        fresh = RegisteredRelease(
            "rel-pending", published, name=name, original=original
        )
        with self._lock:
            # Re-check: a racing registration of the same payload wins.
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                return self._releases[existing_id], False
            self._counter += 1
            release_id = f"rel-{self._counter}-{digest[:8]}"
            fresh.release_id = release_id
            if name is None:
                fresh.name = release_id
            self._releases[release_id] = fresh
            self._by_digest[digest] = release_id
        return fresh, True

    def get(self, release_id: str) -> RegisteredRelease:
        """The registered release, or :class:`LookupError` (→ HTTP 404)."""
        with self._lock:
            record = self._releases.get(release_id)
        if record is None:
            raise LookupError(f"unknown release {release_id!r}")
        return record

    def list(self) -> list[dict]:
        """Summaries of every registered release, oldest first."""
        with self._lock:
            records = list(self._releases.values())
        return [record.summary() for record in records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._releases)

    def snapshot(self) -> dict:
        """JSON-ready store state for the telemetry endpoint."""
        return {
            "releases": len(self._releases),
            "result_cache": {
                "size": len(self.results),
                "max_entries": self.results.max_entries,
                "hits": self.results.hits,
                "misses": self.results.misses,
                "hit_rate": self.results.hit_rate,
            },
        }

    # -- durability ----------------------------------------------------------

    def serialize(self) -> dict:
        """The full registry in wire form, for a durable state snapshot.

        Everything a restart needs to rebuild the registry *exactly* —
        explicit release ids and the id counter included, so recovered
        releases keep the ids clients already hold and post-recovery
        registrations cannot collide with pre-crash ones.  Compiled
        systems, mined rules and result caches are deliberately absent:
        they are derived state the service rebuilds on demand.
        """
        with self._lock:
            records = list(self._releases.values())
            digest_of = {rid: d for d, rid in self._by_digest.items()}
            counter = self._counter
        releases = []
        for record in records:
            releases.append(
                {
                    "release_id": record.release_id,
                    "digest": digest_of[record.release_id],
                    "name": record.name,
                    "created_at": record.created_at,
                    "release": published_to_dict(record.published),
                    "original": (
                        table_to_dict(record.original)
                        if record.original is not None
                        else None
                    ),
                }
            )
        return {"counter": counter, "releases": releases}

    def restore(self, payload: dict) -> int:
        """Rebuild the registry from :meth:`serialize` output.

        Idempotent by digest (a release already present is skipped), so
        replaying a snapshot over a partially recovered store — or the
        same snapshot twice — cannot create duplicates or re-number ids.
        Returns the number of releases actually restored.
        """
        restored = 0
        for entry in payload.get("releases", ()):
            with self._lock:
                if entry["digest"] in self._by_digest:
                    continue
            published = published_from_dict(entry["release"])
            original = (
                table_from_dict(entry["original"])
                if entry.get("original") is not None
                else None
            )
            record = RegisteredRelease(
                entry["release_id"],
                published,
                name=entry.get("name"),
                original=original,
            )
            record.created_at = entry["created_at"]
            with self._lock:
                if entry["digest"] in self._by_digest:
                    continue
                self._releases[entry["release_id"]] = record
                self._by_digest[entry["digest"]] = entry["release_id"]
            restored += 1
        with self._lock:
            self._counter = max(self._counter, int(payload.get("counter", 0)))
        return restored
