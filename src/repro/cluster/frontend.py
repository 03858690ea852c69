"""The sharded serving front-end: one address, N engine workers behind it.

``repro serve --shards N`` runs a :class:`ShardedFrontend` — the same
HTTP surface as the single-engine service, but every release lives on
exactly one shard worker (rendezvous-routed by the release's canonical
content digest), so each worker owns its releases' compiled constraint
systems, solve caches and warm starts, and the fleet's total memory and
core count — not one process's — bounds the serving capacity.

Routing and failure semantics:

- *registration* — the front-end computes the same content digest the
  session store uses for idempotency, registers on the digest's top-K
  rendezvous owners (K = the replication factor, default 2) and
  remembers ``(digest, body, primary, replicas)``; the client-visible
  release id is pinned at first registration and survives failover.
- *solves* — posterior/assess bodies forward verbatim to the primary
  owner; worker errors map back status-for-status (a 429 from a
  saturated shard is real backpressure the client should see).
- *failover* — a connection failure marks the worker dead; the request
  *promotes a live replica* (zero re-registration round trips) and only
  re-registers from the stored payload when no replica survives.
  Health probes and heartbeats revive recovered workers, and rendezvous
  hashing sends their keys straight back.
- *membership* — workers dial in over ``POST /shard/v1/join`` and
  ``POST /shard/v1/heartbeat`` (stable identities, liveness timeouts,
  revival of returning workers); joins trigger incremental background
  re-balancing that only touches releases whose top-K owner set
  actually changed.
- *health/telemetry* — ``/v1/healthz`` aggregates worker liveness (any
  dead or degraded shard degrades the fleet, HTTP 503), and
  ``/v1/telemetry`` embeds every shard's counters, the membership event
  history, plus cross-shard engine aggregates.
"""

from __future__ import annotations

import asyncio
import http.client
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.membership import MembershipConfig
from repro.cluster.protocol import (
    SHARD_PROTOCOL,
    heartbeat_request_from_wire,
    join_request_from_wire,
)
from repro.cluster.retry import RetryPolicy, cluster_env_float
from repro.cluster.router import ClusterError
from repro.obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.obs.metrics import MetricsBuilder
from repro.obs.trace import get_tracer
from repro.service.admission import AdmissionController
from repro.service.client import ServiceError
from repro.service.deadline import DEADLINE_HEADER
from repro.service.protocol import EncodedResponse, HttpError, HttpRequest
from repro.service.telemetry import LATENCY_BOUNDS
from repro.service.server import (
    TRACE_HEADER,
    PrivacyService,
    ServiceConfig,
    engine_metrics,
)
from repro.service.store import release_digest

#: Default per-forward HTTP timeout; solves can be long, registration
#: is not.  Overridable per instance (``REPRO_CLUSTER_FORWARD_TIMEOUT``
#: env var / ``repro serve --forward-timeout``).
FORWARD_TIMEOUT = 600.0

#: Default per-worker health-probe timeout (``/v1/healthz`` fan-out);
#: ``REPRO_CLUSTER_HEALTH_TIMEOUT`` / ``--health-timeout`` override.
HEALTH_TIMEOUT = 2.0


@dataclass
class ReleaseEntry:
    """One registered release's routing record.

    ``worker_id`` is the *primary* (requests forward there);
    ``replicas`` maps every other worker holding a registered copy to
    the release id it knows the release by.  Promotion swaps a replica
    into the primary slot without any wire traffic.
    """

    release_id: str
    digest: str
    body: dict
    worker_id: str
    worker_release_id: str
    summary: dict = field(default_factory=dict)
    replicas: dict[str, str] = field(default_factory=dict)


class ShardedFrontend(PrivacyService):
    """Release-sharding HTTP front-end over a worker fleet."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        coordinator: ClusterCoordinator,
        owns_coordinator: bool = True,
        forward_timeout: float | None = None,
        health_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        membership: MembershipConfig | None = None,
        accept_joins: bool = True,
    ) -> None:
        super().__init__(config)
        self.coordinator = coordinator
        self.owns_coordinator = owns_coordinator
        self.forward_timeout = (
            forward_timeout
            if forward_timeout is not None
            else cluster_env_float("FORWARD_TIMEOUT", FORWARD_TIMEOUT)
        )
        self.health_timeout = (
            health_timeout
            if health_timeout is not None
            else cluster_env_float("HEALTH_TIMEOUT", HEALTH_TIMEOUT)
        )
        self.retry = retry_policy or RetryPolicy.from_env()
        self.membership = membership or MembershipConfig.from_env()
        self.replication = self.membership.replication
        self.accept_joins = accept_joins
        if self.config.max_concurrency is None:
            # The base class sized admission for its own (idle) engine;
            # a front-end's capacity is the fleet's, so let several
            # forwards per worker be in flight before 429ing clients.
            self.admission = AdmissionController(
                max_concurrency=max(4, 4 * coordinator.n_workers),
                max_queue=self.config.max_queue,
            )
        self._directory: dict[str, ReleaseEntry] = {}
        self._by_digest: dict[str, str] = {}
        self._directory_lock = threading.Lock()
        # Joins re-balance in the background — one worker, so concurrent
        # joins serialize instead of racing over the directory — while
        # the request path keeps serving.
        self._rebalance_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="shard-rebalance"
        )
        self._membership_stop = threading.Event()
        self._membership_thread = threading.Thread(
            target=self._membership_loop,
            name="fleet-liveness",
            daemon=True,
        )
        self._membership_thread.start()

    def close(self) -> None:
        self._membership_stop.set()
        self._membership_thread.join(timeout=5.0)
        self._rebalance_pool.shutdown(wait=True, cancel_futures=True)
        super().close()
        if self.owns_coordinator:
            self.coordinator.shutdown()

    # -- forwarding plumbing -------------------------------------------------

    def _forward(
        self,
        worker_id: str,
        method: str,
        path: str,
        payload=None,
        *,
        trace_ctx: dict | None = None,
        deadline=None,
    ) -> dict:
        """One blocking request to one worker; HTTP errors map through.

        ``trace_ctx`` rides the :data:`TRACE_HEADER` so the worker's
        request root span parents on this front-end's — release-sharded
        forwards stitch into one cross-process trace.  ``deadline`` (the client's parsed
        request budget) forwards as the *remaining* budget, recomputed
        per attempt — a shard never starts computing an answer whose
        requester already gave up waiting at the front door.

        Transport failures retry under the front-end's
        :class:`RetryPolicy` before they escape: one transient refusal
        (a worker mid-restart, a dropped connection) no longer condemns
        a healthy worker to failover.  Worker *verdicts* never retry —
        an HTTP answer means the worker is alive and its answer stands.
        Re-sending is safe on every forwarded path: registration is
        idempotent by content digest and solves are cached/coalesced
        worker-side.
        """
        handle = self.coordinator.worker(worker_id)
        base_headers: dict[str, str] = {}
        if trace_ctx is not None:
            base_headers[TRACE_HEADER] = (
                f"{trace_ctx['trace_id']}:{trace_ctx.get('span_id') or ''}"
            )

        def attempt() -> dict:
            headers = dict(base_headers)
            if deadline is not None:
                # Re-read the clock per attempt: backoff sleeps burned
                # budget too, and the shard should know.
                headers[DEADLINE_HEADER] = deadline.header_value()
            with handle.client(timeout=self.forward_timeout) as client:
                return client.request(
                    method, path, payload, extra_headers=headers or None
                )

        def on_retry(n, exc, sleep) -> None:
            self.telemetry.incr("forward_retries")

        try:
            return self.retry.run(attempt, on_retry=on_retry)
        except ServiceError as exc:
            # The worker answered: relay its verdict status-for-status.
            raise HttpError(exc.status, str(exc), code=exc.code) from exc

    def _entry(self, release_id: str) -> ReleaseEntry:
        with self._directory_lock:
            entry = self._directory.get(release_id)
        if entry is None:
            raise LookupError(f"unknown release {release_id!r}")
        return entry

    def _register_on(self, worker_id: str, entry_body: dict) -> dict:
        return self._forward(worker_id, "POST", "/v1/releases", entry_body)

    def _register_anywhere(
        self, digest: str, entry: ReleaseEntry | None, body: dict
    ) -> tuple[str, dict]:
        """Register on the digest's owner, walking successors past deaths.

        A connection failure marks the owner dead and moves to the next
        rendezvous choice, so registration survives a just-died worker
        the same way solves do; HTTP answers (including 429) relay
        verbatim — the worker is alive and its verdict stands.
        """
        last_exc: Exception | None = None
        for _attempt in range(self.coordinator.n_workers):
            dead = set(self.coordinator.dead_ids())
            if entry is not None and entry.worker_id not in dead:
                owner = entry.worker_id
            else:
                try:
                    owner = self.coordinator.router.owner(
                        digest, exclude=dead
                    )
                except ClusterError as exc:
                    last_exc = exc
                    break
            try:
                return owner, self._register_on(owner, body)
            except HttpError:
                raise
            except (OSError, http.client.HTTPException) as exc:
                self.coordinator.mark_dead(owner)
                last_exc = exc
        raise HttpError(
            503,
            f"no shard worker accepted the registration: {last_exc}",
            code="shard_unavailable",
        ) from last_exc

    def _promote_replica(self, entry: ReleaseEntry) -> bool:
        """Swap a live replica into the primary slot (no wire traffic).

        The replication payoff: the release is already registered on
        its rendezvous co-owners, so surviving an owner death is a
        directory update, not a re-registration round trip.  The dead
        ex-primary stays recorded as a replica — its copy still exists
        on disk/memory there, and a same-identity respawn makes it
        immediately usable again.
        """
        dead = set(self.coordinator.dead_ids())
        order = {
            w: rank
            for rank, w in enumerate(
                self.coordinator.router.ranked(entry.digest)
            )
        }
        with self._directory_lock:
            candidates = [
                (worker_id, release_id)
                for worker_id, release_id in entry.replicas.items()
                if worker_id not in dead and worker_id != entry.worker_id
            ]
            if not candidates:
                return False
            candidates.sort(
                key=lambda item: order.get(item[0], len(order))
            )
            successor, successor_release_id = candidates[0]
            entry.replicas.pop(successor, None)
            entry.replicas[entry.worker_id] = entry.worker_release_id
            entry.worker_id = successor
            entry.worker_release_id = successor_release_id
        self.telemetry.incr("release_promotions")
        self.coordinator.events.record(
            "release_promoted", release=entry.release_id, worker=successor
        )
        return True

    def _replicate(self, entry: ReleaseEntry) -> int:
        """Register ``entry`` on missing top-K co-owners (best-effort).

        Returns how many new replicas were established.  A transport
        failure marks that worker dead and moves on — replication must
        never fail the registration that triggered it.
        """
        established = 0
        try:
            dead = set(self.coordinator.dead_ids())
            desired = self.coordinator.router.owners(
                entry.digest, k=self.replication, exclude=dead
            )
        except ClusterError:
            return 0
        with self._directory_lock:
            holders = {entry.worker_id, *entry.replicas}
        for owner in desired:
            if owner in holders:
                continue
            try:
                response = self._register_on(owner, entry.body)
            except HttpError:
                # The worker answered but refused; nothing to record.
                continue
            except (OSError, http.client.HTTPException):
                self.coordinator.mark_dead(owner)
                continue
            with self._directory_lock:
                if owner != entry.worker_id:
                    entry.replicas[owner] = response["release_id"]
            established += 1
        if established:
            self.telemetry.incr("release_replications", established)
        return established

    def _failover(self, entry: ReleaseEntry) -> None:
        """Re-home a release whose owner died, from the stored payload.

        The slow path, reached only when no registered replica
        survives.  Each registration attempt already retries transient
        transport faults under the :class:`RetryPolicy` (inside
        :meth:`_forward`), so a successor is condemned only after the
        policy's attempts all failed — not on a single refused
        connection.
        """
        self.coordinator.mark_dead(entry.worker_id)
        dead = set(self.coordinator.dead_ids())
        successor = self.coordinator.router.owner(entry.digest, exclude=dead)
        try:
            response = self._register_on(successor, entry.body)
        except (OSError, http.client.HTTPException):
            # The successor is gone too (policy exhausted): exclude
            # *it*, so the caller's next attempt walks further down the
            # rendezvous order instead of re-trying a worker we just
            # watched fail.
            self.coordinator.mark_dead(successor)
            raise
        with self._directory_lock:
            entry.replicas.pop(successor, None)
            entry.replicas[entry.worker_id] = entry.worker_release_id
            entry.worker_id = successor
            entry.worker_release_id = response["release_id"]
        self.telemetry.incr("release_failovers")

    def _entry_target(self, entry: ReleaseEntry) -> tuple[str, str]:
        """A consistent (worker_id, worker_release_id) pair for ``entry``.

        Both fields change together under a failover; reading them under
        the directory lock prevents a torn pair (new worker, stale
        release id) from racing a concurrent re-home.
        """
        with self._directory_lock:
            return entry.worker_id, entry.worker_release_id

    def _forward_release(
        self,
        entry: ReleaseEntry,
        method: str,
        path_suffix: str,
        payload=None,
        trace_ctx: dict | None = None,
        deadline=None,
    ) -> dict:
        """Forward to a release's owner, walking failures.

        Every failed attempt eliminates at least one worker from
        routing, so ``n_workers + 1`` attempts suffice to reach the last
        healthy candidate.  An owner that is alive but no longer knows
        the release (restarted by a supervisor with an empty store) gets
        the release re-registered from the stored body once — the
        pinned client-visible id must survive worker restarts, not only
        deaths.
        """
        last_exc: Exception | None = None
        rehomed_404 = False
        for _attempt in range(self.coordinator.n_workers + 1):
            worker_id, worker_release_id = self._entry_target(entry)
            try:
                if worker_id in set(self.coordinator.dead_ids()):
                    # Replica promotion first: zero round trips.  Only
                    # when no registered copy survives does the release
                    # re-register from the stored payload.
                    if self._promote_replica(entry):
                        self._schedule_repair(entry)
                    else:
                        self._failover(entry)
                        self._schedule_repair(entry)
                    worker_id, worker_release_id = self._entry_target(entry)
                path = f"/v1/releases/{worker_release_id}{path_suffix}"
                return self._forward(
                    worker_id,
                    method,
                    path,
                    payload,
                    trace_ctx=trace_ctx,
                    deadline=deadline,
                )
            except HttpError as exc:
                if (
                    exc.status == 404
                    and exc.code == "unknown_release"
                    and not rehomed_404
                ):
                    rehomed_404 = True
                    try:
                        response = self._register_on(worker_id, entry.body)
                    except (OSError, http.client.HTTPException) as reg_exc:
                        self.coordinator.mark_dead(worker_id)
                        last_exc = reg_exc
                        continue
                    with self._directory_lock:
                        entry.worker_id = worker_id
                        entry.worker_release_id = response["release_id"]
                    continue
                # The worker (or its successor) answered; relay verbatim.
                raise
            except (OSError, http.client.HTTPException, ClusterError) as exc:
                self.coordinator.mark_dead(worker_id)
                last_exc = exc
        raise HttpError(
            503,
            f"shard {entry.worker_id} is unreachable and failover failed: "
            f"{last_exc}",
            code="shard_unavailable",
        ) from last_exc

    # -- membership: joins, heartbeats, liveness, re-balancing ---------------

    def _membership_loop(self) -> None:
        """Background liveness sweep: silence past the timeout is death."""
        interval = max(
            0.2, min(1.0, self.membership.liveness_timeout / 4.0)
        )
        while not self._membership_stop.wait(interval):
            try:
                expired = self.coordinator.sweep_expired(
                    self.membership.liveness_timeout
                )
            except Exception:
                continue
            for _worker_id in expired:
                self.telemetry.incr("membership_expired")

    def _schedule_repair(self, entry: ReleaseEntry) -> None:
        """Restore ``entry``'s replica count off the request path."""
        try:
            self._rebalance_pool.submit(self._replicate, entry)
        except RuntimeError:
            # Shutting down; repairs die with the pool.
            pass

    def _schedule_rebalance(self, reason: str, worker_id: str) -> None:
        try:
            self._rebalance_pool.submit(self._rebalance, reason, worker_id)
        except RuntimeError:
            pass

    def _rebalance(self, reason: str, worker_id: str) -> None:
        """Incrementally re-balance the directory after membership churn.

        Two distinct flows, counted separately because they mean
        opposite things operationally:

        - ``moved`` — a release whose top-K owner set *changed* (a new
          identity joined the ring) gains a replica on its new
          co-owner.  Only those releases see wire traffic; everyone
          else's top-K is untouched — rendezvous hashing's minimal-
          reassignment property, now load-bearing for joins too.
        - ``reseeded`` — a *returning* identity (respawn with a
          persisted id, revival after missed heartbeats) was already in
          every relevant top-K set; its releases re-push their bodies
          so an empty-store respawn re-learns them.  ``moved`` stays 0:
          the re-routing storm an ephemeral-port respawn used to cause
          is exactly what the stable identity avoided.
        """
        moved = 0
        reseeded = 0
        rejoin = reason in ("rejoined", "revived")
        with self._directory_lock:
            entries = list(self._directory.values())
        with get_tracer().span(
            "cluster.rebalance", reason=reason, worker=worker_id,
            releases=len(entries),
        ) as span:
            for entry in entries:
                try:
                    dead = set(self.coordinator.dead_ids())
                    desired = self.coordinator.router.owners(
                        entry.digest, k=self.replication, exclude=dead
                    )
                except ClusterError:
                    break
                with self._directory_lock:
                    current = {entry.worker_id, *entry.replicas}
                for owner in desired:
                    if owner in current:
                        if owner != worker_id or not rejoin:
                            continue
                        # A returning worker already co-owns this key;
                        # push the body again so a respawn that lost
                        # its store re-learns the release.
                        try:
                            response = self._register_on(owner, entry.body)
                        except HttpError:
                            continue
                        except (OSError, http.client.HTTPException):
                            self.coordinator.mark_dead(owner)
                            break
                        with self._directory_lock:
                            if entry.worker_id == owner:
                                entry.worker_release_id = response[
                                    "release_id"
                                ]
                            else:
                                entry.replicas[owner] = response["release_id"]
                        reseeded += 1
                        continue
                    try:
                        response = self._register_on(owner, entry.body)
                    except HttpError:
                        continue
                    except (OSError, http.client.HTTPException):
                        self.coordinator.mark_dead(owner)
                        break
                    with self._directory_lock:
                        entry.replicas[owner] = response["release_id"]
                    moved += 1
            span.set(moved=moved, reseeded=reseeded)
        self.telemetry.incr("rebalance_runs")
        if moved:
            self.telemetry.incr("rebalance_keys_moved", moved)
        if reseeded:
            self.telemetry.incr("rebalance_keys_reseeded", reseeded)
        self.coordinator.events.record(
            "rebalance",
            reason=reason,
            worker=worker_id,
            moved=moved,
            reseeded=reseeded,
            releases=len(entries),
        )

    def _route(self, request: HttpRequest):
        segments = request.segments
        if segments in (
            ("shard", "v1", "join"),
            ("shard", "v1", "heartbeat"),
        ):
            if request.method != "POST":
                raise HttpError(
                    405,
                    f"{request.method} not allowed here (allowed: POST)",
                    code="method_not_allowed",
                    headers={"Allow": "POST"},
                )
            if segments[2] == "join":
                return "POST /shard/v1/join", self._handle_join
            return "POST /shard/v1/heartbeat", self._handle_heartbeat
        return super()._route(request)

    async def _handle_join(self, request: HttpRequest) -> tuple[int, dict]:
        if not self.accept_joins:
            raise HttpError(
                403,
                "this front-end does not accept dynamic joins "
                "(started with --no-accept-joins)",
                code="joins_disabled",
            )
        worker_id, host, port = join_request_from_wire(request.json())
        loop = asyncio.get_running_loop()
        event = await loop.run_in_executor(
            None, partial(self._admit_worker, worker_id, host, port)
        )
        return 200, {
            "protocol": SHARD_PROTOCOL,
            "worker_id": worker_id,
            "event": event,
            "workers": self.coordinator.n_workers,
            "heartbeat_interval": self.membership.heartbeat_interval,
            "liveness_timeout": self.membership.liveness_timeout,
        }

    def _admit_worker(self, worker_id: str, host: str, port: int) -> str:
        with get_tracer().span(
            "cluster.join", worker=worker_id, address=f"{host}:{port}"
        ) as span:
            event = self.coordinator.add_worker(worker_id, host, port)
            span.set(event=event)
        self.telemetry.incr(f"membership_{event}")
        if event in ("joined", "rejoined"):
            self._schedule_rebalance(event, worker_id)
        return event

    async def _handle_heartbeat(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        worker_id, host, port = heartbeat_request_from_wire(request.json())
        known = worker_id in self.coordinator.router.worker_ids
        if not known and not self.accept_joins:
            # A static fleet does not grow via heartbeats; the sender
            # sees ``known: false`` and keeps its own counsel.
            return 200, {
                "protocol": SHARD_PROTOCOL,
                "worker_id": worker_id,
                "known": False,
            }
        loop = asyncio.get_running_loop()
        event = await loop.run_in_executor(
            None,
            partial(self.coordinator.heartbeat, worker_id, host, port),
        )
        if event != "ok":
            self.telemetry.incr(f"membership_{event}")
            if event in ("joined", "rejoined", "revived"):
                self._schedule_rebalance(
                    "rejoined" if event == "revived" else event, worker_id
                )
        return 200, {
            "protocol": SHARD_PROTOCOL,
            "worker_id": worker_id,
            "known": True,
            "event": event,
            "heartbeat_interval": self.membership.heartbeat_interval,
        }

    # -- endpoint overrides --------------------------------------------------

    async def _handle_register(self, request: HttpRequest) -> tuple[int, dict]:
        body = self._body_object(request, ("release", "original", "name"))
        release_payload = body.get("release")
        if release_payload is None:
            raise HttpError(
                400, "registration needs a 'release' object", code="bad_request"
            )
        loop = asyncio.get_running_loop()
        assert self._register_lock is not None
        async with self._register_lock:
            status, summary = await loop.run_in_executor(
                None, partial(self._register_sync, body, release_payload)
            )
        return status, summary

    def _register_sync(self, body: dict, release_payload) -> tuple[int, dict]:
        digest = release_digest(release_payload)
        with self._directory_lock:
            known_id = self._by_digest.get(digest)
            entry = self._directory.get(known_id) if known_id else None
        owner, response = self._register_anywhere(digest, entry, body)
        created = bool(response.pop("created", False)) and entry is None
        if entry is None:
            entry = ReleaseEntry(
                release_id=response["release_id"],
                digest=digest,
                body=body,
                worker_id=owner,
                worker_release_id=response["release_id"],
            )
            with self._directory_lock:
                # Pin the client-visible id once; a racing duplicate
                # keeps the first registration's record.
                existing_id = self._by_digest.get(digest)
                if existing_id is None:
                    self._by_digest[digest] = entry.release_id
                    self._directory[entry.release_id] = entry
                else:
                    entry = self._directory[existing_id]
        else:
            with self._directory_lock:
                entry.worker_id = owner
                entry.worker_release_id = response["release_id"]
                # A re-registration may add what the first lacked (the
                # original table, a fresh name): keep the richer body.
                if body.get("original") is not None or entry.body.get(
                    "original"
                ) is None:
                    entry.body = body
        # Replicate onto the remaining top-K co-owners before answering:
        # the release must already survive an owner death when the 201
        # reaches the client.  Best-effort per co-owner — a fleet of one
        # simply has no one to replicate to.
        self._replicate(entry)
        summary = dict(response)
        summary["release_id"] = entry.release_id
        summary["shard"] = entry.worker_id
        with self._directory_lock:
            summary["replicas"] = sorted(entry.replicas)
        summary["created"] = created
        entry.summary = summary
        if created:
            self.telemetry.incr("releases_registered")
        return (201 if created else 200), summary

    async def _handle_list_releases(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        with self._directory_lock:
            entries = list(self._directory.values())
        return 200, {"releases": [dict(entry.summary) for entry in entries]}

    async def _handle_release(self, request: HttpRequest) -> tuple[int, dict]:
        entry = self._entry(request.segments[2])
        loop = asyncio.get_running_loop()
        summary = await loop.run_in_executor(
            None, partial(self._forward_release, entry, "GET", "")
        )
        summary["release_id"] = entry.release_id
        summary["shard"] = entry.worker_id
        with self._directory_lock:
            summary["replicas"] = sorted(entry.replicas)
        return 200, summary

    async def _handle_posterior(self, request: HttpRequest) -> tuple[int, dict]:
        return await self._forward_solve(request, "/posterior")

    async def _handle_assess(self, request: HttpRequest) -> tuple[int, dict]:
        return await self._forward_solve(request, "/assess")

    async def _forward_solve(
        self, request: HttpRequest, suffix: str
    ) -> tuple[int, dict]:
        entry = self._entry(request.segments[2])
        body = request.json()
        loop = asyncio.get_running_loop()
        # Captured here, on the request task, where the root span is the
        # active contextvar; the forward runs on an executor thread.
        trace_ctx = get_tracer().context()

        async def run():
            return await loop.run_in_executor(
                None,
                partial(
                    self._forward_release,
                    entry,
                    "POST",
                    suffix,
                    body,
                    trace_ctx,
                    request.deadline,
                ),
            )

        # Forwards occupy a worker thread for the length of the shard's
        # solve; admitting them (429 past capacity) keeps the thread
        # pool free for health/registration and makes front-end
        # saturation visible on /v1/healthz, exactly as for the
        # single-engine service.  The deadline is checked after the
        # front-end's own queue wait — budget the queue burned here is
        # budget the shard never sees.
        payload = await self.admission.run(run, deadline=request.deadline)
        payload["release_id"] = entry.release_id
        payload["shard"] = entry.worker_id
        self.telemetry.incr("solves_forwarded")
        return 200, payload

    # -- fleet health and telemetry ------------------------------------------

    async def _handle_healthz(self, request: HttpRequest) -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        reports = await loop.run_in_executor(
            None,
            partial(
                self.coordinator.check_health, timeout=self.health_timeout
            ),
        )
        dead = [r["worker"] for r in reports if not r["alive"]]
        degraded_shards = [
            r["worker"]
            for r in reports
            if r["alive"] and (r["health"] or {}).get("status") != "ok"
        ]
        queue = self.admission.snapshot()
        saturated = queue["depth"] >= queue["capacity"]
        healthy = not dead and not degraded_shards and not saturated
        payload = {
            "status": "ok" if healthy else "degraded",
            "uptime_seconds": self.telemetry.uptime_seconds,
            "releases": len(self._directory),
            "shards": reports,
            "dead_shards": dead,
            "degraded_shards": degraded_shards,
            "queue": queue,
        }
        return (200 if healthy else 503), payload

    async def _handle_telemetry(self, request: HttpRequest) -> tuple[int, dict]:
        status, payload = await super()._handle_telemetry(request)
        loop = asyncio.get_running_loop()
        payload["cluster"] = await loop.run_in_executor(
            None, self.coordinator.aggregate_telemetry
        )
        payload["membership"] = {
            "accept_joins": self.accept_joins,
            "replication": self.replication,
            "heartbeat_interval": self.membership.heartbeat_interval,
            "liveness_timeout": self.membership.liveness_timeout,
            "forward_timeout": self.forward_timeout,
            "health_timeout": self.health_timeout,
        }
        return status, payload

    async def _handle_metrics(self, request: HttpRequest):
        # The fleet scrape is N blocking HTTP round trips; keep them off
        # the event loop (the base class renders purely from memory).
        loop = asyncio.get_running_loop()
        builder = await loop.run_in_executor(None, self._metrics_builder)
        return 200, EncodedResponse(
            builder.render().encode("utf-8"), METRICS_CONTENT_TYPE
        )

    def _engine_metrics_into(self, builder: MetricsBuilder) -> None:
        """Per-shard engine series plus exact fleet latency histograms.

        The front-end's own engine never solves (every solve forwards to
        a shard), so instead of its idle counters the exposition carries
        one ``shard``-labelled series set per worker and the bucket-wise
        merged per-endpoint histograms the coordinator aggregates.
        """
        fleet = self.coordinator.aggregate_telemetry()
        alive = 0
        for shard in fleet["workers"]:
            if shard.get("alive"):
                alive += 1
            telemetry = shard.get("telemetry")
            if not telemetry:
                continue
            engine_metrics(
                builder,
                telemetry.get("engine") or {},
                {"shard": shard["worker"]},
            )
        builder.gauge(
            "shards_total",
            len(fleet["workers"]),
            help_text="Shard workers registered with this front-end.",
        )
        builder.gauge(
            "shards_alive", alive, help_text="Shard workers currently alive."
        )
        for event, count in sorted(
            self.coordinator.events.counts().items()
        ):
            builder.counter(
                "membership_events_total",
                count,
                {"event": event},
                "Fleet membership events (joins, revivals, expiries, "
                "deaths, rebalances) by kind.",
            )
        with self._directory_lock:
            replicas = sum(
                len(entry.replicas) for entry in self._directory.values()
            )
        builder.gauge(
            "release_replicas",
            replicas,
            help_text=(
                "Registered standby release copies beyond each primary."
            ),
        )
        for endpoint, summary in fleet["aggregate"]["endpoints"].items():
            builder.histogram(
                "shard_request_duration_seconds",
                LATENCY_BOUNDS,
                summary["bucket_counts"],
                summary["total_seconds"],
                {"endpoint": endpoint},
                "Fleet-wide request latency by endpoint "
                "(merged across shards).",
            )
