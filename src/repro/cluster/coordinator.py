"""The shard coordinator: worker fleet, membership and health.

A :class:`ClusterCoordinator` owns a set of shard workers — subprocesses
it spawned locally (``spawn_local``) or remote ``repro shard-worker``
instances it merely attached to (``attach``) — and provides what the
release-sharding front-end (:mod:`repro.cluster.frontend`) builds on:

- the rendezvous :class:`~repro.cluster.router.ShardRouter` over the
  worker identities, and liveness marks that exclude dead workers from
  routing;
- dynamic membership — :meth:`add_worker`, :meth:`heartbeat` and
  :meth:`sweep_expired` behind the join/heartbeat protocol;
- :meth:`check_health` / :meth:`aggregate_telemetry` — fleet-level
  probes: health re-probes revive workers that recovered, and telemetry
  merges every shard's engine counters (including the per-fingerprint-
  prefix cache breakdown) for the front-end's ``/v1/telemetry``.

The coordinator is deliberately state-light: routing derives from the
worker list, and release ownership lives in the front-end.  Worker
death is detected by failed requests, health probes and missed
heartbeats, not by leases — on loopback and LAN deployments, connection
errors are prompt.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.membership import parse_worker_address
from repro.cluster.protocol import ShardClient
from repro.cluster.router import ClusterError, ShardRouter
from repro.obs.events import EventLog
from repro.obs.logging import get_logger
from repro.service.client import ServiceError
from repro.service.telemetry import LatencyHistogram

_log = get_logger("cluster")


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for a currently free TCP port (spawn-time allocation)."""
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class WorkerHandle:
    """One shard worker: address, optional local process, liveness flag."""

    worker_id: str
    host: str
    port: int
    process: subprocess.Popen | None = None
    alive: bool = True
    failures: int = 0
    spawned_at: float = field(default_factory=time.time)
    #: Set once the worker announces itself over ``/shard/v1/join`` or
    #: ``/shard/v1/heartbeat``; only heartbeating workers are subject
    #: to the liveness sweep (statically attached fleets keep the old
    #: probe/request-based detection).
    heartbeating: bool = False
    last_heartbeat: float | None = None
    revivals: int = 0

    def client(self, *, timeout: float) -> ShardClient:
        """A fresh blocking client (one per call site: thread safety)."""
        return ShardClient(self.host, self.port, timeout=timeout)

    def is_local(self) -> bool:
        """True for workers this coordinator spawned (and may kill)."""
        return self.process is not None

    def address(self) -> str:
        """The worker's current ``host:port`` contact string."""
        return f"{self.host}:{self.port}"

    def summary(self) -> dict:
        """JSON-ready fleet-listing entry."""
        return {
            "worker": self.worker_id,
            "address": self.address(),
            "alive": self.alive,
            "local": self.is_local(),
            "failures": self.failures,
            "heartbeating": self.heartbeating,
            "heartbeat_age_seconds": (
                round(time.time() - self.last_heartbeat, 3)
                if self.last_heartbeat is not None
                else None
            ),
            "revivals": self.revivals,
        }


def _worker_environment() -> dict[str, str]:
    """Subprocess env with this checkout's ``src`` on the import path."""
    env = os.environ.copy()
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else os.pathsep.join([src_dir, existing])
    )
    return env


class ClusterCoordinator:
    """Shard fleet management: routing, membership, health, telemetry."""

    def __init__(
        self,
        handles: list[WorkerHandle],
        *,
        owns_workers: bool = False,
        allow_empty: bool = False,
    ) -> None:
        if not handles and not allow_empty:
            raise ClusterError("a cluster needs at least one shard worker")
        self.handles = list(handles)
        self.owns_workers = owns_workers
        self.router = ShardRouter([h.worker_id for h in self.handles])
        self._by_id = {h.worker_id: h for h in self.handles}
        self._lock = threading.Lock()
        self._closed = False
        #: Membership history: joins, revivals, expiries, presumed
        #: deaths — the "what happened to the fleet" record telemetry
        #: surfaces.
        self.events = EventLog()

    # -- construction --------------------------------------------------------

    @classmethod
    def spawn_local(
        cls,
        n_workers: int,
        *,
        worker_args: list[str] | None = None,
        cache_path: str | None = None,
        startup_timeout: float = 60.0,
        host: str = "127.0.0.1",
        **kwargs,
    ) -> "ClusterCoordinator":
        """Spawn ``n_workers`` ``repro shard-worker`` subprocesses.

        Each worker gets its own OS-assigned port, a *stable* identity
        (``shard0``, ``shard1``, ... — forwarded via ``--worker-id`` so
        the worker self-reports the same id the coordinator routes by)
        and, when ``cache_path`` is set, a per-shard ``<path>.shardN``
        cache file.  Identities being index-based rather than
        ``host:port`` means a restarted spawned fleet keeps its routing
        (and therefore its per-shard cache warmth) even though every
        port changed.
        """
        if n_workers <= 0:
            raise ClusterError(f"n_workers must be positive, got {n_workers}")
        handles: list[WorkerHandle] = []
        env = _worker_environment()
        try:
            for index in range(n_workers):
                port = free_port(host)
                worker_id = f"shard{index}"
                command = [
                    sys.executable,
                    "-m",
                    "repro",
                    "shard-worker",
                    "--host",
                    host,
                    "--port",
                    str(port),
                    "--worker-id",
                    worker_id,
                    *(worker_args or []),
                ]
                if cache_path:
                    command += ["--cache-path", f"{cache_path}.shard{index}"]
                process = subprocess.Popen(command, env=env)
                handles.append(
                    WorkerHandle(
                        worker_id=worker_id,
                        host=host,
                        port=port,
                        process=process,
                    )
                )
            for handle in handles:
                with handle.client(timeout=startup_timeout) as client:
                    client.wait_until_healthy(timeout=startup_timeout)
        except BaseException:
            for handle in handles:
                if handle.process is not None:
                    handle.process.terminate()
            raise
        return cls(handles, owns_workers=True, **kwargs)

    @classmethod
    def attach(cls, addresses, **kwargs) -> "ClusterCoordinator":
        """Attach to already-running workers (``[id@]host:port`` strings).

        Without the ``id@`` prefix a worker's identity is its address
        (the pre-elastic behaviour, routing-compatible with existing
        fixed-port fleets); with it, the identity survives the worker
        respawning on a different port.
        """
        if isinstance(addresses, str):
            addresses = [a for a in addresses.split(",") if a.strip()]
        handles = []
        for address in addresses:
            worker_id, host, port = parse_worker_address(address)
            handles.append(
                WorkerHandle(worker_id=worker_id, host=host, port=port)
            )
        return cls(handles, owns_workers=False, **kwargs)

    # -- fleet state ---------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Registered workers, dead or alive."""
        return len(self.handles)

    def worker(self, worker_id: str) -> WorkerHandle:
        """The handle registered under ``worker_id``."""
        try:
            return self._by_id[worker_id]
        except KeyError:
            raise ClusterError(f"unknown worker {worker_id!r}") from None

    def alive_ids(self) -> list[str]:
        """Ids of workers currently considered alive."""
        with self._lock:
            return [h.worker_id for h in self.handles if h.alive]

    def dead_ids(self) -> list[str]:
        """Ids of workers currently considered dead."""
        with self._lock:
            return [h.worker_id for h in self.handles if not h.alive]

    def mark_dead(self, worker_id: str) -> None:
        """Exclude a worker from routing until a probe/heartbeat revives it."""
        died = False
        with self._lock:
            handle = self._by_id.get(worker_id)
            if handle is not None and handle.alive:
                handle.alive = False
                handle.failures += 1
                died = True
        if died:
            self.events.record("presumed_dead", worker=worker_id)

    # -- dynamic membership --------------------------------------------------

    def add_worker(
        self,
        worker_id: str,
        host: str,
        port: int,
        *,
        process: subprocess.Popen | None = None,
    ) -> str:
        """Register (or re-register) a worker; returns what happened.

        The membership primitive behind ``POST /shard/v1/join``:

        - ``"joined"`` — a brand-new identity entered the ring;
        - ``"rejoined"`` — a known identity came back (it was dead, or
          respawned on a new address): same rendezvous slot, so its
          keys return without any re-routing of anyone else's;
        - ``"refreshed"`` — a live worker re-announced itself (join
          retries are idempotent).
        """
        now = time.time()
        with self._lock:
            handle = self._by_id.get(worker_id)
            if handle is None:
                handle = WorkerHandle(
                    worker_id=worker_id,
                    host=host,
                    port=port,
                    process=process,
                    heartbeating=True,
                    last_heartbeat=now,
                )
                self.handles.append(handle)
                self._by_id[worker_id] = handle
                self.router.add(worker_id)
                event = "joined"
            else:
                address_changed = (host, port) != (handle.host, handle.port)
                was_dead = not handle.alive
                handle.host = host
                handle.port = port
                handle.alive = True
                handle.heartbeating = True
                handle.last_heartbeat = now
                if process is not None:
                    handle.process = process
                if was_dead:
                    handle.revivals += 1
                event = (
                    "rejoined" if (was_dead or address_changed) else
                    "refreshed"
                )
        self.events.record(event, worker=worker_id, address=f"{host}:{port}")
        if event != "refreshed":
            _log.info(
                f"worker {worker_id} {event} at {host}:{port}",
                extra={"fields": {"worker": worker_id, "event": event}},
            )
        return event

    def heartbeat(self, worker_id: str, host: str, port: int) -> str:
        """Refresh a worker's liveness; revive it if presumed dead.

        An unknown identity is auto-registered — to a restarted
        front-end with an empty fleet, a heartbeat is as good as a
        join.  Returns the membership event (``"ok"`` when nothing
        changed).
        """
        now = time.time()
        with self._lock:
            handle = self._by_id.get(worker_id)
            known = handle is not None
            if known:
                address_changed = (host, port) != (handle.host, handle.port)
                was_dead = not handle.alive
                if not address_changed and not was_dead:
                    handle.last_heartbeat = now
                    handle.heartbeating = True
                    return "ok"
        if not known:
            return self.add_worker(worker_id, host, port)
        event = self.add_worker(worker_id, host, port)
        return "revived" if event == "rejoined" else event

    def sweep_expired(self, liveness_timeout: float) -> list[str]:
        """Mark heartbeating workers silent past ``liveness_timeout`` dead.

        Only workers that ever heartbeated are swept: statically
        attached or spawned fleets without ``--join`` keep the original
        probe/request-based failure detection, so the sweep can run
        unconditionally.
        """
        now = time.time()
        expired: list[WorkerHandle] = []
        with self._lock:
            for handle in self.handles:
                if (
                    handle.alive
                    and handle.heartbeating
                    and handle.last_heartbeat is not None
                    and now - handle.last_heartbeat > liveness_timeout
                ):
                    handle.alive = False
                    handle.failures += 1
                    expired.append(handle)
        for handle in expired:
            self.events.record(
                "expired",
                worker=handle.worker_id,
                silent_seconds=round(now - handle.last_heartbeat, 3),
            )
            _log.warning(
                f"worker {handle.worker_id} missed heartbeats for "
                f"{now - handle.last_heartbeat:.1f}s; marked dead",
                extra={"fields": {"worker": handle.worker_id}},
            )
        return [handle.worker_id for handle in expired]

    def check_health(self, *, timeout: float = 2.0) -> list[dict]:
        """Probe every worker's ``/v1/healthz``; revive those that answer.

        Probes run in parallel, so one unreachable worker costs the
        caller one probe timeout, not one per dead worker — front-end
        health checks must answer inside a load balancer's own timeout.
        Returns one entry per worker: the worker id, liveness, and the
        health payload (which carries ``"status": "degraded"`` when the
        worker's admission queue is saturated).
        """

        def probe(handle: WorkerHandle) -> dict:
            payload = None
            error = None
            try:
                with handle.client(timeout=timeout) as client:
                    payload = client.healthz()
                alive = True
            except ServiceError as exc:
                # An HTTP answer means the process lives — a saturated
                # worker answers 503 with a degraded body.
                payload = {"status": "degraded", "error": str(exc)}
                alive = True
            except OSError as exc:
                alive = False
                error = str(exc)
            with self._lock:
                changed = handle.alive != alive
                if changed and alive:
                    handle.revivals += 1
                handle.alive = alive
            if changed:
                self.events.record(
                    "revived" if alive else "probe_dead",
                    worker=handle.worker_id,
                )
            return {
                "worker": handle.worker_id,
                "alive": alive,
                "health": payload,
                "error": error,
            }

        handles = list(self.handles)
        if not handles:
            return []
        with ThreadPoolExecutor(max_workers=len(handles)) as pool:
            return list(pool.map(probe, handles))

    # -- fleet telemetry -----------------------------------------------------

    def aggregate_telemetry(self, *, timeout: float = 10.0) -> dict:
        """Every shard's telemetry plus cross-shard engine aggregates.

        Shards are polled in parallel (like :meth:`check_health`), so an
        unreachable worker costs one probe timeout, not one per worker.
        """

        def fetch(handle: WorkerHandle):
            try:
                with handle.client(timeout=timeout) as client:
                    return handle, client.telemetry(), None
            except (OSError, ServiceError) as exc:
                return handle, None, str(exc)

        handles = list(self.handles)
        if handles:
            with ThreadPoolExecutor(max_workers=len(handles)) as pool:
                fetched = list(pool.map(fetch, handles))
        else:
            fetched = []

        shards = []
        totals = {
            "n_solves": 0,
            "wall_seconds": 0.0,
            "cpu_seconds": 0.0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_entries": 0,
        }
        prefix_totals: dict[str, dict[str, int]] = {}
        endpoint_histograms: dict[str, LatencyHistogram] = {}
        for handle, telemetry, error in fetched:
            entry: dict = {"worker": handle.worker_id, **handle.summary()}
            if telemetry is None:
                entry["error"] = error
                entry["telemetry"] = None
                shards.append(entry)
                continue
            entry["telemetry"] = telemetry
            shards.append(entry)
            service = telemetry.get("service") or {}
            for endpoint, summary in (service.get("endpoints") or {}).items():
                try:
                    histogram = LatencyHistogram.from_summary(summary)
                except (ValueError, TypeError):
                    # A mixed-version shard without raw buckets cannot
                    # merge exactly; skip it rather than skew the fleet.
                    continue
                merged = endpoint_histograms.get(endpoint)
                if merged is None:
                    endpoint_histograms[endpoint] = histogram
                else:
                    merged.merge(histogram)
            engine = telemetry.get("engine", {})
            cache = engine.get("cache", {})
            totals["n_solves"] += engine.get("n_solves", 0)
            totals["wall_seconds"] += engine.get("wall_seconds", 0.0)
            totals["cpu_seconds"] += engine.get("cpu_seconds", 0.0)
            totals["cache_hits"] += cache.get("hits", 0)
            totals["cache_misses"] += cache.get("misses", 0)
            totals["cache_evictions"] += cache.get("evictions", 0)
            totals["cache_entries"] += cache.get("size", 0)
            for prefix, counters in (cache.get("by_prefix") or {}).items():
                slot = prefix_totals.setdefault(
                    prefix, {"hits": 0, "misses": 0, "evictions": 0}
                )
                for key in slot:
                    slot[key] += counters.get(key, 0)
        lookups = totals["cache_hits"] + totals["cache_misses"]
        totals["cache_hit_rate"] = (
            totals["cache_hits"] / lookups if lookups else 0.0
        )
        return {
            "workers": shards,
            "membership": {
                "alive": sum(1 for h in handles if h.alive),
                "dead": sum(1 for h in handles if not h.alive),
                "heartbeating": sum(1 for h in handles if h.heartbeating),
                "events": self.events.snapshot(limit=20),
            },
            "aggregate": {
                **totals,
                "cache_by_prefix": prefix_totals,
                # Fleet-level latency percentiles: exact bucket-wise
                # merges of every shard's per-endpoint histogram.
                "endpoints": {
                    endpoint: histogram.summary()
                    for endpoint, histogram in sorted(
                        endpoint_histograms.items()
                    )
                },
            },
        }

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, *, timeout: float = 10.0) -> None:
        """Stop owning work: kill spawned workers, detach from the rest."""
        if self._closed:
            return
        self._closed = True
        if not self.owns_workers:
            return
        for handle in self.handles:
            if handle.process is not None:
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in self.handles:
            if handle.process is None:
                continue
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=5.0)

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
