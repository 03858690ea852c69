"""The shard worker runtime: a privacy service with a shard identity.

A :class:`ShardWorker` is a full :class:`~repro.service.server.
PrivacyService` — release registry, posterior/assess endpoints, result
cache, admission control, telemetry — plus one shard endpoint,
``GET /shard/v1/state`` (shard identity, release count, heartbeat
state and engine counters).

Under release sharding the front-end forwards whole requests here and
the inherited service endpoints do the work — each worker owns its
releases' compiled systems, solve caches and warm starts, and solves
them on the one in-process engine path.

Start one with ``repro shard-worker``; it is just a process, so any
process supervisor (systemd, k8s, a coordinator's ``spawn_local``) can
run fleets of them.  With ``--join HOST:PORT`` the worker also dials a
front-end at startup and heartbeats it
(:class:`~repro.cluster.membership.HeartbeatSender`), so fleets grow by
starting processes instead of editing address lists; pair it with
``--worker-id`` / ``--identity-file`` so a respawn reclaims its
rendezvous slot.
"""

from __future__ import annotations

from repro.cluster.membership import (
    DEFAULT_HEARTBEAT_INTERVAL,
    HeartbeatSender,
)
from repro.cluster.protocol import SHARD_PROTOCOL
from repro.service.protocol import HttpError, HttpRequest
from repro.service.server import PrivacyService


class ShardWorker(PrivacyService):
    """One shard: a privacy service plus a stable shard identity."""

    def __init__(
        self,
        config=None,
        *,
        engine=None,
        worker_id: str | None = None,
        join: list[tuple[str, int]] | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ) -> None:
        super().__init__(config, engine=engine)
        self._worker_id = worker_id
        self._join_targets = list(join or [])
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat: HeartbeatSender | None = None

    @property
    def worker_id(self) -> str:
        """This shard's routing identity (stable id, else bind address)."""
        if self._worker_id:
            return self._worker_id
        return f"{self.config.host}:{self.port}"

    # -- membership lifecycle ------------------------------------------------

    async def start(self) -> None:
        await super().start()
        # The announcer starts only once the port is bound (spawned
        # workers bind port 0) — a join must advertise a reachable
        # address.
        if self._join_targets and self._heartbeat is None:
            self._heartbeat = HeartbeatSender(
                worker_id=self.worker_id,
                host=self.config.host,
                port=self.port,
                targets=self._join_targets,
                interval=self._heartbeat_interval,
            )
            self._heartbeat.start()

    def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.stop()
            self._heartbeat = None
        super().close()

    # -- routing -------------------------------------------------------------

    def _route(self, request: HttpRequest):
        if request.segments == ("shard", "v1", "state"):
            if request.method != "GET":
                raise HttpError(
                    405,
                    f"{request.method} not allowed here (allowed: GET)",
                    code="method_not_allowed",
                    headers={"Allow": "GET"},
                )
            return "GET /shard/v1/state", self._handle_state
        return super()._route(request)

    # -- shard endpoints -----------------------------------------------------

    async def _handle_state(self, request: HttpRequest) -> tuple[int, dict]:
        heartbeat = self._heartbeat
        return 200, {
            "protocol": SHARD_PROTOCOL,
            "worker": self.worker_id,
            "address": f"{self.config.host}:{self.port}",
            "releases": len(self.store),
            "heartbeat": (
                None
                if heartbeat is None
                else {
                    "targets": [f"{h}:{p}" for h, p in heartbeat.targets],
                    "interval_seconds": heartbeat.interval,
                    "sent": heartbeat.sent,
                    "failed": heartbeat.failed,
                }
            ),
            "engine": self.engine.stats(),
        }

    # -- telemetry -----------------------------------------------------------

    async def _handle_telemetry(self, request: HttpRequest) -> tuple[int, dict]:
        status, payload = await super()._handle_telemetry(request)
        payload["shard"] = {
            "worker": self.worker_id,
            "protocol": SHARD_PROTOCOL,
        }
        return status, payload
