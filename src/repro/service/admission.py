"""Request-layer flow control: admission and coalescing.

Two cooperating pieces keep a long-lived service healthy under load:

- :class:`AdmissionController` — a bounded queue in front of a
  concurrency limit.  Solves are CPU-bound, so running more than
  ``max_concurrency`` at once only adds context-switching; queuing more
  than ``max_queue`` behind them only adds latency nobody will wait
  for.  Beyond both, requests are rejected immediately
  (:class:`QueueFullError` → HTTP 429) so clients back off instead of
  piling up.  (The server lets requests with no knowledge rows skip
  this queue: their engine solve is Theorem 5's closed form, a read
  that stays answerable under saturation.)
- :class:`Coalescer` — deduplication of identical in-flight work.  The
  auditor workflow (many clients probing the same release under the
  same knowledge) makes byte-identical requests; only the first runs
  the solve, the rest await the same future.  Keys are the engine's
  canonical request fingerprints, so "identical" means mathematically
  identical, not textually identical.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable


class QueueFullError(Exception):
    """Raised when admission control rejects a request (backpressure)."""

    def __init__(
        self, depth: int, capacity: int, *, what: str = "solve queue"
    ) -> None:
        super().__init__(
            f"{what} is full ({depth} pending, capacity {capacity}); "
            "retry shortly"
        )
        self.depth = depth
        self.capacity = capacity


class AdmissionController:
    """Bounded queue + concurrency limit for CPU-bound solve work."""

    def __init__(self, *, max_concurrency: int, max_queue: int) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self._pending = 0
        self.rejected = 0

    @property
    def capacity(self) -> int:
        """Requests the controller will hold at once (running + queued)."""
        return self.max_concurrency + self.max_queue

    @property
    def depth(self) -> int:
        """Admitted requests currently running or queued."""
        return self._pending

    async def run(self, work: Callable[[], Awaitable], *, deadline=None):
        """Admit ``work`` (or raise :class:`QueueFullError`) and run it.

        ``deadline`` (a :class:`~repro.service.deadline.Deadline`) is
        checked twice: on entry, and again *after* the queue wait — a
        request whose budget drained while it sat behind the semaphore
        is shed (:class:`~repro.service.deadline.DeadlineExceededError`
        → HTTP 503) before its solve work starts, freeing the slot for
        a request somebody is still waiting on.
        """
        if deadline is not None:
            deadline.check("admission")
        if self._pending >= self.capacity:
            self.rejected += 1
            raise QueueFullError(self._pending, self.capacity)
        self._pending += 1
        try:
            async with self._semaphore:
                if deadline is not None:
                    deadline.check("queue wait")
                return await work()
        finally:
            self._pending -= 1

    def snapshot(self) -> dict:
        """JSON-ready queue state for the telemetry endpoint."""
        return {
            "depth": self.depth,
            "running_limit": self.max_concurrency,
            "queue_limit": self.max_queue,
            "capacity": self.capacity,
            "rejected": self.rejected,
        }


class Coalescer:
    """Share one in-flight computation among identical concurrent requests."""

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Task] = {}
        self.started = 0
        self.coalesced = 0

    @property
    def inflight(self) -> int:
        """Distinct computations currently in flight."""
        return len(self._inflight)

    async def run(
        self, key: str, factory: Callable[[], Awaitable]
    ) -> tuple[object, bool]:
        """Run (or join) the computation identified by ``key``.

        Returns ``(result, coalesced)`` — ``coalesced`` is True when the
        caller joined an already-running computation.  Awaiting through
        ``asyncio.shield`` means one cancelled client (a dropped
        connection) never aborts the shared work other clients wait on.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing), True
        task = asyncio.ensure_future(factory())
        self._inflight[key] = task
        task.add_done_callback(
            lambda done, key=key: self._inflight.pop(key, None)
            if self._inflight.get(key) is done
            else None
        )
        self.started += 1
        return await asyncio.shield(task), False
