"""Async serving subsystem: Privacy-MaxEnt as a long-lived service.

The paper's Section 4.3 workflow — assess one release under many
candidate (bound, knowledge) configurations — and the interactive
auditor workflow of leakage-style quantification both issue many small
queries against the same release.  Running each from a cold process
re-imports, re-indexes, re-compiles and re-solves everything; this
package keeps one :class:`~repro.engine.PrivacyEngine` (component
solve cache, warm-started duals) alive behind a stdlib-only
asyncio HTTP/JSON front-end instead:

- :mod:`repro.service.protocol` — HTTP/1.1 framing over asyncio streams,
- :mod:`repro.service.telemetry` — counters + latency histograms,
- :mod:`repro.service.admission` — bounded-queue admission control
  and in-flight solve coalescing (every posterior, including the
  no-knowledge Eq. (9) one, is an engine solve),
- :mod:`repro.service.store` — registered releases with their variable
  spaces, invariants, mined rules and compiled systems cached,
- :mod:`repro.service.ingest` — chunked (streaming) release uploads
  with incremental digest accumulation and bounded session state,
- :mod:`repro.service.durability` — the crash-safe ``--state-dir``
  journal + snapshot layer (registrations and uploads survive SIGKILL),
- :mod:`repro.service.deadline` — end-to-end request deadlines
  (``x-repro-deadline`` budgets, checked at phase boundaries),
- :mod:`repro.service.server` — :class:`PrivacyService` and its routes,
- :mod:`repro.service.client` — the blocking stdlib client,
- :mod:`repro.service.background` — run a service beside synchronous
  code on its own event-loop thread (tests, benchmarks, embedding).

Start one with ``repro serve`` (see ``README.md`` here for the
architecture notes and the wire protocol).
"""

from repro.service.admission import (
    AdmissionController,
    Coalescer,
    QueueFullError,
)
from repro.service.background import BackgroundService
from repro.service.client import PosteriorResult, ServiceClient, ServiceError
from repro.service.deadline import (
    DEADLINE_HEADER,
    Deadline,
    DeadlineExceededError,
)
from repro.service.durability import DurableState, Journal
from repro.service.ingest import IngestManager, IngestSession
from repro.service.protocol import HttpError, HttpRequest
from repro.service.server import DEFAULT_PORT, PrivacyService, ServiceConfig
from repro.service.store import RegisteredRelease, SessionStore
from repro.service.telemetry import LatencyHistogram, ServiceTelemetry

__all__ = [
    "AdmissionController",
    "BackgroundService",
    "Coalescer",
    "DEADLINE_HEADER",
    "DEFAULT_PORT",
    "Deadline",
    "DeadlineExceededError",
    "DurableState",
    "HttpError",
    "HttpRequest",
    "IngestManager",
    "IngestSession",
    "Journal",
    "LatencyHistogram",
    "PosteriorResult",
    "PrivacyService",
    "QueueFullError",
    "RegisteredRelease",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceTelemetry",
    "SessionStore",
]
