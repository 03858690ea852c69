"""Span tracing: one process-wide tracer, explicit cross-boundary context.

A *span* is a named, timed unit of work with key-value attributes; a
*trace* is the tree of spans sharing one ``trace_id``.  The design
constraint everything here follows: **``contextvars`` do not cross
executor boundaries** — ``loop.run_in_executor`` and
``ThreadPoolExecutor`` run work in a fresh or foreign context — so
same-thread nesting is implicit (a contextvar) while every hop to
another thread or process hands the parent over *explicitly* as a small
``{"trace_id", "span_id"}`` dict (see :meth:`Tracer.context` and the
``ctx=`` argument of :meth:`Tracer.span`; across HTTP it rides the
service's trace header).

Finished spans are routed by ``trace_id`` into a process-global
pending-trace builder, so a span finished on *any* thread still lands
in the right trace; the first
local span of a trace is its local root, and finishing it finalizes the
trace into two bounded rings:

- ``recent`` — the last N traces regardless of duration,
- ``slow`` — traces at or above ``REPRO_TRACE_SLOW_SECONDS`` (default
  1.0s), retained even when fast traffic floods the recent ring.

Tracing is **default-on**: recording a span is two monotonic clock
reads, one small dict and one lock-guarded list append, bounded by the
rings.  ``REPRO_TRACE=0`` (or :func:`set_enabled`) short-circuits
``span()`` to a shared no-op context manager for benchmarks that want
the floor.  ``REPRO_TRACE_SAMPLE`` (a probability in ``[0, 1]``,
default 1.0) *head-samples* instead: the keep/drop decision is made
once per trace, at the root — a span opened with no active parent and
no ``ctx`` — and children inherit it implicitly, because a sampled-out
root leaves no current span and no pending builder for descendants to
land in.  Spans opened *with* a ``ctx`` are never sampled away: their
root already won the coin flip somewhere else, and dropping fragments
mid-trace would tear stitched cross-process traces.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from contextvars import ContextVar

_OFF_VALUES = {"0", "false", "no", "off"}

#: Traces kept regardless of duration.
RECENT_TRACES = 64
#: Slow-trace ring size; outliers survive recent-ring churn.
SLOW_TRACES = 32
#: Cap on concurrently-pending (unfinished) traces before the oldest
#: is dropped — a leak guard, not a correctness bound.
MAX_PENDING_TRACES = 256


def _new_id(nbytes: int = 8) -> str:
    return os.urandom(nbytes).hex()


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "1").strip().lower() not in _OFF_VALUES


def _env_slow_seconds() -> float:
    raw = os.environ.get("REPRO_TRACE_SLOW_SECONDS", "")
    try:
        return float(raw) if raw else 1.0
    except ValueError:
        return 1.0


def _env_sample_rate() -> float:
    raw = os.environ.get("REPRO_TRACE_SAMPLE", "")
    try:
        rate = float(raw) if raw else 1.0
    except ValueError:
        return 1.0
    return min(1.0, max(0.0, rate))


class Span:
    """One timed unit of work; a context manager finishing itself."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "started_at",
        "duration_seconds",
        "attributes",
        "_tracer",
        "_clock",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attributes: dict,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.started_at = time.time()
        self.duration_seconds = 0.0
        self._clock = time.perf_counter()
        self._token = None

    def set(self, **attributes) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        """The JSON-ready wire/storage form of this span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self)
        return False


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    attributes: dict = {}

    def set(self, **attributes) -> "_NoopSpan":
        return self

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _SuppressedSpan:
    """A sampled-out root: records nothing, suppresses its descendants.

    A plain :data:`NOOP_SPAN` would not do — same-thread children of a
    sampled-out root see no current span and would each start (and
    coin-flip) a fresh root of their own.  This span instead raises the
    tracer's suppression flag for its context and lowers it on exit, so
    the whole subtree stays dropped together.
    """

    __slots__ = ("_tracer", "_token")

    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    attributes: dict = {}

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._token = None

    def set(self, **attributes) -> "_SuppressedSpan":
        return self

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_SuppressedSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            try:
                self._tracer._suppressed.reset(self._token)
            except ValueError:
                self._tracer._suppressed.set(False)
        return False


class _Builder:
    __slots__ = ("trace_id", "root_id", "spans")

    def __init__(self, trace_id: str, root_id: str) -> None:
        self.trace_id = trace_id
        self.root_id = root_id
        self.spans: list[dict] = []


class Tracer:
    """Process-wide span recorder with bounded trace retention."""

    def __init__(
        self,
        *,
        recent: int = RECENT_TRACES,
        slow: int = SLOW_TRACES,
        slow_seconds: float | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.enabled = _env_enabled() if enabled is None else bool(enabled)
        self.slow_seconds = (
            _env_slow_seconds() if slow_seconds is None else float(slow_seconds)
        )
        self.sample_rate = _env_sample_rate()
        self.sampled_out = 0
        self._lock = threading.Lock()
        self._pending: dict[str, _Builder] = {}
        self._recent: deque[dict] = deque(maxlen=recent)
        self._slow: deque[dict] = deque(maxlen=slow)
        self._current: ContextVar[Span | None] = ContextVar(
            "repro_current_span", default=None
        )
        self._suppressed: ContextVar[bool] = ContextVar(
            "repro_trace_suppressed", default=False
        )

    def set_enabled(self, enabled: bool) -> None:
        """Toggle recording (the ``REPRO_TRACE`` switch, at runtime)."""
        self.enabled = bool(enabled)

    def set_sample_rate(self, rate: float) -> None:
        """Set the head-sampling probability (``REPRO_TRACE_SAMPLE``).

        Clamped to ``[0, 1]``.  Applies to *new* roots only — traces
        already in flight keep their original keep decision.
        """
        self.sample_rate = min(1.0, max(0.0, float(rate)))

    # -- recording ---------------------------------------------------------

    def span(self, name: str, *, ctx: dict | None = None, **attributes):
        """Open a span: nests under the current span, else under ``ctx``.

        ``ctx`` is a ``{"trace_id", "span_id"}`` dict from
        :meth:`context` handed across an executor/wire boundary; it is
        only consulted when no span is active on the calling thread
        (local nesting always wins, and carries the trace id with it).
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = self._current.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif ctx and ctx.get("trace_id"):
            # A handed-over context is never sampled away: its root
            # already made the keep decision on the other side.
            trace_id, parent_id = ctx["trace_id"], ctx.get("span_id")
        else:
            # A fresh root: the head-sampling decision point.
            if self._suppressed.get():
                return NOOP_SPAN
            if self.sample_rate < 1.0 and random.random() >= self.sample_rate:
                self.sampled_out += 1
                suppressed = _SuppressedSpan(self)
                suppressed._token = self._suppressed.set(True)
                return suppressed
            trace_id, parent_id = _new_id(), None
        span = Span(self, trace_id, _new_id(4), parent_id, name, attributes)
        span._token = self._current.set(span)
        with self._lock:
            if trace_id not in self._pending:
                while len(self._pending) >= MAX_PENDING_TRACES:
                    self._pending.pop(next(iter(self._pending)))
                self._pending[trace_id] = _Builder(trace_id, span.span_id)
        return span

    def _finish(self, span: Span) -> None:
        span.duration_seconds = time.perf_counter() - span._clock
        if span._token is not None:
            try:
                self._current.reset(span._token)
            except ValueError:
                # Finished in a different context than it was opened in
                # (exotic, but not worth crashing a solve over).
                self._current.set(None)
        record = span.to_dict()
        finalized = None
        with self._lock:
            builder = self._pending.get(span.trace_id)
            if builder is None:
                return
            builder.spans.append(record)
            if span.span_id == builder.root_id:
                del self._pending[span.trace_id]
                finalized = self._finalize(builder)
        if finalized is not None:
            self._retain(finalized)

    def _finalize(self, builder: _Builder) -> dict:
        root = next(
            (s for s in builder.spans if s["span_id"] == builder.root_id),
            builder.spans[0],
        )
        spans = sorted(builder.spans, key=lambda s: s["started_at"])
        return {
            "trace_id": builder.trace_id,
            "root": root["name"],
            "started_at": root["started_at"],
            "duration_seconds": root["duration_seconds"],
            "n_spans": len(spans),
            "slow": root["duration_seconds"] >= self.slow_seconds,
            "spans": spans,
        }

    def _retain(self, trace: dict) -> None:
        with self._lock:
            self._recent.append(trace)
            if trace["slow"]:
                self._slow.append(trace)

    # -- cross-boundary hand-off -------------------------------------------

    def context(self) -> dict | None:
        """The active span as a wire-able ``{"trace_id", "span_id"}``."""
        span = self._current.get()
        if span is None:
            return None
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    # -- inspection --------------------------------------------------------

    def traces(self, limit: int = 20, *, slow_only: bool = False) -> list[dict]:
        """Most-recent-first finished traces (slow ring merged in)."""
        with self._lock:
            entries = list(self._slow) if slow_only else (
                list(self._slow) + list(self._recent)
            )
        seen: set[str] = set()
        out: list[dict] = []
        for trace in sorted(
            entries, key=lambda t: t["started_at"], reverse=True
        ):
            if trace["trace_id"] in seen:
                continue
            seen.add(trace["trace_id"])
            out.append(trace)
            if len(out) >= limit:
                break
        return out

    def reset(self) -> None:
        """Drop all retained and pending traces (tests, benchmarks)."""
        with self._lock:
            self._pending.clear()
            self._recent.clear()
            self._slow.clear()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer every subsystem shares."""
    return _TRACER


def set_enabled(enabled: bool) -> None:
    """Toggle the process-wide tracer (see ``REPRO_TRACE``)."""
    _TRACER.set_enabled(enabled)


def set_sample_rate(rate: float) -> None:
    """Set the process-wide head-sampling rate (``REPRO_TRACE_SAMPLE``)."""
    _TRACER.set_sample_rate(rate)


def format_trace(trace: dict) -> str:
    """Render one finished trace as an indented span tree."""
    spans = trace.get("spans", [])
    by_parent: dict[str | None, list[dict]] = {}
    ids = {s["span_id"] for s in spans}
    for span in spans:
        parent = span.get("parent_id")
        # Remote parents (span shipped from another process) render at
        # the closest local ancestor we actually have, else at the top.
        key = parent if parent in ids else None
        by_parent.setdefault(key, []).append(span)
    lines = [
        f"trace {trace['trace_id']}  root={trace.get('root', '?')}  "
        f"{trace['duration_seconds'] * 1000:.2f}ms  "
        f"spans={trace.get('n_spans', len(spans))}"
        + ("  SLOW" if trace.get("slow") else "")
    ]

    def walk(parent_key, depth):
        for span in sorted(
            by_parent.get(parent_key, []), key=lambda s: s["started_at"]
        ):
            attrs = span.get("attributes") or {}
            shown = ", ".join(
                f"{k}={attrs[k]}" for k in sorted(attrs)
            )
            lines.append(
                "  " * depth
                + f"- {span['name']}  {span['duration_seconds'] * 1000:.2f}ms"
                + (f"  [{shown}]" if shown else "")
            )
            walk(span["span_id"], depth + 1)

    walk(None, 1)
    return "\n".join(lines)
