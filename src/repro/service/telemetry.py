"""Service telemetry: counters and per-endpoint latency histograms.

Everything the ``/v1/telemetry`` endpoint returns is aggregated here.
The histograms use fixed log-spaced bucket bounds (50 µs to a
minute) so percentile estimates cost O(#buckets) memory regardless of
traffic volume; quantiles are read as the upper bound of the bucket the
rank falls in, clamped to the largest observation — except in the
overflow bucket (> the last bound), where the read interpolates between
the last bound and the maximum observation instead of pessimistically
reporting the maximum for every rank landing there.

Histograms are **mergeable**: identical fixed bounds across every
process mean bucket-wise addition is exact, which is how the sharded
frontend aggregates per-worker histograms into fleet percentiles and
how the ``/metrics`` exposition gets raw cumulative buckets.

All mutation happens on the event loop (handlers observe after
responding), so no locking is needed; the engine keeps its own
thread-safe counters and is merged into the snapshot by the server.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import defaultdict

#: Upper bounds (seconds) of the latency buckets; the final implicit
#: bucket catches everything slower.  The sub-millisecond bounds resolve
#: request-index hits, which answer in a fraction of a millisecond.
LATENCY_BOUNDS = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile reads."""

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one measurement (O(log #buckets))."""
        # bisect_left over the upper bounds lands exactly on the first
        # bound with ``seconds <= bound`` (values equal to a bound stay
        # in that bound's bucket), and on the overflow slot past the end.
        self.counts[bisect_left(LATENCY_BOUNDS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), read from the bucket boundaries."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, observed in enumerate(self.counts):
            previous = seen
            seen += observed
            if seen >= rank and observed:
                if i < len(LATENCY_BOUNDS):
                    return min(LATENCY_BOUNDS[i], self.max_seconds)
                # Overflow bucket: every observation exceeds the last
                # bound, so interpolate between that lower bound and the
                # maximum by the rank's position inside the bucket.
                lower = LATENCY_BOUNDS[-1]
                position = (rank - previous) / observed
                return lower + position * (self.max_seconds - lower)
        return self.max_seconds

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (exact: shared bounds)."""
        for i, observed in enumerate(other.counts):
            self.counts[i] += observed
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)
        return self

    def summary(self) -> dict:
        """JSON-ready digest: count, mean, percentiles, raw buckets."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": mean,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "max_seconds": self.max_seconds,
            "bucket_counts": list(self.counts),
        }

    @classmethod
    def from_summary(cls, summary: dict) -> "LatencyHistogram":
        """Rebuild a mergeable histogram from :meth:`summary` output.

        Raises ``ValueError`` when the summary predates raw bucket
        counts or was produced with different bounds — callers
        aggregating mixed-version fleets should skip those.
        """
        buckets = summary.get("bucket_counts")
        if not isinstance(buckets, list) or len(buckets) != len(
            LATENCY_BOUNDS
        ) + 1:
            raise ValueError(
                "summary has no compatible bucket_counts "
                f"(got {type(buckets).__name__})"
            )
        histogram = cls()
        histogram.counts = [int(c) for c in buckets]
        histogram.count = int(summary.get("count", sum(histogram.counts)))
        histogram.total_seconds = float(summary.get("total_seconds", 0.0))
        histogram.max_seconds = float(summary.get("max_seconds", 0.0))
        return histogram


class ServiceTelemetry:
    """Counters plus one latency histogram per logical endpoint."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self._start_clock = time.perf_counter()
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.status_counts: defaultdict[int, int] = defaultdict(int)
        self.endpoints: dict[str, LatencyHistogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Bump a named counter."""
        self.counters[name] += amount

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished request against its endpoint histogram."""
        self.counters["requests_total"] += 1
        self.status_counts[status] += 1
        histogram = self.endpoints.get(endpoint)
        if histogram is None:
            histogram = self.endpoints[endpoint] = LatencyHistogram()
        histogram.observe(seconds)

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._start_clock

    def snapshot(self) -> dict:
        """The telemetry endpoint's service-side section."""
        return {
            "uptime_seconds": self.uptime_seconds,
            "started_at_unix": self.started_at,
            "counters": dict(self.counters),
            "responses_by_status": {
                str(status): count for status, count in self.status_counts.items()
            },
            "endpoints": {
                name: histogram.summary()
                for name, histogram in self.endpoints.items()
            },
        }
