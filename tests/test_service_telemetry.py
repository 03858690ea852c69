"""Latency histograms: quantile edges, exact merging, summary round-trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.telemetry import (
    LATENCY_BOUNDS,
    LatencyHistogram,
    ServiceTelemetry,
)

durations = st.floats(
    min_value=0.0, max_value=120.0, allow_nan=False, allow_infinity=False
)


def histogram_of(values) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestQuantileEdges:
    def test_empty_histogram_reads_zero(self):
        empty = LatencyHistogram()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert empty.quantile(q) == 0.0
        summary = empty.summary()
        assert summary["count"] == 0
        assert summary["mean_seconds"] == 0.0
        assert summary["p99_seconds"] == 0.0

    def test_single_observation_is_every_quantile(self):
        histogram = histogram_of([0.003])
        for q in (0.01, 0.5, 0.99):
            assert histogram.quantile(q) == pytest.approx(0.003, abs=0.005)
        # Clamped to the real maximum, not the bucket's upper bound.
        assert histogram.quantile(0.99) <= histogram.max_seconds

    def test_value_on_a_bound_stays_in_that_bucket(self):
        histogram = histogram_of([LATENCY_BOUNDS[3]])
        assert histogram.counts[3] == 1

    def test_overflow_quantile_interpolates(self):
        """Ranks inside the overflow bucket spread toward the max
        instead of all pessimistically reporting the maximum."""
        top = LATENCY_BOUNDS[-1]
        histogram = histogram_of([top + 10.0] * 100)
        histogram.max_seconds = top + 40.0
        p50 = histogram.quantile(0.50)
        p99 = histogram.quantile(0.99)
        assert top < p50 < p99 <= histogram.max_seconds
        assert p50 == pytest.approx(top + 0.5 * 40.0)

    def test_sub_millisecond_observation_reads_sub_millisecond(self):
        histogram = histogram_of([0.0001] * 9 + [0.00004])
        assert histogram.quantile(0.5) <= 0.0001
        assert histogram.quantile(0.05) <= 0.00005

    def test_quantiles_are_monotone(self):
        histogram = histogram_of([0.001, 0.02, 0.3, 4.0, 90.0])
        quantiles = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)


class TestMerge:
    def test_merge_is_exact_bucket_addition(self):
        left = histogram_of([0.001, 0.5])
        right = histogram_of([0.002, 70.0])
        merged = histogram_of([0.001, 0.5, 0.002, 70.0])
        left.merge(right)
        assert left.counts == merged.counts
        assert left.count == merged.count
        assert left.max_seconds == merged.max_seconds

    @given(
        st.lists(durations, max_size=30),
        st.lists(durations, max_size=30),
        st.lists(durations, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = histogram_of(a).merge(histogram_of(b).merge(histogram_of(c)))
        right = histogram_of(a).merge(histogram_of(b)).merge(histogram_of(c))
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.max_seconds == right.max_seconds
        assert left.total_seconds == pytest.approx(right.total_seconds)

    @given(st.lists(durations, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_merge_into_empty_is_identity(self, values):
        merged = LatencyHistogram().merge(histogram_of(values))
        assert merged.counts == histogram_of(values).counts
        assert merged.summary() == histogram_of(values).summary()


class TestSummaryRoundTrip:
    def test_from_summary_rebuilds_mergeable_state(self):
        original = histogram_of([0.004, 0.2, 3.0])
        rebuilt = LatencyHistogram.from_summary(original.summary())
        assert rebuilt.counts == original.counts
        assert rebuilt.count == original.count
        assert rebuilt.total_seconds == original.total_seconds
        assert rebuilt.max_seconds == original.max_seconds
        # The rebuilt histogram keeps merging exactly.
        rebuilt.merge(histogram_of([0.004]))
        assert rebuilt.count == 4

    def test_from_summary_rejects_missing_buckets(self):
        with pytest.raises(ValueError, match="bucket_counts"):
            LatencyHistogram.from_summary({"count": 3})

    def test_from_summary_rejects_foreign_bounds(self):
        with pytest.raises(ValueError, match="bucket_counts"):
            LatencyHistogram.from_summary({"bucket_counts": [1, 2, 3]})

    def test_summary_with_the_old_bucket_count_is_skipped(self):
        """A summary from a process that predates the sub-millisecond
        bounds has fewer buckets; merging it bucket-wise would shift
        every count, so ``from_summary`` refuses it (callers skip)."""
        old = histogram_of([0.004, 0.2]).summary()
        old["bucket_counts"] = old["bucket_counts"][3:]
        assert len(old["bucket_counts"]) == len(LATENCY_BOUNDS) - 2
        with pytest.raises(ValueError, match="bucket_counts"):
            LatencyHistogram.from_summary(old)

    def test_summary_exposes_raw_buckets(self):
        summary = histogram_of([0.01]).summary()
        assert len(summary["bucket_counts"]) == len(LATENCY_BOUNDS) + 1
        assert sum(summary["bucket_counts"]) == 1


class TestServiceTelemetry:
    def test_observe_counts_and_buckets_by_endpoint(self):
        telemetry = ServiceTelemetry()
        telemetry.observe("GET /healthz", 200, 0.001)
        telemetry.observe("GET /healthz", 200, 0.002)
        telemetry.observe("POST /solve", 500, 1.5)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["requests_total"] == 3
        assert snapshot["responses_by_status"] == {"200": 2, "500": 1}
        assert snapshot["endpoints"]["GET /healthz"]["count"] == 2
        assert snapshot["endpoints"]["POST /solve"]["count"] == 1

    def test_incr_names_are_free_form(self):
        telemetry = ServiceTelemetry()
        telemetry.incr("solves_started")
        telemetry.incr("solves_started", 2)
        assert telemetry.counters["solves_started"] == 3
