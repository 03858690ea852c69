"""Span tracing: nesting, explicit context hand-off, bounded retention."""

from __future__ import annotations

import threading

from repro.obs.trace import NOOP_SPAN, Tracer, format_trace


def tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("slow_seconds", 9999.0)
    return Tracer(**kwargs)


def only_trace(t: Tracer) -> dict:
    traces = t.traces()
    assert len(traces) == 1
    return traces[0]


class TestNesting:
    def test_root_span_has_no_parent(self):
        t = tracer()
        with t.span("root") as root:
            assert root.parent_id is None
            assert root.trace_id

    def test_same_thread_child_nests_implicitly(self):
        t = tracer()
        with t.span("root") as root:
            with t.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id

    def test_ctx_parents_when_no_local_span(self):
        t = tracer()
        ctx = {"trace_id": "t" * 16, "span_id": "abcd1234"}
        with t.span("remote-child", ctx=ctx) as span:
            assert span.trace_id == ctx["trace_id"]
            assert span.parent_id == ctx["span_id"]

    def test_local_parent_wins_over_ctx(self):
        t = tracer()
        with t.span("root") as root:
            with t.span("child", ctx={"trace_id": "x", "span_id": "y"}) as c:
                assert c.trace_id == root.trace_id
                assert c.parent_id == root.span_id

    def test_sibling_after_child_closes_parents_on_root(self):
        t = tracer()
        with t.span("root") as root:
            with t.span("first"):
                pass
            with t.span("second") as second:
                assert second.parent_id == root.span_id

    def test_context_reflects_active_span(self):
        t = tracer()
        assert t.context() is None
        with t.span("root") as root:
            assert t.context() == {
                "trace_id": root.trace_id,
                "span_id": root.span_id,
            }
        assert t.context() is None

    def test_cross_thread_child_via_explicit_ctx(self):
        """The run_in_executor pattern: ctx handed over to the thread."""
        t = tracer()
        with t.span("root") as root:
            ctx = t.context()

            def task():
                with t.span("thread-child", ctx=ctx):
                    pass

            worker = threading.Thread(target=task)
            worker.start()
            worker.join()
        trace = only_trace(t)
        child = next(
            s for s in trace["spans"] if s["name"] == "thread-child"
        )
        assert child["trace_id"] == root.trace_id
        assert child["parent_id"] == root.span_id


class TestRetention:
    def test_finishing_root_finalizes_the_trace(self):
        t = tracer()
        with t.span("root"):
            with t.span("child"):
                pass
            assert t.traces() == []  # not finished yet
        trace = only_trace(t)
        assert trace["root"] == "root"
        assert trace["n_spans"] == 2
        assert {s["name"] for s in trace["spans"]} == {"root", "child"}

    def test_recent_ring_is_bounded(self):
        t = tracer(recent=3)
        for index in range(5):
            with t.span(f"run-{index}"):
                pass
        names = [trace["root"] for trace in t.traces()]
        assert names == ["run-4", "run-3", "run-2"]

    def test_slow_ring_survives_fast_churn(self):
        t = tracer(recent=2, slow_seconds=0.0)  # everything is "slow"
        with t.span("outlier"):
            pass
        t.slow_seconds = 9999.0  # subsequent traces are fast
        for index in range(4):
            with t.span(f"fast-{index}"):
                pass
        roots = {trace["root"] for trace in t.traces()}
        assert "outlier" in roots  # evicted from recent, kept in slow
        assert {trace["root"] for trace in t.traces(slow_only=True)} == {
            "outlier"
        }

    def test_traces_dedups_and_limits(self):
        t = tracer(slow_seconds=0.0)
        for index in range(3):
            with t.span(f"run-{index}"):
                pass
        traces = t.traces(limit=2)
        assert len(traces) == 2
        assert len({trace["trace_id"] for trace in t.traces()}) == 3

    def test_exception_records_error_attribute(self):
        t = tracer()
        try:
            with t.span("boom"):
                raise ValueError("nope")
        except ValueError:
            pass
        trace = only_trace(t)
        assert trace["spans"][0]["attributes"]["error"] == "ValueError: nope"

    def test_reset_drops_everything(self):
        t = tracer()
        with t.span("root"):
            pass
        t.reset()
        assert t.traces() == []


class TestDisabled:
    def test_disabled_span_is_the_shared_noop(self):
        t = tracer(enabled=False)
        with t.span("anything", key="value") as span:
            assert span is NOOP_SPAN
            assert span.set(more=1) is NOOP_SPAN
        assert t.traces() == []
        assert t.context() is None

    def test_toggle_at_runtime(self):
        t = tracer(enabled=False)
        t.set_enabled(True)
        with t.span("now-recorded"):
            pass
        assert only_trace(t)["root"] == "now-recorded"


class TestFormatTrace:
    def test_renders_indented_tree(self):
        t = tracer()
        with t.span("root", answer=42):
            with t.span("child"):
                pass
        rendered = format_trace(only_trace(t))
        lines = rendered.splitlines()
        assert lines[0].startswith("trace ")
        assert "root" in lines[1] and "answer=42" in lines[1]
        assert lines[2].startswith("    - child")

    def test_remote_parent_renders_at_top_level(self):
        trace = {
            "trace_id": "t",
            "duration_seconds": 0.0,
            "spans": [
                {
                    "span_id": "a",
                    "parent_id": "not-shipped",
                    "name": "stranded",
                    "started_at": 0.0,
                    "duration_seconds": 0.0,
                    "attributes": {},
                }
            ],
        }
        assert "stranded" in format_trace(trace)


class TestHeadSampling:
    def test_rate_zero_drops_fresh_roots(self):
        t = tracer()
        t.set_sample_rate(0.0)
        with t.span("root") as root:
            assert root.to_dict() == {}
        assert t.traces() == []
        assert t.sampled_out == 1

    def test_descendants_of_a_sampled_out_root_are_suppressed(self):
        # A sampled-out root must take its whole subtree with it — a
        # child opening under it must not coin-flip a fresh root.
        t = tracer()
        t.set_sample_rate(0.0)
        with t.span("root"):
            t.set_sample_rate(1.0)  # children still must not record
            with t.span("child") as child:
                assert child.to_dict() == {}
        assert t.traces() == []

    def test_suppression_ends_with_the_root(self):
        t = tracer()
        t.set_sample_rate(0.0)
        with t.span("dropped"):
            pass
        t.set_sample_rate(1.0)
        with t.span("kept"):
            pass
        assert [tr["root"] for tr in t.traces()] == ["kept"]

    def test_ctx_spans_are_never_sampled_away(self):
        # The keep decision is made at the root; a handed-over context
        # means some other process already kept this trace.
        t = tracer()
        t.set_sample_rate(0.0)
        ctx = {"trace_id": "t" * 16, "span_id": "abcd1234"}
        with t.span("remote-child", ctx=ctx) as span:
            assert span.trace_id == ctx["trace_id"]

    def test_rate_is_clamped(self):
        t = tracer()
        t.set_sample_rate(7.0)
        assert t.sample_rate == 1.0
        t.set_sample_rate(-3.0)
        assert t.sample_rate == 0.0

    def test_env_knob_is_read_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        assert tracer().sample_rate == 0.25
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "junk")
        assert tracer().sample_rate == 1.0

    def test_rate_one_keeps_everything(self):
        t = tracer()
        t.set_sample_rate(1.0)
        for i in range(5):
            with t.span(f"r{i}"):
                pass
        assert len(t.traces()) == 5
        assert t.sampled_out == 0

    def test_sampled_out_requests_still_serve(self):
        # The service must keep answering when its spans are dropped:
        # the no-op span still context-manages and still sets attributes.
        t = tracer()
        t.set_sample_rate(0.0)
        with t.span("request") as span:
            span.set(status=200)
            result = 1 + 1
        assert result == 2
