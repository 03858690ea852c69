"""Tests for the service's HTTP framing, flow control and telemetry."""

import asyncio

import pytest

from repro.service.admission import (
    AdmissionController,
    Coalescer,
    QueueFullError,
)
from repro.service.protocol import (
    HttpError,
    error_body,
    json_body,
    read_request,
    response_bytes,
)
from repro.service.telemetry import LatencyHistogram, ServiceTelemetry


def run(coroutine):
    """Drive one coroutine on a fresh loop (no pytest-asyncio dependency)."""
    return asyncio.run(coroutine)


def reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestReadRequest:
    def test_get_with_query(self):
        async def scenario():
            reader = reader_with(
                b"GET /v1/releases?limit=5&verbose=1 HTTP/1.1\r\n"
                b"Host: localhost\r\n\r\n"
            )
            return await read_request(reader)

        request = run(scenario())
        assert request.method == "GET"
        assert request.segments == ("v1", "releases")
        assert request.query == {"limit": "5", "verbose": "1"}
        assert request.body == b""
        assert request.keep_alive

    def test_post_with_body_and_close(self):
        async def scenario():
            body = b'{"x": 1}'
            reader = reader_with(
                b"POST /v1/releases HTTP/1.1\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: close\r\n\r\n%s" % (len(body), body)
            )
            return await read_request(reader)

        request = run(scenario())
        assert request.json() == {"x": 1}
        assert not request.keep_alive

    def test_two_pipelined_requests(self):
        async def scenario():
            reader = reader_with(
                b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
            )
            first = await read_request(reader)
            second = await read_request(reader)
            third = await read_request(reader)
            return first, second, third

        first, second, third = run(scenario())
        assert first.path == "/a"
        assert second.path == "/b"
        assert third is None

    def test_eof_returns_none(self):
        async def scenario():
            return await read_request(reader_with(b""))

        assert run(scenario()) is None

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET / SPDY/99\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ],
    )
    def test_malformed_framing(self, raw, status):
        async def scenario():
            return await read_request(reader_with(raw))

        with pytest.raises(HttpError) as excinfo:
            run(scenario())
        assert excinfo.value.status == status

    def test_header_line_over_stream_limit_is_a_400(self):
        """A line above the StreamReader's 64 KiB limit must surface as
        HttpError 400 (ValueError from readline), not a dropped socket."""
        async def scenario():
            reader = reader_with(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
            return await read_request(reader)

        with pytest.raises(HttpError) as excinfo:
            run(scenario())
        assert excinfo.value.status == 400

    def test_oversized_body_rejected_without_reading_it(self):
        async def scenario():
            reader = reader_with(
                b"POST /v1/releases HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
            )
            return await read_request(reader, max_body=1024)

        with pytest.raises(HttpError) as excinfo:
            run(scenario())
        assert excinfo.value.status == 413

    def test_bad_json_body(self):
        async def scenario():
            body = b"{nope"
            reader = reader_with(
                b"POST /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            return await read_request(reader)

        request = run(scenario())
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestResponses:
    def test_response_framing(self):
        raw = response_bytes(200, json_body({"ok": True}))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: %d" % len(body) in head
        assert body == b'{"ok":true}'

    def test_error_envelope(self):
        error = HttpError(429, "try later", code="queue_full")
        raw = error_body(error)
        assert b'"queue_full"' in raw
        assert b"try later" in raw


class TestAdmissionController:
    def test_rejects_beyond_capacity(self):
        async def scenario():
            controller = AdmissionController(max_concurrency=1, max_queue=1)
            release = asyncio.Event()

            async def work():
                await release.wait()
                return "done"

            first = asyncio.ensure_future(controller.run(work))
            await asyncio.sleep(0)  # first occupies the running slot
            second = asyncio.ensure_future(controller.run(work))
            await asyncio.sleep(0)  # second occupies the queue slot
            assert controller.depth == 2
            with pytest.raises(QueueFullError):
                await controller.run(work)
            assert controller.rejected == 1
            release.set()
            assert await first == "done"
            assert await second == "done"
            assert controller.depth == 0

        run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0, max_queue=1)
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=1, max_queue=-1)


class TestCoalescer:
    def test_identical_keys_share_one_computation(self):
        async def scenario():
            coalescer = Coalescer()
            calls = 0
            release = asyncio.Event()

            async def factory():
                nonlocal calls
                calls += 1
                await release.wait()
                return {"value": 42}

            first = asyncio.ensure_future(coalescer.run("k", factory))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(coalescer.run("k", factory))
            await asyncio.sleep(0)
            assert coalescer.inflight == 1
            release.set()
            (value_a, coalesced_a) = await first
            (value_b, coalesced_b) = await second
            assert value_a is value_b
            assert (coalesced_a, coalesced_b) == (False, True)
            assert calls == 1
            assert coalescer.started == 1
            assert coalescer.coalesced == 1
            assert coalescer.inflight == 0

        run(scenario())

    def test_distinct_keys_run_separately(self):
        async def scenario():
            coalescer = Coalescer()

            async def factory():
                return object()

            (a, _), (b, _) = await asyncio.gather(
                coalescer.run("k1", factory), coalescer.run("k2", factory)
            )
            assert a is not b
            assert coalescer.started == 2
            assert coalescer.coalesced == 0

        run(scenario())


class TestTelemetry:
    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for _ in range(98):
            histogram.observe(0.004)
        histogram.observe(0.2)
        histogram.observe(2.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50_seconds"] == pytest.approx(0.005)
        assert summary["p99_seconds"] >= 0.2
        assert summary["max_seconds"] == pytest.approx(2.0)
        # Quantiles never exceed the largest observation.
        assert histogram.quantile(1.0) <= 2.0

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.summary()["count"] == 0

    def test_service_telemetry_snapshot(self):
        telemetry = ServiceTelemetry()
        telemetry.incr("solves_started")
        telemetry.observe("GET /x", 200, 0.003)
        telemetry.observe("GET /x", 404, 0.001)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["solves_started"] == 1
        assert snapshot["counters"]["requests_total"] == 2
        assert snapshot["responses_by_status"] == {"200": 1, "404": 1}
        assert snapshot["endpoints"]["GET /x"]["count"] == 2
        assert snapshot["uptime_seconds"] >= 0.0
