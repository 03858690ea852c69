"""Observability smoke against a running `repro serve` instance.

Drives the paper's Figure 1 release through a knowledge-bearing solve,
then proves the observability surfaces told the truth about it:

- ``/metrics`` renders a parseable Prometheus 0.0.4 exposition whose
  engine counters reflect the solve that just ran;
- ``/v1/traces`` retains a finished trace rooted at the HTTP request
  whose span tree reaches down into the solver's work units.

Run ``repro serve`` (or a sharded front-end, with ``--shards N``) first,
then:

    python examples/obs_smoke.py [--host H] [--port P] [--shards N]

Exits non-zero on any mismatch — the CI observability-smoke job leans
on that.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.paper_example import Q4, S1, paper_published, paper_table
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig
from repro.obs.metrics import parse_exposition
from repro.obs.trace import format_trace
from repro.service.client import ServiceClient


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"  ok: {message}")


def span_names(trace: dict) -> set[str]:
    return {span["name"] for span in trace.get("spans", [])}


def find_trace(traces: list[dict], required: set[str]) -> dict | None:
    """The most recent finished trace containing every required span."""
    for trace in traces:
        if required <= span_names(trace):
            return trace
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8711)
    parser.add_argument(
        "--wait",
        type=float,
        default=30.0,
        help="seconds to wait for the service to come up",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "expect a sharded front-end: /metrics must aggregate this "
            "many per-shard engine scrapes (0: a plain service)"
        ),
    )
    args = parser.parse_args()

    client = ServiceClient(args.host, args.port)
    health = client.wait_until_healthy(timeout=args.wait)
    print(f"service is healthy after {health['uptime_seconds']:.2f}s uptime")

    release_id = client.register(
        paper_published(), original=paper_table(), name="obs-smoke"
    )
    print(f"registered the Figure 1 release as {release_id}")

    # A knowledge-bearing solve with per-component dispatch
    # (batch_components=0) so the engine runs one work unit per numeric
    # component — the trace must show each of them.
    knowledge = [
        ConditionalProbability(
            given={"gender": "male"}, sa_value=S1, probability=0.0
        )
    ]
    result = client.posterior(
        release_id, knowledge, config=MaxEntConfig(batch_components=0)
    )
    check(
        abs(result.posterior.prob(Q4, S1) - 1.0) < 1e-6,
        "the traced solve produced the paper's answer",
    )
    check(result.served_from == "solve", "the query really ran a solve")

    # -- /metrics: a well-formed exposition reflecting the solve ------------
    text = client.metrics()
    families = parse_exposition(text)
    print(f"/metrics exposes {len(families)} metric families")
    for family in (
        "repro_requests_total",
        "repro_responses_total",
        "repro_uptime_seconds",
        "repro_request_duration_seconds_bucket",
        "repro_engine_solves_total",
        "repro_engine_wall_seconds_total",
    ):
        check(family in families, f"exposition has {family}")
    solves = sum(value for _, value in families["repro_engine_solves_total"])
    check(solves >= 1, "engine solve counter reflects the solve")
    requests = sum(value for _, value in families["repro_requests_total"])
    check(requests >= 3, "request counter reflects this session")
    durations = families["repro_request_duration_seconds_count"]
    check(
        any(
            labels.get("endpoint", "").endswith("/posterior") and value >= 1
            for labels, value in durations
        ),
        "posterior latency histogram recorded",
    )
    if args.shards:
        shards = {
            labels["shard"]
            for labels, _ in families["repro_engine_solves_total"]
            if "shard" in labels
        }
        check(
            len(shards) == args.shards,
            f"fleet exposition labels {args.shards} per-shard engine(s)",
        )
        check(
            "repro_shards_alive" in families,
            "fleet exposition reports shard liveness",
        )
        alive = sum(value for _, value in families["repro_shards_alive"])
        check(alive == args.shards, "every shard scrape succeeded")

    # -- /v1/traces: one stitched trace for the solve -----------------------
    report = client.traces(limit=20)
    check(report.get("enabled", False), "tracing is enabled")
    traces = report.get("traces", [])
    check(len(traces) >= 1, "finished traces are retained")

    required = {"service.request"}
    if not args.shards:
        # A release-sharding front-end forwards the solve; the worker's
        # spans live on the worker's own /v1/traces (linked by trace id).
        required |= {"engine.solve", "engine.solve_group"}
    trace = find_trace(traces, required)
    if trace is None:
        for candidate in traces:
            print(format_trace(candidate), file=sys.stderr)
    check(
        trace is not None,
        "one trace spans "
        + ("the front-end request" if args.shards else
           "service -> engine -> work units"),
    )
    print(format_trace(trace))

    ids = {span["span_id"] for span in trace["spans"]}
    orphans = [
        span
        for span in trace["spans"]
        if span["parent_id"] is not None and span["parent_id"] not in ids
    ]
    check(not orphans, "every non-root span's parent is in the trace")
    check(
        sum(1 for span in trace["spans"] if span["parent_id"] is None) == 1,
        "the trace has exactly one root",
    )
    if "engine.solve_group" in required:
        group_spans = [
            span
            for span in trace["spans"]
            if span["name"] == "engine.solve_group"
        ]
        check(
            any(
                key.startswith("phase.")
                for span in group_spans
                for key in span["attributes"]
            ),
            "solver phase breakdown rides the group spans",
        )

    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
