"""A scripted client session against a running `repro serve` instance.

Reproduces the paper's running example (Figure 1) over the wire:
register the 3-bucket release with its original table, read the
no-knowledge posterior, add the "males do not get Breast Cancer"
statement to watch Grace's full disclosure, repeat a two-statement
query byte for byte (answered from the request index) and reversed
(answered through the fingerprint key), run a Section 4.3 assessment
over candidate bounds, and finally verify via the telemetry endpoint
that repeated queries were served from cache rather than re-solved.

Run ``repro serve`` (or ``python -m repro serve``) first, then:

    python examples/serve_client.py [--host H] [--port P] [--wait SECONDS]

Exits non-zero on any mismatch — the CI smoke job leans on that.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.paper_example import (
    Q2,
    Q4,
    S1,
    S2,
    S3,
    paper_published,
    paper_table,
)
from repro.knowledge.bounds import TopKBound
from repro.knowledge.statements import ConditionalProbability
from repro.service.client import ServiceClient


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"  ok: {message}")


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
            "expect a sharded front-end with this many shard workers "
            "(0: a plain single-engine service)"
        ),
    )
    args = parser.parse_args()

    client = ServiceClient(args.host, args.port)
    health = client.wait_until_healthy(timeout=args.wait)
    print(f"service is healthy after {health['uptime_seconds']:.2f}s uptime")
    if args.shards:
        shard_reports = health.get("shards", [])
        check(
            len(shard_reports) == args.shards,
            f"health reports {args.shards} shard worker(s)",
        )
        check(
            all(report["alive"] for report in shard_reports),
            "every shard worker is alive",
        )

    release_id = client.register(
        paper_published(), original=paper_table(), name="paper-figure-1"
    )
    print(f"registered the Figure 1 release as {release_id}")

    # -- no background knowledge: the uniform Eq. (9) estimate --------------
    result = client.posterior(release_id)
    p_uniform = result.posterior.prob(Q2, S1)
    print(f"P*(Breast Cancer | female college) = {p_uniform:.3f} "
          f"(served from {result.served_from})")
    check(abs(p_uniform - 0.125) < 1e-9, "uniform estimate matches Eq. (9)")

    # -- one medical fact fully discloses Grace -----------------------------
    knowledge = [
        ConditionalProbability(
            given={"gender": "male"}, sa_value=S1, probability=0.0
        )
    ]
    result = client.posterior(release_id, knowledge)
    p_grace = result.posterior.prob(Q4, S1)
    print(f"P*(Breast Cancer | female junior)  = {p_grace:.3f} "
          f"(served from {result.served_from})")
    check(abs(p_grace - 1.0) < 1e-6, "Grace is fully disclosed")
    check(result.served_from == "solve", "first knowledge query ran a solve")

    # -- the repeat costs nothing: served from cache, not re-solved ---------
    repeat = client.posterior(release_id, knowledge)
    check(
        repeat.served_from in ("result-cache", "coalesced"),
        f"repeat served from {repeat.served_from}, no re-solve",
    )
    check(
        abs(repeat.posterior.prob(Q4, S1) - p_grace) < 1e-12,
        "cached posterior is bit-identical",
    )

    # -- the request index: a byte-identical repeat is a lookup ------------
    pair = [
        ConditionalProbability(
            given={"degree": "college"}, sa_value=S2, probability=0.2
        ),
        ConditionalProbability(
            given={"gender": "male"}, sa_value=S3, probability=0.3
        ),
    ]
    first = client.posterior(release_id, pair)
    again = client.posterior(release_id, pair)
    check(
        again.served_from == "result-cache",
        "byte-identical repeat answered from the result cache",
    )
    # Reversed, the request bytes differ: the index misses and the
    # request dedupes through the engine fingerprint instead.
    reversed_pair = client.posterior(release_id, pair[::-1])
    check(
        reversed_pair.served_from in ("result-cache", "coalesced")
        and reversed_pair.fingerprint == first.fingerprint,
        f"reversed statements served from {reversed_pair.served_from} "
        "under the same fingerprint",
    )

    # -- Section 4.3: one assessment per candidate bound --------------------
    assessments = client.assess(
        release_id,
        [TopKBound(0, 0), TopKBound(2, 2), TopKBound(4, 4)],
        mining={"min_support_count": 1, "max_antecedent": 1},
    )
    print("assessment table:")
    for row in assessments:
        print(
            f"  {row['bound']:<18} accuracy={row['estimation_accuracy']:.4f} "
            f"max_disclosure={row['max_disclosure']:.3f} "
            f"(served from {row['served_from']})"
        )
    check(len(assessments) == 3, "one assessment per bound")
    accuracies = [row["estimation_accuracy"] for row in assessments]
    check(
        accuracies[0] >= accuracies[-1],
        "more knowledge does not worsen estimation accuracy",
    )

    # -- telemetry proves the serving layer did its job ---------------------
    telemetry = client.telemetry()
    counters = telemetry["service"]["counters"]
    check(telemetry["status"] == "ok", "telemetry endpoint is healthy")
    # healthz + register + 3 posteriors + assess answered so far (the
    # in-flight telemetry request is not yet in its own snapshot).
    check(counters.get("requests_total", 0) >= 6, "requests were counted")
    if args.shards:
        # Sharded front-end: the repeats were served by the owning
        # worker's caches, visible in the aggregated fleet telemetry.
        cluster = telemetry["cluster"]
        check(
            len(cluster["workers"]) == args.shards,
            "telemetry aggregates every shard worker",
        )
        shard_hits = sum(
            worker["telemetry"]["store"]["result_cache"]["hits"]
            + worker["telemetry"]["coalescing"]["coalesced"]
            for worker in cluster["workers"]
            if worker.get("telemetry")
        )
        check(
            shard_hits >= 1,
            "repeat queries hit a shard's result cache / coalesced",
        )
        index_hits = sum(
            worker["telemetry"]["service"]["counters"].get(
                "request_index_hits", 0
            )
            for worker in cluster["workers"]
            if worker.get("telemetry")
        )
        check(
            sum(
                worker["telemetry"]["service"]["counters"].get(
                    "releases_registered", 0
                )
                for worker in cluster["workers"]
                if worker.get("telemetry")
            )
            >= 1,
            "the release lives on a shard worker",
        )
    else:
        cache = telemetry["store"]["result_cache"]
        check(
            cache["hits"] + telemetry["coalescing"]["coalesced"] >= 1,
            "repeat queries hit the result cache / coalesced",
        )
        index_hits = counters.get("request_index_hits", 0)
    check(index_hits >= 1, "byte-identical repeats hit the request index")
    check(
        counters.get("solves_started", 0) < counters.get("requests_total", 0),
        "fewer solves than requests (the service amortized work)",
    )
    latencies = telemetry["service"]["endpoints"]
    posterior_summary = latencies.get("POST /v1/releases/{id}/posterior", {})
    check(posterior_summary.get("count", 0) >= 3, "latency histogram recorded")
    print(
        "posterior latency: "
        f"p50={posterior_summary['p50_seconds'] * 1000:.2f}ms "
        f"p95={posterior_summary['p95_seconds'] * 1000:.2f}ms"
    )
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
