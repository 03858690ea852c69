"""The live-query privacy workload driver.

Replays a seeded query mix against a registered release in *batches*,
modelling Martin et al.'s observation that background knowledge accrues
over sequences of query answers: each batch the assumed adversary gains
``knowledge_step`` more mined rules (a growing Top-K bound), the driver
requests the posterior under that knowledge — from a live service or an
embedded engine — evaluates the batch's queries against it, folds what
the answers revealed into the attacker's accumulated view, and scores
the posterior bounds.  The output is a JSON-ready trajectory: per-batch
privacy scores, per-shape query latencies, solve latencies, and the
attacker's coverage/disclosure curve — the artifact ``repro workload``
prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import (
    bayes_vulnerability,
    effective_l,
    expected_posterior_entropy,
    max_disclosure,
)
from repro.core.quantifier import PosteriorTable
from repro.engine.engine import PrivacyEngine
from repro.errors import ExperimentError
from repro.knowledge.bounds import TopKBound
from repro.maxent.config import MaxEntConfig
from repro.service.store import RegisteredRelease
from repro.service.telemetry import LatencyHistogram
from repro.workload.queries import (
    DEFAULT_SHAPE_WEIGHTS,
    PosteriorIndex,
    QueryMix,
    evaluate,
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one workload replay.

    ``knowledge_step`` rules are added to the assumed adversary per batch
    (split evenly between positive and negative families); zero keeps the
    adversary knowledge-free, which makes every batch a closed-form read
    — the pure-throughput configuration.
    """

    n_batches: int = 8
    queries_per_batch: int = 32
    knowledge_step: int = 2
    epsilon: float = 0.0
    seed: int = 20080609
    shape_weights: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_batches <= 0:
            raise ExperimentError("n_batches must be positive")
        if self.queries_per_batch <= 0:
            raise ExperimentError("queries_per_batch must be positive")
        if self.knowledge_step < 0:
            raise ExperimentError("knowledge_step must be >= 0")


class AttackerView:
    """The adversary's accumulated per-cell view across query answers.

    For each (QI tuple, SA value) cell, tracks the strongest probability
    any answer so far attributed to it — point lookups contribute exact
    posterior rows, aggregates their group blends.  The running maximum
    is the attacker's best linkage confidence per cell; its global max is
    the accumulated analogue of the paper's ``max P*(SA|QI)`` disclosure.
    """

    def __init__(self, n_rows: int, n_sa: int) -> None:
        self._view = np.zeros((n_rows, n_sa))
        self._seen = np.zeros(n_rows, dtype=bool)

    def absorb(self, touched: np.ndarray, revealed: np.ndarray) -> None:
        """Fold one answer's revelation into the view."""
        if touched.size == 0:
            return
        self._view[touched] = np.maximum(self._view[touched], revealed)
        self._seen[touched] = True

    @property
    def coverage(self) -> float:
        """Fraction of QI tuples at least one answer has spoken about."""
        return float(self._seen.mean()) if self._seen.size else 0.0

    @property
    def peak_disclosure(self) -> float:
        """The strongest accumulated linkage confidence in any cell."""
        return float(self._view.max()) if self._view.size else 0.0

    @property
    def mean_top_confidence(self) -> float:
        """Mean over covered rows of the row's best accumulated cell."""
        if not self._seen.any():
            return 0.0
        return float(self._view[self._seen].max(axis=1).mean())

    def snapshot(self) -> dict:
        return {
            "coverage": self.coverage,
            "peak_disclosure": self.peak_disclosure,
            "mean_top_confidence": self.mean_top_confidence,
        }


class ServiceBackend:
    """Posterior source: a live service over HTTP via ``ServiceClient``."""

    def __init__(self, client, release_id: str, *, config=None) -> None:
        self.client = client
        self.release_id = release_id
        self.config = config

    def posterior(self, statements) -> tuple[PosteriorTable, dict]:
        started = time.perf_counter()
        result = self.client.posterior(
            self.release_id, statements, config=self.config
        )
        return result.posterior, {
            "solve_seconds": time.perf_counter() - started,
            "served_from": result.served_from,
        }

    def close(self) -> None:
        pass


class EmbeddedBackend:
    """Posterior source: an in-process engine, no HTTP.

    The compiled-system and mined-rule caching is the same
    :class:`~repro.service.store.RegisteredRelease` machinery the service
    uses, so embedded and served workloads exercise identical code below
    the transport.
    """

    def __init__(self, published, *, engine=None, config=None) -> None:
        self.record = RegisteredRelease("embedded", published)
        self.engine = engine or PrivacyEngine.from_config(MaxEntConfig())
        self._owns_engine = engine is None
        self.config = config or MaxEntConfig()
        self.release_id = "embedded"

    def posterior(self, statements) -> tuple[PosteriorTable, dict]:
        started = time.perf_counter()
        system, _, _, build_seconds = self.record.compiled_system(statements)
        solution = self.engine.solve(
            self.record.space, system, self.config, build_seconds=build_seconds
        )
        return PosteriorTable.from_solution(solution), {
            "solve_seconds": time.perf_counter() - started,
            "served_from": "embedded",
        }

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()


class WorkloadDriver:
    """Run one batched query-mix replay and produce its trajectory."""

    def __init__(
        self,
        backend,
        *,
        rules=None,
        config: WorkloadConfig | None = None,
    ) -> None:
        self.backend = backend
        self.rules = rules
        self.config = config or WorkloadConfig()
        if self.config.knowledge_step > 0 and rules is None:
            raise ExperimentError(
                "knowledge_step > 0 needs mined rules to grow the "
                "adversary from; pass rules or set knowledge_step=0"
            )

    def _statements(self, batch: int):
        k = self.config.knowledge_step * batch
        if k == 0 or self.rules is None:
            return [], 0
        bound = TopKBound(
            k_positive=(k + 1) // 2,
            k_negative=k // 2,
            epsilon=self.config.epsilon,
        )
        statements = bound.statements(self.rules)
        return statements, k

    def run(self) -> dict:
        """Replay every batch; returns the JSON-ready workload report."""
        config = self.config
        index: PosteriorIndex | None = None
        mix: QueryMix | None = None
        attacker: AttackerView | None = None
        reference: PosteriorTable | None = None
        shape_latency: dict[str, LatencyHistogram] = {}
        shape_counts: dict[str, int] = {}
        batches: list[dict] = []

        for batch in range(config.n_batches):
            statements, k = self._statements(batch)
            posterior, meta = self.backend.posterior(statements)
            if index is None:
                index = PosteriorIndex(posterior)
                mix = QueryMix(
                    index,
                    weights=config.shape_weights or None,
                    seed=config.seed,
                )
                attacker = AttackerView(index.n_rows, len(index.sa_domain))
                reference = posterior
            else:
                # Same release, same variable space — but align defensively
                # so the row order always matches the index built at batch 0.
                posterior = posterior.aligned_to(reference)
            matrix = posterior.matrix
            weights = posterior.weights

            answers: list[dict] = []
            for query in mix.batch(config.queries_per_batch):
                started = time.perf_counter()
                result = evaluate(query, index, matrix, weights)
                elapsed = time.perf_counter() - started
                histogram = shape_latency.setdefault(
                    query.shape, LatencyHistogram()
                )
                histogram.observe(elapsed)
                shape_counts[query.shape] = shape_counts.get(query.shape, 0) + 1
                attacker.absorb(result.touched, result.revealed)
                answers.append({"shape": query.shape, **result.answer})

            batches.append(
                {
                    "batch": batch,
                    "k_rules": k,
                    "n_statements": len(statements),
                    "solve_seconds": meta["solve_seconds"],
                    "served_from": meta["served_from"],
                    "max_disclosure": max_disclosure(posterior),
                    "bayes_vulnerability": bayes_vulnerability(posterior),
                    "effective_l": effective_l(posterior),
                    "expected_entropy_bits": expected_posterior_entropy(
                        posterior
                    ),
                    "attacker": attacker.snapshot(),
                    "sample_answers": answers[:3],
                }
            )

        shapes = {
            shape: {
                "count": shape_counts[shape],
                "mean_seconds": histogram.total_seconds
                / max(histogram.count, 1),
                "p50_seconds": histogram.quantile(0.5),
                "p95_seconds": histogram.quantile(0.95),
                "max_seconds": histogram.max_seconds,
            }
            for shape, histogram in sorted(shape_latency.items())
        }
        return {
            "release_id": getattr(self.backend, "release_id", None),
            "config": {
                "n_batches": config.n_batches,
                "queries_per_batch": config.queries_per_batch,
                "knowledge_step": config.knowledge_step,
                "epsilon": config.epsilon,
                "seed": config.seed,
                "shape_weights": config.shape_weights
                or dict(DEFAULT_SHAPE_WEIGHTS),
            },
            "n_qi_tuples": index.n_rows if index else 0,
            "total_queries": sum(shape_counts.values()),
            "total_solve_seconds": sum(b["solve_seconds"] for b in batches),
            "batches": batches,
            "shapes": shapes,
            "attacker_final": attacker.snapshot() if attacker else {},
        }
