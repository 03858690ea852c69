"""Drivers regenerating every figure of the paper's evaluation (Section 7).

Each ``figureN`` function returns an
:class:`~repro.experiments.harness.ExperimentResult` holding the same
series the paper plots:

- Figure 5 — Estimation Accuracy vs number of rules K, for positive-only
  (K+), negative-only (K-) and mixed (K+, K-) background knowledge.
- Figure 6 — Estimation Accuracy vs K for rules restricted to exactly T QI
  attributes, T = 1..8.
- Figure 7(a) — running time and L-BFGS iterations vs the number of
  background-knowledge constraints (fixed dataset).
- Figure 7(b)/(c) — running time / iterations vs the number of buckets, one
  series per background-knowledge size.

Default sizes are scaled down from the paper's 14,210-record Adult setup so
the whole suite runs in minutes; every config has a ``paper_scale`` factory
for full-size runs.  Performance figures disable the Section 5.5
decomposition because the paper explicitly measured the unoptimized solver
("we have not applied the optimization techniques discussed in
Section 5.5").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.accuracy import estimation_accuracy
from repro.core.privacy_maxent import PrivacyMaxEnt, ReleaseModel
from repro.engine.engine import PrivacyEngine
from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentResult, append_engine_notes
from repro.experiments.workloads import AdultWorkload, build_adult_workload, k_grid
from repro.knowledge.bounds import TopKBound
from repro.maxent.solver import MaxEntConfig


def _accuracy_under_bound(
    model: ReleaseModel,
    workload: AdultWorkload,
    bound: TopKBound,
    config: MaxEntConfig,
    engine: PrivacyEngine | None = None,
) -> tuple[float, int, object]:
    quantifier = PrivacyMaxEnt(
        model,
        knowledge=bound.statements(workload.rules),
        config=config,
        engine=engine,
    )
    posterior = quantifier.posterior()
    accuracy = estimation_accuracy(workload.truth, posterior)
    return accuracy, quantifier.n_knowledge_rows, quantifier.solve().stats


# --- Figure 5 -----------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Config:
    """Sizes and sweep for the Figure 5 reproduction."""

    n_records: int = 2000
    l: int = 5
    max_antecedent: int = 3
    max_k: int = 1600
    points: int = 7
    seed: int = 20080609
    config: MaxEntConfig = MaxEntConfig(raise_on_infeasible=False)

    @classmethod
    def paper_scale(cls) -> "Figure5Config":
        """The full 14,210-record setup (slow; hours, as in the paper)."""
        return cls(n_records=14210, max_antecedent=4, max_k=150_000, points=9)


def figure5(config: Figure5Config | None = None) -> ExperimentResult:
    """Estimation Accuracy vs K for the K+, K- and mixed bounds."""
    config = config or Figure5Config()
    workload = build_adult_workload(
        n_records=config.n_records,
        l=config.l,
        max_antecedent=config.max_antecedent,
        seed=config.seed,
    )
    result = ExperimentResult(
        name="Figure 5: background knowledge vs privacy",
        x_label="K",
        y_label="Estimation Accuracy (weighted KL, bits)",
        series={},
        notes=(
            f"{config.n_records} records, {workload.published.n_buckets} "
            f"buckets of {config.l}, rules mined up to antecedent size "
            f"{config.max_antecedent} "
            f"({workload.rules.n_positive} positive / "
            f"{workload.rules.n_negative} negative available)."
        ),
    )
    engine = PrivacyEngine.from_config(config.config)
    model = ReleaseModel(workload.published)
    for k in k_grid(config.max_k, config.points):
        for name, bound in (
            ("K+", TopKBound(k, 0)),
            ("K-", TopKBound(0, k)),
            ("(K+, K-)", TopKBound(k // 2, k - k // 2)),
        ):
            accuracy, n_rows, stats = _accuracy_under_bound(
                model, workload, bound, config.config, engine
            )
            result.add(
                name,
                x=k,
                y=accuracy,
                constraints=n_rows,
                iterations=stats.iterations,
                seconds=stats.seconds,
            )
    return append_engine_notes(result, engine)


# --- Figure 6 --------------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Config:
    """Sizes and sweep for the Figure 6 reproduction."""

    n_records: int = 2000
    l: int = 5
    sizes: tuple[int, ...] = (1, 2, 3, 4)
    max_k: int = 800
    points: int = 6
    seed: int = 20080609
    config: MaxEntConfig = MaxEntConfig(raise_on_infeasible=False)

    @classmethod
    def paper_scale(cls) -> "Figure6Config":
        """All eight antecedent sizes at full Adult size."""
        return cls(
            n_records=14210, sizes=(1, 2, 3, 4, 5, 6, 7, 8), max_k=300_000,
            points=9,
        )


def figure6(config: Figure6Config | None = None) -> ExperimentResult:
    """Estimation Accuracy vs K for antecedents of exactly T attributes."""
    config = config or Figure6Config()
    if not config.sizes:
        raise ExperimentError("Figure 6 needs at least one antecedent size")
    result = ExperimentResult(
        name="Figure 6: number of QI attributes in knowledge",
        x_label="K",
        y_label="Estimation Accuracy (weighted KL, bits)",
        series={},
        notes=(
            f"{config.n_records} records; each series uses only rules whose "
            "antecedent has exactly T QI attributes, mixed (K/2)+/(K/2)- "
            "selection."
        ),
    )
    grid = k_grid(config.max_k, config.points)
    engine = PrivacyEngine.from_config(config.config)
    for size in config.sizes:
        workload = build_adult_workload(
            n_records=config.n_records,
            l=config.l,
            antecedent_sizes=(size,),
            max_antecedent=size,
            seed=config.seed,
        )
        model = ReleaseModel(workload.published)
        for k in grid:
            bound = TopKBound(k // 2, k - k // 2)
            accuracy, n_rows, stats = _accuracy_under_bound(
                model, workload, bound, config.config, engine
            )
            result.add(
                f"T={size}",
                x=k,
                y=accuracy,
                constraints=n_rows,
                iterations=stats.iterations,
            )
    return append_engine_notes(result, engine)


# --- Figure 7(a) ------------------------------------------------------------------


@dataclass(frozen=True)
class Figure7aConfig:
    """Sweep of the number of background-knowledge constraints."""

    n_records: int = 1500
    l: int = 5
    max_antecedent: int = 3
    constraint_counts: tuple[int, ...] = (10, 30, 100, 300, 1000, 3000)
    seed: int = 20080609
    # Performance figures measure the raw solve: no decomposition (the
    # paper's unoptimized setup) and no engine cache (timings must reflect
    # numeric work, not cache bookkeeping).
    config: MaxEntConfig = MaxEntConfig(
        decompose=False,
        use_closed_form=False,
        raise_on_infeasible=False,
        cache_size=0,
    )

    @classmethod
    def paper_scale(cls) -> "Figure7aConfig":
        """Up to 10^6 constraints over the full dataset, as in the paper."""
        return cls(
            n_records=14210,
            max_antecedent=4,
            constraint_counts=(100, 1000, 10_000, 100_000, 1_000_000),
        )


def figure7a(config: Figure7aConfig | None = None) -> ExperimentResult:
    """Running time and iterations vs number of knowledge constraints."""
    config = config or Figure7aConfig()
    workload = build_adult_workload(
        n_records=config.n_records,
        l=config.l,
        max_antecedent=config.max_antecedent,
        seed=config.seed,
    )
    result = ExperimentResult(
        name="Figure 7(a): performance vs knowledge size",
        x_label="background-knowledge constraints",
        y_label="seconds / iterations",
        series={},
        notes=(
            "Decomposition disabled (the paper measured the unoptimized "
            "solver). x is log-scaled in the paper; the table shows raw "
            "values."
        ),
    )
    engine = PrivacyEngine.from_config(config.config)
    model = ReleaseModel(workload.published)
    for count in config.constraint_counts:
        bound = TopKBound(count // 2, count - count // 2)
        _accuracy, n_rows, stats = _accuracy_under_bound(
            model, workload, bound, config.config, engine
        )
        result.add(
            "running time (s)", x=count, y=stats.seconds, constraints=n_rows
        )
        result.add(
            "iterations", x=count, y=float(stats.iterations), constraints=n_rows
        )
    return result


# --- Figures 7(b) and 7(c) ------------------------------------------------------------


@dataclass(frozen=True)
class Figure7bcConfig:
    """Sweep of the dataset size (number of buckets)."""

    l: int = 5
    bucket_counts: tuple[int, ...] = (50, 100, 200, 400)
    knowledge_sizes: tuple[int, ...] = (0, 10, 100, 1000)
    max_antecedent: int = 3
    seed: int = 20080609
    # The paper measured the fully unoptimized solver: no decomposition and
    # a numeric solve even without knowledge (otherwise the 0-constraint
    # series would be closed-form and take no time at all).  The engine
    # cache is off for the same reason.
    config: MaxEntConfig = MaxEntConfig(
        decompose=False,
        use_closed_form=False,
        raise_on_infeasible=False,
        cache_size=0,
    )

    @classmethod
    def paper_scale(cls) -> "Figure7bcConfig":
        """Up to the paper's 2,842 buckets and 10,000 constraints."""
        return cls(
            bucket_counts=(250, 500, 1000, 2000, 2842),
            knowledge_sizes=(0, 100, 1000, 10_000),
            max_antecedent=4,
        )


def figure7bc(
    config: Figure7bcConfig | None = None,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Running time (7b) and iterations (7c) vs number of buckets."""
    config = config or Figure7bcConfig()
    time_result = ExperimentResult(
        name="Figure 7(b): running time vs data size",
        x_label="buckets",
        y_label="seconds",
        series={},
        notes="Decomposition disabled; one series per knowledge size.",
    )
    iteration_result = ExperimentResult(
        name="Figure 7(c): iterations vs data size",
        x_label="buckets",
        y_label="iterations",
        series={},
        notes="Decomposition disabled; one series per knowledge size.",
    )
    engine = PrivacyEngine.from_config(config.config)
    for n_buckets in config.bucket_counts:
        workload = build_adult_workload(
            n_records=n_buckets * config.l,
            l=config.l,
            max_antecedent=config.max_antecedent,
            seed=config.seed,
        )
        model = ReleaseModel(workload.published)
        for size in config.knowledge_sizes:
            bound = TopKBound(size // 2, size - size // 2)
            _accuracy, n_rows, stats = _accuracy_under_bound(
                model, workload, bound, config.config, engine
            )
            label = f"#Constraints = {size}"
            time_result.add(label, x=n_buckets, y=stats.seconds, constraints=n_rows)
            iteration_result.add(
                label, x=n_buckets, y=float(stats.iterations), constraints=n_rows
            )
    return time_result, iteration_result


def scaled_config(base, **overrides):
    """Convenience for tests/benches: dataclasses.replace with keywords."""
    return replace(base, **overrides)
