"""Tests for the experiment harness, plots, workloads and figure drivers."""

import math

import pytest

from repro.errors import ExperimentError
from repro.experiments.ascii_plot import line_plot
from repro.experiments.figures import (
    Figure5Config,
    Figure6Config,
    Figure7aConfig,
    Figure7bcConfig,
    figure5,
    figure6,
    figure7a,
    figure7bc,
)
from repro.experiments.harness import ExperimentResult
from repro.experiments.workloads import build_adult_workload, k_grid
from repro.maxent.solver import MaxEntConfig

FAST_SOLVER = MaxEntConfig(raise_on_infeasible=False)
FAST_PERF_SOLVER = MaxEntConfig(decompose=False, raise_on_infeasible=False)


class TestHarness:
    def test_add_and_series_xy(self):
        result = ExperimentResult("t", "x", "y", {})
        result.add("a", 1, 2.0)
        result.add("a", 2, 3.0)
        xs, ys = result.series_xy("a")
        assert xs == [1, 2]
        assert ys == [2.0, 3.0]

    def test_missing_series(self):
        result = ExperimentResult("t", "x", "y", {})
        with pytest.raises(ExperimentError):
            result.series_xy("nope")

    def test_table_includes_all_series(self):
        result = ExperimentResult("fig", "K", "acc", {})
        result.add("a", 1, 0.5)
        result.add("b", 1, 0.6)
        text = result.to_table()
        assert "a" in text and "b" in text and "fig" in text

    def test_render_includes_plot_and_notes(self):
        result = ExperimentResult("fig", "K", "acc", {}, notes="hello note")
        result.add("a", 1, 0.5)
        result.add("a", 2, 0.25)
        text = result.render()
        assert "legend" in text
        assert "hello note" in text


class TestAsciiPlot:
    def test_markers_and_legend(self):
        text = line_plot(
            {"one": ([0, 1], [0.0, 1.0]), "two": ([0, 1], [1.0, 0.0])},
            title="T",
        )
        assert "o = one" in text
        assert "x = two" in text

    def test_empty_data(self):
        text = line_plot({"a": ([], [])})
        assert "no finite data" in text

    def test_non_finite_skipped(self):
        text = line_plot({"a": ([0, 1], [float("inf"), 1.0])})
        assert "1" in text

    def test_flat_series(self):
        text = line_plot({"a": ([0, 1, 2], [1.0, 1.0, 1.0])})
        assert "legend" in text


class TestWorkloads:
    def test_k_grid_shape(self):
        grid = k_grid(1600, points=7)
        assert grid[0] == 0
        assert grid[-1] == 1600
        assert grid == sorted(set(grid))

    def test_k_grid_zero(self):
        assert k_grid(0) == [0]

    def test_build_adult_workload(self):
        workload = build_adult_workload(n_records=300, max_antecedent=1)
        assert workload.published.n_buckets == 60
        assert workload.rules.n_positive > 0
        assert workload.truth.weights.sum() == pytest.approx(1.0)

    def test_antecedent_size_restriction(self):
        workload = build_adult_workload(
            n_records=300, antecedent_sizes=(2,), max_antecedent=2
        )
        assert all(r.size == 2 for r in workload.rules.positive)


class TestFigureDrivers:
    """Tiny configurations: shape checks, not paper-scale numbers."""

    def test_figure5_shape_and_monotonicity(self):
        config = Figure5Config(
            n_records=250, max_antecedent=1, max_k=40, points=3,
            config=FAST_SOLVER,
        )
        result = figure5(config)
        assert set(result.series) == {"K+", "K-", "(K+, K-)"}
        for name in result.series:
            xs, ys = result.series_xy(name)
            assert xs[0] == 0
            assert all(math.isfinite(y) for y in ys)
            # Headline shape: accuracy at max K below accuracy at K = 0.
            assert ys[-1] <= ys[0] + 1e-9

    def test_figure6_series_per_size(self):
        config = Figure6Config(
            n_records=250, sizes=(1, 2), max_k=20, points=2,
            config=FAST_SOLVER,
        )
        result = figure6(config)
        assert set(result.series) == {"T=1", "T=2"}

    def test_figure6_rejects_empty_sizes(self):
        with pytest.raises(ExperimentError):
            figure6(Figure6Config(sizes=()))

    def test_figure7a_two_series(self):
        config = Figure7aConfig(
            n_records=250,
            max_antecedent=1,
            constraint_counts=(5, 20),
            config=FAST_PERF_SOLVER,
        )
        result = figure7a(config)
        assert set(result.series) == {"running time (s)", "iterations"}
        xs, ys = result.series_xy("running time (s)")
        assert xs == [5, 20]
        assert all(y >= 0 for y in ys)

    def test_figure7bc_series_per_knowledge_size(self):
        config = Figure7bcConfig(
            bucket_counts=(20, 40),
            knowledge_sizes=(0, 5),
            max_antecedent=1,
            config=FAST_PERF_SOLVER,
        )
        time_result, iteration_result = figure7bc(config)
        assert set(time_result.series) == {
            "#Constraints = 0",
            "#Constraints = 5",
        }
        xs, _ys = iteration_result.series_xy("#Constraints = 0")
        assert xs == [20, 40]
        # Without knowledge and without decomposition the solver still runs
        # (decompose=False forbids the closed-form shortcut per component
        # only when knowledge exists; iterations may be zero) — just check
        # the series exist and are non-negative.
        for name in iteration_result.series:
            _xs, ys = iteration_result.series_xy(name)
            assert all(y >= 0 for y in ys)
