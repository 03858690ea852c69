"""Tests for experiment configurations, incl. the paper-scale factories."""

import pytest

from repro.experiments.figures import (
    Figure5Config,
    Figure6Config,
    Figure7aConfig,
    Figure7bcConfig,
    scaled_config,
)


class TestPaperScaleFactories:
    def test_figure5_full_size(self):
        config = Figure5Config.paper_scale()
        assert config.n_records == 14210
        assert config.max_k == 150_000

    def test_figure6_all_sizes(self):
        config = Figure6Config.paper_scale()
        assert config.sizes == (1, 2, 3, 4, 5, 6, 7, 8)
        assert config.n_records == 14210

    def test_figure7a_constraint_decades(self):
        config = Figure7aConfig.paper_scale()
        assert max(config.constraint_counts) == 1_000_000

    def test_figure7bc_paper_buckets(self):
        config = Figure7bcConfig.paper_scale()
        assert 2842 in config.bucket_counts
        assert 10_000 in config.knowledge_sizes

    def test_perf_configs_disable_decomposition(self):
        # Section 7: "we have not applied the optimization techniques".
        assert Figure7aConfig().config.decompose is False
        assert Figure7bcConfig().config.decompose is False
        # And force numeric solving so the 0-knowledge series costs time.
        assert Figure7bcConfig().config.use_closed_form is False

    def test_accuracy_configs_keep_decomposition(self):
        # Figures 5/6 report accuracy, not time; decomposition changes
        # nothing about the solution and keeps the sweep fast.
        assert Figure5Config().config.decompose is True
        assert Figure6Config().config.decompose is True


class TestScaledConfig:
    def test_replaces_fields(self):
        config = scaled_config(Figure5Config(), n_records=123, max_k=7)
        assert config.n_records == 123
        assert config.max_k == 7
        assert config.l == Figure5Config().l

    def test_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            scaled_config(Figure5Config(), banana=1)
