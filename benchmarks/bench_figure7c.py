"""Figure 7(c): iteration count vs data size (number of buckets).

Paper's finding: the number of L-BFGS iterations stays roughly constant as
the dataset grows — each iteration gets more expensive (hence 7(b)'s linear
time), but the search path length is governed by the knowledge, not the
data size.
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


def test_figure7c():
    _time_result, iteration_result = figure7bc(_config())
    save_result("figure7c", iteration_result.render())

    # Shape: iterations grow dramatically slower than data size.  Compare
    # the largest-vs-smallest bucket count per knowledge series.
    for name in iteration_result.series:
        xs, ys = iteration_result.series_xy(name)
        if ys[0] > 0:
            iteration_growth = ys[-1] / ys[0]
            data_growth = xs[-1] / xs[0]
            assert iteration_growth < data_growth, (
                f"{name}: iterations should stay near-constant, got "
                f"{iteration_growth:.1f}x over a {data_growth:.0f}x data sweep"
            )
