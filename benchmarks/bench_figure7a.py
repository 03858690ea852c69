"""Figure 7(a): solver performance vs number of knowledge constraints.

Paper's finding: both running time and L-BFGS iteration count grow slowly —
roughly log-linearly — in the number of background-knowledge constraints,
with fluctuations from search-path changes.  Decomposition is disabled, as
in the paper's measurements.
"""

from __future__ import annotations

from benchmarks.conftest import PAPER_SCALE, save_result
from repro.experiments.figures import Figure7aConfig, figure7a


def _config() -> Figure7aConfig:
    if PAPER_SCALE:
        return Figure7aConfig.paper_scale()
    return Figure7aConfig(
        n_records=1000,
        max_antecedent=2,
        constraint_counts=(10, 30, 100, 300, 1000),
    )


def test_figure7a():
    result = figure7a(_config())
    save_result("figure7a", result.render())

    xs, times = result.series_xy("running time (s)")
    _xs, iterations = result.series_xy("iterations")
    assert all(t >= 0 for t in times)
    assert all(i >= 0 for i in iterations)
    # Shape: iteration growth is far slower than linear in the constraint
    # count (the paper's log-linear trend).  Wall time is too noisy for a
    # hard ratio (retry/polish legs fire stochastically), so the assertion
    # rides on iterations.
    if iterations[0] > 0:
        assert iterations[-1] / iterations[0] < (xs[-1] / xs[0]) * 0.5
