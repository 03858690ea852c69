"""Figure 5: Estimation Accuracy vs amount of background knowledge.

Paper's finding: all three curves (K+ positive-only, K- negative-only,
mixed (K+, K-)) decay as K grows — fast at first, then flattening as the
selected rules become redundant; the mixed curve drops fastest.  The bench
regenerates the three series and asserts the decay shape.
"""

from __future__ import annotations

from benchmarks.conftest import PAPER_SCALE, save_result
from repro.experiments.figures import Figure5Config, figure5


def _config() -> Figure5Config:
    if PAPER_SCALE:
        return Figure5Config.paper_scale()
    return Figure5Config(n_records=1200, max_antecedent=2, max_k=1024, points=6)


def test_figure5():
    result = figure5(_config())
    save_result("figure5", result.render())

    # Shape assertions (who wins, qualitatively), not absolute numbers.
    for name in ("K+", "K-", "(K+, K-)"):
        _xs, ys = result.series_xy(name)
        assert ys[-1] < ys[0], f"{name}: accuracy must decay with K"
    _xs, mixed = result.series_xy("(K+, K-)")
    _xs, negative = result.series_xy("K-")
    # The mixed bound is at least as informative as negative-only (the
    # paper's ordering at large K).
    assert mixed[-1] <= negative[-1] + 1e-9
