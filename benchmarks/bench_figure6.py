"""Figure 6: effect of the number of QI attributes (T) in the knowledge.

Paper's finding: per-rule impact shrinks as T grows from 1 to 4 (smaller-T
rules have more support, so each one constrains more records), then swings
back as T approaches the full QI width (a size-8 antecedent pins down
P(SA | QI) for its tuple exactly).  The bench regenerates one accuracy-vs-K
series per T and reports the ordering at the largest common K.
"""

from __future__ import annotations

from benchmarks.conftest import PAPER_SCALE, save_result
from repro.experiments.figures import Figure6Config, figure6


def _config() -> Figure6Config:
    if PAPER_SCALE:
        return Figure6Config.paper_scale()
    return Figure6Config(
        n_records=1000, sizes=(1, 2, 3, 4), max_k=512, points=5
    )


def test_figure6():
    config = _config()
    result = figure6(config)
    save_result("figure6", result.render())

    for size in config.sizes:
        xs, ys = result.series_xy(f"T={size}")
        assert ys[-1] <= ys[0] + 1e-9, f"T={size}: knowledge must not hurt"

    # The paper's T=1-to-4 ordering holds at small/medium K, where per-rule
    # impact dominates: smaller T means larger support per rule, so the
    # same K digs deeper (lower accuracy value).
    _xs, t1 = result.series_xy("T=1")
    _xs, t4 = result.series_xy(f"T={max(config.sizes)}")
    assert t1[1] <= t4[1] + 0.05
