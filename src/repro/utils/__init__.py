"""Small shared utilities: probability math, text tables, timers, seeding."""

from repro.utils.probability import (
    entropy,
    kl_divergence,
    normalize,
    safe_log,
    total_variation,
)
from repro.utils.tabulate import render_table
from repro.utils.timer import Timer

__all__ = [
    "Timer",
    "entropy",
    "kl_divergence",
    "normalize",
    "render_table",
    "safe_log",
    "total_variation",
]
