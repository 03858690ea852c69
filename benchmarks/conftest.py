"""Shared benchmark configuration.

Benchmarks default to scaled-down problem sizes (the paper used 14,210
records and a 2008 Pentium-M; we target a CI-friendly suite).  Set
``REPRO_BENCH_SCALE=paper`` to run the full-size sweeps — expect hours, as
the original evaluation took.

Each bench renders its table/plot to stdout *and* writes it under
``benchmarks/results/`` so the numbers survive pytest's output capture.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

PAPER_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper"


def save_result(name: str, rendered: str) -> None:
    """Print and persist one experiment's rendered output."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(rendered + "\n")
    print(f"\n{rendered}\n[saved to {path}]")
