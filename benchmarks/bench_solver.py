"""Batched dual solver: stacked block-diagonal solves vs per-component.

The Section 5.5 decomposition turns worst-case background knowledge
(one distinct statement per bucket — Martin et al.'s adversarial shape)
into thousands of *tiny* independent dual programs, where one
``scipy.optimize.minimize`` dispatch per component dominates the cold
solve.  The batched path (`repro/maxent/batch_dual.py`,
``MaxEntConfig(batch_components=...)``) stacks them into block-diagonal
duals and runs one vectorized loop per batch group.  This bench runs
the many-small-component synthetic workloads (shared
`repro.experiments.workloads` helpers) both ways and measures:

- *cold batched vs cold per-component* — the headline; the largest
  workload must hold the ``SPEEDUP_FLOOR``,
- *default config* — batching is on by default since the v3 contract,
  so a knob-free ``MaxEntConfig()`` must hold the same floor: the
  speedup ships, it is not opt-in,
- *equivalence* — batched posteriors must agree with per-component
  posteriors within solver tolerance on every workload, with both
  engines recording identical per-component cache fingerprints,
- *warm repeat* — a second batched solve must replay entirely from the
  solve cache (batching must not disturb cache semantics).

The floor assumes one BLAS thread.  Unpinned, OpenBLAS threads fight
over the stacked solve's small matvecs and the floor can fail on a
2-vCPU host; that failure is the regression case for pinning the BLAS
pool inside the program, so the floor is not to be relaxed for it.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import PAPER_SCALE, save_result
from repro.engine import PrivacyEngine
from repro.experiments.workloads import (
    build_synthetic_release,
    per_bucket_statements,
)
from repro.knowledge.compiler import compile_statements
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace
from repro.utils.tabulate import render_table
from repro.utils.timer import Timer

#: Minimum cold-solve speedup (largest workload) the batched path must
#: hold over per-component dispatch.  Measured ~4.4x on the container
#: this floor was set on.
SPEEDUP_FLOOR = 3.0

#: Agreement bar between the two paths: the batched trajectory lands on
#: a different last-ulps point of the same optimum, so posteriors agree
#: to a small multiple of the solver tolerance (1e-6), not bit-for-bit.
EQUIVALENCE_ATOL = 1e-4

#: Wide QI domains keep bucket components decoupled (a shared QI tuple
#: merges buckets into one large component); small l and few SA values
#: keep each component tiny — the per-dispatch-overhead-bound regime
#: this solver exists for.
QI_DOMAINS = (60, 50, 40, 30)
N_SA_VALUES = 6
L = 5


def _workloads() -> dict[str, int]:
    if PAPER_SCALE:
        return {"small": 4000, "medium": 8000, "large": 14000}
    return {"small": 1500, "medium": 3000, "large": 6000}


def _build(n_records: int):
    published = build_synthetic_release(
        n_records, qi_domain_sizes=QI_DOMAINS, n_sa_values=N_SA_VALUES, l=L
    )
    space = GroupVariableSpace(published)
    system = ConstraintSystem(space.n_vars)
    system.extend(data_constraints(space))
    system.extend(compile_statements(per_bucket_statements(published), space))
    return space, system


def test_batched_solver_scaling():
    plain = MaxEntConfig(raise_on_infeasible=False, batch_components=0)
    batched = MaxEntConfig(
        raise_on_infeasible=False, batch_components=4096, batch_max_vars=256
    )

    rows = []
    for name, n_records in _workloads().items():
        space, system = _build(n_records)

        with PrivacyEngine(cache_size=0) as per_component_engine:
            with Timer() as t:
                baseline = per_component_engine.solve(space, system, plain)
        per_component_seconds = t.seconds

        cache_size = 4 * baseline.stats.n_components
        batch_engine = PrivacyEngine(cache_size=cache_size)
        with Timer() as t:
            stacked = batch_engine.solve(space, system, batched)
        batched_seconds = t.seconds

        # The knob-free default: batching is on out of the box
        # (v3 contract), so MaxEntConfig() itself must batch and
        # hold the floor — the speedup ships, it is not opt-in.
        default = MaxEntConfig(raise_on_infeasible=False)
        with PrivacyEngine(cache_size=0) as default_engine:
            with Timer() as t:
                shipped = default_engine.solve(space, system, default)
        default_seconds = t.seconds
        assert shipped.stats.converged
        assert shipped.stats.batched_components > 0
        assert np.abs(shipped.p - baseline.p).max() <= EQUIVALENCE_ATOL

        # Correctness-equivalence is the precondition for any
        # speedup number.
        assert baseline.stats.converged
        assert stacked.stats.converged
        assert np.abs(stacked.p - baseline.p).max() <= EQUIVALENCE_ATOL
        assert stacked.stats.batched_components > 0

        # Cache semantics survive batching: the per-component
        # fingerprints recorded by the batched engine are exactly
        # the ones a per-component engine would record, and a warm
        # repeat replays from them without further batch work.
        check_engine = PrivacyEngine(cache_size=cache_size)
        check_engine.solve(space, system, plain)
        assert {key for key, _ in batch_engine.cache.items()} == {
            key for key, _ in check_engine.cache.items()
        }
        check_engine.close()
        with Timer() as t:
            warm = batch_engine.solve(space, system, batched)
        warm_seconds = t.seconds
        assert warm.stats.cache_hits > 0
        assert warm.stats.batched_components == 0
        batch_engine.close()

        speedup = (
            per_component_seconds / batched_seconds
            if batched_seconds > 0
            else float("inf")
        )
        default_speedup = (
            per_component_seconds / default_seconds
            if default_seconds > 0
            else float("inf")
        )
        rows.append(
            [
                name,
                space.published.n_buckets,
                baseline.stats.n_components,
                stacked.stats.batched_components,
                per_component_seconds,
                batched_seconds,
                default_seconds,
                warm_seconds,
                speedup,
                default_speedup,
            ]
        )

    columns = [
        "workload",
        "buckets",
        "components",
        "batched",
        "per-component (s)",
        "batched (s)",
        "default config (s)",
        "warm repeat (s)",
        "speedup",
        "default speedup",
    ]
    table = render_table(
        columns,
        rows,
        title="Batched block-diagonal dual vs per-component dispatch",
    )
    save_result("solver_batching", table)

    largest = rows[-1]
    assert largest[0] == "large"
    assert largest[8] >= SPEEDUP_FLOOR, (
        f"batched cold-solve speedup {largest[8]:.2f}x on the largest "
        f"workload fell below the {SPEEDUP_FLOOR:.1f}x floor"
    )
    assert largest[9] >= SPEEDUP_FLOOR, (
        f"knob-free default-config speedup {largest[9]:.2f}x on the "
        f"largest workload fell below the {SPEEDUP_FLOOR:.1f}x floor — "
        "the default-on batching contract is not delivering"
    )
