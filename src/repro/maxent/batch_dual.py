"""Batched block-diagonal dual solver: one vectorized loop, many blocks.

Section 5.5's decomposition makes Privacy-MaxEnt tractable but leaves
the hot path as thousands of *tiny* independent dual programs, each
paying a full ``scipy.optimize.minimize`` dispatch (argument packing,
Fortran setup, one Python callback per iteration).  For worst-case
background knowledge — one distinct statement per bucket, the Martin et
al. adversarial sweeps — that per-component overhead dominates the cold
solve the way row-wise construction dominated the build before the
array-native rewrite.

The cure is the same as it was for construction: stop iterating in
Python.  Independent duals stack into one *block-diagonal* dual

    minimize  sum_k [ M_k * logsumexp(theta_k) + x_k . rhs_k ],
    theta_k = -(R_k^T x_k),

held as one :class:`~repro.maxent.dual.DualStack` of flat CSR arrays
plus block offsets (the engine builds it straight from a work unit's
stacked presolve; no per-block objects) and evaluated by the one dual
class, :class:`~repro.maxent.dual.StackedDual`: every L-BFGS iteration
evaluates all blocks with two sparse matvecs plus segment-wise
logsumexp/softmax (``np.ufunc.reduceat`` over the block offsets).  One
optimizer call replaces N.

Because the objective is separable, the joint optimum *is* the tuple of
per-block optima; only the iteration trajectory couples blocks (L-BFGS
curvature pairs and the line search are shared).  The loop therefore
runs in *rounds* with per-component convergence masking: after each
L-BFGS leg (and a stacked Newton-CG polish when the active blocks are
equality-only), every block's residual is checked against its own
tolerance, converged blocks freeze — their multipliers are final, they
leave the stacked problem — and only stragglers iterate on.  Blocks
still unconverged after the round budget fall back to their own
:func:`~repro.maxent.lbfgs.solve_dual_lbfgs` call, so the batched path
is never less robust than per-component dispatch.  The loop and that
ladder run the same legs (:func:`~repro.maxent.lbfgs.lbfgs_leg`,
:func:`~repro.maxent.lbfgs.newton_polish`).

Every engine work unit calls :func:`solve_batch_dual`.  A stack of one
block (a lone component, or a group presolve left one dual of) skips
the round loop and runs :func:`~repro.maxent.lbfgs.solve_dual_lbfgs`
directly, so it replays bit for bit on a cache-free engine.  A stack of
several agrees with per-component solves within the solver tolerance,
not bit for bit: the stacked trajectory lands on a different
last-few-ulps point of the same optimum.  That tolerance is the one
reproducibility contract of every solve; ``batch_components=0`` makes
every unit a lone component.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.maxent.dual import DualStack, StackedDual
from repro.maxent.lbfgs import (
    DualSolveResult,
    dual_results,
    gradient_tolerance,
    lbfgs_leg,
    newton_polish,
    solve_dual_lbfgs,
    usable_start,
)

__all__ = [
    "MAX_ROUNDS",
    "BatchDualResult",
    "solve_batch_dual",
]

#: L-BFGS legs (each with the full per-component iteration budget) the
#: round loop runs before stragglers fall back to per-component solves.
MAX_ROUNDS = 3


@dataclass
class BatchDualResult:
    """Outcome of one batched solve, per block in input order."""

    results: list[DualSolveResult]
    #: L-BFGS rounds the stacked loop ran.
    rounds: int
    #: Blocks whose final multipliers came from the vectorized loop.
    batched: list[bool]
    #: Every block's primal point, stacked like the input's columns.
    p: np.ndarray
    #: Blocks the round loop left unconverged, re-solved on their own.
    solo_fallbacks: int = 0


def solve_batch_dual(
    stack: DualStack,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0s: Sequence[np.ndarray | None] | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> BatchDualResult:
    """Solve many independent duals as one block-diagonal program.

    ``stack`` holds one block per dual.  ``tol`` and ``max_iterations``
    mean exactly what they mean for
    :func:`~repro.maxent.lbfgs.solve_dual_lbfgs`: per-block
    relative residual target, and the L-BFGS iteration budget of one leg.
    Each round spends one leg on the still-active blocks; blocks
    converged at a round boundary freeze with their multipliers final.
    ``x0s`` optionally warm-starts individual blocks (``None`` entries
    start at zero; shape-mismatched vectors are ignored, a cold start is
    always correct).

    Blocks still unconverged after ``max_rounds`` legs (plus the
    Newton-CG polish available to equality-only actives) are re-solved
    individually — the fallback keeps worst-case robustness identical to
    per-component dispatch, and such blocks are reported with
    ``batched = False``.  A stack of one block has nothing to batch: it
    goes straight to :func:`~repro.maxent.lbfgs.solve_dual_lbfgs`, with
    no round and no fallback.
    """
    n = stack.n_blocks
    if n == 1:
        alone = solve_dual_lbfgs(
            stack,
            tol=tol,
            max_iterations=max_iterations,
            x0=x0s[0] if x0s else None,
        )
        return BatchDualResult(
            results=[alone], rounds=0, batched=[False], p=alone.p
        )
    row_counts = stack.row_counts
    var_counts = stack.var_counts
    x_all = np.zeros(int(stack.row_indptr[-1]))
    for k, candidate in enumerate(x0s or ()):
        candidate = usable_start(candidate, int(row_counts[k]))
        if candidate is not None:
            x_all[stack.row_indptr[k] : stack.row_indptr[k + 1]] = candidate

    iterations = np.zeros(n, dtype=np.int64)
    # Zero-row blocks (presolve can reduce a component to free variables
    # only, making the uniform point exact) have nothing to optimize.
    active = row_counts > 0

    rounds = 0
    while np.count_nonzero(active) and rounds < max_rounds:
        rounds += 1
        stacked = StackedDual(stack.select(active))
        rows = np.repeat(active, row_counts)
        x = x_all[rows]
        if rounds == 1:
            # Blocks already at their optimum (converged warm starts)
            # freeze before any optimizer work.
            mask = stacked.converged_mask(stacked.primal(x), tol)
            if bool(mask.any()):
                active[active] = ~mask
                if not np.count_nonzero(active):
                    break
                stacked = StackedDual(stack.select(active))
                rows = np.repeat(active, row_counts)
                x = x_all[rows]
        result = lbfgs_leg(
            stacked,
            x,
            max_iterations=max_iterations,
            gtol=gradient_tolerance(stacked, tol),
        )
        x = result.x
        iterations[active] += int(result.nit)

        if stacked.n_inequalities == 0:
            mask = stacked.converged_mask(stacked.primal(x), tol)
            if not bool(mask.all()):
                # Stacked Newton-CG polish, exactly like the
                # per-component path: the block-diagonal Hessian-vector
                # product is two sparse matvecs plus one reduceat.
                polish = newton_polish(
                    stacked, x, max_iterations=max_iterations
                )
                # Keep the polish per block only where it did not hurt.
                eq0, ineq0 = stacked.block_residuals(stacked.primal(x))
                eq1, ineq1 = stacked.block_residuals(
                    stacked.primal(polish.x)
                )
                better = np.maximum(eq1, ineq1) <= np.maximum(eq0, ineq0)
                keep = np.repeat(better, stacked.row_counts)
                x = np.where(keep, polish.x, x)
                iterations[active] += int(polish.nit)

        x_all[rows] = x
        mask = stacked.converged_mask(stacked.primal(x), tol)
        active[active] = ~mask

    # Stragglers: per-component fallback from the best stacked point.
    batched = ~active
    p_all = np.zeros(int(stack.var_indptr[-1]))
    results: list[DualSolveResult | None] = [None] * n
    for k in np.flatnonzero(active).tolist():
        one = stack.select(np.arange(n) == k)
        solo = solve_dual_lbfgs(
            one,
            tol=tol,
            max_iterations=max_iterations,
            x0=x_all[stack.row_indptr[k] : stack.row_indptr[k + 1]],
        )
        if not solo.converged:
            # The stacked trajectory can strand a block at an absurd
            # point (the joint line search mixes coordinates across
            # blocks, so a near-degenerate neighbor can fling a feasible
            # block's multipliers far out).  A cold solve is exactly
            # what per-component dispatch would have run — the batched
            # path must never do worse than that.
            cold = solve_dual_lbfgs(one, tol=tol, max_iterations=max_iterations)
            if cold.relative_residual <= solo.relative_residual:
                solo = cold
        solo.iterations += int(iterations[k])
        p_all[stack.var_indptr[k] : stack.var_indptr[k + 1]] = solo.p
        results[k] = solo

    # Read every batched block's outcome from one final stacked
    # evaluation.
    if np.count_nonzero(batched):
        stacked = StackedDual(stack.select(batched))
        x = x_all[np.repeat(batched, row_counts)]
        finished = dual_results(
            stacked, x, iterations[batched].tolist(), tol, "batched L-BFGS-B"
        )
        for k, outcome in zip(np.flatnonzero(batched).tolist(), finished):
            results[k] = outcome
        p_all[np.repeat(batched, var_counts)] = np.concatenate(
            [outcome.p for outcome in finished]
        )
    assert all(result is not None for result in results)
    return BatchDualResult(
        results=results,  # type: ignore[arg-type]
        rounds=rounds,
        batched=batched.tolist(),
        p=p_all,
        solo_fallbacks=int(np.count_nonzero(active)),
    )
