"""L-BFGS dual solver — the paper's method of choice — with Newton polish.

Section 7: "we apply the method of Lagrange multipliers to convert the
constrained optimization problem to an unconstrained optimization problem,
which is then solved using LBFGS [Nocedal's package]".  We use scipy's
L-BFGS-B on the smooth convex dual evaluated by
:class:`~repro.maxent.dual.StackedDual`; the box bounds double as the
Kazama-Tsujii treatment of inequality multipliers (``mu >= 0``), so
vague knowledge needs no separate solver.

Large mined-knowledge systems contain thousands of nearly-collinear rows
(nested antecedents), on which limited-memory quasi-Newton stalls with a
small but stubborn residual.  When that happens on an equality-only system
we polish with Newton-CG using the cheap Hessian-vector product of the dual
— a handful of outer iterations typically drops the residual by two to
three orders of magnitude.

:func:`solve_dual_lbfgs` runs that ladder (L-BFGS, the Newton-CG polish,
then a longer warm-started L-BFGS leg) on one dual, a one-block
:class:`~repro.maxent.dual.DualStack`.  The batched loop of
:mod:`repro.maxent.batch_dual` runs the same legs (:func:`lbfgs_leg`,
:func:`newton_polish`) on many blocks at once, and both read their
results with :func:`dual_results`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxent.dual import DualStack, StackedDual


@dataclass
class DualSolveResult:
    """Raw outcome of one dual optimization."""

    p: np.ndarray
    iterations: int
    eq_residual: float
    ineq_residual: float
    scale: float
    converged: bool
    message: str
    #: Final dual multipliers (quasi-Newton solvers only) — the engine
    #: stores these to warm-start structurally identical systems.
    multipliers: np.ndarray | None = None

    @property
    def relative_residual(self) -> float:
        """Worst violation relative to the natural rhs magnitude."""
        return max(self.eq_residual, self.ineq_residual) / self.scale


def usable_start(x0: np.ndarray | None, n_params: int) -> np.ndarray | None:
    """``x0`` as a float vector if it can start a dual of ``n_params``.

    Warm starts are keyed on a component's structure before presolve, but
    presolve's eliminations depend on right-hand sides, so a stored
    vector may not fit this system's reduced dual.  Such a vector (wrong
    shape, or not finite) gives ``None``: a cold start is always correct.
    """
    if x0 is None:
        return None
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n_params,) or not np.all(np.isfinite(x0)):
        return None
    return x0


def gradient_tolerance(dual: StackedDual, tol: float) -> float:
    """L-BFGS-B's projected-gradient stop for relative residual ``tol``.

    It must serve the dual's strictest block, hence the smallest scale.
    """
    return max(tol * float(dual.scales.min()) * 0.1, 1e-15)


def lbfgs_leg(
    dual: StackedDual,
    x0: np.ndarray,
    *,
    max_iterations: int,
    gtol: float,
    budget: int = 1,
):
    """One L-BFGS-B leg from ``x0``, ``budget`` times the iteration budget."""
    from scipy.optimize import minimize

    return minimize(
        dual.value_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=dual.bounds,
        options={
            "maxiter": max_iterations * budget,
            "maxfun": max_iterations * 4 * budget,
            "gtol": gtol,
            # The dual is flat along redundant-row directions; a strict
            # ftol would otherwise stop early on large problems.
            "ftol": 1e-18,
        },
    )


def newton_polish(dual: StackedDual, x0: np.ndarray, *, max_iterations: int):
    """A Newton-CG polish from ``x0`` (equality-only duals: no box)."""
    from scipy.optimize import minimize

    return minimize(
        dual.value_and_grad,
        x0,
        jac=True,
        hessp=dual.hess_vec,
        method="Newton-CG",
        options={"maxiter": max(50, max_iterations // 10), "xtol": 1e-14},
    )


def dual_results(
    dual: StackedDual,
    x: np.ndarray,
    iterations: list[int],
    tol: float,
    message: str,
) -> list[DualSolveResult]:
    """Every block's outcome at the stacked multipliers ``x``.

    ``iterations`` holds one count per block.  Each ``p`` is a view into
    one stacked primal point; each block's multipliers are its own copy.
    """
    p = dual.primal(x)
    eq, ineq = dual.block_residuals(p)
    converged = np.maximum(eq, ineq) <= tol * dual.scales
    var_bounds = dual.var_indptr.tolist()
    row_bounds = dual.row_indptr.tolist()
    return [
        DualSolveResult(
            p=p[var_bounds[k] : var_bounds[k + 1]],
            iterations=spent,
            eq_residual=eq_k,
            ineq_residual=ineq_k,
            scale=scale,
            converged=ok,
            message=message,
            multipliers=x[row_bounds[k] : row_bounds[k + 1]].copy(),
        )
        for k, (spent, eq_k, ineq_k, scale, ok) in enumerate(
            zip(
                iterations,
                eq.tolist(),
                ineq.tolist(),
                dual.scales.tolist(),
                converged.tolist(),
            )
        )
    ]


def solve_dual_lbfgs(
    stack: DualStack,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
) -> DualSolveResult:
    """Minimize a one-block dual with L-BFGS-B, Newton-CG polishing if needed.

    ``tol`` is a *relative* residual target: convergence means the worst
    constraint violation is below ``tol * scale`` where ``scale`` is the
    magnitude of the right-hand sides.

    ``x0`` optionally warm-starts the multipliers (e.g. from a previous
    solve of a structurally identical system); the dual is convex, so the
    starting point affects the iteration count, never the optimum.  An
    ``x0`` of the wrong shape, or not finite, is ignored (see
    :func:`usable_start`).
    """
    if stack.n_blocks != 1:
        raise ValueError(f"expected one dual, got a stack of {stack.n_blocks}")
    dual = StackedDual(stack)
    gtol = gradient_tolerance(dual, tol)
    x0 = usable_start(x0, dual.n_params)

    result = lbfgs_leg(
        dual,
        np.zeros(dual.n_params) if x0 is None else x0,
        max_iterations=max_iterations,
        gtol=gtol,
    )
    (outcome,) = dual_results(
        dual, result.x, [int(result.nit)], tol, str(result.message)
    )
    if outcome.converged:
        return outcome

    if dual.n_inequalities == 0:
        # Newton-CG polish from the L-BFGS point (unbounded problems only).
        polish = newton_polish(dual, result.x, max_iterations=max_iterations)
        (polished,) = dual_results(
            dual,
            polish.x,
            [outcome.iterations + int(polish.nit)],
            tol,
            f"L-BFGS + Newton-CG polish: {polish.message}",
        )
        if polished.relative_residual <= outcome.relative_residual:
            outcome = polished
        if outcome.converged:
            return outcome

    # Last resort: a second L-BFGS leg with a larger budget, warm-started.
    retry = lbfgs_leg(
        dual, result.x, max_iterations=max_iterations, gtol=gtol, budget=3
    )
    (retried,) = dual_results(
        dual,
        retry.x,
        [outcome.iterations + int(retry.nit)],
        tol,
        str(retry.message),
    )
    if retried.relative_residual <= outcome.relative_residual:
        return retried
    return outcome
