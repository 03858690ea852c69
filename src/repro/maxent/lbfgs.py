"""L-BFGS dual solver — the paper's method of choice — with Newton polish.

Section 7: "we apply the method of Lagrange multipliers to convert the
constrained optimization problem to an unconstrained optimization problem,
which is then solved using LBFGS [Nocedal's package]".  We use scipy's
L-BFGS-B on the smooth convex dual assembled by :mod:`repro.maxent.dual`;
the box bounds double as the Kazama-Tsujii treatment of inequality
multipliers (``mu >= 0``), so vague knowledge needs no separate solver.

Large mined-knowledge systems contain thousands of nearly-collinear rows
(nested antecedents), on which limited-memory quasi-Newton stalls with a
small but stubborn residual.  When that happens on an equality-only system
we polish with Newton-CG using the cheap Hessian-vector product of the dual
— a handful of outer iterations typically drops the residual by two to
three orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.maxent.dual import DualProblem


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


def _package(
    dual: DualProblem,
    x: np.ndarray,
    iterations: int,
    tol: float,
    scale: float,
    message: str,
) -> DualSolveResult:
    p = dual.primal(x)
    eq_res, ineq_res = dual.residuals(p)
    return DualSolveResult(
        p=p,
        iterations=iterations,
        eq_residual=eq_res,
        ineq_residual=ineq_res,
        scale=scale,
        converged=max(eq_res, ineq_res) <= tol * scale,
        message=message,
        multipliers=np.asarray(x, dtype=float),
    )


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


def solve_dual_lbfgs(
    dual: DualProblem,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
) -> DualSolveResult:
    """Minimize the dual with L-BFGS-B, Newton-CG polishing if needed.

    ``tol`` is a *relative* residual target: convergence means the worst
    constraint violation is below ``tol * scale`` where ``scale`` is the
    magnitude of the right-hand sides.

    ``x0`` optionally warm-starts the multipliers (e.g. from a previous
    solve of a structurally identical system); the dual is convex, so the
    starting point affects the iteration count, never the optimum.  An
    ``x0`` of the wrong shape, or not finite, is ignored (see
    :func:`usable_start`).
    """
    from scipy.optimize import minimize

    scale = dual.residual_scale()
    gtol = max(tol * scale * 0.1, 1e-15)
    bounds = dual.bounds() if dual.n_inequalities else None
    x0 = usable_start(x0, dual.n_params)

    result = minimize(
        dual.value_and_grad,
        np.zeros(dual.n_params) if x0 is None else x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": max_iterations,
            "maxfun": max_iterations * 4,
            "gtol": gtol,
            # The dual is flat along redundant-row directions; a strict
            # ftol would otherwise stop early on large problems.
            "ftol": 1e-18,
        },
    )
    outcome = _package(
        dual, result.x, int(result.nit), tol, scale, str(result.message)
    )
    if outcome.converged:
        return outcome

    if dual.n_inequalities == 0:
        # Newton-CG polish from the L-BFGS point (unbounded problems only).
        polish = minimize(
            dual.value_and_grad,
            result.x,
            jac=True,
            hessp=dual.hess_vec,
            method="Newton-CG",
            options={"maxiter": max(50, max_iterations // 10), "xtol": 1e-14},
        )
        polished = _package(
            dual,
            polish.x,
            outcome.iterations + int(polish.nit),
            tol,
            scale,
            f"L-BFGS + Newton-CG polish: {polish.message}",
        )
        if polished.relative_residual <= outcome.relative_residual:
            outcome = polished
        if outcome.converged:
            return outcome

    # Last resort: a second L-BFGS leg with a larger budget, warm-started.
    retry = minimize(
        dual.value_and_grad,
        result.x,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": max_iterations * 3,
            "maxfun": max_iterations * 12,
            "gtol": gtol,
            "ftol": 1e-18,
        },
    )
    retried = _package(
        dual,
        retry.x,
        outcome.iterations + int(retry.nit),
        tol,
        scale,
        str(retry.message),
    )
    if retried.relative_residual <= outcome.relative_residual:
        return retried
    return outcome
