"""Newton-CG dual solver: truncated-Newton on the MaxEnt dual.

The dual's Hessian-vector product costs two sparse matvecs
(:meth:`repro.maxent.dual.DualProblem.hess_vec`), so each truncated-Newton
step is cheap.  As a solver from a cold start it is not competitive: on
the Top-(K+, K-) assessment duals of the Adult table (seeds 1-8, every
bound, 33 equality systems of up to 1,347 multipliers) it missed ``tol``
on all 33 and took 5.7x the L-BFGS time.  Its one use in the engine is
as a short polish *after* L-BFGS has stalled near the optimum
(:func:`repro.maxent.lbfgs.solve_dual_lbfgs`, and the stacked polish of
:mod:`repro.maxent.batch_dual`), where a few steps can tighten a stubborn
residual.  Kept as a standalone function that the tests call as a
reference solver (``tests/test_maxent_solvers.py``); the engine does not
call it.

Limitation: scipy's Newton-CG has no box-bound support, so inequality
(vague) knowledge must go through :func:`repro.maxent.lbfgs.solve_dual_lbfgs`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.errors import NotSupportedError
from repro.maxent.dual import DualProblem
from repro.maxent.lbfgs import DualSolveResult


def solve_dual_newton(
    dual: DualProblem,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
) -> DualSolveResult:
    """Minimize the dual with Newton-CG (equality systems only).

    ``x0`` optionally warm-starts the multipliers; the dual is convex, so
    it affects iteration count only.
    """
    if dual.n_inequalities:
        raise NotSupportedError(
            "the newton solver handles equality constraints only; use "
            "the lbfgs solver for inequality (vague) knowledge"
        )
    scale = dual.residual_scale()
    result = minimize(
        dual.value_and_grad,
        np.zeros(dual.n_params) if x0 is None else np.asarray(x0, dtype=float),
        jac=True,
        hessp=dual.hess_vec,
        method="Newton-CG",
        options={"maxiter": max_iterations, "xtol": 1e-14},
    )
    p = dual.primal(result.x)
    eq_res, ineq_res = dual.residuals(p)
    return DualSolveResult(
        p=p,
        iterations=int(result.nit),
        eq_residual=eq_res,
        ineq_residual=ineq_res,
        scale=scale,
        converged=max(eq_res, ineq_res) <= tol * scale,
        message=str(result.message),
        multipliers=np.asarray(result.x, dtype=float),
    )
