"""Direct primal solver (scipy trust-constr) for cross-validation.

Small problems can be solved straight in the primal: minimize the negative
entropy over the simplex slice cut out by the linear constraints.  This is
far slower than the dual solvers but makes no exponential-family ansatz, so
tests use it as an independent oracle — if lbfgs/GIS/IIS and trust-constr
agree, both the theory (the exponential form is optimal) and the
implementations are corroborated.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import Bounds, LinearConstraint, minimize

from repro.errors import NotSupportedError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.lbfgs import DualSolveResult

#: Primal solving scales poorly; refuse sizes where it would hang.
_MAX_PRIMAL_VARS = 4000


def _independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent row subset.

    Theorem 3 guarantees one dependent data row per bucket; trust-constr's
    SQP machinery stalls at suboptimal points on rank-deficient Jacobians,
    so the oracle works on a full-rank row basis (dropped rows are implied
    and re-checked in the final residual).
    """
    if matrix.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    _q, r, pivots = scipy.linalg.qr(matrix.T, mode="economic", pivoting=True)
    diagonal = np.abs(np.diag(r))
    threshold = max(matrix.shape) * np.finfo(float).eps * (
        diagonal.max() if diagonal.size else 0.0
    )
    rank = int((diagonal > threshold).sum())
    return np.sort(pivots[:rank])


def solve_primal(
    system: ConstraintSystem,
    mass: float,
    *,
    tol: float = 1e-6,
    max_iterations: int = 2000,
) -> DualSolveResult:
    """Solve the constrained program directly in the primal variables."""
    n_vars = system.n_vars
    if n_vars > _MAX_PRIMAL_VARS:
        raise NotSupportedError(
            f"the primal solver is a cross-validation oracle for small "
            f"problems (<= {_MAX_PRIMAL_VARS} variables); this one has "
            f"{n_vars}. Use the lbfgs solver."
        )

    a_matrix, c = system.equality_matrix()
    g_matrix, d = system.inequality_matrix()

    def objective(p: np.ndarray) -> tuple[float, np.ndarray]:
        safe = np.maximum(p, 1e-300)
        value = float((safe * np.log(safe)).sum())
        grad = np.log(safe) + 1.0
        return value, grad

    constraints = []
    if c.size:
        dense = a_matrix.toarray()
        basis = _independent_rows(dense)
        constraints.append(LinearConstraint(dense[basis], c[basis], c[basis]))
    if d.size:
        constraints.append(
            LinearConstraint(g_matrix.toarray(), -np.inf * np.ones(d.size), d)
        )

    x0 = np.full(n_vars, mass / n_vars)
    result = minimize(
        objective,
        x0,
        jac=True,
        method="trust-constr",
        bounds=Bounds(np.zeros(n_vars), np.full(n_vars, mass)),
        constraints=constraints,
        options={"maxiter": max_iterations, "gtol": 1e-12, "xtol": 1e-14},
    )

    p = np.clip(result.x, 0.0, None)
    scale = float(max(np.abs(c).max() if c.size else 0.0, mass / max(n_vars, 1), 1e-12))
    eq_res = float(np.abs(a_matrix @ p - c).max()) if c.size else 0.0
    ineq_res = (
        float(np.clip(g_matrix @ p - d, 0.0, None).max()) if d.size else 0.0
    )
    converged = max(eq_res, ineq_res) <= max(tol, 1e-6) * scale
    return DualSolveResult(
        p=p,
        iterations=int(result.niter),
        eq_residual=eq_res,
        ineq_residual=ineq_res,
        scale=scale,
        converged=converged,
        message=str(result.message),
    )
