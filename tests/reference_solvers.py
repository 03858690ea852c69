"""Reference MaxEnt solvers the tests hold the engine's L-BFGS dual to.

The engine runs one solver, L-BFGS-B on the dual
(:func:`repro.maxent.lbfgs.solve_dual_lbfgs`).  These are the other
fitters the paper cites or that cross-check it, kept as independent
oracles for ``test_maxent_solvers.py``, ``test_maxent_newton.py`` and
``test_maxent_inequality.py``:

- :func:`solve_gis` — Generalized Iterative Scaling (Darroch & Ratcliff).
  GIS requires non-negative feature values with a constant per-variable
  feature sum, achieved by the standard *slack feature*; each iteration
  multiplicatively rescales every multiplier toward its target
  expectation, ``lambda_i += (1 / C) * ln(c_i / E_p[f_i])``.  Monotone
  and simple, but far slower than quasi-Newton methods (Malouf's
  comparison).
- :func:`solve_iis` — Improved Iterative Scaling (Della Pietra, Della
  Pietra & Lafferty).  No slack feature: each round solves, per
  constraint ``i``, ``sum_t f_i(t) p_t exp(delta_i f#(t)) = c_i`` where
  ``f#(t)`` is the total feature mass of variable ``t``, for all
  coordinates at once with a damped vectorized Newton iteration (each
  equation is monotone in its ``delta_i``, so clipped Newton is safe).
- :func:`solve_dual_newton` — Newton-CG on the dual from a cold start.
  Not competitive as a solver: on the Top-(K+, K-) assessment duals of
  the Adult table (seeds 1-8, every bound, 33 equality systems of up to
  1,347 multipliers) it missed ``tol`` on all 33 at 5.7x the L-BFGS
  time.  The engine uses Newton-CG only as a short polish after L-BFGS
  stalls.  scipy's Newton-CG has no box bounds, so equality systems only.
- :func:`solve_primal` — scipy trust-constr straight in the primal:
  minimize the negative entropy over the simplex slice cut out by the
  linear constraints.  It makes no exponential-family ansatz, so when it
  and the dual solvers agree, both the theory (the exponential form is
  optimal) and the implementations are corroborated.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import Bounds, LinearConstraint, minimize

from repro.errors import NotSupportedError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.dual import DualStack, StackedDual
from repro.maxent.lbfgs import DualSolveResult, dual_results


# -- GIS ---------------------------------------------------------------------


def _validate(system: ConstraintSystem) -> None:
    if system.n_inequalities:
        raise NotSupportedError(
            "GIS handles equality constraints only; use the lbfgs solver "
            "for inequality (vague) knowledge"
        )
    for row in system.equalities:
        if np.any(row.coefficients < 0):
            raise NotSupportedError(
                f"GIS requires non-negative coefficients; row {row.label!r} "
                "has negative entries (use the lbfgs solver)"
            )
        if row.rhs <= 0:
            raise NotSupportedError(
                f"GIS requires strictly positive targets; row {row.label!r} "
                f"has rhs {row.rhs:.3e} (run presolve first: zero rows fix "
                "their variables to zero and disappear)"
            )


def solve_gis(
    system: ConstraintSystem,
    mass: float,
    *,
    tol: float = 1e-6,
    max_iterations: int = 5000,
) -> DualSolveResult:
    """Fit the MaxEnt distribution with GIS.

    ``system`` must be presolved (positive targets, no forced variables);
    ``mass`` is the component's total probability.
    """
    _validate(system)
    a_matrix, targets = system.equality_matrix()
    n_vars = system.n_vars

    # Per-variable feature sums and the slack feature making them constant.
    feature_sum = np.asarray(a_matrix.sum(axis=0)).ravel()
    c_const = float(feature_sum.max()) if feature_sum.size else 1.0
    if c_const <= 0:
        raise NotSupportedError("GIS needs at least one non-zero coefficient")
    slack = c_const - feature_sum
    slack_target = c_const * mass - float(targets.sum())
    use_slack = slack_target > 1e-15 and np.any(slack > 1e-15)

    scale = float(max(np.abs(targets).max(), mass / max(n_vars, 1), 1e-12))
    lambdas = np.zeros(targets.size)
    slack_lambda = 0.0

    theta = np.zeros(n_vars)
    p = np.full(n_vars, mass / n_vars)
    eq_res = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        theta = a_matrix.T @ lambdas
        if use_slack:
            theta = theta + slack_lambda * slack
        shifted = theta - theta.max()
        weights = np.exp(shifted)
        p = mass * weights / weights.sum()

        expectations = a_matrix @ p
        eq_res = float(np.abs(expectations - targets).max())
        if eq_res <= tol * scale:
            return DualSolveResult(
                p=p,
                iterations=iterations,
                eq_residual=eq_res,
                ineq_residual=0.0,
                scale=scale,
                converged=True,
                message="GIS converged",
            )

        # Multiplicative update; expectations are strictly positive because
        # softmax keeps every p_t > 0 and each row has a variable.
        lambdas += np.log(targets / expectations) / c_const
        if use_slack:
            slack_expectation = float(slack @ p)
            if slack_expectation > 0:
                slack_lambda += (
                    np.log(slack_target / slack_expectation) / c_const
                )

    return DualSolveResult(
        p=p,
        iterations=iterations,
        eq_residual=eq_res,
        ineq_residual=0.0,
        scale=scale,
        converged=False,
        message="GIS hit the iteration limit",
    )


# -- IIS ---------------------------------------------------------------------


#: Newton sub-iterations per IIS round; the inner problem is 1-D and smooth,
#: so a handful of steps reaches machine precision.
_NEWTON_STEPS = 25
_MAX_STEP = 5.0


def solve_iis(
    system: ConstraintSystem,
    mass: float,
    *,
    tol: float = 1e-6,
    max_iterations: int = 2000,
) -> DualSolveResult:
    """Fit the MaxEnt distribution with IIS (presolved equality systems)."""
    _validate(system)
    a_matrix, targets = system.equality_matrix()
    coo = a_matrix.tocoo()
    rows, cols, values = coo.row, coo.col, coo.data
    n_rows = targets.size
    n_vars = system.n_vars

    feature_sum = np.asarray(a_matrix.sum(axis=0)).ravel()  # f#(t)
    scale = float(max(np.abs(targets).max(), mass / max(n_vars, 1), 1e-12))

    lambdas = np.zeros(n_rows)
    p = np.full(n_vars, mass / n_vars)
    eq_res = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        theta = a_matrix.T @ lambdas
        shifted = theta - theta.max()
        weights = np.exp(shifted)
        p = mass * weights / weights.sum()

        expectations = a_matrix @ p
        eq_res = float(np.abs(expectations - targets).max())
        if eq_res <= tol * scale:
            return DualSolveResult(
                p=p,
                iterations=iterations,
                eq_residual=eq_res,
                ineq_residual=0.0,
                scale=scale,
                converged=True,
                message="IIS converged",
            )

        # Vectorized Newton on g_i(delta) = sum_t f_i(t) p_t e^{delta f#(t)}
        # - c_i, all rows at once over the sparse pattern.
        delta = np.zeros(n_rows)
        base = values * p[cols]  # f_i(t) * p_t per nonzero
        fsharp = feature_sum[cols]
        for _ in range(_NEWTON_STEPS):
            growth = np.exp(np.clip(delta[rows] * fsharp, -60.0, 60.0))
            g = np.bincount(rows, weights=base * growth, minlength=n_rows)
            g -= targets
            g_prime = np.bincount(
                rows, weights=base * growth * fsharp, minlength=n_rows
            )
            step = np.zeros(n_rows)
            positive = g_prime > 1e-300
            step[positive] = g[positive] / g_prime[positive]
            step = np.clip(step, -_MAX_STEP, _MAX_STEP)
            delta -= step
            if float(np.abs(g).max()) <= 1e-14 * max(scale, 1e-12):
                break
        lambdas += delta

    return DualSolveResult(
        p=p,
        iterations=iterations,
        eq_residual=eq_res,
        ineq_residual=0.0,
        scale=scale,
        converged=False,
        message="IIS hit the iteration limit",
    )


# -- Newton-CG ---------------------------------------------------------------


def solve_dual_newton(
    stack: DualStack,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
) -> DualSolveResult:
    """Minimize a one-block dual with Newton-CG (equality systems only).

    ``x0`` optionally warm-starts the multipliers; the dual is convex, so
    it affects iteration count only.
    """
    dual = StackedDual(stack)
    if dual.n_inequalities:
        raise NotSupportedError(
            "the newton solver handles equality constraints only; use "
            "the lbfgs solver for inequality (vague) knowledge"
        )
    result = minimize(
        dual.value_and_grad,
        np.zeros(dual.n_params) if x0 is None else np.asarray(x0, dtype=float),
        jac=True,
        hessp=dual.hess_vec,
        method="Newton-CG",
        options={"maxiter": max_iterations, "xtol": 1e-14},
    )
    (outcome,) = dual_results(
        dual, result.x, [int(result.nit)], tol, str(result.message)
    )
    return outcome


# -- primal trust-constr -----------------------------------------------------


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
