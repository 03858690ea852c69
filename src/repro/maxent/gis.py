"""Generalized Iterative Scaling (Darroch & Ratcliff), from scratch.

One of the classic MaxEnt fitters the paper cites alongside L-BFGS (Malouf's
comparison).  GIS requires non-negative feature values with a constant
per-variable feature sum, achieved by the standard *slack feature*; each
iteration multiplicatively rescales every multiplier toward its target
expectation:

    lambda_i  +=  (1 / C) * ln(c_i / E_p[f_i]).

GIS is monotone and simple but converges far more slowly than quasi-Newton
methods — ``tests/test_maxent_solvers.py`` holds it to exactly that
classic trade-off as a reference solver; the engine does not call it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotSupportedError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.lbfgs import DualSolveResult


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
