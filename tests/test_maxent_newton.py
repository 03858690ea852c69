"""Tests for the Newton-CG reference dual solver (``tests/reference_solvers.py``)."""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.errors import NotSupportedError
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalInterval, ConditionalProbability
from repro.maxent.constraints import data_constraints
from repro.maxent.dual import StackedDual, build_dual
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.lbfgs import solve_dual_lbfgs
from tests.reference_solvers import solve_dual_newton


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def system(space):
    system = data_constraints(space)
    system.extend(
        compile_statements(
            [
                ConditionalProbability(
                    given={"gender": "male"}, sa_value="Flu", probability=0.3
                )
            ],
            space,
        )
    )
    return system


class TestNewtonSolver:
    def test_agrees_with_lbfgs(self, system):
        lbfgs = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        newton = solve_dual_newton(build_dual(system, 1.0), tol=1e-6)
        assert newton.converged
        assert np.abs(newton.p - lbfgs.p).max() < 1e-6

    def test_far_fewer_iterations_than_lbfgs(self, system):
        lbfgs = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        newton = solve_dual_newton(build_dual(system, 1.0), tol=1e-9)
        assert newton.iterations < lbfgs.iterations

    def test_rejects_inequalities(self, space):
        system = data_constraints(space)
        system.extend(
            compile_statements(
                [
                    ConditionalInterval(
                        given={"gender": "male"},
                        sa_value="Flu",
                        low=0.2,
                        high=0.4,
                    )
                ],
                space,
            )
        )
        with pytest.raises(NotSupportedError):
            solve_dual_newton(build_dual(system, 1.0))

    def test_hess_vec_matches_finite_differences(self, system):
        dual = StackedDual(build_dual(system, 1.0))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(dual.n_params) * 0.1
        v = rng.standard_normal(dual.n_params)
        epsilon = 1e-6
        _f1, g_plus = dual.value_and_grad(x + epsilon * v)
        _f2, g_minus = dual.value_and_grad(x - epsilon * v)
        numeric = (g_plus - g_minus) / (2 * epsilon)
        # Gradient of the dual is c - R p(theta) with theta = -R^T x; the
        # two sign flips cancel, so hess_vec is the Hessian itself
        # (positive semidefinite, as convexity requires).
        analytic = dual.hess_vec(x, v)
        assert np.abs(numeric - analytic).max() < 1e-5 * max(
            1.0, np.abs(analytic).max()
        )
        # PSD spot-check: v' H v >= 0.
        assert float(v @ analytic) >= -1e-12
