"""Solver tests: closed form, LBFGS, GIS, IIS, primal — and their agreement.

The four solvers approach the same convex program from different angles
(dual quasi-Newton, two scaling algorithms, direct primal optimization);
agreement across them on nontrivial instances corroborates both the
exponential-family theory and each implementation.
"""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.errors import NotSupportedError
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.closed_form import closed_form_solution
from repro.maxent.constraints import data_constraints
from repro.maxent.decompose import decompose
from repro.maxent.dual import build_dual
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.lbfgs import solve_dual_lbfgs
from repro.maxent.presolve import presolve
from repro.utils.probability import entropy
from tests.reference_solvers import solve_gis, solve_iis, solve_primal


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def data_system(space):
    return data_constraints(space)


def knowledge_system(space, probability=0.3):
    system = data_constraints(space)
    system.extend(
        compile_statements(
            [
                ConditionalProbability(
                    given={"gender": "male"}, sa_value="Flu",
                    probability=probability,
                )
            ],
            space,
        )
    )
    return system


class TestClosedForm:
    def test_matches_eq9(self, space):
        """P(S | Q, b) = (# of S in b) / N_b for every variable."""
        p = closed_form_solution(space)
        published = space.published
        for var in range(space.n_vars):
            q, s, b = space.describe_var(var)
            bucket = published.bucket(b)
            n_qb = bucket.qi_counts()[q]
            expected = (n_qb / 10) * bucket.sa_counts()[s] / bucket.size
            assert p[var] == pytest.approx(expected)

    def test_satisfies_data_constraints(self, space, data_system):
        p = closed_form_solution(space)
        assert data_system.residual(p) < 1e-12

    def test_total_mass_one(self, space):
        assert closed_form_solution(space).sum() == pytest.approx(1.0)


class TestLBFGS:
    def test_no_knowledge_matches_closed_form(self, space, data_system):
        """Theorem 5 (Consistency), numerically."""
        dual = build_dual(data_system, mass=1.0)
        result = solve_dual_lbfgs(dual, tol=1e-8)
        assert result.converged
        assert np.abs(result.p - closed_form_solution(space)).max() < 1e-6

    def test_with_knowledge_satisfies_all_rows(self, space):
        system = knowledge_system(space)
        dual = build_dual(system, mass=1.0)
        result = solve_dual_lbfgs(dual, tol=1e-8)
        assert result.converged
        assert system.residual(result.p) < 1e-7

    def test_knowledge_reduces_entropy(self, space, data_system):
        free = solve_dual_lbfgs(build_dual(data_system, mass=1.0))
        constrained = solve_dual_lbfgs(
            build_dual(knowledge_system(space), mass=1.0)
        )
        assert entropy(constrained.p) <= entropy(free.p) + 1e-9


class TestScalingSolvers:
    """GIS and IIS must match LBFGS on presolved equality systems."""

    @pytest.fixture(scope="class")
    def reduced(self, space):
        result = presolve(knowledge_system(space))
        mass = 1.0 - result.mass_removed
        return result, mass

    def test_gis_agrees_with_lbfgs(self, reduced):
        result, mass = reduced
        lbfgs = solve_dual_lbfgs(build_dual(result.system, mass), tol=1e-9)
        gis = solve_gis(result.system, mass, tol=1e-9, max_iterations=20000)
        assert gis.converged
        assert np.abs(gis.p - lbfgs.p).max() < 1e-5

    def test_iis_agrees_with_lbfgs(self, reduced):
        result, mass = reduced
        lbfgs = solve_dual_lbfgs(build_dual(result.system, mass), tol=1e-9)
        iis = solve_iis(result.system, mass, tol=1e-9, max_iterations=20000)
        assert iis.converged
        assert np.abs(iis.p - lbfgs.p).max() < 1e-5

    def test_scaling_solvers_comparable_iterations(self, reduced):
        """IIS's advantage over GIS shows on systems with very uneven
        feature sums; on this near-uniform instance the two should land in
        the same ballpark (and both far above LBFGS's count — the Malouf
        ordering the paper cites)."""
        result, mass = reduced
        gis = solve_gis(result.system, mass, tol=1e-8, max_iterations=50000)
        iis = solve_iis(result.system, mass, tol=1e-8, max_iterations=50000)
        lbfgs = solve_dual_lbfgs(build_dual(result.system, mass), tol=1e-8)
        assert gis.converged and iis.converged
        ratio = iis.iterations / gis.iterations
        assert 1 / 3 <= ratio <= 3
        assert lbfgs.iterations < min(gis.iterations, iis.iterations)

    def test_gis_rejects_negative_coefficients(self):
        from repro.maxent.constraints import ConstraintSystem

        system = ConstraintSystem(2)
        system.add_equality([0, 1], [1.0, -1.0], 0.0, kind="bk")
        with pytest.raises(NotSupportedError):
            solve_gis(system, 1.0)

    def test_gis_rejects_inequalities(self):
        from repro.maxent.constraints import ConstraintSystem

        system = ConstraintSystem(2)
        system.add_equality([0, 1], [1.0, 1.0], 1.0, kind="qi")
        system.add_inequality([0], [1.0], 0.5, kind="bk")
        with pytest.raises(NotSupportedError):
            solve_gis(system, 1.0)

    def test_gis_rejects_zero_targets(self):
        from repro.maxent.constraints import ConstraintSystem

        system = ConstraintSystem(2)
        system.add_equality([0, 1], [1.0, 1.0], 0.0, kind="bk")
        with pytest.raises(NotSupportedError):
            solve_gis(system, 1.0)


class TestPrimal:
    def test_agrees_with_lbfgs(self, space):
        system = knowledge_system(space)
        lbfgs = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        primal = solve_primal(system, 1.0)
        assert primal.converged
        assert np.abs(primal.p - lbfgs.p).max() < 1e-4

    def test_rejects_huge_problems(self):
        from repro.maxent.constraints import ConstraintSystem

        system = ConstraintSystem(100000)
        with pytest.raises(NotSupportedError):
            solve_primal(system, 1.0)


class TestEntropyOptimality:
    """The returned point must beat every feasible perturbation."""

    def test_perturbations_reduce_entropy(self, space, data_system):
        rng = np.random.default_rng(0)
        dual = build_dual(data_system, 1.0)
        solution = solve_dual_lbfgs(dual, tol=1e-10).p
        base_entropy = entropy(solution)
        a_matrix, _c = data_system.equality_matrix()
        dense = a_matrix.toarray()
        # Build feasible directions: null-space vectors of A.
        _u, s, vt = np.linalg.svd(dense)
        null = vt[(s > 1e-10).sum():]
        for _ in range(20):
            direction = null.T @ rng.standard_normal(null.shape[0])
            scale = 1e-3 / max(np.abs(direction).max(), 1e-12)
            candidate = solution + scale * direction
            if candidate.min() < 0:
                continue
            assert entropy(candidate) <= base_entropy + 1e-9
