"""Unit tests for the solve_maxent façade and its configuration toggles."""

import numpy as np
import pytest

from repro.data.paper_example import paper_published
from repro.errors import InfeasibleKnowledgeError, ReproError
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability, JointProbability
from repro.maxent.closed_form import closed_form_solution
from repro.maxent.constraints import data_constraints
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.solver import MaxEntConfig, solve_maxent
from tests.helpers import unreduced_solution
from tests.legacy import drop_redundant_data_rows


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


def full_system(space, statements=()):
    system = data_constraints(space)
    if statements:
        system.extend(compile_statements(list(statements), space))
    return system


FLU_KNOWLEDGE = ConditionalProbability(
    given={"gender": "male"}, sa_value="Flu", probability=0.3
)


class TestConfig:
    def test_unknown_solver_rejected(self):
        # The engine runs one solver; there is no field to name another.
        with pytest.raises(TypeError, match="solver"):
            MaxEntConfig(solver="simplex")

    def test_bad_tol_rejected(self):
        with pytest.raises(ReproError):
            MaxEntConfig(tol=0)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ReproError):
            MaxEntConfig(max_iterations=0)


class TestToggleEquivalence:
    """Every pipeline toggle must leave the solution unchanged."""

    @pytest.fixture(scope="class")
    def reference(self, space):
        system = full_system(space, [FLU_KNOWLEDGE])
        return solve_maxent(space, system, MaxEntConfig(tol=1e-9)).p

    @pytest.mark.parametrize(
        "config",
        [
            MaxEntConfig(decompose=False, tol=1e-9),
            None,
            MaxEntConfig(use_closed_form=False, tol=1e-9),
        ],
        ids=["no-decompose", "no-presolve", "no-closed-form"],
    )
    def test_same_solution(self, space, reference, config):
        system = full_system(space, [FLU_KNOWLEDGE])
        if config is None:
            # Presolve is always on; its invariance is checked against
            # each numeric component's unreduced dual.
            p = unreduced_solution(space, system, tol=1e-9)
        else:
            p = solve_maxent(space, system, config).p
        assert np.abs(p - reference).max() < 2e-4


class TestSolutionObject:
    def test_no_knowledge_equals_closed_form(self, space):
        solution = solve_maxent(space, full_system(space))
        assert np.allclose(solution.p, closed_form_solution(space))
        # Every component took Eq. (9), so the aggregate says so.
        assert solution.stats.solver == "closed-form"
        assert solution.stats.iterations == 0  # all closed-form components

    def test_knowledge_solve_reports_lbfgs(self, space):
        solution = solve_maxent(space, full_system(space, [FLU_KNOWLEDGE]))
        assert solution.stats.solver == "lbfgs"
        assert {r.stats.solver for r in solution.components} == {
            "closed-form",
            "lbfgs",
        }

    def test_closed_form_off_reports_lbfgs(self, space):
        # With the shortcut off every component is numeric, knowledge or
        # not: the label tracks the plan, not the knowledge.
        solution = solve_maxent(
            space, full_system(space), MaxEntConfig(use_closed_form=False)
        )
        assert solution.stats.solver == "lbfgs"

    def test_joint_lookup(self, space):
        solution = solve_maxent(space, full_system(space))
        value = solution.joint(("male", "college"), "Flu", 0)
        assert value == pytest.approx(0.2 * 2 / 4)
        assert solution.joint(("male", "college"), "Flu", 2) == 0.0

    def test_joint_dict_covers_all_vars(self, space):
        solution = solve_maxent(space, full_system(space))
        assert len(solution.joint_dict()) == space.n_vars

    def test_total_mass(self, space):
        solution = solve_maxent(space, full_system(space, [FLU_KNOWLEDGE]))
        assert solution.total_mass() == pytest.approx(1.0, abs=1e-8)

    def test_component_records(self, space):
        solution = solve_maxent(space, full_system(space, [FLU_KNOWLEDGE]))
        buckets = sorted(b for r in solution.components for b in r.buckets)
        assert buckets == [0, 1, 2]

    def test_system_space_mismatch(self, space):
        from repro.maxent.constraints import ConstraintSystem

        with pytest.raises(ReproError):
            solve_maxent(space, ConstraintSystem(5))


class TestInfeasibility:
    def test_contradictory_knowledge_raises(self, space):
        statements = [
            JointProbability(
                given={"gender": "male"}, sa_value="Flu", probability=0.5
            ),
            JointProbability(
                given={"gender": "male"}, sa_value="Pneumonia", probability=0.4
            ),
        ]
        # Males have total mass 0.6 but these joints alone need 0.9.
        system = full_system(space, statements)
        with pytest.raises(InfeasibleKnowledgeError):
            solve_maxent(space, system)

    def test_raise_disabled_returns_unconverged(self, space):
        statements = [
            JointProbability(
                given={"gender": "male"}, sa_value="Flu", probability=0.5
            ),
            JointProbability(
                given={"gender": "male"}, sa_value="Pneumonia", probability=0.4
            ),
        ]
        system = full_system(space, statements)
        solution = solve_maxent(
            space, system, MaxEntConfig(raise_on_infeasible=False)
        )
        assert not solution.stats.converged


class TestDropRedundant:
    def test_removes_one_sa_row_per_bucket(self, space):
        system = full_system(space)
        filtered = drop_redundant_data_rows(space, system)
        assert (
            filtered.n_equalities
            == system.n_equalities - paper_published().n_buckets
        )

    def test_feasible_set_unchanged(self, space):
        system = full_system(space)
        filtered = drop_redundant_data_rows(space, system)
        p = closed_form_solution(space)
        assert filtered.residual(p) < 1e-12
