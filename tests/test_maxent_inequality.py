"""Tests for vague-knowledge (inequality) solving — the Section 4.5 extension."""

import numpy as np
import pytest

from repro.data.paper_example import Q1, S2, S3, paper_published, paper_table
from repro.core.quantifier import PosteriorTable
from repro.core.accuracy import estimation_accuracy
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.experiments.workloads import build_adult_workload
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
)
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import data_constraints
from repro.maxent.dual import build_dual
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.inequality import classify_inequalities, verify_kkt
from repro.maxent.lbfgs import solve_dual_lbfgs
from tests.helpers import vars_matching
from tests.reference_solvers import solve_primal


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


def interval_system(space, low, high):
    system = data_constraints(space)
    system.extend(
        compile_statements(
            [
                ConditionalInterval(
                    given={"gender": "male", "degree": "college"},
                    sa_value=S3,
                    low=low,
                    high=high,
                )
            ],
            space,
        )
    )
    return system


class TestIntervalSolving:
    def test_non_binding_interval_matches_unconstrained(self, space):
        # The unconstrained posterior P*(s3 | q1) is 5/18 = 0.2778; a wide
        # interval around it must not move the solution.
        wide = interval_system(space, 0.05, 0.95)
        solution = solve_dual_lbfgs(build_dual(wide, 1.0), tol=1e-6)
        free = solve_dual_lbfgs(
            build_dual(data_constraints(space), 1.0), tol=1e-6
        )
        assert solution.converged
        assert np.abs(solution.p - free.p).max() < 1e-6

    def test_binding_lower_bound_lands_on_boundary(self, space):
        # Force P(s3 | q1) >= 0.5, well above the unconstrained 0.2778.
        system = interval_system(space, 0.5, 1.0)
        solution = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        assert solution.converged
        indices = vars_matching(
            space, {"gender": "male", "degree": "college"}, S3
        )
        achieved = solution.p[indices].sum() / 0.3  # P(q1) = 3/10
        assert achieved == pytest.approx(0.5, abs=1e-6)

    def test_binding_upper_bound(self, space):
        system = interval_system(space, 0.0, 0.1)
        solution = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        indices = vars_matching(
            space, {"gender": "male", "degree": "college"}, S3
        )
        achieved = solution.p[indices].sum() / 0.3
        assert achieved == pytest.approx(0.1, abs=1e-6)

    def test_agrees_with_primal_oracle(self, space):
        system = interval_system(space, 0.5, 1.0)
        dual = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-10)
        primal = solve_primal(system, 1.0)
        assert np.abs(dual.p - primal.p).max() < 1e-4

    def test_interval_tighter_than_equality_never_beats_it(self, space):
        """Entropy ordering: equality <= interval <= unconstrained."""
        from repro.utils.probability import entropy

        free = solve_dual_lbfgs(build_dual(data_constraints(space), 1.0))
        narrow = solve_dual_lbfgs(build_dual(interval_system(space, 0.45, 0.55), 1.0))
        exact_sys = data_constraints(space)
        exact_sys.extend(
            compile_statements(
                [
                    ConditionalProbability(
                        given={"gender": "male", "degree": "college"},
                        sa_value=S3,
                        probability=0.5,
                    )
                ],
                space,
            )
        )
        exact = solve_dual_lbfgs(build_dual(exact_sys, 1.0))
        assert entropy(exact.p) <= entropy(narrow.p) + 1e-9
        assert entropy(narrow.p) <= entropy(free.p) + 1e-9


class TestComparisons:
    def test_comparison_enforced(self, space):
        system = data_constraints(space)
        system.extend(
            compile_statements(
                [
                    Comparison(
                        given={"gender": "male", "degree": "college"},
                        more_likely=S3,
                        less_likely=S2,
                        margin=0.0,
                    )
                ],
                space,
            )
        )
        solution = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        more = solution.p[
            vars_matching(space, {"gender": "male", "degree": "college"}, S3)
        ].sum()
        less = solution.p[
            vars_matching(space, {"gender": "male", "degree": "college"}, S2)
        ].sum()
        assert more >= less - 1e-8


class TestDiagnostics:
    def test_classify_active_vs_slack(self, space):
        engine = PrivacyMaxEnt(
            paper_published(),
            knowledge=[
                ConditionalInterval(
                    given={"gender": "male", "degree": "college"},
                    sa_value=S3,
                    low=0.5,
                    high=1.0,
                )
            ],
        )
        report = classify_inequalities(engine.system, engine.solve().p)
        # The lower bound binds (0.5 > unconstrained 0.2778); the upper
        # bound (1.0) stays slack.
        states = {entry.row.label: entry.is_active for entry in report}
        lower = [v for k, v in states.items() if "lower" in k]
        upper = [v for k, v in states.items() if "upper" in k]
        assert lower == [True]
        assert upper == [False]

    def test_verify_kkt_clean_solution(self, space):
        system = interval_system(space, 0.5, 1.0)
        solution = solve_dual_lbfgs(build_dual(system, 1.0), tol=1e-9)
        ok, violations = verify_kkt(system, solution.p, tolerance=1e-6)
        assert ok, violations

    def test_verify_kkt_flags_violations(self, space):
        system = interval_system(space, 0.5, 1.0)
        bad = np.full(space.n_vars, 1.0 / space.n_vars)
        ok, violations = verify_kkt(system, bad, tolerance=1e-9)
        assert not ok
        assert violations


class TestEndToEndVagueness:
    def test_epsilon_zero_matches_equality(self):
        published = paper_published()
        truth = PosteriorTable.from_table(paper_table())
        exact = PrivacyMaxEnt(
            published,
            knowledge=[
                ConditionalProbability(
                    given={"gender": "male", "degree": "college"},
                    sa_value=S3,
                    probability=1 / 3,
                )
            ],
        ).posterior()
        degenerate = PrivacyMaxEnt(
            published,
            knowledge=[
                ConditionalInterval(
                    given={"gender": "male", "degree": "college"},
                    sa_value=S3,
                    low=1 / 3,
                    high=1 / 3,
                )
            ],
        ).posterior()
        assert exact.prob(Q1, S3) == pytest.approx(
            degenerate.prob(Q1, S3), abs=1e-6
        )

    def test_accuracy_monotone_in_epsilon(self):
        """Vaguer knowledge drifts the estimate back toward the
        no-knowledge baseline: estimation accuracy grows with the
        vagueness radius and never passes the baseline."""
        workload = build_adult_workload(n_records=400, max_antecedent=2)
        baseline = estimation_accuracy(
            workload.truth, PrivacyMaxEnt(workload.published).posterior()
        )
        accuracies = []
        for epsilon in (0.0, 0.05, 0.5):
            statements = TopKBound(20, 20, epsilon=epsilon).statements(
                workload.rules
            )
            posterior = PrivacyMaxEnt(
                workload.published,
                knowledge=statements,
                config=MaxEntConfig(raise_on_infeasible=False),
            ).posterior()
            accuracies.append(estimation_accuracy(workload.truth, posterior))
        for tighter, wider in zip(accuracies, accuracies[1:]):
            assert tighter <= wider + 1e-6
        assert accuracies[-1] <= baseline + 1e-6
