"""Property-based tests (hypothesis) over randomized bucketized datasets.

Strategy: generate a random microdata table and bucketization, then check
the theory holds on *every* instance:

- soundness: the empirical joint of the original assignment satisfies all
  data constraints and all mined knowledge,
- consistency: the solver equals the closed form without knowledge,
- invariance of the solution under presolve/decomposition toggles,
- conciseness: per-bucket rank is g + h - 1,
- the Pythagorean property: adding true constraints moves the MaxEnt
  estimate closer (in joint KL) to the truth,
- posterior rows are distributions; entropy never increases with knowledge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.accuracy import joint_kl
from repro.core.invariants import bucket_constraint_matrix
from repro.core.quantifier import PosteriorTable
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.anonymize.buckets import BucketizedTable
from repro.knowledge.compiler import compile_statements
from repro.knowledge.statements import ConditionalProbability, JointProbability
from repro.maxent.closed_form import closed_form_solution
from repro.maxent.constraints import data_constraints
from repro.maxent.indexing import GroupVariableSpace
from repro.maxent.solver import MaxEntConfig, solve_maxent
from repro.utils.probability import entropy

from tests.helpers import empirical_joint, unreduced_solution


@st.composite
def bucketized_instances(draw):
    """A random (table, published, bucket_of_row) triple.

    Sizes are kept small so each hypothesis example solves in milliseconds.
    """
    n_qi = draw(st.integers(min_value=2, max_value=4))
    n_sa = draw(st.integers(min_value=2, max_value=5))
    n_buckets = draw(st.integers(min_value=1, max_value=3))
    schema = Schema(
        attributes=(
            Attribute("q", tuple(f"q{i}" for i in range(n_qi))),
            Attribute("s", tuple(f"s{i}" for i in range(n_sa))),
        ),
        qi_attributes=("q",),
        sa_attribute="s",
    )
    rows = []
    bucket_ids = []
    for bucket in range(n_buckets):
        size = draw(st.integers(min_value=1, max_value=4))
        for _ in range(size):
            rows.append(
                {
                    "q": f"q{draw(st.integers(0, n_qi - 1))}",
                    "s": f"s{draw(st.integers(0, n_sa - 1))}",
                }
            )
            bucket_ids.append(bucket)
    table = Table.from_records(schema, rows)
    bucket_of_row = np.array(bucket_ids, dtype=np.int64)
    published = BucketizedTable.from_assignment(table, bucket_of_row)
    return table, published, bucket_of_row


def truth_statements(table, limit=3):
    """True conditional-probability statements read off the original data."""
    truth = PosteriorTable.from_table(table)
    statements = []
    for q in truth.qi_tuples:
        for s in truth.sa_domain:
            statements.append(
                ConditionalProbability(
                    given={"q": q[0]}, sa_value=s, probability=truth.prob(q, s)
                )
            )
            if len(statements) >= limit:
                return statements
    return statements


COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)


class TestSoundness:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_original_assignment_feasible(self, instance):
        table, published, bucket_of_row = instance
        space = GroupVariableSpace(published)
        system = data_constraints(space)
        system.extend(
            compile_statements(truth_statements(table), space)
        )
        joint = empirical_joint(table, bucket_of_row)
        p = np.zeros(space.n_vars)
        for (q, s, b), value in joint.items():
            p[space.index_of(q, s, b)] = value
        assert system.residual(p) < 1e-9


class TestConsistency:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_solver_matches_closed_form_without_knowledge(self, instance):
        _table, published, _ids = instance
        space = GroupVariableSpace(published)
        system = data_constraints(space)
        numeric = solve_maxent(
            space, system, MaxEntConfig(use_closed_form=False, tol=1e-8)
        )
        assert np.abs(numeric.p - closed_form_solution(space)).max() < 1e-5


class TestPipelineInvariance:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_decompose_and_presolve_do_not_change_solution(self, instance):
        table, published, _ids = instance
        space = GroupVariableSpace(published)
        system = data_constraints(space)
        system.extend(compile_statements(truth_statements(table, limit=2), space))
        reference = solve_maxent(space, system, MaxEntConfig(tol=1e-9))
        undecomposed = solve_maxent(
            space, system, MaxEntConfig(decompose=False, tol=1e-9)
        )
        unreduced = unreduced_solution(space, system, tol=1e-9)
        for other in (undecomposed.p, unreduced):
            assert np.abs(other - reference.p).max() < 1e-5


class TestConciseness:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_rank_is_g_plus_h_minus_one(self, instance):
        _table, published, _ids = instance
        for bucket in published.buckets:
            matrix, _terms = bucket_constraint_matrix(bucket)
            g = len(bucket.distinct_qi())
            h = len(bucket.distinct_sa())
            assert np.linalg.matrix_rank(matrix) == g + h - 1


class TestInformationOrdering:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_knowledge_never_increases_entropy(self, instance):
        table, published, _ids = instance
        space = GroupVariableSpace(published)
        free_system = data_constraints(space)
        free = solve_maxent(space, free_system, MaxEntConfig(tol=1e-9))
        informed_system = data_constraints(space)
        informed_system.extend(
            compile_statements(truth_statements(table, limit=2), space)
        )
        informed = solve_maxent(space, informed_system, MaxEntConfig(tol=1e-9))
        assert entropy(informed.p) <= entropy(free.p) + 1e-7

    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_pythagorean_property(self, instance):
        """With nested true-constraint sets C0 (data only) and C1 (data +
        knowledge), KL(truth || M1) <= KL(truth || M0)."""
        table, published, bucket_of_row = instance
        space = GroupVariableSpace(published)
        truth_joint = empirical_joint(table, bucket_of_row)

        def solve_with(statements):
            system = data_constraints(space)
            system.extend(compile_statements(statements, space))
            solution = solve_maxent(space, system, MaxEntConfig(tol=1e-9))
            return {
                space.describe_var(i): float(solution.p[i])
                for i in range(space.n_vars)
            }

        base = solve_with([])
        informed = solve_with(truth_statements(table, limit=2))
        assert (
            joint_kl(truth_joint, informed)
            <= joint_kl(truth_joint, base) + 1e-6
        )


class TestPosteriorShape:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_posterior_rows_are_distributions(self, instance):
        _table, published, _ids = instance
        from repro.core.privacy_maxent import PrivacyMaxEnt

        posterior = PrivacyMaxEnt(published).posterior()
        sums = posterior.matrix.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-7)
        assert posterior.matrix.min() >= -1e-12


class TestMassConservation:
    @given(instance=bucketized_instances())
    @settings(**COMMON)
    def test_total_mass_one(self, instance):
        table, published, _ids = instance
        space = GroupVariableSpace(published)
        system = data_constraints(space)
        system.extend(compile_statements(truth_statements(table, limit=1), space))
        solution = solve_maxent(space, system, MaxEntConfig(tol=1e-9))
        assert solution.total_mass() == pytest.approx(1.0, abs=1e-7)
