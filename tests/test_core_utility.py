"""Tests for the aggregate-utility metrics."""

import pytest

from repro.core.accuracy import estimation_accuracy
from repro.core.privacy_maxent import PrivacyMaxEnt, baseline_posterior
from repro.core.quantifier import PosteriorTable
from repro.core.utility import (
    AggregateQuery,
    UtilityReport,
    estimate_count,
    query_workload,
    relative_query_error,
    true_count,
)
from repro.data.paper_example import S1, S2, paper_published, paper_table
from repro.errors import ReproError
from repro.experiments.workloads import build_adult_workload
from repro.knowledge.bounds import TopKBound
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig


@pytest.fixture(scope="module")
def table():
    return paper_table()


@pytest.fixture(scope="module")
def published():
    return paper_published()


class TestTrueCount:
    def test_known_counts(self, table):
        assert true_count(
            table, AggregateQuery(qv={"gender": "male"}, sa_value=S2)
        ) == 3
        assert true_count(
            table,
            AggregateQuery(
                qv={"gender": "female", "degree": "college"}, sa_value=S1
            ),
        ) == 1
        assert true_count(
            table, AggregateQuery(qv={"gender": "male"}, sa_value=S1)
        ) == 0

    def test_describe(self):
        query = AggregateQuery(qv={"gender": "male"}, sa_value=S2)
        assert "gender=male" in query.describe()


class TestEstimateCount:
    def test_exact_when_posterior_is_truth(self, table, published):
        truth = PosteriorTable.from_table(table)
        query = AggregateQuery(qv={"gender": "male"}, sa_value=S2)
        estimate = estimate_count(published, truth, query)
        assert estimate == pytest.approx(3.0)

    def test_baseline_estimator_reasonable(self, table, published):
        baseline = baseline_posterior(published)
        query = AggregateQuery(qv={"gender": "male"}, sa_value=S2)
        estimate = estimate_count(published, baseline, query)
        # Anatomy-style estimate: in [0, 6] (six males) and near the truth.
        assert 0 <= estimate <= 6
        assert abs(estimate - 3.0) < 2.0

    def test_knowledge_sharpens_estimates(self, table, published):
        """The utility/privacy duality: the informed posterior answers the
        Breast-Cancer query exactly."""
        query = AggregateQuery(qv={"gender": "female"}, sa_value=S1)
        truth_value = true_count(table, query)  # both BC cases are female
        baseline_est = estimate_count(
            published, baseline_posterior(published), query
        )
        informed = PrivacyMaxEnt(
            published,
            knowledge=[
                ConditionalProbability(
                    given={"gender": "male"}, sa_value=S1, probability=0.0
                )
            ],
        ).posterior()
        informed_est = estimate_count(published, informed, query)
        assert abs(informed_est - truth_value) < abs(
            baseline_est - truth_value
        )
        assert informed_est == pytest.approx(truth_value, abs=1e-6)


class TestWorkload:
    def test_sampled_queries_have_support(self, table):
        queries = query_workload(
            table, n_queries=10, n_qi_attributes=1, seed=3
        )
        assert len(queries) == 10
        for query in queries:
            assert true_count(table, query) >= 1

    def test_deterministic_per_seed(self, table):
        a = query_workload(table, n_queries=5, n_qi_attributes=1, seed=1)
        b = query_workload(table, n_queries=5, n_qi_attributes=1, seed=1)
        assert a == b

    def test_invalid_params(self, table):
        with pytest.raises(ReproError):
            query_workload(table, n_queries=0)
        with pytest.raises(ReproError):
            query_workload(table, n_qi_attributes=99)


class TestRelativeError:
    def test_truth_posterior_scores_zero(self, table, published):
        truth = PosteriorTable.from_table(table)
        queries = query_workload(
            table, n_queries=8, n_qi_attributes=1, seed=2
        )
        report = relative_query_error(table, published, truth, queries)
        assert isinstance(report, UtilityReport)
        assert report.mean_relative_error == pytest.approx(0.0, abs=1e-9)
        assert report.n_queries == 8

    def test_baseline_has_positive_error(self, table, published):
        queries = query_workload(
            table, n_queries=8, n_qi_attributes=2, seed=2
        )
        report = relative_query_error(
            table, published, baseline_posterior(published), queries
        )
        assert report.worst_relative_error > 0
        assert (
            report.median_relative_error <= report.mean_relative_error
            or report.median_relative_error >= 0
        )

    def test_empty_workload_rejected(self, table, published):
        with pytest.raises(ReproError):
            relative_query_error(
                table, published, baseline_posterior(published), []
            )

    def test_adult_scale_utility(self, adult_small, adult_small_published):
        """Aggregate error at realistic scale stays moderate — the Anatomy
        utility claim."""
        queries = query_workload(
            adult_small, n_queries=30, n_qi_attributes=1, min_true_count=5,
            seed=7,
        )
        report = relative_query_error(
            adult_small,
            adult_small_published,
            baseline_posterior(adult_small_published),
            queries,
        )
        assert report.mean_relative_error < 0.6

    def test_knowledge_sharpens_privacy_and_utility(self):
        """One posterior serves analyst and adversary alike: growing
        Top-(K+, K-) knowledge lowers estimation accuracy (the adversary
        gets closer to the truth) and does not raise aggregate query
        error."""
        workload = build_adult_workload(n_records=400, max_antecedent=2)
        queries = query_workload(
            workload.table, n_queries=30, n_qi_attributes=1,
            min_true_count=5, seed=11,
        )
        accuracies, errors = [], []
        for size in (0, 10, 40):
            bound = TopKBound(size // 2, size - size // 2)
            posterior = PrivacyMaxEnt(
                workload.published,
                knowledge=bound.statements(workload.rules),
                config=MaxEntConfig(raise_on_infeasible=False),
            ).posterior()
            accuracies.append(estimation_accuracy(workload.truth, posterior))
            errors.append(
                relative_query_error(
                    workload.table, workload.published, posterior, queries
                ).mean_relative_error
            )
        for fewer, more in zip(accuracies, accuracies[1:]):
            assert more <= fewer + 1e-6
        assert errors[-1] <= errors[0] + 0.05
