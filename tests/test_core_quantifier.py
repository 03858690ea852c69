"""Unit tests for posterior tables and person posteriors."""

import numpy as np
import pytest

from repro.anonymize.anatomy import anatomize
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.core.quantifier import PosteriorTable, person_posterior
from repro.data.paper_example import (
    Q1,
    Q2,
    Q4,
    S1,
    S2,
    paper_published,
    paper_table,
)
from repro.data.adult import load_adult_synthetic
from repro.errors import ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig, mine_association_rules


@pytest.fixture(scope="module")
def truth():
    return PosteriorTable.from_table(paper_table())


@pytest.fixture(scope="module")
def estimate():
    return PrivacyMaxEnt(paper_published()).posterior()


class TestFromTable:
    def test_rows_are_distributions(self, truth):
        sums = truth.matrix.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_known_values(self, truth):
        # q1 = (male, college): Allen Flu, Brian Pneumonia, Ethan HIV.
        assert truth.prob(Q1, S2) == pytest.approx(1 / 3)
        assert truth.prob(Q1, S1) == 0.0
        # q4 = (female, junior): Grace has Breast Cancer.
        assert truth.prob(Q4, S1) == 1.0

    def test_weights_are_marginals(self, truth):
        assert truth.weight(Q1) == pytest.approx(0.3)
        assert truth.weight(Q4) == pytest.approx(0.1)
        assert truth.weights.sum() == pytest.approx(1.0)

    def test_unknown_qi_raises(self, truth):
        with pytest.raises(ReproError):
            truth.prob(("alien", "phd"), S1)

    def test_unknown_sa_is_zero(self, truth):
        assert truth.prob(Q1, "Malaria") == 0.0

    def test_distribution(self, truth):
        dist = truth.distribution(Q1)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[S2] == pytest.approx(1 / 3)


class TestFromSolution:
    def test_rows_are_distributions(self, estimate):
        assert np.allclose(estimate.matrix.sum(axis=1), 1.0, atol=1e-8)

    def test_matches_eq9_hand_computation(self, estimate):
        # P*(s2 | q1) = [P(q1,b0) * 2/4 + P(q1,b1) * 0] / P(q1)
        #            = (0.2 * 0.5) / 0.3 = 1/3.
        assert estimate.prob(Q1, S2) == pytest.approx(1 / 3)
        # P*(s1 | q2): bucket 0 only, (0.1 * 1/4) / 0.2 = 0.125.
        assert estimate.prob(Q2, S1) == pytest.approx(0.125)

    def test_same_qi_universe_as_truth(self, truth, estimate):
        assert set(estimate.qi_tuples) == set(truth.qi_tuples)

    def test_person_space_rejected(self):
        engine = PrivacyMaxEnt(paper_published(), individuals=True)
        with pytest.raises(ReproError):
            engine.posterior()
        solution = engine.solve()
        with pytest.raises(ReproError):
            PosteriorTable.from_solution(solution)


    def test_rows_projected_onto_simplex(self):
        # A solution meets the data invariants only within the solver
        # tolerance; unprojected, this release's posterior reached
        # 1.0000003 under Top-(12,13).
        table = load_adult_synthetic(n_records=300, seed=2)
        published = anatomize(table, l=5, exempt="auto", seed=2)
        rules = mine_association_rules(table, MiningConfig())
        posterior = PrivacyMaxEnt(
            published, TopKBound(12, 13).statements(rules)
        ).posterior()
        assert posterior.matrix.max() <= 1.0
        assert posterior.matrix.min() >= 0.0
        assert np.abs(posterior.matrix.sum(axis=1) - 1.0).max() <= 1e-12


class TestAlignment:
    def test_aligned_to_reorders(self, truth, estimate):
        aligned = estimate.aligned_to(truth)
        assert aligned.qi_tuples == truth.qi_tuples
        for q in truth.qi_tuples:
            assert aligned.prob(q, S2) == pytest.approx(estimate.prob(q, S2))

    def test_mismatched_universe_rejected(self, truth):
        other = PosteriorTable(
            [Q1],
            truth.sa_domain,
            np.ones((1, len(truth.sa_domain))) / len(truth.sa_domain),
            np.array([1.0]),
        )
        with pytest.raises(ReproError):
            other.aligned_to(truth)

    def test_shape_validation(self, truth):
        with pytest.raises(ReproError):
            PosteriorTable([Q1], ("a", "b"), np.ones((2, 2)), np.array([1.0]))
        with pytest.raises(ReproError):
            PosteriorTable([Q1], ("a", "b"), np.ones((1, 2)), np.array([1.0, 2.0]))


class TestPersonPosterior:
    def test_distributions_per_person(self):
        engine = PrivacyMaxEnt(paper_published(), individuals=True)
        posterior = person_posterior(engine.solve())
        assert len(posterior) == 10
        for name, dist in posterior.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-7)

    def test_symmetry_with_group_posterior(self, estimate):
        """Without individual knowledge the pseudonym model collapses to
        the group model: P*(s | i) == P*(s | q(i))."""
        engine = PrivacyMaxEnt(paper_published(), individuals=True)
        posterior = engine.person_posterior()
        pseudonyms = engine.pseudonyms
        for person in pseudonyms.pseudonyms:
            for s, value in posterior[person.name].items():
                assert value == pytest.approx(
                    estimate.prob(person.qi, s), abs=1e-6
                )

    def test_group_solution_rejected(self):
        engine = PrivacyMaxEnt(paper_published())
        with pytest.raises(ReproError):
            person_posterior(engine.solve())
