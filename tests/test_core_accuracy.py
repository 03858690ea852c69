"""Unit tests for Estimation Accuracy and the KL helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accuracy import estimation_accuracy, joint_kl, per_tuple_accuracy
from repro.core.metrics import expected_posterior_entropy
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.core.quantifier import PosteriorTable
from repro.data.paper_example import S1, paper_published, paper_table
from repro.errors import ReproError
from repro.knowledge.statements import ConditionalProbability
from repro.utils.probability import ZERO_TOL, entropy, kl_divergence


@pytest.fixture(scope="module")
def truth():
    return PosteriorTable.from_table(paper_table())


class TestEstimationAccuracy:
    def test_self_distance_zero(self, truth):
        assert estimation_accuracy(truth, truth) == pytest.approx(0.0)

    def test_positive_for_baseline(self, truth):
        baseline = PrivacyMaxEnt(paper_published()).posterior()
        assert estimation_accuracy(truth, baseline) > 0

    def test_knowledge_improves_estimate(self, truth):
        """The paper's headline: more background knowledge, lower accuracy
        value (the adversary's estimate approaches the truth)."""
        baseline = PrivacyMaxEnt(paper_published()).posterior()
        informed = PrivacyMaxEnt(
            paper_published(),
            knowledge=[
                ConditionalProbability(
                    given={"gender": "male"}, sa_value=S1, probability=0.0
                )
            ],
        ).posterior()
        assert estimation_accuracy(truth, informed) < estimation_accuracy(
            truth, baseline
        )

    def test_hand_computed_value(self, truth):
        """Check the weighted-KL formula against a by-hand sum."""
        estimate = PrivacyMaxEnt(paper_published()).posterior()
        total = 0.0
        for i, q in enumerate(truth.qi_tuples):
            weight = truth.weights[i]
            for j, s in enumerate(truth.sa_domain):
                p = truth.matrix[i, j]
                if p > 0:
                    total += weight * p * math.log2(p / estimate.prob(q, s))
        assert estimation_accuracy(truth, estimate) == pytest.approx(total)

    def test_infinite_when_estimate_misses_support(self, truth):
        rows = len(truth.qi_tuples)
        cols = len(truth.sa_domain)
        matrix = np.zeros((rows, cols))
        matrix[:, 0] = 1.0  # point mass on one SA value
        broken = PosteriorTable(truth.qi_tuples, truth.sa_domain, matrix, truth.weights)
        assert math.isinf(estimation_accuracy(truth, broken))

    def test_base_parameter_scales(self, truth):
        baseline = PrivacyMaxEnt(paper_published()).posterior()
        bits = estimation_accuracy(truth, baseline, base=2.0)
        nats = estimation_accuracy(truth, baseline, base=math.e)
        assert bits == pytest.approx(nats / math.log(2))


class TestPerTupleAccuracy:
    def test_breakdown_sums_to_total(self, truth):
        baseline = PrivacyMaxEnt(paper_published()).posterior()
        breakdown = per_tuple_accuracy(truth, baseline)
        weighted = sum(
            truth.weight(q) * value for q, value in breakdown.items()
        )
        assert weighted == pytest.approx(estimation_accuracy(truth, baseline))

    def test_fully_disclosed_tuple_has_zero_distance(self, truth):
        informed = PrivacyMaxEnt(
            paper_published(),
            knowledge=[
                ConditionalProbability(
                    given={"gender": "male"}, sa_value=S1, probability=0.0
                )
            ],
        ).posterior()
        breakdown = per_tuple_accuracy(truth, informed)
        # Grace (female, junior) is fully determined -> KL = 0 there.
        assert breakdown[("female", "junior")] == pytest.approx(0.0, abs=1e-6)


class TestJointKL:
    def test_identical_zero(self):
        joint = {("q", "s", 0): 0.4, ("q", "s", 1): 0.6}
        assert joint_kl(joint, joint) == pytest.approx(0.0)

    def test_missing_support_infinite(self):
        p = {("q", "s", 0): 1.0}
        q = {("q", "t", 0): 1.0}
        assert math.isinf(joint_kl(p, q))

    def test_known_value(self):
        p = {("a",): 1.0}
        q = {("a",): 0.5, ("b",): 0.5}
        assert joint_kl(p, q) == pytest.approx(1.0)  # 1 bit


# -- vectorized metrics vs per-row scalar sums --------------------------------

PARITY_TOL = 1e-12

_ENTRIES = st.one_of(
    st.just(0.0),
    st.sampled_from((ZERO_TOL / 10, ZERO_TOL, 2 * ZERO_TOL, -1e-12)),
    st.floats(0.0, 1.0),
)


@st.composite
def posterior_pairs(draw, entries=_ENTRIES):
    """A truth table and an estimate over the same rows, shuffled."""
    n_rows = draw(st.integers(1, 8))
    n_sa = draw(st.integers(1, 5))
    shape = (n_rows, n_sa)

    def matrix():
        cells = draw(st.lists(entries, min_size=n_rows * n_sa, max_size=n_rows * n_sa))
        return np.array(cells).reshape(shape)

    weights = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    )
    qi = [(f"q{i}",) for i in range(n_rows)]
    sa = tuple(f"s{j}" for j in range(n_sa))
    order = draw(st.permutations(range(n_rows)))
    truth = PosteriorTable(qi, sa, matrix(), weights)
    estimate_matrix = matrix()
    estimate = PosteriorTable(
        [qi[i] for i in order], sa, estimate_matrix[order], weights[order]
    )
    return truth, estimate, estimate_matrix


def _scalar_accuracy(truth, estimate_matrix):
    terms = [
        (truth.weights[i], kl_divergence(truth.matrix[i], estimate_matrix[i]))
        for i in range(len(truth.qi_tuples))
        if truth.weights[i] > 0
    ]
    if any(math.isinf(d) for _, d in terms):
        return math.inf
    return sum(w * d for w, d in terms)


def _assert_close(actual, expected):
    if math.isinf(expected):
        assert actual == expected
    else:
        assert actual == pytest.approx(expected, rel=0, abs=PARITY_TOL)


class TestVectorizedMetricParity:
    @settings(max_examples=300, deadline=None)
    @given(posterior_pairs())
    def test_estimation_accuracy(self, case):
        truth, estimate, estimate_matrix = case
        _assert_close(
            estimation_accuracy(truth, estimate),
            _scalar_accuracy(truth, estimate_matrix),
        )

    @settings(max_examples=300, deadline=None)
    @given(posterior_pairs())
    def test_per_tuple_accuracy(self, case):
        truth, estimate, estimate_matrix = case
        breakdown = per_tuple_accuracy(truth, estimate)
        assert list(breakdown) == truth.qi_tuples
        for i, q in enumerate(truth.qi_tuples):
            _assert_close(
                breakdown[q], kl_divergence(truth.matrix[i], estimate_matrix[i])
            )

    @settings(max_examples=300, deadline=None)
    @given(posterior_pairs())
    def test_expected_posterior_entropy(self, case):
        _, estimate, _ = case
        expected = sum(
            estimate.weights[i] * entropy(estimate.matrix[i])
            for i in range(len(estimate.qi_tuples))
        )
        _assert_close(expected_posterior_entropy(estimate), expected)

    @settings(max_examples=100, deadline=None)
    @given(posterior_pairs(entries=st.sampled_from((0.0, 0.5, 1.0, -1e-6))))
    def test_negative_entries_raise_like_the_scalar_sums(self, case):
        truth, estimate, estimate_matrix = case
        weighted = truth.weights > 0
        scalar_raises = bool(
            (truth.matrix[weighted] < -1e-9).any()
            or (estimate_matrix[weighted] < -1e-9).any()
        )
        if scalar_raises:
            with pytest.raises(ReproError):
                estimation_accuracy(truth, estimate)
        else:
            _assert_close(
                estimation_accuracy(truth, estimate),
                _scalar_accuracy(truth, estimate_matrix),
            )
        if (estimate.matrix < -1e-9).any():
            with pytest.raises(ReproError):
                expected_posterior_entropy(estimate)
        if (truth.matrix < -1e-9).any() or (estimate_matrix < -1e-9).any():
            with pytest.raises(ReproError):
                per_tuple_accuracy(truth, estimate)

    def test_unsupported_estimate_is_infinite(self):
        qi, sa = [("a",), ("b",)], ("x", "y")
        truth = PosteriorTable(qi, sa, [[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5])
        estimate = PosteriorTable(qi, sa, [[0.5, 0.5], [0.0, 1.0]], [0.5, 0.5])
        assert estimation_accuracy(truth, estimate) == math.inf
        assert per_tuple_accuracy(truth, estimate) == {
            ("a",): 0.0,
            ("b",): math.inf,
        }
