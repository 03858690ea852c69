"""Unit tests for association-rule mining.

The selection oracle suite at the end holds the lazily sorted rule
families to the row-wise miner in ``tests/legacy.py``, which builds every
rule and sorts each family in full.
"""

import random
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.adult import load_adult_synthetic
from repro.data.paper_example import paper_table
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.errors import KnowledgeError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.mining import MiningConfig, mine_association_rules
from repro.knowledge.rules import NegativeRule, PositiveRule
from tests.legacy import mine_association_rules_rowwise


class TestMiningConfig:
    def test_defaults(self):
        config = MiningConfig()
        assert config.min_support_count == 3  # the paper's setting

    def test_invalid_support(self):
        with pytest.raises(Exception):
            MiningConfig(min_support_count=0)

    def test_empty_sizes_rejected(self):
        with pytest.raises(KnowledgeError):
            MiningConfig(antecedent_sizes=())

    def test_bad_confidence(self):
        with pytest.raises(KnowledgeError):
            MiningConfig(min_confidence=1.5)


class TestMiningOnPaperExample:
    """Hand-verifiable counts on the 10-record Figure 1 table."""

    @pytest.fixture(scope="class")
    def rules(self):
        return mine_association_rules(
            paper_table(),
            MiningConfig(min_support_count=1, max_antecedent=2),
        )

    def find(self, rules, antecedent, sa_value):
        for rule in rules:
            if rule.antecedent == antecedent and rule.sa_value == sa_value:
                return rule
        return None

    def test_flu_given_male(self, rules):
        # 3 of 6 males have Flu: P(Flu | male) = 0.5.
        rule = self.find(rules.positive, {"gender": "male"}, "Flu")
        assert rule is not None
        assert rule.confidence == pytest.approx(0.5)
        assert rule.support == pytest.approx(3 / 10)
        assert rule.antecedent_count == 6

    def test_breast_cancer_negative_for_male(self, rules):
        # No male has Breast Cancer: the paper's canonical negative rule.
        rule = self.find(rules.negative, {"gender": "male"}, "Breast Cancer")
        assert rule is not None
        assert rule.confidence == pytest.approx(1.0)
        assert rule.support == pytest.approx(6 / 10)

    def test_two_attribute_antecedent(self, rules):
        # q1 = (male, college): 3 records, 1 with Pneumonia.
        rule = self.find(
            rules.positive,
            {"gender": "male", "degree": "college"},
            "Pneumonia",
        )
        assert rule is not None
        assert rule.confidence == pytest.approx(1 / 3)
        assert rule.antecedent_count == 3

    def test_sorted_by_confidence(self, rules):
        confidences = [r.confidence for r in rules.positive]
        assert confidences == sorted(confidences, reverse=True)
        confidences = [r.confidence for r in rules.negative]
        assert confidences == sorted(confidences, reverse=True)

    def test_rule_types(self, rules):
        assert all(isinstance(r, PositiveRule) for r in rules.positive)
        assert all(isinstance(r, NegativeRule) for r in rules.negative)

    def test_restricted_to_size(self, rules):
        only_one = rules.restricted_to_size(1)
        assert all(r.size == 1 for r in only_one.positive)
        assert all(r.size == 1 for r in only_one.negative)
        assert only_one.n_positive < rules.n_positive


class TestSupportThreshold:
    def test_min_support_filters(self):
        strict = mine_association_rules(
            paper_table(), MiningConfig(min_support_count=3, max_antecedent=1)
        )
        for rule in strict.positive:
            assert rule.support * 10 >= 3 - 1e-9

    def test_min_confidence_filters(self):
        rules = mine_association_rules(
            paper_table(),
            MiningConfig(
                min_support_count=1, max_antecedent=1, min_confidence=0.5
            ),
        )
        assert all(r.confidence >= 0.5 for r in rules.positive)
        assert all(r.confidence >= 0.5 for r in rules.negative)


class TestConsistencyWithData:
    """Every mined rule must reproduce exact empirical frequencies."""

    def test_confidence_times_antecedent_is_integer(self, adult_small):
        rules = mine_association_rules(
            adult_small, MiningConfig(min_support_count=3, max_antecedent=2)
        )
        for rule in list(rules.positive)[:200]:
            joint = rule.confidence * rule.antecedent_count
            assert abs(joint - round(joint)) < 1e-9

    def test_counts_match_table(self, adult_small):
        rules = mine_association_rules(
            adult_small, MiningConfig(min_support_count=3, max_antecedent=1)
        )
        sexes = adult_small.labels("sex")
        educations = adult_small.labels("education")
        male_hs = sum(
            1 for s, e in zip(sexes, educations)
            if s == "Male" and e == "HS-grad"
        )
        males = sexes.count("Male")
        for rule in rules.positive:
            if rule.antecedent == {"sex": "Male"} and rule.sa_value == "HS-grad":
                assert rule.confidence == pytest.approx(male_hs / males)
                assert rule.antecedent_count == males
                break
        else:
            pytest.fail("expected the (sex=Male => HS-grad) rule")

    def test_antecedent_sizes_filter(self, adult_small):
        rules = mine_association_rules(
            adult_small,
            MiningConfig(min_support_count=3, antecedent_sizes=(2,)),
        )
        sizes = Counter(r.size for r in rules.positive)
        assert set(sizes) == {2}

    def test_empty_table_rejected(self, paper_schema_fixture):
        from repro.data.table import Table

        empty = Table.from_records(paper_schema_fixture, [])
        with pytest.raises(KnowledgeError):
            mine_association_rules(empty)


# -- selection oracle: lazy families vs the full sort -------------------------

# Domains listed out of text order, so code order and the textual
# tie-break of ``sort_key`` disagree.
_VALUES = ("v2", "v0", "v1")
_QI_NAMES = ("q1", "q0", "q3", "q2")


@st.composite
def tie_heavy_tables(draw):
    """Small tables over tiny domains: many rules share (conf, support)."""
    n_qi = draw(st.integers(2, 4))
    widths = draw(st.lists(st.integers(2, 3), min_size=n_qi, max_size=n_qi))
    n_sa = draw(st.integers(2, 3))
    schema = Schema(
        attributes=(
            *(Attribute(_QI_NAMES[j], _VALUES[:w]) for j, w in enumerate(widths)),
            Attribute("sa", _VALUES[:n_sa]),
        ),
        qi_attributes=_QI_NAMES[:n_qi],
        sa_attribute="sa",
    )
    names = (*_QI_NAMES[:n_qi], "sa")
    cells = st.tuples(*(st.sampled_from(_VALUES[:w]) for w in (*widths, n_sa)))
    rows = draw(st.lists(cells, min_size=8, max_size=40))
    table = Table.from_records(schema, [dict(zip(names, row)) for row in rows])
    support = draw(st.integers(1, 3))
    confidence = draw(st.sampled_from((0.0, 0.5)))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, n_qi), min_size=1, unique=True))
        config = MiningConfig(
            min_support_count=support,
            antecedent_sizes=tuple(sizes),
            min_confidence=confidence,
        )
    else:
        config = MiningConfig(
            min_support_count=support,
            max_antecedent=draw(st.integers(1, 4)),
            min_confidence=confidence,
        )
    return table, config


def _item(rules, index):
    try:
        return rules[index]
    except IndexError:
        return IndexError


class TestSelectionOracle:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_tables(), st.data())
    def test_families_read_as_the_full_sort(self, case, data):
        table, config = case
        reference = mine_association_rules_rowwise(table, config)
        growing = mine_association_rules(table, config)
        jumping = mine_association_rules(table, config)
        iterated = mine_association_rules(table, config)
        for name, expected in zip(("positive", "negative"), reference):
            # Ascending k extends the memoized prefix one cut at a time;
            # k = 0 reads index -1, the whole family, so it goes last.
            family = getattr(growing, name)
            assert len(family) == len(expected)
            for k in [*range(1, len(expected) + 2), 0]:
                assert family[:k] == expected[:k]
                assert _item(family, k - 1) == _item(expected, k - 1)
            # Reads in random order jump past the memo and fall inside it.
            family = getattr(jumping, name)
            for k in data.draw(st.permutations(range(len(expected) + 2))):
                assert _item(family, k - 1) == _item(expected, k - 1)
                assert family[:k] == expected[:k]
            assert tuple(getattr(iterated, name)) == expected
            assert family[1::2] == expected[1::2]
        for size in range(1, 5):
            restricted = mine_association_rules(table, config).restricted_to_size(
                size
            )
            assert tuple(restricted.positive) == tuple(
                r for r in reference[0] if r.size == size
            )
            assert tuple(restricted.negative) == tuple(
                r for r in reference[1] if r.size == size
            )


    def test_concurrent_readers_see_the_full_sort(self, adult_small):
        config = MiningConfig(min_support_count=3, max_antecedent=2)
        expected = mine_association_rules_rowwise(adult_small, config)[1]
        family = mine_association_rules(adult_small, config).negative
        failures = []

        def read(seed):
            rng = random.Random(seed)
            for _ in range(40):
                k = rng.randrange(len(expected) + 2)
                if family[:k] != expected[:k]:
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@pytest.mark.parametrize("seed", [1, 4])
def test_adult_topk_statements_match_the_full_sort(seed):
    table = load_adult_synthetic(n_records=1000, seed=seed)
    config = MiningConfig()
    positive, negative = mine_association_rules_rowwise(table, config)
    reference = SimpleNamespace(positive=positive, negative=negative)
    rules = mine_association_rules(table, config)
    assert (rules.n_positive, rules.n_negative) == (len(positive), len(negative))
    for k in (0, 25, 50, 100, 200):
        for epsilon in (0.0, 0.05):
            bound = TopKBound(k // 2, k - k // 2, epsilon)
            assert bound.statements(rules) == bound.statements(reference)
