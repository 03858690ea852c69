"""One release model: the space and data rows every path builds once.

:class:`~repro.core.privacy_maxent.ReleaseModel` is the only code that
builds a release's variable space and data-invariant rows.  A quantifier
on a shared model must equal a fresh one bit for bit, ``assess`` must
build the model once for all its bounds, and the service's compiled
systems must fingerprint like the library's.
"""

import dataclasses
from collections import Counter

import pytest

import repro.core.privacy_maxent as pipeline
from repro.anonymize.anatomy import anatomize
from repro.core.privacy_maxent import (
    PrivacyMaxEnt,
    ReleaseModel,
    assess,
    score_posterior,
)
from repro.core.quantifier import PosteriorTable
from repro.data.adult import load_adult_synthetic
from repro.data.paper_example import Q1, S1, S2, paper_published
from repro.engine.engine import PrivacyEngine
from repro.errors import KnowledgeError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.individuals import IndividualProbability, PseudonymTable
from repro.knowledge.mining import mine_association_rules
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.indexing import PersonVariableSpace
from repro.service.store import RegisteredRelease

BOUNDS = [TopKBound(k // 2, k - k // 2) for k in (0, 25, 50, 100, 200)]
MALE_FLU = ConditionalProbability(
    given={"gender": "male"}, sa_value=S2, probability=0.3
)


@pytest.fixture(scope="module")
def adult7():
    table = load_adult_synthetic(n_records=1000, seed=7)
    published = anatomize(table, l=5, exempt="auto", seed=7)
    return table, published, mine_association_rules(table)


def alice_statement(published):
    alice = PseudonymTable(published).assign(Q1)
    return IndividualProbability(person=alice, sa_value=S1, probability=0.2)


def scores(assessment):
    """An assessment without its timings: every score plus convergence."""
    stats = assessment.stats
    return (
        dataclasses.replace(assessment, stats=None),
        stats.converged,
        stats.iterations,
    )


class TestSharedModel:
    def test_assess_equals_fresh_quantifiers(self, adult7):
        table, published, rules = adult7
        shared = assess(
            table, published, BOUNDS, rules=rules,
            engine=PrivacyEngine(cache_size=0),
        )
        truth = PosteriorTable.from_table(table)
        model = ReleaseModel(published)
        for bound, assessment in zip(BOUNDS, shared):
            statements = bound.statements(rules)
            fresh = PrivacyMaxEnt(
                published, statements, engine=PrivacyEngine(cache_size=0)
            )
            on_model = PrivacyMaxEnt(
                model, statements, engine=PrivacyEngine(cache_size=0)
            )
            assert (
                on_model.posterior().matrix.tobytes()
                == fresh.posterior().matrix.tobytes()
            )
            assert on_model.solve().p.tobytes() == fresh.solve().p.tobytes()
            expected = score_posterior(
                bound,
                truth,
                fresh.posterior(),
                n_constraints=fresh.n_knowledge_rows,
                stats=fresh.solve().stats,
            )
            assert scores(assessment) == scores(expected)

    def test_assess_builds_the_release_once(self, adult7, monkeypatch):
        table, published, _ = adult7
        calls = Counter()
        for name in (
            "GroupVariableSpace",
            "data_constraints",
            "compile_statements",
            "mine_association_rules",
        ):
            original = getattr(pipeline, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, spy)
        assess(table, published, BOUNDS, engine=PrivacyEngine(cache_size=0))
        assert calls == {
            "GroupVariableSpace": 1,
            "data_constraints": 1,
            "compile_statements": len(BOUNDS),
            "mine_association_rules": 1,
        }

    def test_compile_returns_a_fresh_system(self):
        model = ReleaseModel(paper_published())
        with_row, n_with, _ = model.compile([MALE_FLU])
        without, n_without, _ = model.compile([])
        assert (n_with, n_without) == (1, 0)
        assert with_row.n_equalities == without.n_equalities + 1
        # The first system's knowledge row did not leak into the model.
        assert model.compile([])[0].n_equalities == without.n_equalities

    def test_quantifier_reads_the_model(self):
        model = ReleaseModel(paper_published())
        quantifier = PrivacyMaxEnt(model, [MALE_FLU])
        assert quantifier.published is model.published
        assert quantifier.space is model.space
        assert quantifier.n_knowledge_rows == 1


class TestServiceAgrees:
    @pytest.mark.parametrize("source", ["paper", "adult"])
    def test_registered_release_fingerprint(self, source, adult7):
        if source == "paper":
            published, statements = paper_published(), [MALE_FLU]
        else:
            _, published, rules = adult7
            statements = TopKBound(50, 50).statements(rules)
        record = RegisteredRelease("r", published)
        served, n_served, _ = record.compiled_system(statements)
        library = PrivacyMaxEnt(published, statements)
        engine = PrivacyEngine(cache_size=0)
        assert engine.request_fingerprint(served) == engine.request_fingerprint(
            library.system
        )
        assert n_served == library.n_knowledge_rows


class TestIndividualKnowledge:
    def test_group_model_refuses_individual_statements(self):
        published = paper_published()
        model = ReleaseModel(published)
        statement = alice_statement(published)
        with pytest.raises(KnowledgeError):
            PrivacyMaxEnt(model, [statement])
        with pytest.raises(KnowledgeError):
            PrivacyMaxEnt(model, individuals=True)
        with pytest.raises(KnowledgeError):
            model.compile([statement])

    def test_person_model_equals_a_fresh_quantifier(self):
        published = paper_published()
        statement = alice_statement(published)
        model = ReleaseModel(published, individuals=True)
        assert isinstance(model.space, PersonVariableSpace)
        on_model = PrivacyMaxEnt(model, [statement])
        assert on_model.pseudonyms is model.pseudonyms
        assert (
            on_model.person_posterior()
            == PrivacyMaxEnt(published, [statement]).person_posterior()
        )
