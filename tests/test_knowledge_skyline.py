"""Tests for the privacy-skyline (l, k, m) bound bridge."""

from itertools import product

import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import paper_published, paper_table
from repro.errors import KnowledgeError
from repro.knowledge.individuals import (
    GroupCountAtLeast,
    IndividualProbability,
    PseudonymTable,
)
from repro.knowledge.skyline import SkylineBound
from repro.maxent.solver import MaxEntConfig


@pytest.fixture(scope="module")
def setting():
    published = paper_published()
    return paper_table(), published, PseudonymTable(published)


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(Exception):
            SkylineBound(-1, 0, 0)

    def test_describe_uses_chen_notation(self):
        assert SkylineBound(2, 1, 1).describe() == "skyline(2, 1, 2)"

    def test_target_row_bounds(self, setting):
        table, _published, pseudonyms = setting
        with pytest.raises(KnowledgeError):
            SkylineBound(0, 0, 0).instantiate(
                table, pseudonyms, target_row=99
            )


class TestInstantiation:
    def test_statement_families(self, setting):
        table, _published, pseudonyms = setting
        target, statements = SkylineBound(2, 1, 1).instantiate(
            table, pseudonyms, target_row=0, seed=1
        )
        negations = [
            s
            for s in statements
            if isinstance(s, IndividualProbability) and s.probability == 0.0
        ]
        certainties = [
            s
            for s in statements
            if isinstance(s, IndividualProbability) and s.probability == 1.0
        ]
        groups = [s for s in statements if isinstance(s, GroupCountAtLeast)]
        assert len(negations) == 1
        assert all(s.person == target for s in negations)
        assert len(certainties) == 2
        assert all(s.person != target for s in certainties)
        assert len(groups) == 1
        assert target in groups[0].persons

    def test_statements_are_true_of_the_data(self, setting):
        """Skyline facts mined from D must always be jointly feasible."""
        table, published, pseudonyms = setting
        _target, statements = SkylineBound(3, 2, 1).instantiate(
            table, pseudonyms, target_row=2, seed=5
        )
        engine = PrivacyMaxEnt(
            published, knowledge=statements, config=MaxEntConfig(tol=1e-8)
        )
        solution = engine.solve()
        assert solution.stats.converged

    def test_a_known_other_drawn_as_a_peer_keeps_one_pseudonym(self, setting):
        # Target row 6 (female junior, Breast Cancer): seed 0 draws row 2
        # (female college, Breast Cancer) as a known other and then as
        # the peer.  Both facts are about the same person.
        table, published, _pseudonyms = setting
        _target, statements = SkylineBound(3, 2, 1).instantiate(
            table, PseudonymTable(published), target_row=6, seed=0
        )
        certain = {
            s.person
            for s in statements
            if isinstance(s, IndividualProbability) and s.probability == 1.0
        }
        (group,) = [s for s in statements if isinstance(s, GroupCountAtLeast)]
        peers = set(group.persons[1:])
        assert peers and peers <= certain

    def test_infeasible_bounds_detected(self, setting):
        table, _published, pseudonyms = setting
        # Allen (row 0, Flu): only two other Flu carriers exist.
        with pytest.raises(KnowledgeError, match="peers"):
            SkylineBound(0, 0, 5).instantiate(
                table, pseudonyms, target_row=0, seed=0
            )
        # Denying more values than the buckets offer.
        with pytest.raises(KnowledgeError, match="deny"):
            SkylineBound(0, 10, 0).instantiate(
                table, pseudonyms, target_row=0, seed=0
            )

    def test_deterministic_per_seed(self, setting):
        table, _published, pseudonyms = setting
        _t1, first = SkylineBound(2, 1, 0).instantiate(
            table, pseudonyms, target_row=1, seed=9
        )
        _t2, second = SkylineBound(2, 1, 0).instantiate(
            table, pseudonyms, target_row=1, seed=9
        )
        assert [s.describe() for s in first] == [s.describe() for s in second]


class TestDisclosureEffect:
    def test_stronger_skyline_tightens_target_posterior(self, setting):
        """Growing (l, k, m) must sharpen the target's inferred value."""
        table, published, pseudonyms = setting
        target_row = 2  # Cathy (female college, Breast Cancer)
        truth = table.sa_labels()[target_row]

        def target_confidence(bound: SkylineBound) -> float:
            pseudo = PseudonymTable(published)  # fresh naming each run
            target, statements = bound.instantiate(
                table, pseudo, target_row=target_row, seed=3
            )
            engine = PrivacyMaxEnt(
                published,
                knowledge=statements,
                individuals=True,  # (0,0,0) yields no statements
                config=MaxEntConfig(raise_on_infeasible=False),
            )
            return engine.person_posterior()[target.name].get(truth, 0.0)

        weak = target_confidence(SkylineBound(0, 0, 0))
        negged = target_confidence(SkylineBound(0, 2, 0))
        assert negged >= weak - 1e-9


#: (l_others, k_negations, m_peers) of the paper-example sweep.
SWEEP_BOUNDS = [
    (0, 0, 0),
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (1, 1, 1),
    (2, 0, 1),
    (2, 1, 1),
    (3, 0, 1),
    (3, 2, 1),
]


class TestPaperExampleSweep:
    def test_every_instance_is_true_of_the_data(self, setting):
        """Every bound the data supports, against every target and seed,
        compiles to feasible knowledge that the solve converges on."""
        table, published, _pseudonyms = setting
        instances = 0
        for bound, row, seed in product(SWEEP_BOUNDS, range(10), range(6)):
            try:
                _target, statements = SkylineBound(*bound).instantiate(
                    table, PseudonymTable(published), target_row=row, seed=seed
                )
            except KnowledgeError:
                continue  # the data cannot support this bound here
            # Contradictory statements raise InfeasibleKnowledgeError.
            solution = PrivacyMaxEnt(
                published, knowledge=statements, individuals=True
            ).solve()
            assert solution.stats.converged, (bound, row, seed)
            instances += 1
        assert instances == 552
