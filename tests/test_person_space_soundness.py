"""Soundness of the Section 6 person-level invariants.

The paper omits the derivation details ("the derivation process is
similar... we omit the details"); these tests supply the missing assurance:
the *true* person-level assignment — each pseudonym standing for the actual
record occupying its slot — satisfies every person/slot/SA row, on the
running example and on randomized instances.
"""

import numpy as np
import pytest

from repro.anonymize.anatomy import anatomize
from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.core.quantifier import person_posterior
from repro.data.adult import load_adult_synthetic
from repro.data.paper_example import RECORDS, paper_published, paper_table
from repro.knowledge.individuals import IndividualProbability, PseudonymTable
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import data_constraints
from repro.maxent.indexing import PersonVariableSpace

from tests.helpers import random_published


def empirical_person_vector(table, published, bucket_of_row):
    """The truth as a person-space joint: pseudonym k of QI group q is the
    k-th occurrence of q in row order, carrying its real (s, b)."""
    pseudonyms = PseudonymTable(published)
    space = PersonVariableSpace(pseudonyms)
    qi = table.qi_tuples()
    sa = table.sa_labels()
    seen: dict[tuple, int] = {}
    p = np.zeros(space.n_vars)
    n = table.n_rows
    for row in range(n):
        q = qi[row]
        index = seen.get(q, 0)
        seen[q] = index + 1
        person = pseudonyms.of_qi(q)[index]
        var = space.index_of(person, sa[row], int(bucket_of_row[row]))
        assert var >= 0, "the true placement must be a valid variable"
        p[var] = 1.0 / n
    return space, p


class TestPaperExample:
    def test_true_assignment_feasible(self):
        table = paper_table()
        published = paper_published()
        bucket_of_row = [bucket for *_r, bucket in RECORDS]
        space, p = empirical_person_vector(table, published, bucket_of_row)
        system = data_constraints(space)
        assert system.residual(p) < 1e-12

    def test_total_mass_one(self):
        table = paper_table()
        published = paper_published()
        bucket_of_row = [bucket for *_r, bucket in RECORDS]
        _space, p = empirical_person_vector(table, published, bucket_of_row)
        assert p.sum() == pytest.approx(1.0)


class TestRandomizedInstances:
    def test_true_assignment_always_feasible(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            table, published, bucket_of_row = random_published(
                rng, n_buckets=3, max_bucket_size=4
            )
            space, p = empirical_person_vector(
                table, published, bucket_of_row
            )
            system = data_constraints(space)
            assert system.residual(p) < 1e-12

    def test_maxent_entropy_dominates_truth(self):
        """The person-space MaxEnt solution has entropy >= the true
        (deterministic) assignment's entropy — sanity of the objective."""
        from repro.maxent.solver import MaxEntConfig, solve_maxent
        from repro.utils.probability import entropy

        rng = np.random.default_rng(7)
        table, published, bucket_of_row = random_published(
            rng, n_buckets=2, max_bucket_size=3
        )
        space, truth = empirical_person_vector(table, published, bucket_of_row)
        system = data_constraints(space)
        solution = solve_maxent(space, system, MaxEntConfig(tol=1e-8))
        assert solution.entropy() >= entropy(truth) - 1e-9


class TestIndividualKnowledge:
    def test_disclosure_grows_with_facts(self):
        """Each "person i does not have s" fact can only sharpen the
        person-level posterior: the largest P(s | person) never drops
        as the adversary learns more such facts."""
        table = load_adult_synthetic(n_records=150, seed=13)
        published = anatomize(table, l=5, seed=13)
        pseudonyms = PseudonymTable(published)
        educations = table.labels("education")
        facts = []
        seen: dict[tuple, int] = {}
        for row, q in enumerate(table.qi_tuples()):
            index = seen.get(q, 0)
            seen[q] = index + 1
            candidates = set()
            for bucket in published.buckets:
                if q in bucket.distinct_qi():
                    candidates.update(bucket.distinct_sa())
            # Rule out a value the person does NOT have.
            candidates.discard(educations[row])
            if candidates:
                facts.append(
                    IndividualProbability(
                        person=pseudonyms.of_qi(q)[index],
                        sa_value=sorted(candidates)[0],
                        probability=0.0,
                    )
                )
        sharpest = []
        for count in (0, 10, 40):
            solution = PrivacyMaxEnt(
                published,
                knowledge=facts[:count],
                individuals=True,
                config=MaxEntConfig(raise_on_infeasible=False),
            ).solve()
            posterior = person_posterior(solution)
            sharpest.append(max(max(d.values()) for d in posterior.values()))
        for fewer, more in zip(sharpest, sharpest[1:]):
            assert more >= fewer - 1e-9
