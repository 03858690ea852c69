"""Unit tests for variable index spaces."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.anonymize.anatomy import anatomize
from repro.anonymize.diversity import check_eligibility
from repro.anonymize.mondrian import mondrian_anonymize
from repro.anonymize.suppress import suppress_for_diversity

from repro.data.paper_example import (
    Q1,
    Q2,
    Q3,
    Q4,
    S1,
    S2,
    S4,
    paper_published,
)
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.errors import AnonymizationError, DiversityError, KnowledgeError
from repro.knowledge.individuals import PseudonymTable
from repro.maxent.constraints import data_constraints
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from tests import legacy
from tests.helpers import random_published


@pytest.fixture(scope="module")
def space():
    return GroupVariableSpace(paper_published())


@pytest.fixture(scope="module")
def person_space():
    return PersonVariableSpace(PseudonymTable(paper_published()))


class TestGroupSpace:
    def test_variable_count(self, space):
        # Bucket 0: 3 distinct q x 3 distinct s = 9; bucket 1: 3 x 3 = 9;
        # bucket 2: 3 x 3 = 9.
        assert space.n_vars == 27

    def test_zero_invariants_have_no_variable(self, space):
        # q1 does not occur in bucket 2 (0-based), s1 does not either.
        assert space.index_of(Q1, S2, 2) == -1
        assert space.index_of(Q2, S1, 2) == -1

    def test_valid_triples_indexed(self, space):
        assert space.index_of(Q1, S2, 0) >= 0
        assert space.index_of(Q4, S1, 1) >= 0

    def test_describe_var_roundtrip(self, space):
        for var in range(space.n_vars):
            q, s, b = space.describe_var(var)
            assert space.index_of(q, s, b) == var

    def test_counts_match_paper(self, space):
        qid = space.qi_id(Q1)
        assert space.qi_bucket_count(qid, 0) == 2  # q1 twice in bucket 1
        assert space.qi_bucket_count(qid, 1) == 1
        assert space.qi_bucket_count(qid, 2) == 0
        s2_id = space.sa_id_of[S2]
        assert space.sa_bucket_count(s2_id, 0) == 2  # two Flu in bucket 1

    def test_unknown_qi_raises(self, space):
        with pytest.raises(KnowledgeError):
            space.qi_id(("alien", "phd"))

    def test_vars_matching_partial(self, space):
        hits = space.vars_matching({"gender": "male"}, S2)
        triples = {space.describe_var(int(v)) for v in hits}
        assert triples == {(Q1, S2, 0), (Q3, S2, 0), (("male", "graduate"), S2, 2)}

    def test_vars_matching_unknown_sa_empty(self, space):
        assert space.vars_matching({"gender": "male"}, "Malaria").size == 0

    def test_qv_probability(self, space):
        assert space.qv_probability({"gender": "male"}) == pytest.approx(0.6)
        assert space.qv_probability(
            {"gender": "female", "degree": "college"}
        ) == pytest.approx(0.2)

    def test_empty_qv_rejected(self, space):
        with pytest.raises(KnowledgeError):
            space.qv_probability({})


class TestPersonSpace:
    def test_variable_count(self, person_space):
        # Per bucket: (sum of pseudonym-group sizes over distinct q in the
        # bucket) x distinct SA values.
        # Bucket 0: q1(3) + q2(2) + q3(2) = 7 people x 3 SA = 21
        # Bucket 1: q1(3) + q3(2) + q4(1) = 6 x 3 = 18
        # Bucket 2: q2(2) + q5(1) + q6(1) = 4 x 3 = 12
        assert person_space.n_vars == 51

    def test_index_of_structural_zero(self, person_space):
        # i9 is Charlie (q5), only in bucket 2.
        assert person_space.index_of("i9", S4, 0) == -1
        assert person_space.index_of("i9", S4, 2) >= 0

    def test_describe_var_roundtrip(self, person_space):
        for var in range(person_space.n_vars):
            name, s, b = person_space.describe_var(var)
            assert person_space.index_of(name, s, b) == var

    def test_vars_of_person(self, person_space):
        hits = person_space.vars_of_person("i1", S2)
        buckets = {person_space.describe_var(int(v))[2] for v in hits}
        assert buckets == {0}  # Flu is only available in bucket 0 for q1

    def test_vars_of_unknown_person(self, person_space):
        with pytest.raises(KnowledgeError):
            person_space.vars_of_person("i999", S2)

    def test_vars_matching_lifts_group_query(self, person_space):
        hits = person_space.vars_matching({"gender": "male"}, S2)
        people = {person_space.describe_var(int(v))[0] for v in hits}
        # Males: i1..i3 (q1), i6, i7 (q3), i10 (q6).
        assert people == {"i1", "i2", "i3", "i6", "i7", "i10"}

    def test_qv_probability_matches_group(self, person_space, space):
        assert person_space.qv_probability(
            {"gender": "male"}
        ) == space.qv_probability({"gender": "male"})


class TestGatherCounts:
    """Vectorized (a, b) -> count lookups, including range edge cases."""

    def test_basic_lookup(self):
        from tests.helpers import gather_counts

        counts = {(0, 0): 3, (0, 2): 5, (1, 1): 7}
        out = gather_counts(
            counts, np.array([0, 0, 1, 1]), np.array([0, 2, 1, 0])
        )
        assert out.tolist() == [3.0, 5.0, 7.0, 0.0]

    def test_stored_bucket_beyond_queried_range_reads_zero(self):
        from tests.helpers import gather_counts

        # Stored buckets 5 and 9 lie beyond the queried bucket range
        # [0, 1]; they must read as zero without crashing or aliasing
        # onto a different (a, b) key through a too-small stride.
        counts = {(0, 5): 11, (1, 9): 13, (1, 0): 2}
        out = gather_counts(
            counts, np.array([0, 1, 1]), np.array([0, 0, 1])
        )
        assert out.tolist() == [0.0, 2.0, 0.0]

    def test_all_stored_beyond_range(self):
        from tests.helpers import gather_counts

        counts = {(0, 100): 1, (2, 50): 4}
        out = gather_counts(counts, np.array([0, 2]), np.array([0, 1]))
        assert out.tolist() == [0.0, 0.0]

    def test_no_false_positive_from_stride_aliasing(self):
        from tests.helpers import gather_counts

        # With a stride derived only from the *queried* b-range (the old
        # bug surface), key (1, 0) would alias stored (0, 5) when the
        # stride collapsed; the combined stride must keep them distinct.
        counts = {(0, 5): 42}
        out = gather_counts(counts, np.array([1]), np.array([0]))
        assert out.tolist() == [0.0]

    def test_empty_inputs(self):
        from tests.helpers import gather_counts

        assert gather_counts({}, np.array([1]), np.array([1])).tolist() == [0.0]
        assert gather_counts({(1, 1): 2}, np.array([]), np.array([])).size == 0

    def test_space_count_tables_match_scalar_lookups(self, space):
        pairs = space.qi_bucket_pairs()
        qids = np.array([q for q, _ in pairs])
        buckets = np.array([b for _, b in pairs])
        batch = space.qi_bucket_counts(qids, buckets)
        scalar = [space.qi_bucket_count(q, b) for q, b in pairs]
        assert batch.tolist() == scalar
        # Out-of-range bucket queries read zero.
        assert space.qi_bucket_counts(
            qids[:1], np.array([10_000])
        ).tolist() == [0.0]


# -- coded spaces against the per-bucket builder ---------------------------------


def _random_table(rng: np.random.Generator, n_rows: int) -> Table:
    """Two QI attributes of 2-3 values and an SA of 2-5 values."""
    n_q0, n_q1, n_sa = (int(v) for v in rng.integers((2, 2, 2), (4, 4, 6)))
    schema = Schema(
        attributes=(
            Attribute("q0", tuple(f"a{i}" for i in range(n_q0))),
            Attribute("q1", tuple(f"b{i}" for i in range(n_q1))),
            Attribute("s", tuple(f"s{i}" for i in range(n_sa))),
        ),
        qi_attributes=("q0", "q1"),
        sa_attribute="s",
    )
    records = [
        {
            "q0": f"a{rng.integers(n_q0)}",
            "q1": f"b{rng.integers(n_q1)}",
            "s": f"s{rng.integers(n_sa)}",
        }
        for _ in range(n_rows)
    ]
    return Table.from_records(schema, records)


@st.composite
def releases(draw):
    """Small releases of every in-tree anonymizer, plus raw bucketizations
    (duplicate QI tuples in a bucket, single-record buckets)."""
    kind = draw(
        st.sampled_from(
            ("bucketized", "anatomy", "l-diversity", "suppression", "mondrian")
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "bucketized":
        return random_published(
            rng,
            n_buckets=draw(st.integers(1, 6)),
            max_bucket_size=draw(st.integers(1, 5)),
            n_qi_values=draw(st.integers(1, 4)),
            n_sa_values=draw(st.integers(1, 4)),
        )[1]
    table = _random_table(rng, draw(st.integers(4, 30)))
    try:
        if kind == "anatomy":
            return anatomize(table, l=2, exempt="auto", seed=rng)
        if kind == "l-diversity":
            check_eligibility(Counter(table.sa_labels()), 2)
            return anatomize(table, l=2, exempt=None, seed=rng)
        if kind == "suppression":
            reduced, _ = suppress_for_diversity(table, 2, seed=rng)
            return anatomize(reduced, l=2, exempt=None, seed=rng)
        return mondrian_anonymize(table, k=2).to_buckets()
    except (AnonymizationError, DiversityError):
        assume(False)


def _assert_counts_equal(new, old) -> None:
    for family in ("qi", "sa"):
        pairs = getattr(new, f"{family}_bucket_pairs")()
        assert pairs == getattr(old, f"{family}_bucket_pairs")()
        ids = np.array([a for a, _ in pairs], dtype=np.int64)
        buckets = np.array([b for _, b in pairs], dtype=np.int64)
        counts = getattr(new, f"{family}_bucket_counts")(ids, buckets)
        expected = [getattr(old, f"{family}_bucket_count")(a, b) for a, b in pairs]
        assert counts.tolist() == expected
        assert [
            getattr(new, f"{family}_bucket_count")(a, b) for a, b in pairs
        ] == expected


def _assert_rows_equal(new, old) -> None:
    assert new.n_vars == old.n_vars
    assert len(new.equalities) == len(old.equalities)
    for a, b in zip(new.equalities, old.equalities):
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert (a.rhs, a.kind, a.label) == (b.rhs, b.kind, b.label)


def _assert_same_arrays(new, old, names) -> None:
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestCodedSpaces:
    """Both spaces read the release's record codes; everything they expose
    must equal the per-bucket ``Counter`` build of ``tests/legacy.py``."""

    @given(published=releases())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_spaces_equal_the_per_bucket_build(self, published):
        group = GroupVariableSpace(published)
        old_group = legacy.group_space_rowwise(published)
        _assert_same_arrays(group, old_group, ("var_bucket", "var_qi", "var_sa"))
        assert group.qi_tuples == old_group.qi_tuples
        assert group.sa_values == old_group.sa_values
        assert group.qi_counts.tolist() == old_group.qi_counts.tolist()
        _assert_counts_equal(group, old_group)
        _assert_rows_equal(
            data_constraints(group), legacy.data_constraints_rowwise(old_group)
        )

        pseudonyms = PseudonymTable(published)
        person = PersonVariableSpace(pseudonyms)
        old_person = legacy.person_space_rowwise(pseudonyms)
        _assert_same_arrays(
            person, old_person, ("var_person", "var_bucket", "var_sa")
        )
        assert person.qi_tuples == old_person.qi_tuples
        assert person.sa_values == old_person.sa_values
        assert person.qi_counts.tolist() == old_person.qi_counts.tolist()
        assert person.person_qi_ids().tolist() == old_person.person_qi.tolist()
        _assert_counts_equal(person, old_person)
        _assert_rows_equal(
            data_constraints(person), legacy.data_constraints_rowwise(old_person)
        )

        # The published marginals, in first-appearance order.
        assert list(published.qi_marginal().items()) == list(
            zip(old_group.qi_tuples, old_group.qi_counts.tolist())
        )
        sa_marginal: Counter = Counter()
        for bucket in published.buckets:
            sa_marginal.update(bucket.sa_counts())
        assert list(published.sa_marginal().items()) == list(sa_marginal.items())
