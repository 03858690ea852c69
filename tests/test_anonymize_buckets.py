"""Unit tests for the bucketized-table model and assignment enumeration."""

from collections import Counter

import numpy as np
import pytest

from repro.anonymize.buckets import (
    Bucket,
    BucketizedTable,
    assignment_joint_counts,
    enumerate_assignments,
)
from repro.data.paper_example import Q1, Q2, Q3, paper_published, paper_table
from repro.errors import AnonymizationError


class TestBucket:
    def test_counts_preserve_multiplicity(self):
        bucket = Bucket(
            index=0,
            qi_tuples=(Q1, Q1, Q2),
            sa_values=("Flu", "Flu", "HIV"),
        )
        assert bucket.qi_counts()[Q1] == 2
        assert bucket.sa_counts()["Flu"] == 2
        assert bucket.size == 3

    def test_distinct_preserves_order(self):
        bucket = Bucket(
            index=0, qi_tuples=(Q2, Q1, Q2), sa_values=("a", "b", "a")
        )
        assert bucket.distinct_qi() == (Q2, Q1)
        assert bucket.distinct_sa() == ("a", "b")

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnonymizationError):
            Bucket(index=0, qi_tuples=(Q1,), sa_values=("a", "b"))

    def test_empty_rejected(self):
        with pytest.raises(AnonymizationError):
            Bucket(index=0, qi_tuples=(), sa_values=())


class TestBucketizedTable:
    def test_paper_example_shape(self):
        published = paper_published()
        assert published.n_buckets == 3
        assert published.n_records == 10
        assert published.bucket(0).size == 4
        assert published.bucket(1).size == 3
        assert published.bucket(2).size == 3

    def test_qi_marginal_matches_paper(self):
        published = paper_published()
        marginal = published.qi_marginal()
        assert marginal[Q1] == 3  # q1 appears three times in the data
        assert marginal[Q2] == 2

    def test_qv_count_partial_match(self):
        published = paper_published()
        # P(male) = 6/10 in the paper's Section 4.1 example.
        assert published.qv_count({"gender": "male"}) == 6
        assert published.qv_count({"gender": "female", "degree": "college"}) == 2

    def test_sa_marginal(self):
        published = paper_published()
        marginal = published.sa_marginal()
        assert marginal["Flu"] == 3
        assert marginal["Breast Cancer"] == 2
        assert sum(marginal.values()) == 10

    def test_bucket_out_of_range(self):
        with pytest.raises(AnonymizationError):
            paper_published().bucket(17)

    def test_from_assignment_requires_contiguous_ids(self):
        table = paper_table()
        ids = np.zeros(table.n_rows, dtype=np.int64)
        ids[0] = 2  # gap: bucket 1 missing
        with pytest.raises(AnonymizationError):
            BucketizedTable.from_assignment(table, ids)

    def test_from_assignment_requires_full_cover(self):
        table = paper_table()
        with pytest.raises(AnonymizationError):
            BucketizedTable.from_assignment(table, np.zeros(3, dtype=np.int64))

    def test_non_sequential_bucket_construction_rejected(self):
        bucket = Bucket(index=1, qi_tuples=(Q1,), sa_values=("Flu",))
        with pytest.raises(AnonymizationError):
            BucketizedTable(paper_table().schema, [bucket])


class TestQIValueCodes:
    def test_built_once_on_first_use(self):
        from repro.maxent.indexing import GroupVariableSpace

        published = paper_published()
        assert published._qi_value_codes is None
        first = GroupVariableSpace(published)
        first.match_antecedents([{"gender": "male"}])
        codes = published.qi_value_codes
        second = GroupVariableSpace(published)
        second.match_antecedents([{"degree": "college"}])
        assert published.qi_value_codes is codes

    def test_codes_in_first_appearance_order(self):
        published = paper_published()
        codes, code_of = published.qi_value_codes
        tuples = published.codes.qi_tuples
        assert codes.shape == (len(tuples), len(published.schema.qi_attributes))
        assert not codes.flags.writeable
        for position, lookup in enumerate(code_of):
            values = [q[position] for q in tuples]
            assert list(lookup) == list(dict.fromkeys(values))
            assert codes[:, position].tolist() == [lookup[v] for v in values]


class TestEnumerateAssignments:
    def test_figure2_count(self):
        """Figure 2's bucket (q1, q1, q2, q3 with SA bag s1,s2,s2,s3).

        Slots: 4.  SA multiset has 4!/2! = 12 orderings, but the two q1
        slots are interchangeable; orderings differing only by swapping the
        q1 slots coincide.  Distinct assignments: 12 total orderings, those
        with equal values on the q1 pair stay distinct once... enumerate and
        check against a brute-force set instead of trusting arithmetic.
        """
        bucket = paper_published().bucket(0)
        assignments = list(enumerate_assignments(bucket))
        # Brute force over all permutations, canonicalized.
        from itertools import permutations

        slots = sorted(bucket.qi_tuples)
        seen = set()
        for perm in set(permutations(bucket.sa_values)):
            seen.add(frozenset(Counter(zip(slots, perm)).items()))
        assert len(assignments) == len(seen)
        produced = {
            frozenset(Counter(a).items()) for a in assignments
        }
        assert produced == seen

    def test_each_assignment_uses_sa_bag_exactly(self):
        bucket = paper_published().bucket(0)
        for assignment in enumerate_assignments(bucket):
            values = Counter(s for _q, s in assignment)
            assert values == bucket.sa_counts()

    def test_single_record_bucket(self):
        bucket = Bucket(index=0, qi_tuples=(Q3,), sa_values=("Flu",))
        assignments = list(enumerate_assignments(bucket))
        assert assignments == [((Q3, "Flu"),)]

    def test_joint_counts_helper(self):
        assignment = ((Q1, "Flu"), (Q1, "Flu"), (Q2, "HIV"))
        counts = assignment_joint_counts(assignment)
        assert counts[(Q1, "Flu")] == 2
        assert counts[(Q2, "HIV")] == 1
