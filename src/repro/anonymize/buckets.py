"""The bucketized-table model (Xiao & Tao's bucketization, Section 1).

A bucketized release partitions the records into buckets.  Within a bucket
the QI tuples are published exactly, but the SA values are published as a
bag, severing the record-level QI <-> SA binding.  An *assignment*
(Definition 5.2/5.3 of the paper) is a way to re-attach the SA bag of a
bucket to its QI slots; the original table corresponds to one (unknown)
assignment.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema
from repro.data.table import QITuple, Table
from repro.errors import AnonymizationError

Assignment = tuple[tuple[QITuple, str], ...]


@dataclass(frozen=True)
class Bucket:
    """One bucket: parallel QI slots and an SA bag of equal size.

    ``qi_tuples`` keeps one entry per record (duplicates preserved — the
    paper's Figure 2 stresses that repeated values are distinct instances);
    ``sa_values`` is the multiset of sensitive values, order meaningless.
    """

    index: int
    qi_tuples: tuple[QITuple, ...]
    sa_values: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.qi_tuples) != len(self.sa_values):
            raise AnonymizationError(
                f"bucket {self.index}: {len(self.qi_tuples)} QI slots but "
                f"{len(self.sa_values)} SA values"
            )
        if not self.qi_tuples:
            raise AnonymizationError(f"bucket {self.index} is empty")

    @property
    def size(self) -> int:
        """Number of records in the bucket."""
        return len(self.qi_tuples)

    def qi_counts(self) -> Counter:
        """Multiplicity of each distinct QI tuple (``n(q, b)``)."""
        return Counter(self.qi_tuples)

    def sa_counts(self) -> Counter:
        """Multiplicity of each distinct SA value (``n(s, b)``)."""
        return Counter(self.sa_values)

    def distinct_qi(self) -> tuple[QITuple, ...]:
        """``QI(b)``: the distinct QI tuples, in first-appearance order."""
        seen: dict[QITuple, None] = {}
        for q in self.qi_tuples:
            seen.setdefault(q, None)
        return tuple(seen)

    def distinct_sa(self) -> tuple[str, ...]:
        """``SA(b)``: the distinct SA values, in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.sa_values:
            seen.setdefault(s, None)
        return tuple(seen)


class BucketizedTable:
    """A published bucketized dataset ``D'``.

    This object intentionally carries *only* information an adversary sees:
    the schema (without IDs), the per-bucket QI slots and SA bags.  Ground
    truth stays in the original :class:`~repro.data.table.Table`.
    """

    def __init__(self, schema: Schema, buckets: Sequence[Bucket]) -> None:
        if not buckets:
            raise AnonymizationError("a bucketized table needs at least one bucket")
        expected = list(range(len(buckets)))
        if [b.index for b in buckets] != expected:
            raise AnonymizationError(
                "bucket indices must be 0..m-1 in order; got "
                f"{[b.index for b in buckets]!r}"
            )
        self._schema = schema.without_ids()
        self._buckets = tuple(buckets)
        self._n_records = sum(b.size for b in self._buckets)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_assignment(
        cls, table: Table, bucket_of_row: Sequence[int] | np.ndarray
    ) -> "BucketizedTable":
        """Bucketize ``table`` according to a per-row bucket id array.

        Bucket ids must form a contiguous range ``0..m-1``.  This is the
        bridge every bucketization algorithm uses to emit its result.
        """
        ids = np.asarray(bucket_of_row, dtype=np.int64)
        if ids.shape != (table.n_rows,):
            raise AnonymizationError(
                f"bucket_of_row must have one entry per row "
                f"({table.n_rows}), got shape {ids.shape}"
            )
        if table.n_rows == 0:
            raise AnonymizationError("cannot bucketize an empty table")
        m = int(ids.max()) + 1
        present = np.unique(ids)
        if int(present.min()) < 0 or present.size != m:
            raise AnonymizationError("bucket ids must form a contiguous 0..m-1 range")
        qi = table.qi_tuples()
        sa = table.sa_labels()
        buckets = []
        for b in range(m):
            rows = np.nonzero(ids == b)[0]
            buckets.append(
                Bucket(
                    index=b,
                    qi_tuples=tuple(qi[int(r)] for r in rows),
                    sa_values=tuple(sa[int(r)] for r in rows),
                )
            )
        return cls(table.schema, buckets)

    # -- accessors ----------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """Published schema (IDs removed)."""
        return self._schema

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """All buckets, ordered by index."""
        return self._buckets

    @property
    def n_buckets(self) -> int:
        """Number of buckets ``m``."""
        return len(self._buckets)

    @property
    def n_records(self) -> int:
        """Total number of records ``N``."""
        return self._n_records

    def bucket(self, index: int) -> Bucket:
        """Bucket ``index`` (0-based)."""
        try:
            return self._buckets[index]
        except IndexError:
            raise AnonymizationError(
                f"bucket {index} out of range [0, {self.n_buckets})"
            ) from None

    # -- published marginals -------------------------------------------------
    #
    # QI attributes are undisguised in bucketization, so these marginals are
    # exactly the original ones; the MaxEnt constraints use them as P(Q),
    # P(Q, B), P(S, B) constants (Section 3.1).

    def qi_marginal(self) -> Counter:
        """``N * P(q)``: total count of each QI tuple across buckets."""
        total: Counter = Counter()
        for bucket in self._buckets:
            total.update(bucket.qi_counts())
        return total

    def sa_marginal(self) -> Counter:
        """``N * P(s)``: total count of each SA value across buckets."""
        total: Counter = Counter()
        for bucket in self._buckets:
            total.update(bucket.sa_counts())
        return total

    def qv_count(self, qv: dict[str, str]) -> int:
        """Count of records whose QI tuple matches the partial spec ``qv``.

        ``qv`` maps a subset of QI attribute names to values.  A plain scan
        of the QI marginal: the knowledge compiler resolves ``P(Qv)``
        through the variable space's batch matcher instead, and the
        compiler tests use this as the reference for it.
        """
        positions = {
            self._schema.qi_index(name): value for name, value in qv.items()
        }
        total = 0
        for q, count in self.qi_marginal().items():
            if all(q[pos] == value for pos, value in positions.items()):
                total += count
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BucketizedTable(n_buckets={self.n_buckets}, "
            f"n_records={self.n_records})"
        )


def enumerate_assignments(bucket: Bucket) -> Iterator[Assignment]:
    """Yield every distinct assignment (Definition 5.2) of a bucket.

    An assignment pairs each QI slot with one SA value such that the SA
    multiset is used exactly.  Distinctness is at the level of the resulting
    (QI tuple, SA value) pair multiset: swapping two equal SA values between
    equal QI tuples does not create a new assignment.  Exponential in bucket
    size — intended for tests and small pedagogical examples only.
    """
    slots = list(bucket.qi_tuples)

    def recurse(i: int, remaining: Counter, acc: list[tuple[QITuple, str]]):
        if i == len(slots):
            yield tuple(acc)
            return
        # When consecutive slots carry the same QI tuple, force a canonical
        # (sorted) order of the SA values assigned to them to avoid emitting
        # permutations that represent the same assignment.
        for value in sorted(remaining):
            if remaining[value] <= 0:
                continue
            if i > 0 and slots[i] == slots[i - 1] and acc[i - 1][1] > value:
                continue
            remaining[value] -= 1
            acc.append((slots[i], value))
            yield from recurse(i + 1, remaining, acc)
            acc.pop()
            remaining[value] += 1

    # Group equal QI slots together so the canonical-order pruning applies.
    slots.sort()
    yield from recurse(0, Counter(bucket.sa_values), [])


def assignment_joint_counts(assignment: Assignment) -> Counter:
    """Counter of (QI tuple, SA value) pairs realized by an assignment."""
    return Counter(assignment)
