"""The bucketized-table model (Xiao & Tao's bucketization, Section 1).

A bucketized release partitions the records into buckets.  Within a bucket
the QI tuples are published exactly, but the SA values are published as a
bag, severing the record-level QI <-> SA binding.  An *assignment*
(Definition 5.2/5.3 of the paper) is a way to re-attach the SA bag of a
bucket to its QI slots; the original table corresponds to one (unknown)
assignment.

A :class:`BucketizedTable` codes its records once, at construction, into
integer arrays (:class:`RecordCodes`): each record's bucket, QI-tuple id
and SA id, with the distinct QI tuples and SA values in first-appearance
order and their counts.  The published marginals and both MaxEnt
variable spaces (:mod:`repro.maxent.indexing`) read those arrays, so no
per-bucket ``Counter`` is rebuilt per space or per posterior.  The same
pass validates the release: every QI tuple must be a tuple of one string
per QI attribute, and every SA value a string of the schema's SA domain.
QI values are not checked against their domains, because generalizing
anonymizers (Mondrian) publish range labels.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

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


class RecordCodes(NamedTuple):
    """A release's records as integer codes (read-only arrays).

    Records are numbered bucket by bucket, in slot order.  ``qi[r]`` and
    ``sa[r]`` index ``qi_tuples`` and ``sa_values``, which list the
    distinct values in order of first appearance; ``qi_counts`` and
    ``sa_counts`` are their record counts (``N * P(q)``, ``N * P(s)``).
    """

    bucket: np.ndarray
    qi: np.ndarray
    sa: np.ndarray
    qi_tuples: tuple[QITuple, ...]
    qi_id_of: dict[QITuple, int]
    qi_counts: np.ndarray
    sa_values: tuple[str, ...]
    sa_id_of: dict[str, int]
    sa_counts: np.ndarray


def _code_records(schema: Schema, buckets: tuple[Bucket, ...]) -> RecordCodes:
    """Code every record of ``buckets`` and validate the distinct values."""
    qi_id_of: dict[QITuple, int] = {}
    sa_id_of: dict[str, int] = {}
    sizes = np.fromiter(
        (b.size for b in buckets), dtype=np.int64, count=len(buckets)
    )
    n = int(sizes.sum())
    try:
        qi = np.fromiter(
            (
                qi_id_of.setdefault(q, len(qi_id_of))
                for b in buckets
                for q in b.qi_tuples
            ),
            dtype=np.int64,
            count=n,
        )
        sa = np.fromiter(
            (
                sa_id_of.setdefault(s, len(sa_id_of))
                for b in buckets
                for s in b.sa_values
            ),
            dtype=np.int64,
            count=n,
        )
    except TypeError as exc:
        raise AnonymizationError(
            f"unhashable QI tuple or SA value: {exc}"
        ) from None
    qi_tuples, sa_values = tuple(qi_id_of), tuple(sa_id_of)
    _check_values(schema, qi_tuples, sa_values)
    codes = RecordCodes(
        bucket=np.repeat(np.arange(len(buckets), dtype=np.int64), sizes),
        qi=qi,
        sa=sa,
        qi_tuples=qi_tuples,
        qi_id_of=qi_id_of,
        qi_counts=np.bincount(qi, minlength=len(qi_tuples)),
        sa_values=sa_values,
        sa_id_of=sa_id_of,
        sa_counts=np.bincount(sa, minlength=len(sa_values)),
    )
    for array in (codes.bucket, codes.qi, codes.sa, codes.qi_counts, codes.sa_counts):
        array.setflags(write=False)
    return codes


def _all_of(values: Iterable, kind: type) -> bool:
    """Whether every value is a ``kind`` (one ``type`` per value, in C)."""
    return all(issubclass(t, kind) for t in set(map(type, values)))


def _check_values(
    schema: Schema, qi_tuples: tuple[QITuple, ...], sa_values: tuple[str, ...]
) -> None:
    """Reject a distinct QI tuple or SA value the schema cannot hold."""
    arity = len(schema.qi_attributes)
    if not (
        _all_of(qi_tuples, tuple)
        and set(map(len, qi_tuples)) == {arity}
        and _all_of(chain.from_iterable(qi_tuples), str)
    ):
        bad = next(
            q
            for q in qi_tuples
            if not isinstance(q, tuple)
            or len(q) != arity
            or not _all_of(q, str)
        )
        raise AnonymizationError(
            f"QI tuple {bad!r} must hold one string per QI attribute "
            f"{schema.qi_attributes!r}"
        )
    domain = set(schema.sa.domain)
    for s in sa_values:
        if not isinstance(s, str) or s not in domain:
            raise AnonymizationError(
                f"SA value {s!r} is not in the domain of {schema.sa_attribute!r}"
            )


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
        self._codes = _code_records(self._schema, self._buckets)
        self._n_records = int(self._codes.bucket.size)

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

    @property
    def codes(self) -> RecordCodes:
        """The records as integer codes (see :class:`RecordCodes`)."""
        return self._codes

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
        """``N * P(q)``: total count of each QI tuple, first-appearance order."""
        codes = self._codes
        return Counter(dict(zip(codes.qi_tuples, codes.qi_counts.tolist())))

    def sa_marginal(self) -> Counter:
        """``N * P(s)``: total count of each SA value, first-appearance order."""
        codes = self._codes
        return Counter(dict(zip(codes.sa_values, codes.sa_counts.tolist())))

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
