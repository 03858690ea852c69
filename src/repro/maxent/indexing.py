"""Variable index spaces for the MaxEnt program.

The paper's unknowns are the joint probabilities ``P(Q, S, B)`` (Section 3)
— or ``P(i, Q, S, B)`` in the pseudonym model of Section 6.  A *variable
space* enumerates the **valid** triples only: combinations ruled out by
Zero-invariant equations (Eq. 6: ``q`` or ``s`` absent from bucket ``b``)
are never given a variable, which keeps the optimization dense over exactly
the support the theory allows.

Both spaces expose the same query surface used by the knowledge compiler
and the solvers:

- ``n_vars`` and per-variable bucket ids (for decomposition),
- ``match_antecedents(qvs)`` — resolves a batch of partial QI assignments
  ``Qv`` to the ids of the distinct QI tuples extending each, and the
  record count behind each (``N * P(Qv)``, an exact integer),
- ``vars_of_qis(qids, sa_value)`` — the variables of those tuples carrying
  an SA value (the summation sets of Section 4.1 constraints),
- ``vars_matching(qv, sa_value)`` and ``qv_probability(qv)`` — the same
  two queries for one antecedent.

Everything on the hot construction path is array-native and reads the
release's record codes (:class:`~repro.anonymize.buckets.RecordCodes`,
built once per release): the distinct (bucket, QI) and (bucket, SA)
pairs are one ``unique`` each over the coded records, variable
enumeration is one vectorised expansion of those pairs (no loop over
buckets), invariant cardinality lookups resolve through sorted key
tables (:class:`_CountTable`), and summation sets come from one precomputed
composite-key sort (:class:`_PairIndex`) probed with ``searchsorted``
ranges.  Antecedents resolve through per-attribute integer codes of the
distinct QI tuples (:class:`_QIRegistry`): the antecedents of a batch are
grouped by attribute subset, and each group costs one ``lexsort`` of the
projected codes plus one ``searchsorted`` — never a string comparison per
tuple.  The codes, the pair index and the triple -> variable dict needed
by point lookups (``index_of``) are built lazily, off the construction
path.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.anonymize.buckets import BucketizedTable
from repro.data.table import QITuple
from repro.errors import CompilationError, KnowledgeError
from repro.knowledge.individuals import Pseudonym, PseudonymTable


class AntecedentMatches(NamedTuple):
    """A batch of partial QI assignments resolved against the registry.

    The three lists are parallel to the queried antecedents: ``ids[j]``
    holds the distinct-QI ids extending antecedent ``j``, ``counts[j]``
    the number of published records those tuples carry (an exact
    integer: ``P(Qv) = counts[j] / N``), and ``unknown[j]`` the first of
    its attribute names that is not a QI attribute — in which case its
    ids are empty and its count is 0 — or None.
    """

    ids: list[np.ndarray]
    counts: np.ndarray
    unknown: list[str | None]


_NO_IDS = np.empty(0, dtype=np.int64)


class _QIRegistry:
    """Distinct QI tuples of a published table, indexed for fast matching.

    Tuples are matched by value string rather than schema domain code, so
    generalized releases (Mondrian output re-expressed as buckets, whose QI
    values are range labels like ``{17-21|22-26}``) work with the same
    machinery: each attribute's distinct published strings get their own
    integer codes, built on the first match.
    """

    def __init__(self, published: BucketizedTable) -> None:
        self._names = published.schema.qi_attributes
        self._positions = {name: i for i, name in enumerate(self._names)}
        codes = published.codes
        self.tuples: list[QITuple] = list(codes.qi_tuples)
        self.id_of: dict[QITuple, int] = codes.qi_id_of
        self.counts = codes.qi_counts
        self._coded: tuple[np.ndarray, list[dict[str, int]]] | None = None

    def _codes(self) -> tuple[np.ndarray, list[dict[str, int]]]:
        """Per-attribute integer codes of the tuples, and value -> code."""
        if self._coded is None:
            codes = np.empty((len(self.tuples), len(self._names)), dtype=np.int64)
            code_of: list[dict[str, int]] = []
            for position in range(len(self._names)):
                lookup: dict[str, int] = {}
                codes[:, position] = [
                    lookup.setdefault(q[position], len(lookup)) for q in self.tuples
                ]
                code_of.append(lookup)
            self._coded = (codes, code_of)
        return self._coded

    def match(self, qvs: Sequence[dict[str, str]]) -> AntecedentMatches:
        """Resolve every partial assignment in ``qvs`` in one batch.

        Antecedents are grouped by attribute subset.  Per subset, the
        tuples' projected codes and the antecedents' wanted codes are
        ranked by one ``lexsort``; each antecedent's ids are then one
        ``searchsorted`` range of the tuples in rank order, and its count
        a difference of one cumulative sum over their counts.  A value
        absent from an attribute gets code -1 and so matches nothing.
        """
        ids = [_NO_IDS] * len(qvs)
        counts = np.zeros(len(qvs), dtype=np.int64)
        unknown: list[str | None] = [None] * len(qvs)
        groups: dict[tuple[int, ...], list[int]] = {}
        for j, qv in enumerate(qvs):
            if not qv:
                raise KnowledgeError("the partial assignment Qv must be non-empty")
            missing = [name for name in qv if name not in self._positions]
            if missing:
                unknown[j] = missing[0]
            else:
                subset = tuple(sorted(self._positions[name] for name in qv))
                groups.setdefault(subset, []).append(j)
        n_tuples = len(self.tuples)
        for subset, members in groups.items():
            codes, code_of = self._codes()
            wanted = np.array(
                [
                    [code_of[p].get(qvs[j][self._names[p]], -1) for p in subset]
                    for j in members
                ],
                dtype=np.int64,
            )
            stacked = np.concatenate([codes[:, list(subset)], wanted])
            order = np.lexsort(stacked.T[::-1])
            ordered = stacked[order]
            new_key = np.ones(order.size, dtype=bool)
            new_key[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
            rank = np.empty(order.size, dtype=np.int64)
            rank[order] = np.cumsum(new_key)
            # Tuple ids in rank order; their ranks are then ascending.
            tuple_order = order[order < n_tuples]
            tuple_ranks = rank[tuple_order]
            starts = np.searchsorted(tuple_ranks, rank[n_tuples:], side="left")
            ends = np.searchsorted(tuple_ranks, rank[n_tuples:], side="right")
            cumulative = np.zeros(n_tuples + 1, dtype=np.int64)
            np.cumsum(self.counts[tuple_order], out=cumulative[1:])
            counts[members] = cumulative[ends] - cumulative[starts]
            for j, start, end in zip(members, starts.tolist(), ends.tolist()):
                ids[j] = tuple_order[start:end]
        return AntecedentMatches(ids, counts, unknown)

    def match_one(self, qv: dict[str, str]) -> tuple[np.ndarray, int]:
        """Ids and record count of the tuples extending one assignment."""
        matches = self.match([qv])
        if matches.unknown[0] is not None:
            raise CompilationError(f"{matches.unknown[0]!r} is not a QI attribute")
        return matches.ids[0], int(matches.counts[0])


class _CountTable:
    """Sorted (a, b) -> count table supporting vectorized batch lookups.

    Built once from parallel key and count arrays; every lookup is one
    composite-key encode plus one ``searchsorted``.  The composite stride
    always covers both the stored and the queried key range, so stored
    buckets beyond the queried range simply never match (they read as
    zero — no crash, no aliasing).
    """

    def __init__(
        self, keys_a: np.ndarray, keys_b: np.ndarray, counts: np.ndarray
    ) -> None:
        order = np.lexsort((keys_b, keys_a))
        self._a = keys_a[order]
        self._b = keys_b[order]
        self._values = counts[order].astype(np.float64)
        self._max_b = int(self._b.max()) if self._b.size else -1

    def pairs(self) -> list[tuple[int, int]]:
        """Every stored (a, b) key, ascending."""
        return list(zip(self._a.tolist(), self._b.tolist()))

    def lookup(self, keys_a: np.ndarray, keys_b: np.ndarray) -> np.ndarray:
        keys_a = np.asarray(keys_a, dtype=np.int64)
        if keys_a.size == 0 or self._a.size == 0:
            return np.zeros(keys_a.size)
        keys_b = np.asarray(keys_b, dtype=np.int64)
        stride = max(self._max_b, int(keys_b.max())) + 1
        # Sorting by (a, b) lexicographically equals sorting by the
        # composite for any stride exceeding every b, so the stored order
        # is valid for whatever stride this query needs.
        stored = self._a * stride + self._b
        wanted = keys_a * stride + keys_b
        position = np.searchsorted(stored, wanted)
        position = np.clip(position, 0, stored.size - 1)
        found = stored[position] == wanted
        return np.where(found, self._values[position], 0.0)


def _bucket_pairs(
    record_bucket: np.ndarray, record_ids: np.ndarray, n_ids: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (bucket, id) pairs of a release's records, with counts.

    Returns ``(bucket, id, count)`` in order of first appearance.  Records
    are numbered bucket by bucket, so the pairs come bucket-major and,
    within a bucket, in the order its slots first show each id: the order
    a per-bucket ``Counter`` iterates.
    """
    key = record_bucket * max(n_ids, 1) + record_ids
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return record_bucket[first], record_ids[first], counts[order]


def _bucket_product(
    row_key: np.ndarray,
    row_bucket: np.ndarray,
    sa_bucket: np.ndarray,
    sa_ids: np.ndarray,
    n_buckets: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair every row with every distinct SA value of its bucket.

    ``row_key``/``row_bucket`` is the left factor (QI ids or pseudonym
    ids) and ``sa_bucket``/``sa_ids`` each bucket's distinct SA ids, both
    bucket-major.  Returns ``(key, bucket, sa)`` per variable, row-major
    and SA-minor within each bucket.
    """
    sa_indptr = _offsets(np.bincount(sa_bucket, minlength=n_buckets))
    width = np.diff(sa_indptr)[row_bucket]
    take = _take_ranges(sa_indptr[row_bucket], sa_indptr[row_bucket + 1])
    return np.repeat(row_key, width), np.repeat(row_bucket, width), sa_ids[take]


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR-style offsets of consecutive segments of ``counts`` items."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class _PairIndex:
    """Variables sorted by a composite (key_a, key_b) for grouped queries.

    ``lookup_many(a_values, b_value)`` returns every variable whose keys
    match any ``(a, b_value)`` pair — resolved as ``searchsorted`` range
    probes into one precomputed sort, instead of a fresh full-length
    boolean mask per query.
    """

    def __init__(self, key_a: np.ndarray, key_b: np.ndarray) -> None:
        self._stride = int(key_b.max()) + 1 if key_b.size else 1
        composite = key_a * self._stride + key_b
        self._order = np.argsort(composite, kind="stable")
        self._sorted = composite[self._order]

    def lookup_many(self, a_values: np.ndarray, b_value: int) -> np.ndarray:
        """All variables with ``key_a in a_values`` and ``key_b == b_value``,
        ascending."""
        a_values = np.asarray(a_values, dtype=np.int64)
        if a_values.size == 0 or self._sorted.size == 0:
            return np.empty(0, dtype=np.int64)
        wanted = a_values * self._stride + int(b_value)
        starts = np.searchsorted(self._sorted, wanted, side="left")
        ends = np.searchsorted(self._sorted, wanted, side="right")
        hits = self._order[_take_ranges(starts, ends)]
        hits.sort()
        return hits


def _take_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]`` without
    a Python loop."""
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - out_starts, lengths
    )


class _KnowledgeQueries:
    """The knowledge-compiler query surface, shared by both spaces.

    A space provides ``_registry``, ``sa_id_of``, ``n_records`` and
    ``_summation_index()`` (variables keyed by (QI tuple id, SA id)).
    """

    def match_antecedents(self, qvs: Sequence[dict[str, str]]) -> AntecedentMatches:
        """Resolve a batch of partial QI assignments (one pass per
        attribute subset; see :class:`AntecedentMatches`)."""
        return self._registry.match(qvs)

    def vars_of_qis(self, qids: np.ndarray, sa_value: str) -> np.ndarray:
        """Variables whose QI tuple id is in ``qids`` and whose SA value is
        ``sa_value``, ascending (empty for an SA value the release lacks)."""
        sid = self.sa_id_of.get(sa_value)
        if sid is None:
            return np.empty(0, dtype=np.int64)
        return self._summation_index().lookup_many(qids, sid)

    def vars_matching(self, qv: dict[str, str], sa_value: str) -> np.ndarray:
        """Indices of all variables with QI extending ``qv`` and SA value
        ``sa_value`` — the summation set of a Section 4.1 constraint."""
        qids, _ = self._registry.match_one(qv)
        return self.vars_of_qis(qids, sa_value)

    def qv_probability(self, qv: dict[str, str]) -> float:
        """Published marginal ``P(Qv)`` of a partial QI assignment."""
        _, count = self._registry.match_one(qv)
        return float(count) / self.n_records


class _ReleaseSpace(_KnowledgeQueries):
    """What both spaces read off the release's record codes.

    The QI registry, the SA ids and the ``n(q, b)``/``n(s, b)`` tables
    of the invariant rows all come from
    :attr:`~repro.anonymize.buckets.BucketizedTable.codes`: the distinct
    (bucket, id) pairs are one ``unique`` over the coded records, in the
    order a per-bucket scan would first meet them.
    """

    def __init__(self, published: BucketizedTable) -> None:
        self._published = published
        self._registry = _QIRegistry(published)
        codes = published.codes
        self.sa_values: list[str] = list(codes.sa_values)
        self.sa_id_of: dict[str, int] = codes.sa_id_of
        self._qi_pairs = _bucket_pairs(codes.bucket, codes.qi, len(codes.qi_tuples))
        self._sa_pairs = _bucket_pairs(codes.bucket, codes.sa, len(codes.sa_values))
        buckets, qids, counts = self._qi_pairs
        self._qb_table = _CountTable(qids, buckets, counts)
        buckets, sids, counts = self._sa_pairs
        self._sb_table = _CountTable(sids, buckets, counts)
        self._index_cache: dict[tuple[int, int, int], int] | None = None
        self._qi_sa_index: _PairIndex | None = None

    @property
    def published(self) -> BucketizedTable:
        """The release this space indexes."""
        return self._published

    @property
    def n_records(self) -> int:
        """Total record count ``N``."""
        return self._published.n_records

    @property
    def qi_tuples(self) -> list[QITuple]:
        """Distinct QI tuples, id order."""
        return self._registry.tuples

    @property
    def qi_counts(self) -> np.ndarray:
        """Records per distinct QI tuple (``N * P(q)``), id order."""
        return self._registry.counts

    # -- invariant cardinalities ----------------------------------------------

    def qi_bucket_count(self, qid: int, bucket: int) -> int:
        """``n(q, b)``: multiplicity of QI tuple ``qid`` in ``bucket``."""
        return int(self.qi_bucket_counts(np.array([qid]), np.array([bucket]))[0])

    def sa_bucket_count(self, sid: int, bucket: int) -> int:
        """``n(s, b)``: multiplicity of SA value ``sid`` in ``bucket``."""
        return int(self.sa_bucket_counts(np.array([sid]), np.array([bucket]))[0])

    def qi_bucket_pairs(self) -> list[tuple[int, int]]:
        """All (qid, bucket) pairs with ``n(q, b) > 0``, ascending."""
        return self._qb_table.pairs()

    def sa_bucket_pairs(self) -> list[tuple[int, int]]:
        """All (sid, bucket) pairs with ``n(s, b) > 0``, ascending."""
        return self._sb_table.pairs()

    def qi_bucket_counts(
        self, qids: np.ndarray, buckets: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``n(q, b)`` over parallel (qid, bucket) arrays."""
        return self._qb_table.lookup(qids, buckets)

    def sa_bucket_counts(
        self, sids: np.ndarray, buckets: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``n(s, b)`` over parallel (sid, bucket) arrays."""
        return self._sb_table.lookup(sids, buckets)


class GroupVariableSpace(_ReleaseSpace):
    """Variables ``P(q, s, b)`` over valid (QI tuple, SA value, bucket).

    "Group" refers to the paper's main model where knowledge is about the
    data distribution, not individuals; every QI occurrence of the same
    tuple is interchangeable.  Bucket by bucket, the variables pair each
    distinct QI tuple with each distinct SA value (QI-major), both in
    first-appearance order.
    """

    #: Row kind whose rows partition the variables (used to derive component
    #: masses in decomposition).
    mass_partition_kind = "qi"

    def __init__(self, published: BucketizedTable) -> None:
        super().__init__(published)
        buckets, qids, _ = self._qi_pairs
        sa_buckets, sids, _ = self._sa_pairs
        self.var_qi, self.var_bucket, self.var_sa = _bucket_product(
            qids, buckets, sa_buckets, sids, published.n_buckets
        )

    # -- geometry ------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        """Number of valid ``P(q, s, b)`` variables."""
        return len(self.var_bucket)

    @property
    def _index(self) -> dict[tuple[int, int, int], int]:
        if self._index_cache is None:
            self._index_cache = {
                (int(b), int(q), int(s)): var
                for var, (b, q, s) in enumerate(
                    zip(self.var_bucket, self.var_qi, self.var_sa)
                )
            }
        return self._index_cache

    def qi_id(self, q: QITuple) -> int:
        """Id of a distinct QI tuple."""
        try:
            return self._registry.id_of[tuple(q)]
        except KeyError:
            raise KnowledgeError(
                f"QI tuple {q!r} does not occur in the published data"
            ) from None

    def index_of(self, q: QITuple, s: str, bucket: int) -> int:
        """Variable index of ``P(q, s, bucket)``; -1 for a Zero-invariant."""
        qid = self._registry.id_of.get(tuple(q))
        sid = self.sa_id_of.get(s)
        if qid is None or sid is None:
            return -1
        return self._index.get((bucket, qid, sid), -1)

    def describe_var(self, var: int) -> tuple[QITuple, str, int]:
        """(QI tuple, SA value, bucket) of variable ``var``."""
        return (
            self._registry.tuples[int(self.var_qi[var])],
            self.sa_values[int(self.var_sa[var])],
            int(self.var_bucket[var]),
        )

    # -- knowledge-compiler queries ---------------------------------------------

    def _summation_index(self) -> _PairIndex:
        if self._qi_sa_index is None:
            self._qi_sa_index = _PairIndex(self.var_qi, self.var_sa)
        return self._qi_sa_index


class PersonVariableSpace(_ReleaseSpace):
    """Variables ``P(i, s, b)`` over the pseudonym model (Section 6).

    Pseudonym ``i`` with QI tuple ``q`` may occupy any bucket containing
    ``q`` and carry any SA value of that bucket; all other combinations are
    structural zeros.  Bucket by bucket, the variables pair the pseudonyms
    of each distinct QI tuple (first-appearance order, then naming order)
    with each distinct SA value, person-major.
    """

    mass_partition_kind = "person"

    def __init__(self, pseudonyms: PseudonymTable) -> None:
        super().__init__(pseudonyms.published)
        self._pseudonyms = pseudonyms
        people = pseudonyms.pseudonyms
        self.person_id_of: dict[str, int] = {
            p.name: i for i, p in enumerate(people)
        }
        self.people: tuple[Pseudonym, ...] = people
        self._person_qi = np.array(
            [self._registry.id_of[p.qi] for p in people], dtype=np.int64
        )

        # Each bucket's (q, b) slot expands to the pseudonyms of q, which
        # are the ids of one segment once grouped by QI id (naming order).
        buckets, qids, _ = self._qi_pairs
        by_qi = np.argsort(self._person_qi, kind="stable")
        qi_indptr = _offsets(
            np.bincount(self._person_qi, minlength=len(self._registry.tuples))
        )
        row_pids = by_qi[_take_ranges(qi_indptr[qids], qi_indptr[qids + 1])]
        row_buckets = np.repeat(buckets, np.diff(qi_indptr)[qids])
        sa_buckets, sids, _ = self._sa_pairs
        self.var_person, self.var_bucket, self.var_sa = _bucket_product(
            row_pids, row_buckets, sa_buckets, sids, self._published.n_buckets
        )
        self._person_sa_index: _PairIndex | None = None

    # -- geometry ------------------------------------------------------------

    @property
    def pseudonym_table(self) -> PseudonymTable:
        """The pseudonym expansion this space is built on."""
        return self._pseudonyms

    @property
    def n_vars(self) -> int:
        """Number of valid ``P(i, s, b)`` variables."""
        return len(self.var_person)

    @property
    def _index(self) -> dict[tuple[int, int, int], int]:
        if self._index_cache is None:
            self._index_cache = {
                (int(p), int(s), int(b)): var
                for var, (p, s, b) in enumerate(
                    zip(self.var_person, self.var_sa, self.var_bucket)
                )
            }
        return self._index_cache

    def index_of(self, person: Pseudonym | str, s: str, bucket: int) -> int:
        """Variable index of ``P(person, s, bucket)``; -1 if structurally 0."""
        name = person.name if isinstance(person, Pseudonym) else person
        pid = self.person_id_of.get(name)
        sid = self.sa_id_of.get(s)
        if pid is None or sid is None:
            return -1
        return self._index.get((pid, sid, bucket), -1)

    def describe_var(self, var: int) -> tuple[str, str, int]:
        """(pseudonym name, SA value, bucket) of variable ``var``."""
        return (
            self.people[int(self.var_person[var])].name,
            self.sa_values[int(self.var_sa[var])],
            int(self.var_bucket[var]),
        )

    def person_qi_id(self, pid: int) -> int:
        """The distinct-QI id of pseudonym ``pid``."""
        return int(self._person_qi[pid])

    def person_qi_ids(self) -> np.ndarray:
        """The distinct-QI id of every pseudonym, id order (read-only)."""
        return self._person_qi

    # -- knowledge-compiler queries ---------------------------------------------

    def vars_of_person(self, person: Pseudonym | str, sa_value: str) -> np.ndarray:
        """All variables of a pseudonym carrying ``sa_value`` (any bucket)."""
        name = person.name if isinstance(person, Pseudonym) else person
        pid = self.person_id_of.get(name)
        sid = self.sa_id_of.get(sa_value)
        if pid is None:
            raise KnowledgeError(f"unknown pseudonym {name!r}")
        if sid is None:
            return np.empty(0, dtype=np.int64)
        if self._person_sa_index is None:
            self._person_sa_index = _PairIndex(self.var_person, self.var_sa)
        return self._person_sa_index.lookup_many(
            np.array([pid], dtype=np.int64), sid
        )

    def _summation_index(self) -> _PairIndex:
        # Data-distribution summation sets, lifted to the pseudonym space.
        if self._qi_sa_index is None:
            self._qi_sa_index = _PairIndex(
                self._person_qi[self.var_person], self.var_sa
            )
        return self._qi_sa_index
