"""Association-rule mining between QI subsets and the sensitive attribute.

Section 4.4: the bound on background knowledge is the Top-(K+, K-) strongest
associations, so we must be able to mine *all* positive rules ``Qv => s``
and negative rules ``Qv => not s`` whose support clears a minimum count
(three records in the paper), then rank them by confidence.

Because the antecedent contains at most one value per QI attribute, mining
reduces to, for every subset of QI attributes up to ``max_antecedent`` in
size, counting the distinct projected value combinations jointly with the
SA column.  Each subset is counted with integer keys instead of an Apriori
candidate join: the QI codes are combined one attribute at a time and
dense-ranked after each attribute (so a key stays below the row count for
any antecedent size), and one ``np.bincount`` over ``rank * |SA| + sa``
gives the joint count matrix.  Antecedent counts are its row sums and
negative counts are ``antecedent - joint``.  The original data (Section
4.2: the best source of background knowledge is the original data itself)
is the mining input.

The mined families stay as these count arrays (:class:`RuleFamily`).  A
Top-K bound reads only the strongest few of tens of thousands of rules, so
a family builds rule objects only for the prefix a caller reads: it ranks
the arrays on (confidence, support), widens the cut to every rule tied
with the last one requested, and sorts just those rules by
:meth:`AssociationRule.sort_key`.  That yields exactly the first rules of
the full sorted family, because the key orders ties on (confidence,
support) by text alone.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.data.schema import Attribute
from repro.data.table import Table
from repro.errors import KnowledgeError
from repro.knowledge.rules import AssociationRule, NegativeRule, PositiveRule
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class MiningConfig:
    """Parameters of the rule miner.

    Parameters
    ----------
    min_support_count:
        Minimum absolute number of records supporting a rule (antecedent and
        consequent together); the paper uses 3.
    max_antecedent:
        Largest antecedent size ``T`` to mine.  The paper's Figure 6 sweeps
        ``T`` from 1 to all eight QI attributes.
    antecedent_sizes:
        When given, mine only these exact sizes (used by the Figure 6
        harness to isolate one ``T`` at a time); overrides
        ``max_antecedent``.
    min_confidence:
        Drop rules below this confidence (applies to both families; the
        ranking keeps the strongest anyway, this is a mining-time filter to
        bound memory).
    """

    min_support_count: int = 3
    max_antecedent: int = 3
    antecedent_sizes: tuple[int, ...] | None = None
    min_confidence: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.min_support_count, name="min_support_count")
        check_positive_int(self.max_antecedent, name="max_antecedent")
        if self.antecedent_sizes is not None:
            sizes = tuple(self.antecedent_sizes)
            if not sizes:
                raise KnowledgeError("antecedent_sizes must be non-empty when given")
            for size in sizes:
                check_positive_int(size, name="antecedent size")
            object.__setattr__(self, "antecedent_sizes", sizes)
        if not 0.0 <= self.min_confidence <= 1.0:
            raise KnowledgeError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )


@dataclass(frozen=True, eq=False)
class _Antecedents:
    """Every mined antecedent, across all QI attribute subsets.

    Antecedent ``a`` constrains the QI positions ``positions[subset[a]]``;
    record ``row[a]`` matches it (its codes at those positions decode the
    labels), and ``count[a]`` records match it in total.  ``qi`` and
    ``sa_domain`` come from the mined table's schema.
    """

    qi: tuple[Attribute, ...]
    sa_domain: tuple[str, ...]
    qi_codes: np.ndarray
    positions: tuple[tuple[int, ...], ...]
    subset: np.ndarray
    row: np.ndarray
    count: np.ndarray

    def labels(self, a: int) -> dict[str, str]:
        """Antecedent ``a`` as the rule's ``{attribute: value}`` mapping."""
        qi = self.qi
        codes = self.qi_codes[self.row[a]].tolist()
        return {
            qi[p].name: qi[p].domain[codes[p]]
            for p in self.positions[self.subset[a]]
        }

    def sizes(self) -> np.ndarray:
        """Number of QI attributes in each antecedent."""
        return np.array([len(p) for p in self.positions], dtype=np.int64)[
            self.subset
        ]


class RuleFamily(Sequence):
    """One mined rule family, read in ``AssociationRule.sort_key`` order.

    The family is stored as one array entry per rule: its antecedent, its
    SA code and its support count, plus float64 confidence and support
    (bitwise equal to the ``int / int`` fields of the rules).  ``len`` is
    O(1); rule objects are built lazily:

    - An int index or a prefix slice ``family[:k]`` is served from a
      memoized *exact sorted prefix*.  To extend it, the rules are ranked
      by ``np.lexsort`` on (-confidence, -support), the cut is widened to
      every rule tied with the k-th on (confidence, support), and only the
      rules past the memo up to that cut are built and sorted by
      ``sort_key``.  A longer prefix is published with a single attribute
      assignment, never by mutation, so concurrent readers each see a
      consistent prefix and a race only recomputes.
    - Iteration, or any other slice, sorts the whole family once (the
      prefix of full length) and reuses it.
    """

    def __init__(
        self,
        rule_type: type[AssociationRule],
        antecedents: _Antecedents,
        antecedent: np.ndarray,
        sa: np.ndarray,
        count: np.ndarray,
        n_rows: int,
    ) -> None:
        self._rule_type = rule_type
        self._antecedents = antecedents
        self._antecedent = antecedent
        self._sa = sa
        self._count = count
        self._n_rows = n_rows
        self._confidence = count / antecedents.count[antecedent]
        self._support = count / n_rows
        self._order: np.ndarray | None = None
        self._prefix: tuple[AssociationRule, ...] = ()

    def __len__(self) -> int:
        return int(self._sa.size)

    def __getitem__(self, key):
        n = len(self)
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if start == 0 and step == 1:
                return self._sorted_prefix(stop)[:stop]
            return self._sorted_prefix(n)[key]
        index = operator.index(key)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("rule index out of range")
        return self._sorted_prefix(index + 1)[index]

    def __iter__(self) -> Iterator[AssociationRule]:
        return iter(self._sorted_prefix(len(self)))

    def restricted_to_size(self, size: int) -> "RuleFamily":
        """The rules whose antecedents have exactly ``size`` attributes."""
        keep = self._antecedents.sizes()[self._antecedent] == size
        return RuleFamily(
            self._rule_type,
            self._antecedents,
            self._antecedent[keep],
            self._sa[keep],
            self._count[keep],
            self._n_rows,
        )

    def _sorted_prefix(self, k: int) -> tuple[AssociationRule, ...]:
        """At least the first ``min(k, len)`` rules, in exact sort order."""
        prefix = self._prefix
        if k <= len(prefix):
            return prefix
        order = self._order
        if order is None:
            order = np.lexsort((-self._support, -self._confidence))
            self._order = order
        cut = order.size
        if k < cut:
            last, tail = order[k - 1], order[k:]
            differs = np.flatnonzero(
                (self._confidence[tail] != self._confidence[last])
                | (self._support[tail] != self._support[last])
            )
            if differs.size:
                cut = k + int(differs[0])
        fresh = self._build(order[len(prefix) : cut])
        fresh.sort(key=AssociationRule.sort_key)
        prefix = prefix + tuple(fresh)
        self._prefix = prefix
        return prefix

    def _build(self, rules: np.ndarray) -> list[AssociationRule]:
        antecedents = self._antecedents
        antecedent = self._antecedent[rules]
        sa_domain = antecedents.sa_domain
        return [
            self._rule_type(
                antecedent=antecedents.labels(a),
                sa_value=sa_domain[sa],
                support=support,
                confidence=confidence,
                antecedent_count=count,
            )
            for a, sa, support, confidence, count in zip(
                antecedent.tolist(),
                self._sa[rules].tolist(),
                self._support[rules].tolist(),
                self._confidence[rules].tolist(),
                antecedents.count[antecedent].tolist(),
            )
        ]


@dataclass(frozen=True)
class RuleSet:
    """Mined rules: the positive and the negative :class:`RuleFamily`.

    Both families share one table of antecedents and keep their rules as
    count arrays; each reads in descending confidence (then support, then
    text) and builds rule objects only for the prefix a caller reads.
    """

    positive: RuleFamily
    negative: RuleFamily

    @property
    def n_positive(self) -> int:
        """Number of positive rules mined."""
        return len(self.positive)

    @property
    def n_negative(self) -> int:
        """Number of negative rules mined."""
        return len(self.negative)

    def restricted_to_size(self, size: int) -> "RuleSet":
        """The sub-ruleset whose antecedents have exactly ``size`` attributes."""
        return RuleSet(
            positive=self.positive.restricted_to_size(size),
            negative=self.negative.restricted_to_size(size),
        )


def _antecedent_sizes(config: MiningConfig, n_qi: int) -> tuple[int, ...]:
    if config.antecedent_sizes is not None:
        sizes = tuple(s for s in config.antecedent_sizes if s <= n_qi)
        if not sizes:
            raise KnowledgeError(
                f"no antecedent size in {config.antecedent_sizes} fits a "
                f"schema with {n_qi} QI attributes"
            )
        return sizes
    return tuple(range(1, min(config.max_antecedent, n_qi) + 1))


def mine_association_rules(
    table: Table, config: MiningConfig | None = None
) -> RuleSet:
    """Mine positive and negative association rules from ``table``.

    Rules relate a partial QI assignment (at most one value per attribute)
    to a single SA value.  Confidence and support are exact empirical
    frequencies of the input table, so every mined rule is *consistent* with
    the data — the property that guarantees feasibility of the resulting
    MaxEnt constraint system.  Each antecedent size is mined once, however
    often ``antecedent_sizes`` lists it.
    """
    config = config or MiningConfig()
    schema = table.schema
    n = table.n_rows
    if n == 0:
        raise KnowledgeError("cannot mine rules from an empty table")

    qi_codes = table.qi_codes()
    sa_codes = table.sa_codes()
    qi = schema.qi
    n_sa = len(schema.sa.domain)
    n_qi = len(qi)
    sizes = set(_antecedent_sizes(config, n_qi))

    # Each mined subset is ranked from the rank of its prefix, so rank
    # every prefix of a mined subset as well, one size level at a time.
    levels = [set() for _ in range(max(sizes, default=0) + 1)]
    for size in sizes:
        levels[size].update(combinations(range(n_qi), size))
    for size in range(len(levels) - 1, 1, -1):
        levels[size - 1].update(subset[:-1] for subset in levels[size])

    positions: list[tuple[int, ...]] = []
    subset_of, row, antecedent_count = [], [], []
    families = {PositiveRule: ([], [], []), NegativeRule: ([], [], [])}
    n_antecedents = 0
    previous: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(1, len(levels)):
        current = {}
        for subset in sorted(levels[size]):
            column = qi_codes[:, subset[-1]]
            if size > 1:
                width = len(qi[subset[-1]].domain)
                column = previous[subset[:-1]] * width + column
            _, first, rank = np.unique(
                column, return_index=True, return_inverse=True
            )
            current[subset] = rank
            if size not in sizes:
                continue
            joint = np.bincount(
                rank * n_sa + sa_codes, minlength=first.size * n_sa
            ).reshape(first.size, n_sa)
            together = joint.sum(axis=1)
            for rule_type, counts in (
                (PositiveRule, joint),
                (NegativeRule, together[:, None] - joint),
            ):
                keep = (counts >= config.min_support_count) & (
                    counts / together[:, None] >= config.min_confidence
                )
                local, sa = np.nonzero(keep)
                antecedent, sa_code, count = families[rule_type]
                antecedent.append(n_antecedents + local)
                sa_code.append(sa)
                count.append(counts[local, sa])
            subset_of.append(np.full(first.size, len(positions)))
            positions.append(subset)
            row.append(first)
            antecedent_count.append(together)
            n_antecedents += first.size
        previous = current

    def stacked(parts: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    antecedents = _Antecedents(
        qi=qi,
        sa_domain=schema.sa.domain,
        qi_codes=qi_codes,
        positions=tuple(positions),
        subset=stacked(subset_of),
        row=stacked(row),
        count=stacked(antecedent_count),
    )
    positive, negative = (
        RuleFamily(rule_type, antecedents, *map(stacked, arrays), n)
        for rule_type, arrays in families.items()
    )
    return RuleSet(positive=positive, negative=negative)
