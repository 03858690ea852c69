"""Knowledge about individuals via the pseudonym model (Section 6).

Identifiers are removed before publication, so statements like "Alice does
not have HIV" cannot refer to a column.  The paper re-introduces
*pseudonyms*: every occurrence of a QI tuple in the published data gets one
pseudonym; a person known to be in the data with QI value ``q`` may stand
behind any pseudonym of ``q`` (Figure 4).  Variables become
``P(i, s, b)`` — the probability that pseudonym ``i`` sits in bucket ``b``
with sensitive value ``s`` — and individual knowledge compiles to linear
rows over them (the paper's three statement families are all here).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymize.buckets import BucketizedTable
from repro.data.table import QITuple
from repro.errors import KnowledgeError
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True, order=True)
class Pseudonym:
    """One anonymous identity: a name like ``i3`` bound to a QI tuple."""

    name: str
    qi: QITuple


class PseudonymTable:
    """The pseudonym expansion of a bucketized release (Figure 4).

    For every distinct QI tuple ``q`` occurring ``c`` times in the whole
    published table, ``c`` pseudonyms are created; any of them may be the
    real person with that QI value.  Naming follows the paper: ``i1, i2,
    ...`` in first-appearance order of the QI tuples.
    """

    def __init__(self, published: BucketizedTable) -> None:
        self._published = published
        self._pseudonyms: list[Pseudonym] = []
        self._by_qi: dict[QITuple, tuple[Pseudonym, ...]] = {}
        self._by_name: dict[str, Pseudonym] = {}

        # The release's distinct QI tuples come in first-appearance order
        # over the buckets, which gives stable, paper-like names.
        codes = published.codes
        for q, count in zip(codes.qi_tuples, codes.qi_counts.tolist()):
            start = len(self._pseudonyms) + 1
            group = tuple(
                Pseudonym(name=f"i{i}", qi=q) for i in range(start, start + count)
            )
            self._pseudonyms.extend(group)
            self._by_name.update((p.name, p) for p in group)
            self._by_qi[q] = group

    @property
    def published(self) -> BucketizedTable:
        """The bucketized release this table expands."""
        return self._published

    @property
    def pseudonyms(self) -> tuple[Pseudonym, ...]:
        """All pseudonyms in naming order."""
        return tuple(self._pseudonyms)

    @property
    def n_people(self) -> int:
        """Total number of pseudonyms (= number of records)."""
        return len(self._pseudonyms)

    def of_qi(self, qi: QITuple) -> tuple[Pseudonym, ...]:
        """The pseudonyms associated with QI tuple ``qi``."""
        try:
            return self._by_qi[tuple(qi)]
        except KeyError:
            raise KnowledgeError(
                f"QI tuple {qi!r} does not occur in the published data"
            ) from None

    def by_name(self, name: str) -> Pseudonym:
        """Look up a pseudonym by its name (e.g. ``"i3"``)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KnowledgeError(f"unknown pseudonym {name!r}") from None

    def assign(self, qi: QITuple, *, index: int = 0) -> Pseudonym:
        """Assign a real person with QI value ``qi`` to a pseudonym.

        Which pseudonym of the group is chosen is irrelevant by symmetry
        (the paper: "we can assign any one of i1, i2, i3 to Bob"); ``index``
        selects within the group for callers that track several people with
        the same QI value.
        """
        group = self.of_qi(qi)
        if not 0 <= index < len(group):
            raise KnowledgeError(
                f"QI tuple {qi!r} has {len(group)} pseudonyms; index {index} "
                "is out of range"
            )
        return group[index]


@dataclass(frozen=True)
class IndividualStatement:
    """Base class for knowledge about specific individuals."""

    def describe(self) -> str:
        """One-line human-readable rendering."""
        raise NotImplementedError


@dataclass(frozen=True)
class IndividualProbability(IndividualStatement):
    """Type (1): ``P(sa_value | person) = probability``.

    The paper's example: "the probability that Alice (q1) has Breast Cancer
    is 0.2" compiles to ``sum over buckets of P(i_Alice, q1, s1, B) =
    0.2 / N``.
    """

    person: Pseudonym
    sa_value: str
    probability: float

    def __post_init__(self) -> None:
        check_probability(self.probability, name="probability")

    def describe(self) -> str:
        return f"P({self.sa_value} | {self.person.name}) = {self.probability:g}"


@dataclass(frozen=True)
class IndividualDisjunction(IndividualStatement):
    """Type (2): the person's SA value is one of ``sa_values``.

    "Alice has either Breast Cancer or HIV" compiles to
    ``sum over buckets and listed values of P(i, q, s, B) = 1 / N``.
    """

    person: Pseudonym
    sa_values: tuple[str, ...]

    def __post_init__(self) -> None:
        values = tuple(self.sa_values)
        if not values:
            raise KnowledgeError("a disjunction needs at least one SA value")
        if len(set(values)) != len(values):
            raise KnowledgeError("disjunction values must be distinct")
        object.__setattr__(self, "sa_values", values)

    def describe(self) -> str:
        options = " or ".join(self.sa_values)
        return f"{self.person.name} has {options}"


@dataclass(frozen=True)
class GroupCount(IndividualStatement):
    """Type (3): exactly ``count`` of ``persons`` carry ``sa_value``.

    "Two people among Alice, Bob and Charlie have HIV" compiles to
    ``sum over the three pseudonyms and buckets of P(i, q, HIV, B) =
    2 / N``.
    """

    persons: tuple[Pseudonym, ...]
    sa_value: str
    count: int

    def __post_init__(self) -> None:
        people = tuple(self.persons)
        if not people:
            raise KnowledgeError("a group-count statement needs people")
        if len(set(people)) != len(people):
            raise KnowledgeError("group members must be distinct pseudonyms")
        object.__setattr__(self, "persons", people)
        check_positive_int(self.count, name="count")
        if self.count > len(people):
            raise KnowledgeError(
                f"count {self.count} exceeds group size {len(people)}"
            )

    def describe(self) -> str:
        names = ", ".join(p.name for p in self.persons)
        return f"exactly {self.count} of [{names}] have {self.sa_value}"


@dataclass(frozen=True)
class GroupCountAtLeast(IndividualStatement):
    """Inequality variant: at least ``count`` of ``persons`` carry the value.

    The paper, end of Section 6: "if the knowledge statement is changed
    from 'two people' to 'at least two people', we can change the equality
    sign to inequality" — handled by the Kazama-Tsujii extension.  Compiles
    to ``-sum <= -count / N``.
    """

    persons: tuple[Pseudonym, ...]
    sa_value: str
    count: int

    def __post_init__(self) -> None:
        people = tuple(self.persons)
        if not people:
            raise KnowledgeError("a group-count statement needs people")
        if len(set(people)) != len(people):
            raise KnowledgeError("group members must be distinct pseudonyms")
        object.__setattr__(self, "persons", people)
        check_positive_int(self.count, name="count")
        if self.count > len(people):
            raise KnowledgeError(
                f"count {self.count} exceeds group size {len(people)}"
            )

    def describe(self) -> str:
        names = ", ".join(p.name for p in self.persons)
        return f"at least {self.count} of [{names}] have {self.sa_value}"


@dataclass(frozen=True)
class GroupCountAtMost(IndividualStatement):
    """Inequality variant: at most ``count`` of ``persons`` carry the value.

    Compiles to ``sum <= count / N``.  ``count`` may be zero ("none of
    them has HIV"), which presolve turns into hard zeros.
    """

    persons: tuple[Pseudonym, ...]
    sa_value: str
    count: int

    def __post_init__(self) -> None:
        people = tuple(self.persons)
        if not people:
            raise KnowledgeError("a group-count statement needs people")
        if len(set(people)) != len(people):
            raise KnowledgeError("group members must be distinct pseudonyms")
        object.__setattr__(self, "persons", people)
        if not isinstance(self.count, int) or self.count < 0:
            raise KnowledgeError(f"count must be a non-negative int, got {self.count}")
        if self.count > len(people):
            raise KnowledgeError(
                f"count {self.count} exceeds group size {len(people)}"
            )

    def describe(self) -> str:
        names = ", ".join(p.name for p in self.persons)
        return f"at most {self.count} of [{names}] have {self.sa_value}"
