"""The privacy-skyline bound (Chen et al.), expressed in MaxEnt language.

The paper's Related Work discusses Chen, LeFevre & Ramakrishnan's *privacy
skyline*: bound the adversary's knowledge about a **target** person by a
triple ``(l, k, m)`` —

1. the adversary knows ``l`` *other* people's sensitive values exactly,
2. the adversary knows ``k`` sensitive values the target does **not** have,
3. the adversary knows a group of ``m - 1`` other people who share the
   target's sensitive value.

Du et al.'s point is that such deterministic-rule bounds are special cases
of linear constraints; this module makes that claim executable by
*compiling* an ``(l, k, m)`` triple into Section 6 individual statements:

- family 1 becomes ``IndividualProbability(person, value, 1.0)`` facts,
- family 2 becomes ``IndividualProbability(target, value, 0.0)`` facts,
- family 3 becomes a ``GroupCountAtLeast`` over target + peers (every one
  of them has the value, so at least ``m`` of the group carry it — which,
  combined with family-1 style certainty about the peers, pins the link).

Instantiation requires the original data (the knowledge must be *true*,
Section 4.2), so the generator takes both the table and the pseudonym
expansion and samples worst-case-ish facts deterministically per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.errors import KnowledgeError
from repro.knowledge.individuals import (
    GroupCountAtLeast,
    IndividualProbability,
    IndividualStatement,
    Pseudonym,
    PseudonymTable,
)
from repro.utils.rng import make_rng
from repro.utils.validation import check_non_negative_int


@dataclass(frozen=True)
class SkylineBound:
    """An (l, k, m) privacy-skyline adversary against one target.

    Parameters mirror Chen et al.: ``l_others`` exact values of other
    people, ``k_negations`` values the target lacks, ``m_peers`` other
    people known to share the target's value (their ``m`` is our
    ``m_peers + 1``).
    """

    l_others: int
    k_negations: int
    m_peers: int

    def __post_init__(self) -> None:
        check_non_negative_int(self.l_others, name="l_others")
        check_non_negative_int(self.k_negations, name="k_negations")
        check_non_negative_int(self.m_peers, name="m_peers")

    def describe(self) -> str:
        """Chen et al.'s triple notation."""
        return f"skyline({self.l_others}, {self.k_negations}, {self.m_peers + 1})"

    def instantiate(
        self,
        table: Table,
        pseudonyms: PseudonymTable,
        *,
        target_row: int,
        seed: int | np.random.Generator = 0,
    ) -> tuple[Pseudonym, list[IndividualStatement]]:
        """Sample true statements realizing this bound against one target.

        Returns ``(target_pseudonym, statements)``.  Facts are drawn from
        the original data so the resulting constraint system is guaranteed
        feasible.  Raises when the data cannot support the bound (fewer
        than ``m_peers`` peers share the target's value, or the target's
        bucket structure offers fewer than ``k_negations`` values to deny).
        """
        rng = make_rng(seed)
        if not 0 <= target_row < table.n_rows:
            raise KnowledgeError(
                f"target_row {target_row} out of range [0, {table.n_rows})"
            )
        qi_tuples = table.qi_tuples()
        sa_labels = table.sa_labels()

        # Track pseudonym usage per QI tuple so distinct people get
        # distinct pseudonyms, and remember each row's: a row drawn as a
        # known other (family 1) and again as a peer (family 3) is one
        # person.
        next_index: dict[tuple, int] = {}
        assigned: dict[int, Pseudonym] = {}

        def pseudonym_for(row: int) -> Pseudonym:
            if row in assigned:
                return assigned[row]
            q = qi_tuples[row]
            index = next_index.get(q, 0)
            group = pseudonyms.of_qi(q)
            if index >= len(group):
                raise KnowledgeError(
                    f"QI tuple {q!r} has only {len(group)} pseudonyms; "
                    "cannot represent another distinct person"
                )
            next_index[q] = index + 1
            assigned[row] = group[index]
            return group[index]

        target = pseudonym_for(target_row)
        target_value = sa_labels[target_row]
        statements: list[IndividualStatement] = []

        # Family 2: k values the target does not have.  Only values the
        # target could otherwise carry (present in some bucket with the
        # target's QI tuple) are informative.
        candidate_negations = set()
        for bucket in pseudonyms.published.buckets:
            if qi_tuples[target_row] in bucket.distinct_qi():
                candidate_negations.update(bucket.distinct_sa())
        candidate_negations.discard(target_value)
        negations = sorted(candidate_negations)
        if len(negations) < self.k_negations:
            raise KnowledgeError(
                f"target can be linked to only {len(negations)} other "
                f"values; cannot deny {self.k_negations}"
            )
        rng.shuffle(negations)
        for value in negations[: self.k_negations]:
            statements.append(
                IndividualProbability(
                    person=target, sa_value=value, probability=0.0
                )
            )

        # Family 1: l other people's values known exactly.
        other_rows = [r for r in range(table.n_rows) if r != target_row]
        rng.shuffle(other_rows)
        known_others = 0
        peers_rows: list[int] = []
        for row in other_rows:
            if known_others >= self.l_others:
                break
            try:
                person = pseudonym_for(row)
            except KnowledgeError:
                continue
            statements.append(
                IndividualProbability(
                    person=person, sa_value=sa_labels[row], probability=1.0
                )
            )
            known_others += 1
        if known_others < self.l_others:
            raise KnowledgeError(
                f"could only instantiate {known_others} of "
                f"{self.l_others} other-person facts"
            )

        # Family 3: m peers sharing the target's value.
        for row in other_rows:
            if len(peers_rows) >= self.m_peers:
                break
            if sa_labels[row] == target_value:
                peers_rows.append(row)
        if len(peers_rows) < self.m_peers:
            raise KnowledgeError(
                f"only {len(peers_rows)} peers share the target's value; "
                f"cannot form a group of {self.m_peers}"
            )
        if self.m_peers:
            group = [target]
            for row in peers_rows:
                try:
                    group.append(pseudonym_for(row))
                except KnowledgeError:
                    continue
            if len(group) >= 2:
                statements.append(
                    GroupCountAtLeast(
                        persons=tuple(group),
                        sa_value=target_value,
                        count=len(group),
                    )
                )
        return target, statements
