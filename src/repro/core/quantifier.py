"""Posterior tables: from joints ``P(Q, S, B)`` to posteriors ``P(S | Q)``.

The quantity privacy metrics consume (Section 3.1):

    P(S | Q) = (1 / P(Q)) * sum over B of P(Q, S, B),

with ``P(Q)`` read directly off the published data.  A
:class:`PosteriorTable` holds the full matrix of these conditionals — built
either from a MaxEnt solution (the adversary's best inference) or from the
original table (the ground truth the paper's Estimation Accuracy compares
against).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.data.table import QITuple, Table
from repro.errors import ReproError
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.solution import MaxEntSolution


def _project_rows(joint: np.ndarray) -> np.ndarray:
    """Conditional rows of a joint array, each on the probability simplex.

    A solution meets the data invariants (a row of the joint sums to its
    QI marginal) only within the solver tolerance, so dividing by the
    published marginal can leave a posterior slightly above 1.  Clipping
    at 0 and dividing each row (the last axis) by its own sum keeps every
    ``P(S | q)`` a distribution.  The engine's convergence and
    infeasibility checks have already run on the solution, so this never
    hides a failed solve.
    """
    rows = np.clip(joint, 0.0, None)
    sums = rows.sum(axis=-1, keepdims=True)
    return np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0)


class PosteriorTable:
    """``P(S | Q)`` for every published QI tuple, plus the weights ``P(Q)``.

    Columns follow the schema's SA domain order so that tables built from
    different sources (ground truth vs estimate) align exactly.
    """

    def __init__(
        self,
        qi_tuples: list[QITuple],
        sa_domain: tuple[str, ...],
        matrix: np.ndarray,
        qi_weights: np.ndarray,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        qi_weights = np.asarray(qi_weights, dtype=float)
        if matrix.shape != (len(qi_tuples), len(sa_domain)):
            raise ReproError(
                f"posterior matrix shape {matrix.shape} does not match "
                f"{len(qi_tuples)} QI tuples x {len(sa_domain)} SA values"
            )
        if qi_weights.shape != (len(qi_tuples),):
            raise ReproError("one weight per QI tuple is required")
        self._qi_tuples = list(qi_tuples)
        self._row_of = {q: i for i, q in enumerate(self._qi_tuples)}
        self._sa_domain = tuple(sa_domain)
        self._col_of = {s: j for j, s in enumerate(self._sa_domain)}
        self._matrix = matrix
        self._weights = qi_weights

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_solution(cls, solution: MaxEntSolution) -> "PosteriorTable":
        """The adversary's posterior from a group-space MaxEnt solution."""
        space = solution.space
        if not isinstance(space, GroupVariableSpace):
            raise ReproError(
                "PosteriorTable.from_solution needs a group-space solution; "
                "use person_posterior() for individual-level solutions"
            )
        published = space.published
        sa_domain = published.schema.sa.domain
        qi_tuples = space.qi_tuples
        n = space.n_records

        joint = np.zeros((len(qi_tuples), len(sa_domain)))
        col_of_sid = [sa_domain.index(s) for s in space.sa_values]
        np.add.at(
            joint,
            (
                space.var_qi,
                np.asarray(col_of_sid, dtype=np.int64)[space.var_sa],
            ),
            solution.p,
        )

        marginal = published.qi_marginal()
        weights = np.array([marginal[q] / n for q in qi_tuples])
        return cls(qi_tuples, sa_domain, _project_rows(joint), weights)

    @classmethod
    def from_table(cls, table: Table) -> "PosteriorTable":
        """The ground-truth posterior, straight from the original data."""
        sa_domain = table.schema.sa.domain
        record_tuples = table.qi_tuples()
        qi_counts = Counter(record_tuples)
        qi_tuples = list(qi_counts)
        row_of = {q: i for i, q in enumerate(qi_tuples)}
        matrix = np.zeros((len(qi_tuples), len(sa_domain)))
        np.add.at(
            matrix, ([row_of[q] for q in record_tuples], table.sa_codes()), 1.0
        )
        row_totals = matrix.sum(axis=1, keepdims=True)
        matrix = matrix / row_totals
        weights = np.array(
            [qi_counts[q] / table.n_rows for q in qi_tuples]
        )
        return cls(qi_tuples, sa_domain, matrix, weights)

    # -- accessors ----------------------------------------------------------

    @property
    def qi_tuples(self) -> list[QITuple]:
        """Row keys (distinct QI tuples)."""
        return list(self._qi_tuples)

    @property
    def sa_domain(self) -> tuple[str, ...]:
        """Column keys (the schema's full SA domain)."""
        return self._sa_domain

    @property
    def matrix(self) -> np.ndarray:
        """The (n_qi, n_sa) conditional-probability matrix."""
        return self._matrix

    def weight(self, q: QITuple) -> float:
        """``P(q)`` — the QI tuple's marginal probability."""
        return float(self._weights[self._row_of[tuple(q)]])

    @property
    def weights(self) -> np.ndarray:
        """All ``P(q)`` weights, row order."""
        return self._weights

    def prob(self, q: QITuple, s: str) -> float:
        """``P(s | q)``; raises for unknown q, returns 0.0 for unknown s."""
        row = self._row_of.get(tuple(q))
        if row is None:
            raise ReproError(f"QI tuple {q!r} is not in this posterior table")
        col = self._col_of.get(s)
        if col is None:
            return 0.0
        return float(self._matrix[row, col])

    def distribution(self, q: QITuple) -> dict[str, float]:
        """The full conditional distribution of SA given ``q``."""
        row = self._row_of.get(tuple(q))
        if row is None:
            raise ReproError(f"QI tuple {q!r} is not in this posterior table")
        return {
            s: float(self._matrix[row, j]) for j, s in enumerate(self._sa_domain)
        }

    def aligned_to(self, other: "PosteriorTable") -> "PosteriorTable":
        """This table re-indexed to ``other``'s row order.

        Raises when the QI universes differ — comparing posteriors over
        different populations is a bug, not a degradation.
        """
        if set(self._row_of) != set(other._row_of):
            raise ReproError(
                "posterior tables cover different QI universes and cannot "
                "be compared"
            )
        if self._sa_domain != other._sa_domain:
            raise ReproError("posterior tables have different SA domains")
        order = [self._row_of[q] for q in other._qi_tuples]
        return PosteriorTable(
            other.qi_tuples,
            self._sa_domain,
            self._matrix[order],
            self._weights[order],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PosteriorTable({len(self._qi_tuples)} QI tuples x "
            f"{len(self._sa_domain)} SA values)"
        )


def person_posterior(solution: MaxEntSolution) -> dict[str, dict[str, float]]:
    """``P(s | i)`` for every pseudonym of a person-space solution.

    Each pseudonym occurs exactly once in the data (``P(i) = 1/N``), so the
    posterior is ``N * sum over buckets of P(i, s, b)`` — up to solver
    tolerance, so each pseudonym's row is projected onto the simplex the
    same way :meth:`PosteriorTable.from_solution` projects its rows.
    """
    space = solution.space
    if not isinstance(space, PersonVariableSpace):
        raise ReproError("person_posterior needs a person-space solution")
    totals: dict[str, Counter] = {}
    for var in range(space.n_vars):
        name, s, _bucket = space.describe_var(var)
        totals.setdefault(name, Counter())[s] += solution.p[var]
    posterior = {}
    for name, counter in totals.items():
        row = _project_rows(np.fromiter(counter.values(), dtype=float))
        posterior[name] = dict(zip(counter, map(float, row)))
    return posterior
