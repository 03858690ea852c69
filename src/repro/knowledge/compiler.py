"""Compile background-knowledge statements into ME constraint rows.

Section 4.1's recipe: a statement ``P(s | Qv) = c`` becomes

    sum over buckets B and full QI tuples Q extending Qv of
    P(Q, s, B)  =  c * P(Qv)

where ``P(Qv)`` is the published sample marginal of the antecedent (QI is
undisguised in bucketization, so the published marginal equals the original
one).  Inequality statements (Section 4.5) become ``G p <= d`` rows;
individual statements (Section 6) compile over the pseudonym space.

A list compiles in one batch.  The antecedents of all its distribution
statements (conditional, joint, interval, comparison) are resolved first,
in one join per antecedent attribute subset against the space's coded QI
tuples (:meth:`~repro.maxent.indexing.GroupVariableSpace.match_antecedents`),
which yields every ``P(Qv)`` as an exact record count.  Every summation
set of the batch — one per statement, two for a comparison — is then one
probe of a single batched lookup of the space's (QI tuple, SA value)
index (:meth:`~repro.maxent.indexing.GroupVariableSpace.vars_of_qi_sets`),
and each row family is assembled from those sets as arrays, in statement
order, and reaches the constraint system in one batch append.  Individual
statements look up their pseudonyms' variables one statement at a time;
their rows take their places in statement order.

Compilation errors are diagnosed eagerly: a statement naming an attribute
that is not a QI attribute, a statement about a population absent from the
data (``P(Qv) = 0``), or a strictly positive probability whose summation
set is structurally empty cannot be satisfied, and raising here gives far
better messages than a solver divergence later.  The batch computes these
conditions as arrays; each error names its statement (its ``describe()``
text), and a list raises the error of its first failing statement in
input order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import CompilationError, InfeasibleKnowledgeError, ReproError
from repro.knowledge.individuals import (
    GroupCount,
    GroupCountAtLeast,
    GroupCountAtMost,
    IndividualDisjunction,
    IndividualProbability,
    IndividualStatement,
)
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
    Statement,
)
from repro.maxent.constraints import ConstraintSystem, RowLabels, _objects
from repro.maxent.indexing import (
    GroupVariableSpace,
    PersonVariableSpace,
    _offsets,
    _take_ranges,
)

VariableSpace = GroupVariableSpace | PersonVariableSpace

#: Right-hand sides smaller than this are treated as exact zeros (they come
#: from integer-count arithmetic, so true zeros are exact).
_RHS_TOL = 1e-12


_DISTRIBUTION = (
    ConditionalProbability, JointProbability, ConditionalInterval, Comparison,
)
_CONDITIONAL, _JOINT, _INTERVAL, _COMPARISON = range(4)
#: Label suffixes of inequality rows: a comparison's, an interval's upper
#: and lower row.
_SUFFIXES = np.array(["", " [upper]", " [lower]"], dtype=object)


class _Rows(NamedTuple):
    """One row family as CSR arrays, with each row's statement position
    in the input list and its label parts (statement, suffix)."""

    position: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray
    rhs: np.ndarray
    statements: np.ndarray
    suffixes: np.ndarray

    @classmethod
    def of_rows(cls, rows: list[tuple]) -> "_Rows":
        """From ``(position, indices, coefficients, rhs, statement)``
        tuples, in that order."""
        empty_i = np.empty(0, dtype=np.int64)
        return cls(
            np.array([r[0] for r in rows], dtype=np.int64),
            _offsets(np.array([r[1].size for r in rows], dtype=np.int64)),
            np.concatenate([empty_i] + [r[1] for r in rows]),
            np.concatenate([np.empty(0)] + [r[2] for r in rows]),
            np.array([r[3] for r in rows], dtype=np.float64),
            _objects([r[4] for r in rows]),
            _objects([""] * len(rows)),
        )

    def merged(self, other: "_Rows") -> "_Rows":
        """Both families' rows in statement order (each keeps its own
        order within a statement)."""
        if not other.rhs.size:
            return self
        if not self.rhs.size:
            return other
        indptr = np.concatenate((self.indptr, other.indptr[1:] + self.indptr[-1]))
        position = np.concatenate((self.position, other.position))
        order = np.argsort(position, kind="stable")
        entries = _take_ranges(indptr[order], indptr[order + 1])
        return _Rows(
            position[order],
            _offsets(np.diff(indptr)[order]),
            np.concatenate((self.indices, other.indices))[entries],
            np.concatenate((self.coefficients, other.coefficients))[entries],
            np.concatenate((self.rhs, other.rhs))[order],
            np.concatenate((self.statements, other.statements))[order],
            np.concatenate((self.suffixes, other.suffixes))[order],
        )

    def append_to(self, append_batch) -> None:
        """Append the rows (kind "bk") with one batch call."""
        if self.rhs.size:
            append_batch(
                self.indptr,
                self.indices,
                self.coefficients,
                self.rhs,
                kinds="bk",
                labels=RowLabels.described(self.statements, self.suffixes),
            )


class _DistributionBatch:
    """The distribution statements of a list, resolved together.

    Every summation set is one probe of one batched index lookup: probe
    ``j`` is statement ``j``'s set (for a comparison, its less likely
    value), and each comparison adds a probe for its more likely value.
    The failure conditions and both row families are arrays over the
    statements.
    """

    def __init__(self, statements: list[Statement], space: VariableSpace) -> None:
        self.statements = statements
        n = len(statements)
        kinds, values, lows, sids = [], [], [], []
        comparisons, more_sids = [], []
        sa_id_of = space.sa_id_of
        for j, statement in enumerate(statements):
            low = 0.0
            if isinstance(statement, Comparison):
                kind, value = _COMPARISON, statement.margin
                sa_value = statement.less_likely
                comparisons.append(j)
                more_sids.append(sa_id_of.get(statement.more_likely, -1))
            elif isinstance(statement, ConditionalInterval):
                kind, value, low = _INTERVAL, statement.high, statement.low
                sa_value = statement.sa_value
            else:
                joint = isinstance(statement, JointProbability)
                kind = _JOINT if joint else _CONDITIONAL
                value, sa_value = statement.probability, statement.sa_value
            kinds.append(kind)
            values.append(value)
            lows.append(low)
            sids.append(sa_id_of.get(sa_value, -1))
        self.kind = np.array(kinds, dtype=np.int64)
        self.value = np.array(values, dtype=np.float64)
        self.low = np.array(lows, dtype=np.float64)

        matches = space.match_antecedents([s.given for s in statements])
        self.unknown = matches.unknown
        self.counts = matches.counts
        self.p_qv = matches.counts / space.n_records

        comparisons = np.array(comparisons, dtype=np.int64)
        probe_statement = np.concatenate((np.arange(n), comparisons))
        probe_sid = np.array(sids + more_sids, dtype=np.int64)
        known = probe_sid >= 0
        starts = matches.indptr[probe_statement]
        ends = matches.indptr[probe_statement + 1]
        self.set_indptr, self.members = space.vars_of_qi_sets(
            matches.ids[_take_ranges(starts[known], ends[known])],
            np.where(known, ends - starts, 0),
            probe_sid,
        )
        sizes = np.diff(self.set_indptr)
        self.size = sizes[:n]
        #: Per statement: the probe of its second set (-1: none) and its size.
        self.second = np.full(n, -1, dtype=np.int64)
        self.second[comparisons] = n + np.arange(comparisons.size)
        self.second_size = np.zeros(n, dtype=np.int64)
        self.second_size[comparisons] = sizes[n:]
        self.eq_rhs = np.where(
            self.kind == _CONDITIONAL, self.value * self.p_qv, self.value
        )

    def first_failure(self) -> int | None:
        """The first statement that cannot compile, or None."""
        kind, empty = self.kind, self.size == 0
        joint = kind == _JOINT
        fails = (
            np.array([u is not None for u in self.unknown], dtype=bool)
            | (~joint & (self.counts == 0))
            | (
                (joint | (kind == _CONDITIONAL))
                & empty
                & (self.eq_rhs > _RHS_TOL)
            )
            | ((kind == _INTERVAL) & empty & (self.low > _RHS_TOL))
            | (
                (kind == _COMPARISON)
                & empty
                & (self.second_size == 0)
                & (self.value > _RHS_TOL)
            )
        )
        failing = np.flatnonzero(fails)
        return int(failing[0]) if failing.size else None

    def error(self, j: int) -> ReproError:
        """The error of failing statement ``j``."""
        statement = self.statements[j]
        label = statement.describe()
        if self.unknown[j] is not None:
            return CompilationError(
                f"{label}: {self.unknown[j]!r} is not a QI attribute"
            )
        kind = int(self.kind[j])
        if kind != _JOINT and self.counts[j] == 0:
            antecedent = ", ".join(
                f"{k}={v}" for k, v in sorted(statement.given.items())
            )
            return CompilationError(
                f"{label}: antecedent {{{antecedent}}} matches no published "
                "record, so P(Qv) = 0 and the statement constrains nothing"
            )
        if kind in (_CONDITIONAL, _JOINT):
            return InfeasibleKnowledgeError(
                f"statement {label!r} requires probability "
                f"{float(self.eq_rhs[j]):g} on a summation set that is "
                "structurally empty (the SA value never co-occurs with the "
                "antecedent in any bucket)"
            )
        if kind == _INTERVAL:
            return InfeasibleKnowledgeError(
                f"statement {label!r} has an empty summation set but a "
                "strictly positive lower bound"
            )
        # 0 >= 0 + margin is infeasible.
        return InfeasibleKnowledgeError(
            f"statement {label!r}: both sides are structurally zero but "
            "the margin is positive"
        )

    def rows(self, positions: np.ndarray, objects: np.ndarray) -> tuple[_Rows, _Rows]:
        """``(equalities, inequalities)`` of a batch without failures;
        ``positions`` and ``objects`` are the statements' input positions
        and the statements as an object array."""
        kind, size, p_qv = self.kind, self.size, self.p_qv
        indptr, members = self.set_indptr, self.members

        # Equalities: a conditional's or joint's non-empty set, ones.
        eq = np.flatnonzero(((kind == _CONDITIONAL) | (kind == _JOINT)) & (size > 0))
        entries = members[_take_ranges(indptr[eq], indptr[eq + 1])]
        equalities = _Rows(
            positions[eq],
            _offsets(size[eq]),
            entries,
            np.ones(entries.size),
            self.eq_rhs[eq],
            objects[eq],
            _SUFFIXES[np.zeros(eq.size, dtype=np.int64)],
        )

        # Inequalities: an interval's [upper] row, then its [lower] row when
        # low > 0, or a comparison's row (less likely set, then more likely).
        interval = (kind == _INTERVAL) & (size > 0)
        comparison = (kind == _COMPARISON) & (size + self.second_size > 0)
        ineq = np.flatnonzero(interval | comparison)
        per_statement = 1 + (interval & (self.low > 0.0))[ineq]
        row = np.repeat(ineq, per_statement)
        lower = np.zeros(row.size, dtype=bool)
        lower[1:] = row[1:] == row[:-1]
        second = self.second[row]
        has_second = second >= 0
        starts = np.stack(
            (indptr[row], np.where(has_second, indptr[second], 0)), axis=1
        ).ravel()
        ends = np.stack(
            (indptr[row + 1], np.where(has_second, indptr[second + 1], 0)), axis=1
        ).ravel()
        signs = np.stack(
            (np.where(lower, -1.0, 1.0), np.full(row.size, -1.0)), axis=1
        ).ravel()
        lengths = ends - starts
        row_kind = kind[row]
        inequalities = _Rows(
            positions[row],
            _offsets(lengths.reshape(-1, 2).sum(axis=1)),
            members[_take_ranges(starts, ends)],
            np.repeat(signs, lengths),
            np.where(
                row_kind == _COMPARISON,
                # P(less|Qv) - P(more|Qv) <= -margin, scaled by P(Qv).
                -self.value[row] * p_qv[row],
                # sum >= low * P(Qv), encoded as -sum <= -low * P(Qv).
                np.where(
                    lower, -self.low[row] * p_qv[row], self.value[row] * p_qv[row]
                ),
            ),
            objects[row],
            _SUFFIXES[np.where(row_kind == _COMPARISON, 0, 1 + lower)],
        )
        return equalities, inequalities


def _compile_individual(
    statement: IndividualStatement, space: PersonVariableSpace
) -> tuple[bool, np.ndarray, np.ndarray, float] | None:
    """``(is_equality, indices, coefficients, rhs)`` of one Section 6
    statement's row, or None for a vacuous statement."""
    n = space.n_records
    if isinstance(statement, IndividualProbability):
        indices = space.vars_of_person(statement.person, statement.sa_value)
        rhs = statement.probability / n
        if indices.size == 0:
            if rhs > _RHS_TOL:
                raise InfeasibleKnowledgeError(
                    f"{statement.describe()}: {statement.person.name} can "
                    f"never carry {statement.sa_value!r} (no bucket offers it)"
                )
            return None
        return True, indices, np.ones(indices.size), rhs

    if isinstance(statement, IndividualDisjunction):
        pieces = [
            space.vars_of_person(statement.person, value)
            for value in statement.sa_values
        ]
        indices = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        if indices.size == 0:
            raise InfeasibleKnowledgeError(
                f"{statement.describe()}: none of the listed values is "
                f"available to {statement.person.name} in any bucket"
            )
        return True, indices, np.ones(indices.size), 1.0 / n

    if isinstance(statement, (GroupCount, GroupCountAtLeast, GroupCountAtMost)):
        pieces = [
            space.vars_of_person(person, statement.sa_value)
            for person in statement.persons
        ]
        indices = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        rhs = statement.count / n
        if indices.size == 0:
            if isinstance(statement, GroupCountAtMost):
                return None  # "at most k" over a structurally-zero sum: vacuous
            raise InfeasibleKnowledgeError(
                f"{statement.describe()}: no member of the group can carry "
                f"{statement.sa_value!r} in any bucket"
            )
        ones = np.ones(indices.size)
        if isinstance(statement, GroupCount):
            return True, indices, ones, rhs
        if isinstance(statement, GroupCountAtLeast):
            # sum >= count/N, encoded as -sum <= -count/N.
            return False, indices, -ones, -rhs
        return False, indices, ones, rhs

    raise CompilationError(
        f"unsupported individual statement type {type(statement).__name__}"
    )


def compile_statements(
    statements: Iterable[Statement | IndividualStatement] | Sequence,
    space: VariableSpace,
) -> ConstraintSystem:
    """Compile a batch of statements into a fresh constraint system.

    The returned system holds only the background-knowledge rows;
    ``ReleaseModel.compile`` appends them to a release's data rows.
    The distribution statements compile as one batch (one antecedent
    resolution, one summation-set lookup); rows come out in input order,
    one batch append per family.  The first statement (in input order)
    that cannot compile raises.
    """
    statements = list(statements)
    positions = [j for j, s in enumerate(statements) if isinstance(s, _DISTRIBUTION)]
    distribution = [statements[j] for j in positions]
    batch = _DistributionBatch(distribution, space)
    failed = batch.first_failure()
    stop = len(statements) if failed is None else positions[failed]

    individual: tuple[list, list] = ([], [])
    for j in range(stop):
        statement = statements[j]
        if isinstance(statement, _DISTRIBUTION):
            continue
        if not isinstance(statement, IndividualStatement):
            raise CompilationError(
                f"unsupported statement type {type(statement).__name__}"
            )
        if not isinstance(space, PersonVariableSpace):
            raise CompilationError(
                f"statement {statement.describe()!r} is about an "
                "individual; build the engine with a PersonVariableSpace "
                "(PrivacyMaxEnt(..., individuals=True))"
            )
        row = _compile_individual(statement, space)
        if row is not None:
            is_equality, indices, coefficients, rhs = row
            individual[0 if is_equality else 1].append(
                (j, indices, coefficients, float(rhs), statement)
            )
    if failed is not None:
        raise batch.error(failed)

    equalities, inequalities = batch.rows(
        np.array(positions, dtype=np.int64), _objects(distribution)
    )
    system = ConstraintSystem(space.n_vars)
    equalities.merged(_Rows.of_rows(individual[0])).append_to(system.add_equalities)
    inequalities.merged(_Rows.of_rows(individual[1])).append_to(
        system.add_inequalities
    )
    return system
