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
which yields every ``P(Qv)`` as an exact record count.  Rows are then built
in input order: each summation set is one probe of the space's
(QI tuple, SA value) index, individual statements look up their pseudonyms'
variables, and each row family reaches the constraint system in one batch
append, in statement order.

Compilation errors are diagnosed eagerly: a statement naming an attribute
that is not a QI attribute, a statement about a population absent from the
data (``P(Qv) = 0``), or a strictly positive probability whose summation
set is structurally empty cannot be satisfied, and raising here gives far
better messages than a solver divergence later.  Each error names its
statement (its ``describe()`` text), and a list raises the error of its
first failing statement in input order — the batch resolution itself
raises nothing.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import CompilationError, InfeasibleKnowledgeError
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
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace

VariableSpace = GroupVariableSpace | PersonVariableSpace

#: Right-hand sides smaller than this are treated as exact zeros (they come
#: from integer-count arithmetic, so true zeros are exact).
_RHS_TOL = 1e-12


_DISTRIBUTION = (
    ConditionalProbability, JointProbability, ConditionalInterval, Comparison,
)


def _equality_row(
    label: str, indices: np.ndarray, rhs: float, rows: _RowBatch
) -> None:
    if indices.size == 0:
        if rhs > _RHS_TOL:
            raise InfeasibleKnowledgeError(
                f"statement {label!r} requires probability {rhs:g} on a "
                "summation set that is structurally empty (the SA value "
                "never co-occurs with the antecedent in any bucket)"
            )
        # A zero-probability statement over an empty set is vacuously true.
        return
    rows.add_equality(indices, np.ones(indices.size), rhs, kind="bk", label=label)


def _compile_distribution(
    statement: Statement,
    space: VariableSpace,
    qids: np.ndarray,
    count: int,
    unknown: str | None,
    rows: _RowBatch,
) -> None:
    """Rows of one Section 4.1/4.5 statement, given its resolved antecedent:
    the ids of the QI tuples extending it, their record count and the
    first attribute that is not a QI attribute (if any)."""
    label = statement.describe()
    if unknown is not None:
        raise CompilationError(f"{label}: {unknown!r} is not a QI attribute")
    if isinstance(statement, JointProbability):
        # The joint form's rhs is the probability itself; P(Qv) plays no part.
        _equality_row(
            label,
            space.vars_of_qis(qids, statement.sa_value),
            statement.probability,
            rows,
        )
        return
    if count == 0:
        antecedent = ", ".join(
            f"{k}={v}" for k, v in sorted(statement.given.items())
        )
        raise CompilationError(
            f"{label}: antecedent {{{antecedent}}} matches no published "
            "record, so P(Qv) = 0 and the statement constrains nothing"
        )
    p_qv = float(count) / space.n_records

    if isinstance(statement, ConditionalProbability):
        _equality_row(
            label,
            space.vars_of_qis(qids, statement.sa_value),
            statement.probability * p_qv,
            rows,
        )
        return

    if isinstance(statement, ConditionalInterval):
        indices = space.vars_of_qis(qids, statement.sa_value)
        if indices.size == 0:
            if statement.low > _RHS_TOL:
                raise InfeasibleKnowledgeError(
                    f"statement {label!r} has an empty summation set but a "
                    "strictly positive lower bound"
                )
            return
        ones = np.ones(indices.size)
        # sum <= high * P(Qv)
        rows.add_inequality(
            indices, ones, statement.high * p_qv, kind="bk",
            label=f"{label} [upper]",
        )
        # sum >= low * P(Qv), encoded as -sum <= -low * P(Qv)
        if statement.low > 0.0:
            rows.add_inequality(
                indices, -ones, -statement.low * p_qv, kind="bk",
                label=f"{label} [lower]",
            )
        return

    more = space.vars_of_qis(qids, statement.more_likely)
    less = space.vars_of_qis(qids, statement.less_likely)
    if more.size == 0 and less.size == 0:
        if statement.margin > _RHS_TOL:
            # 0 >= 0 + margin is infeasible.
            raise InfeasibleKnowledgeError(
                f"statement {label!r}: both sides are structurally zero but "
                "the margin is positive"
            )
        return
    # P(less|Qv) - P(more|Qv) <= -margin, scaled by P(Qv):
    rows.add_inequality(
        np.concatenate([less, more]),
        np.concatenate([np.ones(less.size), -np.ones(more.size)]),
        -statement.margin * p_qv,
        kind="bk",
        label=label,
    )


def _compile_individual(
    statement: IndividualStatement,
    space: PersonVariableSpace,
    rows: _RowBatch,
) -> None:
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
            return
        rows.add_equality(
            indices, np.ones(indices.size), rhs, kind="bk",
            label=statement.describe(),
        )
        return

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
        rows.add_equality(
            indices, np.ones(indices.size), 1.0 / n, kind="bk",
            label=statement.describe(),
        )
        return

    if isinstance(statement, (GroupCount, GroupCountAtLeast, GroupCountAtMost)):
        pieces = [
            space.vars_of_person(person, statement.sa_value)
            for person in statement.persons
        ]
        indices = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        rhs = statement.count / n
        if indices.size == 0:
            if isinstance(statement, GroupCountAtMost):
                return  # "at most k" over a structurally-zero sum: vacuous
            raise InfeasibleKnowledgeError(
                f"{statement.describe()}: no member of the group can carry "
                f"{statement.sa_value!r} in any bucket"
            )
        ones = np.ones(indices.size)
        if isinstance(statement, GroupCount):
            rows.add_equality(
                indices, ones, rhs, kind="bk", label=statement.describe()
            )
        elif isinstance(statement, GroupCountAtLeast):
            # sum >= count/N, encoded as -sum <= -count/N.
            rows.add_inequality(
                indices, -ones, -rhs, kind="bk", label=statement.describe()
            )
        else:
            rows.add_inequality(
                indices, ones, rhs, kind="bk", label=statement.describe()
            )
        return

    raise CompilationError(
        f"unsupported individual statement type {type(statement).__name__}"
    )


class _RowBatch:
    """Accumulates compiled rows, emitted as one batch append per family.

    Statements are compiled row-at-a-time (where the eager diagnostics
    live) while the constraint system receives the whole knowledge block
    through the array-native batch API.
    """

    def __init__(self) -> None:
        self._eq: list[tuple] = []
        self._ineq: list[tuple] = []

    def add_equality(self, indices, coefficients, rhs, *, kind, label=""):
        self._eq.append((indices, coefficients, float(rhs), kind, label))

    def add_inequality(self, indices, coefficients, upper, *, kind, label=""):
        self._ineq.append((indices, coefficients, float(upper), kind, label))

    @staticmethod
    def _flush(rows: list[tuple], append_batch) -> None:
        if not rows:
            return
        lengths = np.array([len(r[0]) for r in rows], dtype=np.int64)
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        append_batch(
            indptr,
            np.concatenate([np.asarray(r[0], dtype=np.int64) for r in rows]),
            np.concatenate([np.asarray(r[1], dtype=float) for r in rows]),
            np.array([r[2] for r in rows]),
            kinds=[r[3] for r in rows],
            labels=[r[4] or f"{r[3]}[{i}]" for i, r in enumerate(rows)],
        )

    def emit(self, system: ConstraintSystem) -> None:
        """Append every accumulated row to ``system`` in two batches."""
        self._flush(self._eq, system.add_equalities)
        self._flush(self._ineq, system.add_inequalities)


def compile_statements(
    statements: Iterable[Statement | IndividualStatement] | Sequence,
    space: VariableSpace,
) -> ConstraintSystem:
    """Compile a batch of statements into a fresh constraint system.

    The returned system holds only the background-knowledge rows;
    ``ReleaseModel.compile`` appends them to a release's data rows.
    Every antecedent is resolved up front in one batch; rows are then
    built in input order and appended in one batch per family.  The
    first statement (in input order) that cannot compile raises.
    """
    statements = list(statements)
    matches = space.match_antecedents(
        [s.given for s in statements if isinstance(s, _DISTRIBUTION)]
    )
    resolved = zip(matches.ids, matches.counts, matches.unknown)
    rows = _RowBatch()
    for statement in statements:
        if isinstance(statement, _DISTRIBUTION):
            _compile_distribution(statement, space, *next(resolved), rows)
        elif isinstance(statement, IndividualStatement):
            if not isinstance(space, PersonVariableSpace):
                raise CompilationError(
                    f"statement {statement.describe()!r} is about an "
                    "individual; build the engine with a PersonVariableSpace "
                    "(PrivacyMaxEnt(..., individuals=True))"
                )
            _compile_individual(statement, space, rows)
        else:
            raise CompilationError(
                f"unsupported statement type {type(statement).__name__}"
            )
    system = ConstraintSystem(space.n_vars)
    rows.emit(system)
    return system
