"""Exception hierarchy for the Privacy-MaxEnt library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A table schema is malformed or inconsistent with the data.

    Raised, for example, when an attribute is declared twice, when a role
    (ID / QI / SA) refers to an unknown attribute, or when column lengths
    disagree.
    """


class DomainError(ReproError):
    """A categorical value does not belong to its attribute's domain."""


class AnonymizationError(ReproError):
    """An anonymization algorithm cannot produce a valid output."""


class DiversityError(AnonymizationError):
    """The requested l-diversity level cannot be satisfied.

    The classic eligibility condition for bucketization with distinct
    l-diversity is that no (non-exempt) sensitive value may account for more
    than ``1/l`` of the remaining records; when the condition is violated the
    anonymizer raises this error instead of silently producing an invalid
    bucketization.
    """


class KnowledgeError(ReproError):
    """A background-knowledge statement is malformed.

    Examples: a conditional probability outside ``[0, 1]``, an empty
    antecedent, a statement referring to attributes that are not part of the
    schema, or an interval with ``low > high``.
    """


class CompilationError(KnowledgeError):
    """A statement could not be compiled into an ME constraint row.

    This typically means the statement refers to QI or SA values that do not
    occur in the published table, so the marginal probability needed for the
    right-hand side (e.g. ``P(Qv)``) is zero or undefined.
    """


class InfeasibleKnowledgeError(ReproError):
    """The constraint system admits no probability distribution.

    Sound knowledge mined from the original data is always feasible (the
    original assignment satisfies every invariant and every mined rule), so
    this error signals either contradictory user-supplied knowledge or
    knowledge inconsistent with the published data.
    """

    def __init__(self, message: str, *, residual: float | None = None) -> None:
        super().__init__(message)
        #: Norm of the constraint violation at the best point found, when the
        #: infeasibility was detected numerically rather than structurally.
        self.residual = residual


class SolverError(ReproError):
    """A MaxEnt solver failed to converge or was misused.

    Carries the solver name and the iteration count at failure when
    available, to make performance-debugging reports actionable.
    """

    def __init__(
        self,
        message: str,
        *,
        solver: str | None = None,
        iterations: int | None = None,
    ) -> None:
        super().__init__(message)
        self.solver = solver
        self.iterations = iterations


class NotSupportedError(ReproError):
    """A solver was asked to handle a problem feature it does not support.

    For example, the assignment-enumeration baseline cannot express a
    probabilistic rule; passing one raises this error rather than silently
    producing a wrong answer.
    """


class ExperimentError(ReproError):
    """An experiment driver received an invalid configuration."""


class ConnectorError(ReproError):
    """A table connector cannot deliver rows as promised.

    Raised by :mod:`repro.data.connectors` when schema discovery fails
    (unknown table/column, unsupported storage type), when a value cannot
    be coerced to a categorical label (NULLs without a configured label),
    or when the underlying database is mutated while a deterministic
    chunked iteration is in flight.
    """


class IngestError(ReproError):
    """A streaming (chunked) release registration cannot proceed.

    Raised by the service-side ingest sessions for protocol violations:
    out-of-order chunk sequence numbers, chunk-digest mismatches,
    finalizing an upload whose accumulated content digest disagrees with
    the digest the client expected, or operating on an expired session.
    """
