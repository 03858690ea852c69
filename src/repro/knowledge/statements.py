"""Declarative background-knowledge statements about the data distribution.

Section 4 of the paper: any knowledge expressible as a linear equation (or,
via the Kazama-Tsujii extension, a linear inequality) over the joint
probabilities ``P(Q, S, B)`` can be fed to Privacy-MaxEnt.  These classes
are the user-facing language; :mod:`repro.knowledge.compiler` turns each
statement into numeric constraint rows against a concrete bucketization.

The canonical statement is the conditional probability ``P(s | Qv) = c``
over a *subset* ``Qv`` of QI attributes — e.g. the paper's
``P(Breast Cancer | Male) = 0`` or ``P(Flu | male) = 0.3`` examples.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import KnowledgeError
from repro.utils.validation import check_probability


def _validate_given(given: dict[str, str]) -> dict[str, str]:
    if type(given) is not dict and not isinstance(given, Mapping):
        raise KnowledgeError(
            "the antecedent Qv must be a mapping of QI attribute names to "
            f"values, got {type(given).__name__}"
        )
    if not given:
        raise KnowledgeError(
            "the antecedent Qv must constrain at least one QI attribute"
        )
    for name, value in given.items():
        if not isinstance(name, str) or not isinstance(value, str):
            raise KnowledgeError(
                f"antecedent entries must be attribute-name -> value strings, "
                f"got {name!r}: {value!r}"
            )
    return dict(given)


@dataclass(frozen=True)
class Statement:
    """Base class for background-knowledge statements.

    Subclasses describe *what the adversary knows*; they are independent of
    any particular bucketization (Section 4.1: "the constraints should be
    the same regardless how the published data are bucketized").
    """

    def describe(self) -> str:
        """One-line human-readable rendering."""
        raise NotImplementedError

    @property
    def is_equality(self) -> bool:
        """True for equality statements, False for inequality statements."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConditionalProbability(Statement):
    """``P(sa_value | Qv) = probability`` (Section 4.1).

    ``given`` maps QI attribute names to values; it may cover any non-empty
    subset of the QI attributes.  The compiled ME constraint is

        sum over buckets and full QI tuples extending Qv of
        P(Q, sa_value, B)  =  probability * P(Qv)

    with ``P(Qv)`` the published sample marginal of the antecedent.
    """

    given: dict[str, str]
    sa_value: str
    probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "given", _validate_given(self.given))
        check_probability(self.probability, name="probability")

    @property
    def is_equality(self) -> bool:
        return True

    def describe(self) -> str:
        antecedent = ", ".join(f"{k}={v}" for k, v in sorted(self.given.items()))
        return f"P({self.sa_value} | {antecedent}) = {self.probability:g}"

    def with_vagueness(self, epsilon: float) -> "ConditionalInterval":
        """The vague version ``probability +- epsilon`` (Section 4.5)."""
        if epsilon < 0:
            raise KnowledgeError(f"epsilon must be >= 0, got {epsilon}")
        return ConditionalInterval(
            given=self.given,
            sa_value=self.sa_value,
            low=max(0.0, self.probability - epsilon),
            high=min(1.0, self.probability + epsilon),
        )


@dataclass(frozen=True)
class JointProbability(Statement):
    """``P(Qv, sa_value) = probability`` — joint-form knowledge.

    Mined association rules compile through this form since their
    support/confidence counts directly give the joint probability; it is
    also the natural encoding when the adversary's knowledge is stated on
    the joint rather than the conditional.
    """

    given: dict[str, str]
    sa_value: str
    probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "given", _validate_given(self.given))
        check_probability(self.probability, name="probability")

    @property
    def is_equality(self) -> bool:
        return True

    def describe(self) -> str:
        antecedent = ", ".join(f"{k}={v}" for k, v in sorted(self.given.items()))
        return f"P({antecedent}, {self.sa_value}) = {self.probability:g}"


@dataclass(frozen=True)
class ConditionalInterval(Statement):
    """``low <= P(sa_value | Qv) <= high`` — vague knowledge (Section 4.5).

    Compiles to a pair of inequality rows handled by the Kazama-Tsujii
    extension of the MaxEnt solver.  ``low == high`` is allowed and
    degenerates to the equality statement.
    """

    given: dict[str, str]
    sa_value: str
    low: float
    high: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "given", _validate_given(self.given))
        check_probability(self.low, name="low")
        check_probability(self.high, name="high")
        if self.low > self.high:
            raise KnowledgeError(
                f"interval is empty: low={self.low} > high={self.high}"
            )

    @property
    def is_equality(self) -> bool:
        return False

    def describe(self) -> str:
        antecedent = ", ".join(f"{k}={v}" for k, v in sorted(self.given.items()))
        return (
            f"{self.low:g} <= P({self.sa_value} | {antecedent}) <= {self.high:g}"
        )


@dataclass(frozen=True)
class Comparison(Statement):
    """``P(more_likely | Qv) >= P(less_likely | Qv) + margin``.

    The paper's example: "a person with q1 is more likely to have s1 than
    s2" is ``Comparison(given={...q1...}, more_likely="s1",
    less_likely="s2")``.  Compiles to one inequality row with mixed-sign
    coefficients.
    """

    given: dict[str, str]
    more_likely: str
    less_likely: str
    margin: float = field(default=0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "given", _validate_given(self.given))
        if self.more_likely == self.less_likely:
            raise KnowledgeError("comparison needs two distinct SA values")
        check_probability(self.margin, name="margin")

    @property
    def is_equality(self) -> bool:
        return False

    def describe(self) -> str:
        antecedent = ", ".join(f"{k}={v}" for k, v in sorted(self.given.items()))
        suffix = f" + {self.margin:g}" if self.margin else ""
        return (
            f"P({self.more_likely} | {antecedent}) >= "
            f"P({self.less_likely} | {antecedent}){suffix}"
        )
