"""Argument-validation helpers shared by public entry points.

These raise library-specific exceptions with actionable messages instead of
letting malformed input surface as cryptic numpy errors deep in a solver.
"""

from __future__ import annotations

from numbers import Real

from repro.errors import KnowledgeError, ReproError


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``[0, 1]`` and return it.

    Only real numbers qualify: a numeric string or a bool is rejected,
    not coerced, so a statement never stores a value it cannot format
    or compile.
    """
    # Plain floats skip the ABC check, which costs about 1 µs a call
    # and is paid by every statement a mined bound builds.
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, Real)
    ):
        raise KnowledgeError(
            f"{name} must be a number, got {type(value).__name__} {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise KnowledgeError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_positive_int(value: int, *, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ReproError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ReproError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: int, *, name: str = "value") -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ReproError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ReproError(f"{name} must be non-negative, got {value}")
    return value


def check_fraction(value: float, *, name: str = "fraction") -> float:
    """Validate a strictly positive fraction ``(0, 1]`` and return it."""
    number = float(value)
    if not 0.0 < number <= 1.0:
        raise ReproError(f"{name} must be in (0, 1], got {number}")
    return number
