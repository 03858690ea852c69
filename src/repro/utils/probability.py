"""Probability and information-theory helpers used across the library.

All functions operate on plain numpy arrays of non-negative weights.  Unless
stated otherwise logarithms default to base 2, matching the convention used
for the paper's Estimation Accuracy plots (the base only rescales the y-axis;
it never changes orderings or crossovers).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ReproError

#: Values below this threshold are treated as exact zeros in entropy / KL
#: computations, which avoids ``0 * log 0`` artifacts from solver round-off.
ZERO_TOL = 1e-15


def _as_float_array(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        array = array.ravel()
    return array


def safe_log(values, base: float = 2.0) -> np.ndarray:
    """Elementwise logarithm that maps zeros to zero instead of ``-inf``.

    Intended for ``p * log(p)`` style expressions where the ``p = 0`` term is
    defined by continuity to be zero; the caller multiplies by ``p`` anyway,
    so returning 0 for the log of 0 is safe and avoids NaN propagation.
    """
    array = _as_float_array(values)
    out = np.zeros_like(array)
    positive = array > ZERO_TOL
    out[positive] = np.log(array[positive]) / math.log(base)
    return out


def normalize(weights) -> np.ndarray:
    """Scale non-negative weights to sum to one.

    Raises :class:`ReproError` if the weights are all zero or any is
    negative beyond round-off, because silently renormalizing garbage hides
    upstream bugs.
    """
    array = _as_float_array(weights)
    if array.size == 0:
        raise ReproError("cannot normalize an empty weight vector")
    if np.any(array < -1e-9):
        raise ReproError("cannot normalize weights with negative entries")
    array = np.clip(array, 0.0, None)
    total = float(array.sum())
    if total <= ZERO_TOL:
        raise ReproError("cannot normalize an all-zero weight vector")
    return array / total


def entropy(probabilities, base: float = 2.0) -> float:
    """Shannon entropy ``-sum p log p`` of a (sub-)distribution.

    The input does not need to sum to one: the MaxEnt objective operates on
    joint masses that sum to the mass of a component, not necessarily 1.
    """
    p = _as_float_array(probabilities)
    if np.any(p < -1e-9):
        raise ReproError("entropy requires non-negative probabilities")
    p = np.clip(p, 0.0, None)
    return float(-(p * safe_log(p, base=base)).sum())


def kl_divergence(p, q, base: float = 2.0) -> float:
    """Kullback-Leibler divergence ``D(p || q) = sum p log(p/q)``.

    Terms with ``p == 0`` contribute zero.  A term with ``p > 0`` and
    ``q == 0`` makes the divergence infinite; we return ``math.inf`` in that
    case rather than raising, because the paper's accuracy measure is
    well-defined (and finite) whenever the estimate is consistent with the
    data, and an infinite readout is the correct signal when it is not.
    """
    p_arr = _as_float_array(p)
    q_arr = _as_float_array(q)
    if p_arr.shape != q_arr.shape:
        raise ReproError(
            f"KL divergence needs equal shapes, got {p_arr.shape} vs {q_arr.shape}"
        )
    if np.any(p_arr < -1e-9) or np.any(q_arr < -1e-9):
        raise ReproError("KL divergence requires non-negative inputs")
    p_arr = np.clip(p_arr, 0.0, None)
    q_arr = np.clip(q_arr, 0.0, None)
    support = p_arr > ZERO_TOL
    if np.any(q_arr[support] <= ZERO_TOL):
        return math.inf
    ratio = p_arr[support] / q_arr[support]
    return float((p_arr[support] * np.log(ratio)).sum() / math.log(base))


def entropy_rows(matrix, base: float = 2.0) -> np.ndarray:
    """:func:`entropy` of every row of ``matrix``, as one array expression."""
    p = np.asarray(matrix, dtype=float)
    if np.any(p < -1e-9):
        raise ReproError("entropy requires non-negative probabilities")
    p = np.clip(p, 0.0, None)
    positive = p > ZERO_TOL
    logs = np.log(np.where(positive, p, 1.0)) / math.log(base)
    return -(p * logs).sum(axis=1)


def kl_divergence_rows(p, q, base: float = 2.0) -> np.ndarray:
    """:func:`kl_divergence` of every row pair of ``p`` and ``q``.

    Row ``i`` is ``D(p[i] || q[i])``, ``inf`` where ``q[i]`` is zero on the
    support of ``p[i]``.  Negative entries anywhere raise.
    """
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ReproError(
            f"KL divergence needs equal shapes, got {p_arr.shape} vs {q_arr.shape}"
        )
    if np.any(p_arr < -1e-9) or np.any(q_arr < -1e-9):
        raise ReproError("KL divergence requires non-negative inputs")
    p_arr = np.clip(p_arr, 0.0, None)
    q_arr = np.clip(q_arr, 0.0, None)
    support = p_arr > ZERO_TOL
    covered = q_arr > ZERO_TOL
    terms = support & covered
    ratio = np.where(terms, p_arr, 1.0) / np.where(terms, q_arr, 1.0)
    divergence = (p_arr * np.log(ratio)).sum(axis=1) / math.log(base)
    divergence[(support & ~covered).any(axis=1)] = math.inf
    return divergence


def total_variation(p, q) -> float:
    """Total-variation distance ``0.5 * sum |p - q|`` between distributions."""
    p_arr = _as_float_array(p)
    q_arr = _as_float_array(q)
    if p_arr.shape != q_arr.shape:
        raise ReproError(
            f"total variation needs equal shapes, got {p_arr.shape} vs {q_arr.shape}"
        )
    return float(0.5 * np.abs(p_arr - q_arr).sum())


def uniform(n: int) -> np.ndarray:
    """The uniform distribution over ``n`` outcomes."""
    if n <= 0:
        raise ReproError("uniform distribution needs at least one outcome")
    return np.full(n, 1.0 / n)
