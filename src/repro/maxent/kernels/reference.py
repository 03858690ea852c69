"""The pure-numpy reference kernel: guarded ``reduceat`` reductions.

These are the segment primitives the stacked dual solver leans on,
factored here so the empty-segment guard exists exactly once.  ``np.ufunc.reduceat`` treats an empty segment (a start equal to
the next start) as a length-1 segment containing the *next* segment's
first element — silently wrong.  Dropping the starts of empty segments
keeps the reduction exact: an empty segment's start equals the next
segment's start, so removing it leaves precisely the non-empty segment
boundaries, and the dropped segments take the ``fill`` value instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np


def _guarded_reduceat(
    ufunc: np.ufunc,
    values: np.ndarray,
    indptr: np.ndarray,
    fill: float,
) -> np.ndarray:
    """Apply ``ufunc.reduceat`` per CSR segment; empty segments -> ``fill``."""
    n_segments = indptr.size - 1
    out = np.full(n_segments, fill)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size and bool(nonempty.any()):
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


def segment_max(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment maxima; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.maximum, values, indptr, fill)


def segment_min(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment minima; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.minimum, values, indptr, fill)


def segment_sum(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment sums; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.add, values, indptr, fill)


def _softmax_parts(
    theta: np.ndarray,
    var_indptr: np.ndarray,
    var_counts: np.ndarray,
    masses: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment mass-scaled softmax and logsumexp of ``theta``.

    Returns ``(p, logsumexp)`` where segment ``k`` of ``p`` is
    ``masses[k] * softmax(theta[k])`` and ``logsumexp[k]`` is the
    shift-stable log of segment ``k``'s exp-sum — the two quantities one
    stacked dual evaluation needs.
    """
    shift = segment_max(theta, var_indptr)
    weights = np.exp(theta - np.repeat(shift, var_counts))
    totals = segment_sum(weights, var_indptr)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = np.repeat(masses / safe, var_counts) * weights
    with np.errstate(divide="ignore"):
        logsumexp = shift + np.log(totals)
    return p, logsumexp


class KernelBackend(Protocol):
    """The segment-reduction surface a stacked dual evaluation needs."""

    name: str

    def segment_max(
        self, values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
    ) -> np.ndarray: ...

    def segment_min(
        self, values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
    ) -> np.ndarray: ...

    def segment_sum(
        self, values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
    ) -> np.ndarray: ...

    def softmax_parts(
        self,
        theta: np.ndarray,
        var_indptr: np.ndarray,
        var_counts: np.ndarray,
        masses: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]: ...


@dataclass(frozen=True)
class _FunctionKernel:
    """A backend assembled from free functions (both backends' shape)."""

    name: str
    _segment_max: Callable
    _segment_min: Callable
    _segment_sum: Callable
    _softmax_parts: Callable

    def segment_max(self, values, indptr, fill=0.0):
        return self._segment_max(values, indptr, fill)

    def segment_min(self, values, indptr, fill=0.0):
        return self._segment_min(values, indptr, fill)

    def segment_sum(self, values, indptr, fill=0.0):
        return self._segment_sum(values, indptr, fill)

    def softmax_parts(self, theta, var_indptr, var_counts, masses):
        return self._softmax_parts(theta, var_indptr, var_counts, masses)


NUMPY_KERNEL: KernelBackend = _FunctionKernel(
    name="numpy",
    _segment_max=segment_max,
    _segment_min=segment_min,
    _segment_sum=segment_sum,
    _softmax_parts=_softmax_parts,
)
