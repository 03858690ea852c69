"""Estimation Accuracy — the paper's evaluation measure (Section 7.1).

    Estimation Accuracy = sum over q of P(q) * KL( P(.|q) || P*(.|q) )

a ``P(q)``-weighted Kullback-Leibler distance between the true posterior
``P(SA | QI)`` (from the original data) and the MaxEnt estimate
``P*(SA | QI)``.  Zero means the adversary's inference is exact (no privacy
left); larger values mean the estimate is farther from the truth.  "Although
this measure is not a measure for privacy, its value is a major indicator of
privacy."
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.quantifier import PosteriorTable
from repro.errors import ReproError
from repro.utils.probability import kl_divergence_rows


def estimation_accuracy(
    truth: PosteriorTable,
    estimate: PosteriorTable,
    *,
    base: float = 2.0,
) -> float:
    """Weighted KL distance between ground truth and estimate.

    Both tables must cover the same QI universe and SA domain (the estimate
    is aligned to the truth's row order automatically).  Weights are the
    truth's ``P(q)``.  The result is ``inf`` when the estimate assigns zero
    probability to a (q, s) pair the truth supports — which cannot happen
    for MaxEnt estimates built from consistent knowledge, so an infinite
    readout flags inconsistent inputs.
    """
    aligned = estimate.aligned_to(truth)
    rows = truth.weights > 0
    divergence = kl_divergence_rows(
        truth.matrix[rows], aligned.matrix[rows], base=base
    )
    if np.isinf(divergence).any():
        return math.inf
    return float((truth.weights[rows] * divergence).sum())


def per_tuple_accuracy(
    truth: PosteriorTable,
    estimate: PosteriorTable,
    *,
    base: float = 2.0,
) -> dict[tuple, float]:
    """The unweighted KL distance per QI tuple (diagnostic breakdown).

    Useful for locating *which* quasi-identifiers the background knowledge
    exposes most — the per-q terms of the Estimation Accuracy sum.
    """
    aligned = estimate.aligned_to(truth)
    divergence = kl_divergence_rows(truth.matrix, aligned.matrix, base=base)
    return dict(zip(truth.qi_tuples, divergence.tolist()))


def joint_kl(
    truth_joint: dict[tuple, float],
    estimate_joint: dict[tuple, float],
    *,
    base: float = 2.0,
) -> float:
    """KL divergence between two joints given as ``{(q, s, b): p}`` dicts.

    Used by the Pythagorean-property tests: for nested constraint systems
    whose constraints the truth satisfies, ``KL(truth || maxent)`` must
    shrink as constraints are added.
    """
    total = 0.0
    for key, p in truth_joint.items():
        if p <= 0:
            continue
        q_value = estimate_joint.get(key, 0.0)
        if q_value <= 0:
            return math.inf
        total += p * math.log(p / q_value)
    if total < 0 and total > -1e-12:
        total = 0.0
    if total < 0:
        raise ReproError(
            "joint KL came out negative; the inputs are not distributions "
            "over the same support"
        )
    return total / math.log(base)
