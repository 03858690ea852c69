"""Privacy metrics over tables, releases and posteriors.

The paper positions ``P(SA | QI)`` as the building block "for various
privacy quantification metrics, such as L-diversity".  This module provides
both families:

- *syntactic* metrics computed on the release itself (k-anonymity,
  distinct/entropy l-diversity, (alpha, k)-anonymity, t-closeness), and
- *semantic* metrics computed on a posterior table (max disclosure, Bayes
  vulnerability, effective l), which is where a MaxEnt posterior plugs in
  to show how background knowledge erodes the syntactic guarantees.
"""

from __future__ import annotations

import math

import numpy as np

from repro.anonymize.buckets import BucketizedTable
from repro.core.quantifier import PosteriorTable
from repro.data.table import Table
from repro.utils.probability import (
    entropy,
    entropy_rows,
    normalize,
    total_variation,
)
from repro.utils.validation import check_fraction, check_positive_int

# --- syntactic metrics on tables / releases ---------------------------------


def k_anonymity(table: Table) -> int:
    """The k-anonymity level of raw microdata: the smallest QI-group size."""
    counts = table.qi_counts()
    return min(counts.values())


def distinct_l_diversity(
    published: BucketizedTable, *, exempt: frozenset[str] = frozenset()
) -> int:
    """The largest l for which every bucket is distinct l-diverse."""
    worst = math.inf
    for bucket in published.buckets:
        counts = [
            c for v, c in bucket.sa_counts().items() if v not in exempt
        ]
        if not counts:
            continue
        worst = min(worst, bucket.size // max(counts))
    return int(worst) if worst is not math.inf else max(
        b.size for b in published.buckets
    )


def entropy_l_diversity(published: BucketizedTable) -> float:
    """Entropy l-diversity: ``min over buckets of 2^H(SA in bucket)``.

    A bucket whose SA bag has entropy ``H`` is entropy-l-diverse for
    ``l <= 2^H`` (Machanavajjhala et al.).
    """
    worst = math.inf
    for bucket in published.buckets:
        distribution = normalize(
            np.array(list(bucket.sa_counts().values()), dtype=float)
        )
        worst = min(worst, 2.0 ** entropy(distribution, base=2.0))
    return float(worst)


def alpha_k_anonymity(
    published: BucketizedTable, alpha: float, k: int
) -> bool:
    """(alpha, k)-anonymity check (Wong et al.): every bucket has at least
    ``k`` records and no SA value exceeding an ``alpha`` fraction."""
    check_fraction(alpha, name="alpha")
    check_positive_int(k, name="k")
    for bucket in published.buckets:
        if bucket.size < k:
            return False
        if max(bucket.sa_counts().values()) / bucket.size > alpha:
            return False
    return True


def t_closeness(published: BucketizedTable) -> float:
    """t-closeness (Li et al.) with total-variation ground distance.

    The largest distance between any bucket's SA distribution and the whole
    table's SA distribution; the release is t-close for every ``t`` at or
    above this value.
    """
    sa_values = list(published.sa_marginal())
    global_counts = published.sa_marginal()
    global_dist = normalize(
        np.array([global_counts[s] for s in sa_values], dtype=float)
    )
    worst = 0.0
    for bucket in published.buckets:
        counts = bucket.sa_counts()
        bucket_dist = normalize(
            np.array([counts.get(s, 0) for s in sa_values], dtype=float)
        )
        worst = max(worst, total_variation(bucket_dist, global_dist))
    return worst


# --- semantic metrics on posteriors --------------------------------------------


def _kept_columns(
    posterior: PosteriorTable, exclude: frozenset[str]
) -> np.ndarray:
    keep = [j for j, s in enumerate(posterior.sa_domain) if s not in exclude]
    if not keep:
        raise ValueError("cannot exclude every SA value from a metric")
    return np.asarray(keep, dtype=np.int64)


def max_disclosure(
    posterior: PosteriorTable, *, exclude: frozenset[str] = frozenset()
) -> float:
    """Worst-case linkage confidence: ``max over q, s of P*(s | q)``.

    This is the quantity Martin et al.'s "maximum disclosure" bounds; 1.0
    means some individual's sensitive value is fully determined.  ``exclude``
    removes SA values deemed non-sensitive (the paper's footnote-3
    exemption), so a bucket full of the exempt value does not count as a
    disclosure.
    """
    columns = _kept_columns(posterior, exclude)
    return float(posterior.matrix[:, columns].max())


def bayes_vulnerability(
    posterior: PosteriorTable, *, exclude: frozenset[str] = frozenset()
) -> float:
    """Expected adversary success with one guess per QI tuple:
    ``sum over q of P(q) * max over s of P*(s | q)``."""
    columns = _kept_columns(posterior, exclude)
    best_guess = posterior.matrix[:, columns].max(axis=1)
    return float((posterior.weights * best_guess).sum())


def effective_l(
    posterior: PosteriorTable, *, exclude: frozenset[str] = frozenset()
) -> float:
    """The release's *effective* diversity under this posterior:
    ``1 / max disclosure`` over the sensitive (non-excluded) values.

    A release published as distinct 5-diverse but with effective l of 1.6
    under Top-(K+, K-) knowledge has lost most of its guarantee — the
    headline readout of a Privacy-MaxEnt analysis.
    """
    worst = max_disclosure(posterior, exclude=exclude)
    if worst <= 0:
        return math.inf
    return 1.0 / worst


def top_disclosures(
    posterior: PosteriorTable,
    n: int = 10,
    *,
    exclude: frozenset[str] = frozenset(),
) -> list[tuple[tuple, str, float]]:
    """The ``n`` sharpest linkages: (QI tuple, SA value, P*(s|q)) descending.

    The actionable output of an assessment — *which* quasi-identifier
    groups the assumed knowledge exposes, not just how much on average.
    ``exclude`` removes exempt (non-sensitive) values, as in
    :func:`max_disclosure`.
    """
    check_positive_int(n, name="n")
    columns = _kept_columns(posterior, exclude)
    entries: list[tuple[tuple, str, float]] = []
    for i, q in enumerate(posterior.qi_tuples):
        for j in columns:
            entries.append(
                (q, posterior.sa_domain[j], float(posterior.matrix[i, j]))
            )
    entries.sort(key=lambda item: (-item[2], item[0], item[1]))
    return entries[:n]


def expected_posterior_entropy(posterior: PosteriorTable) -> float:
    """``sum over q of P(q) * H(P*(. | q))`` in bits — the adversary's
    average remaining uncertainty about SA after seeing QI."""
    entropies = entropy_rows(posterior.matrix, base=2.0)
    return float((posterior.weights * entropies).sum())
