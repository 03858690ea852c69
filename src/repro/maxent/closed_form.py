"""Closed-form MaxEnt solution without background knowledge.

Theorem 5 (Consistency): for a bucket irrelevant to the background
knowledge, the entropy-maximizing joint is the within-bucket independence
product

    P(q, s, b) = P(q, b) * P(s, b) / P(b)
               = n(q,b) * n(s,b) / (N * N_b),

equivalently Eq. (9)'s ``P(S | Q, b) = (# of S in bucket b) / N_b`` — the
uniform-assignment formula all prior work uses implicitly.  This module
evaluates it directly.  :func:`closed_form_batch` is the one
implementation: the execution engine calls it once per solve over *all*
irrelevant components, so a no-knowledge posterior — in the library and
in the service alike — is a single vectorized call here, and
:func:`closed_form_solution` is the whole-space "no background
knowledge" baseline of the experiments and tests.
"""

from __future__ import annotations

import numpy as np

from repro.maxent.indexing import GroupVariableSpace


def closed_form_batch(
    space: GroupVariableSpace, var_indices: np.ndarray
) -> np.ndarray:
    """The Eq. (9) values of ``var_indices``, in one vectorized call.

    ``p[i] = n(q_i, b_i) * n(s_i, b_i) / (N * N_{b_i})`` evaluated with
    three array gathers — this is the engine's batched path covering every
    irrelevant component at once.
    """
    var_indices = np.asarray(var_indices, dtype=np.int64)
    if var_indices.size == 0:
        return np.empty(0)
    buckets = space.var_bucket[var_indices]
    bucket_sizes = np.array(
        [bucket.size for bucket in space.published.buckets], dtype=float
    )
    n_qb = space.qi_bucket_counts(space.var_qi[var_indices], buckets)
    n_sb = space.sa_bucket_counts(space.var_sa[var_indices], buckets)
    return n_qb * n_sb / (space.n_records * bucket_sizes[buckets])


def closed_form_solution(space: GroupVariableSpace) -> np.ndarray:
    """The Eq. (9) joint for every variable of a group space.

    Returns the full vector ``p`` with ``p[var] = n(q,b) n(s,b) / (N N_b)``;
    components of a decomposition slice it by their variable indices.
    """
    return closed_form_batch(space, np.arange(space.n_vars, dtype=np.int64))
