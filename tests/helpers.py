"""Test utilities: brute-force oracles and random-instance builders.

The invariant theory and the MaxEnt solvers both admit slow-but-obviously-
correct oracles on small inputs (enumerate every assignment; solve the
primal directly).  Tests compare the production code against these.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.anonymize.buckets import (
    Bucket,
    BucketizedTable,
    enumerate_assignments,
)
from repro.data.schema import Attribute, Schema
from repro.data.table import Table
from repro.engine.plan import build_plan
from repro.errors import CompilationError
from repro.knowledge.expressions import ProbabilityExpression
from repro.maxent.constraints import RowLabels, known_kind_codes
from repro.maxent.decompose import DATA_ROW_KINDS, ComponentStack, StackedRows
from repro.maxent.dual import build_dual
from repro.maxent.lbfgs import solve_dual_lbfgs
from repro.maxent.solver import MaxEntConfig, solve_maxent


def empirical_joint(table: Table, bucket_of_row) -> dict[tuple, float]:
    """The joint ``P(q, s, b)`` realized by the original assignment."""
    n = table.n_rows
    joint: Counter = Counter()
    qi = table.qi_tuples()
    sa = table.sa_labels()
    for row in range(n):
        joint[(qi[row], sa[row], int(bucket_of_row[row]))] += 1
    return {key: count / n for key, count in joint.items()}


def brute_force_is_invariant(
    expression: ProbabilityExpression,
    published: BucketizedTable,
    *,
    tolerance: float = 1e-9,
) -> bool:
    """Decide invariance by enumerating every assignment (tiny data only).

    Because any invariant decomposes per bucket (Lemma 1), it suffices to
    enumerate assignments bucket by bucket and combine one assignment from
    each — but for full fidelity we evaluate the expression over the
    Cartesian product of per-bucket assignments, bounded to small inputs.
    """
    n = published.n_records
    per_bucket = [list(enumerate_assignments(b)) for b in published.buckets]
    total = 1
    for assignments in per_bucket:
        total *= len(assignments)
    if total > 20000:
        raise ValueError(f"too many assignments to enumerate ({total})")

    def joints(bucket_choices):
        joint: Counter = Counter()
        for bucket, assignment in zip(published.buckets, bucket_choices):
            for q, s in assignment:
                joint[(q, s, bucket.index)] += 1
        return {key: count / n for key, count in joint.items()}

    reference: float | None = None
    indices = [0] * len(per_bucket)
    while True:
        choice = [per_bucket[i][indices[i]] for i in range(len(per_bucket))]
        value = expression.evaluate(joints(choice))
        if reference is None:
            reference = value
        elif abs(value - reference) > tolerance:
            return False
        # Odometer increment over the per-bucket assignment indices.
        position = 0
        while position < len(indices):
            indices[position] += 1
            if indices[position] < len(per_bucket[position]):
                break
            indices[position] = 0
            position += 1
        else:
            break
    return True


def tiny_schema(n_qi_values: int = 3, n_sa_values: int = 4) -> Schema:
    """A one-QI-attribute schema for random bucket tests."""
    return Schema(
        attributes=(
            Attribute("q", tuple(f"q{i}" for i in range(n_qi_values))),
            Attribute("s", tuple(f"s{i}" for i in range(n_sa_values))),
        ),
        qi_attributes=("q",),
        sa_attribute="s",
    )


def random_published(
    rng: np.random.Generator,
    *,
    n_buckets: int = 3,
    max_bucket_size: int = 4,
    n_qi_values: int = 3,
    n_sa_values: int = 4,
) -> tuple[Table, BucketizedTable, np.ndarray]:
    """A random table + bucketization for randomized/property tests.

    Returns ``(table, published, bucket_of_row)`` so tests can also form the
    empirical joint of the original assignment.
    """
    schema = tiny_schema(n_qi_values, n_sa_values)
    rows = []
    bucket_ids = []
    for bucket in range(n_buckets):
        size = int(rng.integers(1, max_bucket_size + 1))
        for _ in range(size):
            rows.append(
                {
                    "q": f"q{int(rng.integers(0, n_qi_values))}",
                    "s": f"s{int(rng.integers(0, n_sa_values))}",
                }
            )
            bucket_ids.append(bucket)
    table = Table.from_records(schema, rows)
    bucket_of_row = np.array(bucket_ids, dtype=np.int64)
    published = BucketizedTable.from_assignment(table, bucket_of_row)
    return table, published, bucket_of_row


def gather_counts(counts: dict, keys_a: np.ndarray, keys_b: np.ndarray) -> np.ndarray:
    """Vectorized ``counts.get((a, b), 0)`` through the spaces' count table."""
    from repro.maxent.indexing import _CountTable

    pairs = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(counts.values()), dtype=np.int64)
    return _CountTable(pairs[:, 0], pairs[:, 1], values).lookup(keys_a, keys_b)


def single_bucket(qi_values: list[str], sa_values: list[str]) -> Bucket:
    """A standalone bucket (for invariant-matrix tests)."""
    return Bucket(
        index=0,
        qi_tuples=tuple((q,) for q in qi_values),
        sa_values=tuple(sa_values),
    )


def unreduced_solution(space, system, tol: float) -> np.ndarray:
    """The engine's joint with presolve taken out of the numeric solves.

    Every numeric component of the plan is re-solved on its own dual
    built over its *unreduced* system (no variable fixed, no row
    dropped) — the program presolve must not change.  Closed-form
    components keep the engine's values.
    """
    config = MaxEntConfig(tol=tol)
    p = solve_maxent(space, system, config).p.copy()
    plan = build_plan(space, system, config)
    for pos in plan.numeric:
        component = plan.components[pos]
        dual = build_dual(component.system, component.mass)
        p[component.var_indices] = solve_dual_lbfgs(dual, tol=tol).p
    return p


def stack_systems(systems, masses=None, buckets=None) -> ComponentStack:
    """``systems`` as the components of one stack, in order.

    Component ``k`` is ``systems[k]`` over its own variables, with mass
    ``masses[k]`` (default 1) and buckets ``buckets[k]`` (default
    ``(k,)``).  This is how tests feed hand-built or mixed systems to
    code that reads component stacks.
    """
    n = len(systems)
    buckets = buckets or [(k,) for k in range(n)]
    blocks = [StackedRows.of_system(system) for system in systems]
    kinds = [
        np.concatenate(
            (s.equality_arrays().kind_codes, s.inequality_arrays().kind_codes)
        )
        for s in systems
    ]
    labels = RowLabels.concat(
        [s.equality_arrays().labels + s.inequality_arrays().labels for s in systems]
    )
    lengths = np.concatenate(
        [np.diff(block.indptr) for block in blocks] + [np.zeros(0, int)]
    )
    n_equalities = np.array([int(b.n_equalities[0]) for b in blocks], dtype=int)
    kind_codes = np.concatenate(kinds + [np.zeros(0, int)]).astype(np.int64)
    eq_rows = np.concatenate(
        [np.arange(b.rhs.size) < b.n_equalities[0] for b in blocks]
        + [np.zeros(0, bool)]
    )
    knowledge = eq_rows & ~np.isin(kind_codes, known_kind_codes(DATA_ROW_KINDS))
    row_counts = [block.rhs.size for block in blocks]
    return ComponentStack(
        var_indptr=np.concatenate(([0], np.cumsum([s.n_vars for s in systems]))),
        var_indices=np.arange(sum(s.n_vars for s in systems)),
        bucket_indptr=np.concatenate(([0], np.cumsum([len(b) for b in buckets]))),
        buckets=np.array([bucket for group in buckets for bucket in group]),
        row_indptr=np.concatenate(([0], np.cumsum(row_counts))).astype(np.int64),
        n_equalities=n_equalities,
        indptr=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        indices=np.concatenate(
            [b.indices for b in blocks] + [np.zeros(0, np.int64)]
        ),
        coefficients=np.concatenate(
            [b.coefficients for b in blocks] + [np.zeros(0)]
        ),
        rhs=np.concatenate([b.rhs for b in blocks] + [np.zeros(0)]),
        kind_codes=kind_codes,
        labels=labels,
        label_rows=np.arange(len(labels)),
        masses=np.ones(n) if masses is None else np.asarray(masses, float),
        knowledge_rows=np.bincount(
            np.repeat(np.arange(n), row_counts)[knowledge], minlength=n
        ),
    )


def match_one(space, qv: dict[str, str]) -> tuple[np.ndarray, int]:
    """Ids and record count of the QI tuples of ``space`` extending one
    partial assignment ``qv``."""
    matches = space.match_antecedents([qv])
    if matches.unknown[0] is not None:
        raise CompilationError(f"{matches.unknown[0]!r} is not a QI attribute")
    return matches.ids[matches.indptr[0] : matches.indptr[1]], int(matches.counts[0])


def vars_matching(space, qv: dict[str, str], sa_value: str) -> np.ndarray:
    """Indices of all variables with QI extending ``qv`` and SA value
    ``sa_value`` — the summation set of a Section 4.1 constraint."""
    qids, _ = match_one(space, qv)
    sid = space.sa_id_of.get(sa_value)
    if sid is None:
        return np.empty(0, dtype=np.int64)
    _, variables = space.vars_of_qi_sets(qids, [qids.size], [sid])
    return variables


def qv_probability(space, qv: dict[str, str]) -> float:
    """Published marginal ``P(Qv)`` of a partial QI assignment."""
    _, count = match_one(space, qv)
    return float(count) / space.n_records
