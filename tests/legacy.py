"""Row-wise reference implementations of the construction pipeline.

These are the pre-array-native algorithms, preserved verbatim (modulo the
per-row append API they go through): one boolean mask per invariant row,
Python union-find over the bucket graph with per-variable/per-row loops,
and per-row ``argsort`` fingerprint encoding.  They are the oracle of
the equivalence suite (``test_pipeline_equivalence.py``), which proves the
array-native pipeline produces identical systems, identical fingerprints,
identical component partitions and identical posteriors.

The module also keeps the pre-array-native rule miner, which builds every
rule object and sorts each family with ``AssociationRule.sort_key``; the
rule-selection oracle suite (``test_knowledge_mining.py``) holds the
lazily sorted rule families to it.

It also keeps the per-bucket variable-space construction
(:func:`group_space_rowwise`, :func:`person_space_rowwise`): one pass over
the buckets with a ``Counter`` of QI tuples and of SA values each, and
the release marginals summed from those ``Counter``s.  The spaces now
read the release's record codes instead; the coded-space suite
(``test_maxent_indexing.py``) holds them to this builder.

Last, it keeps the per-component solve paths.  The batch solve
presolves and assembles each component of a batch group alone, then
stacks the duals (:func:`stack_duals`); the single-component task
presolves one component, solves its own dual and restores the solution.
The engine runs one task for both — the block-diagonal stack of the
unit presolved once — and must return the same solutions, statistics
and multipliers bit for bit (``test_engine_batch.py``).

They live with the tests, not in ``repro``: production code routes
through :func:`repro.maxent.constraints.data_constraints`,
:func:`repro.maxent.decompose.decompose` and
:mod:`repro.engine.fingerprint`.  The per-row :class:`ConstraintSystem`
append API itself remains fully supported — use it for hand-built or
incrementally grown systems; these functions only preserve the old
*algorithms* over it.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.anonymize.buckets import BucketizedTable
from repro.data.table import QITuple, Table
from repro.errors import ReproError
from repro.knowledge.individuals import Pseudonym, PseudonymTable
from repro.knowledge.mining import MiningConfig, _antecedent_sizes
from repro.knowledge.rules import AssociationRule, NegativeRule, PositiveRule
from repro.engine.component import ComponentSolve
from repro.maxent.batch_dual import DualStack, solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, Row
from repro.maxent.decompose import DATA_ROW_KINDS
from repro.maxent.dual import DualProblem, build_dual
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.lbfgs import solve_dual_lbfgs
from repro.maxent.presolve import PresolveResult, presolve
from repro.maxent.solution import SolverStats
from repro.utils.timer import Timer
from tests.unionfind import UnionFind

VariableSpace = GroupVariableSpace | PersonVariableSpace


@dataclass
class RowwiseSpace:
    """The arrays and counts of a space built bucket by bucket."""

    var_bucket: np.ndarray
    var_sa: np.ndarray
    qi_tuples: list[QITuple]
    qi_counts: np.ndarray
    sa_values: list[str]
    n_qb: dict[tuple[int, int], int]
    n_sb: dict[tuple[int, int], int]
    n_records: int

    @property
    def n_vars(self) -> int:
        return int(self.var_bucket.size)

    def qi_bucket_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.n_qb)

    def sa_bucket_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.n_sb)

    def qi_bucket_count(self, qid: int, bucket: int) -> int:
        return self.n_qb.get((qid, bucket), 0)

    def sa_bucket_count(self, sid: int, bucket: int) -> int:
        return self.n_sb.get((sid, bucket), 0)


@dataclass
class RowwiseGroupSpace(RowwiseSpace):
    var_qi: np.ndarray


@dataclass
class RowwisePersonSpace(RowwiseSpace):
    var_person: np.ndarray
    people: tuple[Pseudonym, ...]
    person_qi: np.ndarray

    def person_qi_id(self, pid: int) -> int:
        return int(self.person_qi[pid])


def _release_ids(published: BucketizedTable):
    """Distinct QI tuples and SA values, summed from per-bucket Counters."""
    qi_marginal: Counter = Counter()
    sa_marginal: Counter = Counter()
    for bucket in published.buckets:
        qi_marginal.update(bucket.qi_counts())
        sa_marginal.update(bucket.sa_counts())
    qi_tuples = list(qi_marginal)
    sa_values = list(sa_marginal)
    qi_counts = np.array([qi_marginal[q] for q in qi_tuples], dtype=np.int64)
    return (
        qi_tuples,
        {q: i for i, q in enumerate(qi_tuples)},
        qi_counts,
        sa_values,
        {s: i for i, s in enumerate(sa_values)},
    )


def group_space_rowwise(published: BucketizedTable) -> RowwiseGroupSpace:
    """The group space's arrays, one ``Counter`` pass per bucket."""
    qi_tuples, qi_id_of, qi_counts, sa_values, sa_id_of = _release_ids(published)
    n_qb: dict[tuple[int, int], int] = {}
    n_sb: dict[tuple[int, int], int] = {}
    bucket_chunks, qi_chunks, sa_chunks = [], [], []
    for bucket in published.buckets:
        qi_counts_b = bucket.qi_counts()
        sa_counts_b = bucket.sa_counts()
        q_ids = np.array([qi_id_of[q] for q in qi_counts_b], dtype=np.int64)
        s_ids = np.array([sa_id_of[s] for s in sa_counts_b], dtype=np.int64)
        for q, count in qi_counts_b.items():
            n_qb[(qi_id_of[q], bucket.index)] = count
        for s, count in sa_counts_b.items():
            n_sb[(sa_id_of[s], bucket.index)] = count
        # The (qid, sid) product, qid-major.
        bucket_chunks.append(
            np.full(q_ids.size * s_ids.size, bucket.index, dtype=np.int64)
        )
        qi_chunks.append(np.repeat(q_ids, s_ids.size))
        sa_chunks.append(np.tile(s_ids, q_ids.size))
    return RowwiseGroupSpace(
        var_bucket=np.concatenate(bucket_chunks),
        var_sa=np.concatenate(sa_chunks),
        qi_tuples=qi_tuples,
        qi_counts=qi_counts,
        sa_values=sa_values,
        n_qb=n_qb,
        n_sb=n_sb,
        n_records=published.n_records,
        var_qi=np.concatenate(qi_chunks),
    )


def person_space_rowwise(pseudonyms: PseudonymTable) -> RowwisePersonSpace:
    """The pseudonym space's arrays, one ``Counter`` pass per bucket."""
    published = pseudonyms.published
    qi_tuples, qi_id_of, qi_counts, sa_values, sa_id_of = _release_ids(published)
    people = pseudonyms.pseudonyms
    person_id_of = {p.name: i for i, p in enumerate(people)}
    n_qb: dict[tuple[int, int], int] = {}
    n_sb: dict[tuple[int, int], int] = {}
    person_chunks, bucket_chunks, sa_chunks = [], [], []
    for bucket in published.buckets:
        qi_counts_b = bucket.qi_counts()
        sa_counts_b = bucket.sa_counts()
        for q, count in qi_counts_b.items():
            n_qb[(qi_id_of[q], bucket.index)] = count
        for s, count in sa_counts_b.items():
            n_sb[(sa_id_of[s], bucket.index)] = count
        bucket_sids = np.array([sa_id_of[s] for s in sa_counts_b], dtype=np.int64)
        bucket_pids = np.array(
            [
                person_id_of[person.name]
                for q in qi_counts_b
                for person in pseudonyms.of_qi(q)
            ],
            dtype=np.int64,
        )
        # Person-major, SA-minor, per bucket.
        person_chunks.append(np.repeat(bucket_pids, bucket_sids.size))
        sa_chunks.append(np.tile(bucket_sids, bucket_pids.size))
        bucket_chunks.append(
            np.full(bucket_pids.size * bucket_sids.size, bucket.index, dtype=np.int64)
        )
    return RowwisePersonSpace(
        var_bucket=np.concatenate(bucket_chunks),
        var_sa=np.concatenate(sa_chunks),
        qi_tuples=qi_tuples,
        qi_counts=qi_counts,
        sa_values=sa_values,
        n_qb=n_qb,
        n_sb=n_sb,
        n_records=published.n_records,
        var_person=np.concatenate(person_chunks),
        people=people,
        person_qi=np.array([qi_id_of[p.qi] for p in people], dtype=np.int64),
    )


def data_constraints_rowwise(
    space: VariableSpace | RowwiseSpace,
) -> ConstraintSystem:
    """Section 5 invariants via one full-length mask per (pair, bucket)."""
    system = ConstraintSystem(space.n_vars)
    n = space.n_records

    if isinstance(space, (GroupVariableSpace, RowwiseGroupSpace)):
        for qid, bucket in space.qi_bucket_pairs():
            mask = (space.var_bucket == bucket) & (space.var_qi == qid)
            indices = np.nonzero(mask)[0]
            system.add_equality(
                indices,
                np.ones(indices.size),
                space.qi_bucket_count(qid, bucket) / n,
                kind="qi",
                label=f"QI-invariant(q={qid}, b={bucket})",
            )
        for sid, bucket in space.sa_bucket_pairs():
            mask = (space.var_bucket == bucket) & (space.var_sa == sid)
            indices = np.nonzero(mask)[0]
            system.add_equality(
                indices,
                np.ones(indices.size),
                space.sa_bucket_count(sid, bucket) / n,
                kind="sa",
                label=f"SA-invariant(s={sid}, b={bucket})",
            )
        return system

    if isinstance(space, (PersonVariableSpace, RowwisePersonSpace)):
        for pid, person in enumerate(space.people):
            indices = np.nonzero(space.var_person == pid)[0]
            system.add_equality(
                indices,
                np.ones(indices.size),
                1.0 / n,
                kind="person",
                label=f"person({person.name})",
            )
        person_qi = np.array(
            [space.person_qi_id(pid) for pid in range(len(space.people))],
            dtype=np.int64,
        )
        for qid, bucket in space.qi_bucket_pairs():
            mask = (space.var_bucket == bucket) & (
                person_qi[space.var_person] == qid
            )
            indices = np.nonzero(mask)[0]
            system.add_equality(
                indices,
                np.ones(indices.size),
                space.qi_bucket_count(qid, bucket) / n,
                kind="slot",
                label=f"slot(q={qid}, b={bucket})",
            )
        for sid, bucket in space.sa_bucket_pairs():
            mask = (space.var_bucket == bucket) & (space.var_sa == sid)
            indices = np.nonzero(mask)[0]
            system.add_equality(
                indices,
                np.ones(indices.size),
                space.sa_bucket_count(sid, bucket) / n,
                kind="sa",
                label=f"SA-invariant(s={sid}, b={bucket})",
            )
        return system

    raise ReproError(f"unsupported variable space type {type(space).__name__}")


def _component_mass(space: VariableSpace, rows: list[Row]) -> float:
    kind = space.mass_partition_kind
    mass = sum(row.rhs for row in rows if row.kind == kind)
    if mass <= 0:
        raise ReproError(
            "component mass is non-positive; the constraint system must "
            f"include the {kind!r} data rows (build them with "
            "data_constraints() before solving)"
        )
    return float(mass)


@dataclass
class RowwiseComponent:
    """One component of the row-wise decomposition, with its own system."""

    buckets: tuple[int, ...]
    var_indices: np.ndarray
    system: ConstraintSystem
    mass: float
    knowledge_rows: int
    inequality_rows: int

    @property
    def n_vars(self) -> int:
        return int(self.var_indices.size)

    @property
    def is_irrelevant(self) -> bool:
        return self.knowledge_rows == 0 and self.inequality_rows == 0


def decompose_rowwise(
    space: VariableSpace,
    system: ConstraintSystem,
    *,
    enabled: bool = True,
) -> list[RowwiseComponent]:
    """Section 5.5 decomposition via union-find and per-row Python loops."""
    n_buckets = int(space.var_bucket.max()) + 1 if space.n_vars else 0
    all_rows = [*system.equalities, *system.inequalities]

    union = UnionFind(n_buckets)
    if enabled:
        for row in all_rows:
            touched = sorted(
                int(b) for b in set(space.var_bucket[row.indices].tolist())
            )
            for other in touched[1:]:
                union.union(touched[0], other)
    else:
        for bucket in range(1, n_buckets):
            union.union(0, bucket)

    bucket_groups: dict[int, list[int]] = {}
    for bucket in range(n_buckets):
        bucket_groups.setdefault(union.find(bucket), []).append(bucket)

    var_groups: dict[int, list[int]] = {}
    for var in range(space.n_vars):
        root = union.find(int(space.var_bucket[var]))
        var_groups.setdefault(root, []).append(var)

    row_groups: dict[int, list[tuple[Row, bool]]] = {}
    for row in system.equalities:
        root = union.find(int(space.var_bucket[row.indices[0]]))
        row_groups.setdefault(root, []).append((row, True))
    for row in system.inequalities:
        root = union.find(int(space.var_bucket[row.indices[0]]))
        row_groups.setdefault(root, []).append((row, False))

    components: list[RowwiseComponent] = []
    for root in sorted(bucket_groups):
        variables = np.array(var_groups.get(root, []), dtype=np.int64)
        if variables.size == 0:
            continue
        local_index = {int(old): new for new, old in enumerate(variables)}
        local = ConstraintSystem(int(variables.size))
        eq_rows: list[Row] = []
        knowledge_rows = 0
        inequality_rows = 0
        for row, is_equality in row_groups.get(root, []):
            local_indices = [local_index[int(i)] for i in row.indices]
            if is_equality:
                local.add_equality(
                    local_indices, row.coefficients, row.rhs,
                    kind=row.kind, label=row.label,
                )
                eq_rows.append(row)
                if row.kind not in DATA_ROW_KINDS:
                    knowledge_rows += 1
            else:
                local.add_inequality(
                    local_indices, row.coefficients, row.rhs,
                    kind=row.kind, label=row.label,
                )
                inequality_rows += 1
        components.append(
            RowwiseComponent(
                buckets=tuple(bucket_groups[root]),
                var_indices=variables,
                system=local,
                mass=_component_mass(space, eq_rows),
                knowledge_rows=knowledge_rows,
                inequality_rows=inequality_rows,
            )
        )
    return components


def drop_redundant_data_rows_rowwise(
    space: VariableSpace, system: ConstraintSystem
) -> ConstraintSystem:
    """Theorem 3 redundant-row removal via a per-row rebuild."""
    filtered = ConstraintSystem(system.n_vars)
    dropped: set[int] = set()
    for row in system.equalities:
        if row.kind == "sa":
            bucket = int(space.var_bucket[row.indices[0]])
            if bucket not in dropped:
                dropped.add(bucket)
                continue
        filtered.add_equality(
            row.indices, row.coefficients, row.rhs, kind=row.kind, label=row.label
        )
    for row in system.inequalities:
        filtered.add_inequality(
            row.indices, row.coefficients, row.rhs, kind=row.kind, label=row.label
        )
    return filtered


def _encode_row(row: Row, family: bytes, *, with_rhs: bool) -> bytes:
    order = np.argsort(row.indices, kind="stable")
    indices = np.ascontiguousarray(row.indices[order], dtype=np.int64)
    coefficients = np.ascontiguousarray(row.coefficients[order], dtype=np.float64)
    parts = [family, indices.tobytes(), coefficients.tobytes()]
    if with_rhs:
        parts.append(struct.pack("<d", row.rhs))
    return b"\x00".join(parts)


def fingerprint_system_rowwise(
    system: ConstraintSystem, mass: float | None = 1.0
) -> str:
    """The historical per-row fingerprint encoding (digest-compatible).

    ``mass=None`` gives the structure fingerprint (no rhs, no mass).
    """
    with_rhs = mass is not None
    rows = [_encode_row(r, b"E", with_rhs=with_rhs) for r in system.equalities]
    rows += [
        _encode_row(r, b"I", with_rhs=with_rhs) for r in system.inequalities
    ]
    rows.sort()
    digest = hashlib.sha256()
    digest.update(struct.pack("<q", system.n_vars))
    if with_rhs:
        digest.update(struct.pack("<d", mass))
    for encoded in rows:
        digest.update(struct.pack("<q", len(encoded)))
        digest.update(encoded)
    return digest.hexdigest()


@dataclass(frozen=True)
class PipelineResult:
    """Everything the cold construction pipeline produces, for comparison."""

    system: ConstraintSystem
    components: list[RowwiseComponent]
    fingerprints: list[str]


def run_pipeline_rowwise(space: VariableSpace) -> PipelineResult:
    """Cold build -> decompose -> fingerprint, entirely row-wise."""
    system = data_constraints_rowwise(space)
    components = decompose_rowwise(space, system)
    fingerprints = [
        fingerprint_system_rowwise(c.system, c.mass) for c in components
    ]
    return PipelineResult(system, components, fingerprints)


def mine_association_rules_rowwise(
    table: Table, config: MiningConfig
) -> tuple[tuple[PositiveRule, ...], tuple[NegativeRule, ...]]:
    """Both rule families, every rule built and fully sorted by ``sort_key``.

    One ``np.unique(axis=0)`` per attribute subset, per-key dicts, one rule
    object per (antecedent, SA value) that clears the filters.
    """
    schema = table.schema
    qi_names = schema.qi_attributes
    sa_domain = schema.sa.domain
    n = table.n_rows
    qi_codes = table.qi_codes()
    sa_codes = table.sa_codes()

    positive: list[PositiveRule] = []
    negative: list[NegativeRule] = []

    for size in _antecedent_sizes(config, len(qi_names)):
        for attr_positions in combinations(range(len(qi_names)), size):
            projected = qi_codes[:, attr_positions]
            antecedent_keys, antecedent_counts = np.unique(
                projected, axis=0, return_counts=True
            )
            joint_matrix = np.column_stack([projected, sa_codes])
            joint_keys, joint_counts = np.unique(
                joint_matrix, axis=0, return_counts=True
            )

            count_of_antecedent = {
                tuple(int(c) for c in key): int(count)
                for key, count in zip(antecedent_keys, antecedent_counts)
            }
            joint_count: dict[tuple[tuple[int, ...], int], int] = {
                (tuple(int(c) for c in key[:-1]), int(key[-1])): int(count)
                for key, count in zip(joint_keys, joint_counts)
            }

            attrs = [schema.qi[p] for p in attr_positions]
            for qv_codes, antecedent_count in count_of_antecedent.items():
                antecedent = {
                    attrs[j].name: attrs[j].domain[qv_codes[j]]
                    for j in range(size)
                }
                for sa_code, sa_label in enumerate(sa_domain):
                    together = joint_count.get((qv_codes, sa_code), 0)
                    confidence = together / antecedent_count
                    if (
                        together >= config.min_support_count
                        and confidence >= config.min_confidence
                    ):
                        positive.append(
                            PositiveRule(
                                antecedent=antecedent,
                                sa_value=sa_label,
                                support=together / n,
                                confidence=confidence,
                                antecedent_count=antecedent_count,
                            )
                        )
                    apart = antecedent_count - together
                    negative_confidence = apart / antecedent_count
                    if (
                        apart >= config.min_support_count
                        and negative_confidence >= config.min_confidence
                    ):
                        negative.append(
                            NegativeRule(
                                antecedent=antecedent,
                                sa_value=sa_label,
                                support=apart / n,
                                confidence=negative_confidence,
                                antecedent_count=antecedent_count,
                            )
                        )

    positive.sort(key=AssociationRule.sort_key)
    negative.sort(key=AssociationRule.sort_key)
    return tuple(positive), tuple(negative)


def solve_component_batch_per_component(
    components: list,
    config: MaxEntConfig,
    warm_starts: list[np.ndarray | None] | None = None,
) -> list[tuple[np.ndarray, SolverStats, np.ndarray | None]]:
    """``(p, stats, multipliers)`` per component, presolving one at a time.

    Each component is presolved on its own and its reduced system
    assembled as its own dual; forced components (nothing left to
    optimize, or no mass) leave the batch, and the rest are solved as one
    stack.  Results are lifted with ``PresolveResult.restore`` one
    component at a time.  Timings are left at zero.
    """
    n = len(components)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    out: list = [None] * n
    numeric, duals, x0s, reductions = [], [], [], []
    for index, component in enumerate(components):
        reduction = presolve(component.system)
        system = reduction.system
        mass = component.mass - reduction.mass_removed
        fixed_count = len(reduction.fixed_values)
        if system.n_vars == 0 or mass <= 1e-15:
            p_local = reduction.restore(np.zeros(reduction.n_free))
            residual = component.system.residual(p_local)
            out[index] = (
                p_local,
                _legacy_stats(
                    component, "presolve", fixed_count,
                    eq_residual=residual, converged=residual <= config.tol,
                ),
                None,
            )
            continue
        numeric.append(index)
        duals.append(build_dual(system, mass))
        x0s.append(warm_list[index])
        reductions.append((reduction, fixed_count))

    batch = solve_batch_dual(
        stack_duals(duals),
        tol=config.tol,
        max_iterations=config.max_iterations,
        x0s=x0s,
    )
    for position, index in enumerate(numeric):
        reduction, fixed_count = reductions[position]
        result = batch.results[position]
        p_local = reduction.restore(result.p)
        stats = _legacy_stats(
            components[index], "lbfgs", fixed_count,
            iterations=result.iterations,
            eq_residual=result.eq_residual,
            ineq_residual=result.ineq_residual,
            converged=result.converged,
            message=result.message,
            batched_components=1 if batch.batched[position] else 0,
        )
        multipliers = result.multipliers if result.converged else None
        out[index] = (p_local, stats, multipliers)
    return out


def _legacy_stats(
    component, solver: str, fixed_count: int, **fields
) -> SolverStats:
    return SolverStats(
        solver=solver,
        iterations=fields.pop("iterations", 0),
        seconds=0.0,
        n_vars=component.n_vars,
        n_equalities=component.system.n_equalities,
        n_inequalities=component.system.n_inequalities,
        eq_residual=fields.pop("eq_residual"),
        ineq_residual=fields.pop("ineq_residual", 0.0),
        converged=fields.pop("converged"),
        presolve_fixed=fixed_count,
        **fields,
    )


def stack_duals(duals: list[DualProblem]) -> DualStack:
    """Stack assembled per-block duals (each block's own CSR copied in)."""
    matrices = [dual.matrix.tocsr() for dual in duals]
    row_counts = np.array([m.shape[0] for m in matrices], dtype=np.int64)
    var_counts = np.array([m.shape[1] for m in matrices], dtype=np.int64)
    nnz = np.array([m.indices.size for m in matrices], dtype=np.int64)
    empty_i = np.empty(0, dtype=np.int64)
    lengths = np.concatenate([np.diff(m.indptr) for m in matrices] or [empty_i])
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    var_indptr = np.concatenate([[0], np.cumsum(var_counts)]).astype(np.int64)
    indices = np.concatenate(
        [m.indices.astype(np.int64) for m in matrices] or [empty_i]
    )
    return DualStack(
        indptr=indptr,
        indices=indices + np.repeat(var_indptr[:-1], nnz),
        data=np.concatenate(
            [np.asarray(m.data, dtype=float) for m in matrices]
            or [np.empty(0)]
        ),
        rhs=np.concatenate([dual.rhs for dual in duals] or [np.empty(0)]),
        row_indptr=np.concatenate([[0], np.cumsum(row_counts)]).astype(
            np.int64
        ),
        var_indptr=var_indptr,
        n_equalities=np.array(
            [dual.n_equalities for dual in duals], dtype=np.int64
        ),
        masses=np.array([float(dual.mass) for dual in duals]),
    )


# -- the single-component task -------------------------------------------------


def _usable_warm_start(
    warm_start: np.ndarray | None, n_params: int
) -> np.ndarray | None:
    """Validate a candidate warm start against the presolved dual size.

    The warm-start store keys on pre-presolve structure, but presolve
    eliminations depend on right-hand sides, so a near-miss system can
    reduce to a different shape — in which case the stored vector is
    silently discarded (a cold start is always correct).
    """
    if warm_start is None:
        return None
    warm_start = np.asarray(warm_start, dtype=float)
    if warm_start.shape != (n_params,) or not np.all(np.isfinite(warm_start)):
        return None
    return warm_start


def _reduce(
    component, config: MaxEntConfig
) -> tuple[ConstraintSystem, float, PresolveResult | None, int]:
    """Apply presolve: (system, mass, reduction, fixed)."""
    reduction = presolve(component.system)
    return (
        reduction.system,
        component.mass - reduction.mass_removed,
        reduction,
        len(reduction.fixed_values),
    )


def _restore(
    reduction: PresolveResult | None, p_free: np.ndarray
) -> np.ndarray:
    """Lift a solution of the reduced system to component coordinates."""
    return p_free if reduction is None else reduction.restore(p_free)


def solve_component(
    component,
    config: MaxEntConfig,
    warm_start: np.ndarray | None = None,
) -> ComponentSolve:
    """Solve one component.

    ``stats.seconds`` measures this task's own elapsed time; the engine
    sums these into ``cpu_seconds`` and reports overall wall time
    separately.
    """
    with Timer() as timer:
        with Timer() as presolve_timer:
            system, mass, reduction, fixed_count = _reduce(component, config)
        if system.n_vars == 0 or mass <= 1e-15:
            p_local = _restore(reduction, np.zeros(system.n_vars))
            residual = component.system.residual(p_local)
            solve = ComponentSolve(
                p_local,
                _legacy_stats(
                    component, "presolve", fixed_count,
                    eq_residual=residual, converged=residual <= config.tol,
                ),
            )
        else:
            with Timer() as dual_timer:
                dual = build_dual(system, mass)
                result = solve_dual_lbfgs(
                    dual,
                    tol=config.tol,
                    max_iterations=config.max_iterations,
                    x0=_usable_warm_start(warm_start, dual.n_params),
                )
            solve = ComponentSolve(
                _restore(reduction, result.p),
                _legacy_stats(
                    component, "lbfgs", fixed_count,
                    iterations=result.iterations,
                    eq_residual=result.eq_residual,
                    ineq_residual=result.ineq_residual,
                    converged=result.converged,
                    message=result.message,
                ),
                result.multipliers if result.converged else None,
            )
            solve.stats.add_phase("dual", dual_timer.seconds)
    solve.stats.add_phase("presolve", presolve_timer.seconds)
    solve.stats.seconds = timer.seconds
    solve.stats.cpu_seconds = timer.seconds
    return solve
