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
and multipliers bit for bit (``test_engine_batch.py``).  The
single-component task solves on the lone-component dual class and
L-BFGS ladder the package ran before one stacked evaluator served every
dual (:class:`DualProblem`, :func:`build_dual_problem`,
:func:`solve_dual_problem`): a one-block stack must evaluate and solve
bit for bit like them (``test_maxent_dual.py``, and CI's lone dual
identity sweep).

It also holds Theorem 3's redundant-row filter in both forms, the
array-native :func:`drop_redundant_data_rows` and its row-wise twin.  No
solver path drops those rows; the tests keep the theorem checked.

Last of all, it keeps the per-statement knowledge compiler
(:func:`compile_statements_per_statement`) with the ``lexsort``
antecedent resolver it ran on (:func:`match_antecedents_lexsort`): one
summation-set probe and one row at a time, in input order.  The batched
compiler must match it bit for bit, errors included
(``test_knowledge_compiler.py``, and CI's knowledge compile identity
sweep).

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
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from repro.anonymize.buckets import BucketizedTable
from repro.data.table import QITuple, Table
from repro.errors import CompilationError, InfeasibleKnowledgeError, ReproError
from repro.knowledge.individuals import (
    GroupCount,
    GroupCountAtLeast,
    GroupCountAtMost,
    IndividualDisjunction,
    IndividualProbability,
    IndividualStatement,
    Pseudonym,
    PseudonymTable,
)
from repro.knowledge.mining import MiningConfig, _antecedent_sizes
from repro.knowledge.rules import AssociationRule, NegativeRule, PositiveRule
from repro.knowledge.statements import (
    Comparison,
    ConditionalInterval,
    ConditionalProbability,
    JointProbability,
    Statement,
)
from repro.engine.component import ComponentSolve
from repro.maxent.batch_dual import solve_batch_dual
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem, Row, kind_code
from repro.maxent.decompose import DATA_ROW_KINDS, _permute_rows
from repro.maxent.dual import DualStack, build_dual
from repro.maxent.indexing import (
    GroupVariableSpace,
    PersonVariableSpace,
    _take_ranges,
)
from repro.maxent.lbfgs import DualSolveResult, usable_start
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


def drop_redundant_data_rows(
    space: VariableSpace, system: ConstraintSystem
) -> ConstraintSystem:
    """Remove one implied SA-invariant row per bucket (Theorem 3).

    The conciseness theorem: within each bucket the QI- and SA-invariant
    rows satisfy ``sum(QI rows) - sum(SA rows) = 0``, so any one row is
    implied by the rest.  Dropping one "sa" row per bucket removes the exact
    linear dependency without changing the feasible set.  No solver path
    uses it: on Adult Top-K duals it nearly doubled the L-BFGS iterations.

    Implemented as a vectorized row filter over the CSR arrays: the first
    "sa" row of each bucket (in insertion order) is masked out and the
    survivors are re-appended as one batch.
    """
    eq = system.equality_arrays()
    filtered = ConstraintSystem(system.n_vars)

    keep = np.ones(eq.n_rows, dtype=bool)
    sa_rows = np.nonzero(eq.kind_codes == kind_code("sa"))[0]
    if sa_rows.size:
        first_entries = eq.indices[eq.indptr[sa_rows]]
        sa_buckets = space.var_bucket[first_entries]
        _, first_of_bucket = np.unique(sa_buckets, return_index=True)
        keep[sa_rows[first_of_bucket]] = False

    kept = np.nonzero(keep)[0]
    if kept.size:
        indptr, positions, rhs = _permute_rows(eq.indptr, eq.rhs, kept)
        filtered.add_equalities(
            indptr,
            eq.indices[positions],
            eq.coefficients[positions],
            rhs,
            kinds=eq.kind_codes[kept],
            labels=[eq.labels[int(r)] for r in kept],
            validate=False,
        )
    ineq = system.inequality_arrays()
    if ineq.n_rows:
        filtered.add_inequalities(
            ineq.indptr,
            ineq.indices,
            ineq.coefficients,
            ineq.rhs,
            kinds=ineq.kind_codes,
            labels=list(ineq.labels),
            validate=False,
        )
    return filtered


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


def stack_duals(duals: list[DualStack]) -> DualStack:
    """Stack the blocks of several dual stacks into one, in order."""
    row_counts = np.concatenate(
        [d.row_counts for d in duals] or [np.empty(0, dtype=np.int64)]
    )
    var_counts = np.concatenate(
        [d.var_counts for d in duals] or [np.empty(0, dtype=np.int64)]
    )
    nnz = np.array([d.indices.size for d in duals], dtype=np.int64)
    n_vars = np.array([int(d.var_indptr[-1]) for d in duals], dtype=np.int64)
    empty_i = np.empty(0, dtype=np.int64)
    lengths = np.concatenate([np.diff(d.indptr) for d in duals] or [empty_i])
    var_starts = np.cumsum(n_vars) - n_vars
    indices = np.concatenate(
        [d.indices.astype(np.int64) for d in duals] or [empty_i]
    )
    return DualStack(
        indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        indices=indices + np.repeat(var_starts, nnz),
        data=np.concatenate(
            [np.asarray(d.data, dtype=float) for d in duals] or [np.empty(0)]
        ),
        rhs=np.concatenate([d.rhs for d in duals] or [np.empty(0)]),
        row_indptr=np.concatenate([[0], np.cumsum(row_counts)]).astype(
            np.int64
        ),
        var_indptr=np.concatenate([[0], np.cumsum(var_counts)]).astype(
            np.int64
        ),
        n_equalities=np.concatenate(
            [d.n_equalities for d in duals] or [empty_i]
        ).astype(np.int64),
        masses=np.concatenate(
            [np.asarray(d.masses, dtype=float) for d in duals]
            or [np.empty(0)]
        ),
    )


# -- the lone-component dual and its L-BFGS ladder -----------------------------


@dataclass
class DualProblem:
    """Assembled matrices of one component's dual."""

    matrix: sp.csr_matrix  # stacked [A; G]
    rhs: np.ndarray  # stacked [c; d]
    n_equalities: int
    n_inequalities: int
    mass: float
    #: ``matrix.T`` as CSR, built once here rather than per evaluation.
    transpose: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.transpose = self.matrix.T.tocsr()

    @property
    def n_params(self) -> int:
        """Number of dual parameters (one per row)."""
        return self.n_equalities + self.n_inequalities

    @property
    def n_vars(self) -> int:
        """Number of primal variables."""
        return self.matrix.shape[1]

    def bounds(self) -> list[tuple[float | None, float | None]]:
        """L-BFGS-B box: equality multipliers free, inequality ones >= 0."""
        return [(None, None)] * self.n_equalities + [
            (0.0, None)
        ] * self.n_inequalities

    def theta(self, x: np.ndarray) -> np.ndarray:
        """Exponential-family parameters ``-(R^T x)`` at multipliers x."""
        return -(self.transpose @ x)

    def primal(self, x: np.ndarray) -> np.ndarray:
        """The primal point ``p = M softmax(theta)`` at multipliers x."""
        theta = self.theta(x)
        shifted = theta - theta.max()
        weights = np.exp(shifted)
        return self.mass * weights / weights.sum()

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Dual objective and gradient (the negated residual)."""
        theta = self.theta(x)
        shift = theta.max()
        weights = np.exp(theta - shift)
        total = weights.sum()
        value = self.mass * float(shift + np.log(total)) + float(x @ self.rhs)
        p = self.mass * weights / total
        grad = self.rhs - self.matrix @ p
        return value, grad

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product of the dual at multipliers ``x``."""
        p = self.primal(x)
        w = self.transpose @ v
        rp = self.matrix @ p
        return self.matrix @ (p * w) - rp * (float(p @ w) / self.mass)

    def residuals(self, p: np.ndarray) -> tuple[float, float]:
        """(worst equality violation, worst inequality violation) at p."""
        values = self.matrix @ p
        eq_violation = 0.0
        if self.n_equalities:
            eq_violation = float(
                np.abs(values[: self.n_equalities] - self.rhs[: self.n_equalities]).max()
            )
        ineq_violation = 0.0
        if self.n_inequalities:
            excess = values[self.n_equalities :] - self.rhs[self.n_equalities :]
            ineq_violation = float(np.clip(excess, 0.0, None).max())
        return eq_violation, ineq_violation

    def residual_scale(self) -> float:
        """Normalizer for relative residuals (the natural rhs magnitude)."""
        if self.rhs.size == 0:
            return max(self.mass, 1e-12)
        return float(max(np.abs(self.rhs).max(), self.mass / max(self.n_vars, 1), 1e-12))


def build_dual_problem(system: ConstraintSystem, mass: float) -> DualProblem:
    """Assemble a :class:`DualProblem` from a (component-local) system."""
    if mass <= 0:
        raise ReproError(f"component mass must be positive, got {mass}")
    a_matrix, c = system.equality_matrix()
    g_matrix, d = system.inequality_matrix()
    stacked = sp.vstack([a_matrix, g_matrix]).tocsr()
    rhs = np.concatenate([c, d])
    return DualProblem(
        matrix=stacked,
        rhs=rhs,
        n_equalities=system.n_equalities,
        n_inequalities=system.n_inequalities,
        mass=mass,
    )


def _package(
    dual: DualProblem,
    x: np.ndarray,
    iterations: int,
    tol: float,
    scale: float,
    message: str,
) -> DualSolveResult:
    p = dual.primal(x)
    eq_res, ineq_res = dual.residuals(p)
    return DualSolveResult(
        p=p,
        iterations=iterations,
        eq_residual=eq_res,
        ineq_residual=ineq_res,
        scale=scale,
        converged=max(eq_res, ineq_res) <= tol * scale,
        message=message,
        multipliers=np.asarray(x, dtype=float),
    )


def solve_dual_problem(
    dual: DualProblem,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
) -> DualSolveResult:
    """L-BFGS-B, then the Newton-CG polish, then a longer L-BFGS leg."""
    scale = dual.residual_scale()
    gtol = max(tol * scale * 0.1, 1e-15)
    bounds = dual.bounds() if dual.n_inequalities else None
    x0 = usable_start(x0, dual.n_params)

    result = minimize(
        dual.value_and_grad,
        np.zeros(dual.n_params) if x0 is None else x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": max_iterations,
            "maxfun": max_iterations * 4,
            "gtol": gtol,
            "ftol": 1e-18,
        },
    )
    outcome = _package(
        dual, result.x, int(result.nit), tol, scale, str(result.message)
    )
    if outcome.converged:
        return outcome

    if dual.n_inequalities == 0:
        polish = minimize(
            dual.value_and_grad,
            result.x,
            jac=True,
            hessp=dual.hess_vec,
            method="Newton-CG",
            options={"maxiter": max(50, max_iterations // 10), "xtol": 1e-14},
        )
        polished = _package(
            dual,
            polish.x,
            outcome.iterations + int(polish.nit),
            tol,
            scale,
            f"L-BFGS + Newton-CG polish: {polish.message}",
        )
        if polished.relative_residual <= outcome.relative_residual:
            outcome = polished
        if outcome.converged:
            return outcome

    retry = minimize(
        dual.value_and_grad,
        result.x,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={
            "maxiter": max_iterations * 3,
            "maxfun": max_iterations * 12,
            "gtol": gtol,
            "ftol": 1e-18,
        },
    )
    retried = _package(
        dual,
        retry.x,
        outcome.iterations + int(retry.nit),
        tol,
        scale,
        str(retry.message),
    )
    if retried.relative_residual <= outcome.relative_residual:
        return retried
    return outcome


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
                dual = build_dual_problem(system, mass)
                result = solve_dual_problem(
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


# -- the per-statement knowledge compiler --------------------------------------


def match_antecedents_lexsort(
    space: VariableSpace, qvs: list[dict[str, str]]
) -> tuple[list[np.ndarray], np.ndarray, list[str | None]]:
    """``(ids, counts, unknown)`` of every antecedent, resolved by one
    ``lexsort`` of the stacked projected codes per attribute subset."""
    registry = space._registry
    names, positions = registry._names, registry._positions
    empty = np.empty(0, dtype=np.int64)
    ids = [empty] * len(qvs)
    counts = np.zeros(len(qvs), dtype=np.int64)
    unknown: list[str | None] = [None] * len(qvs)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, qv in enumerate(qvs):
        missing = [name for name in qv if name not in positions]
        if missing:
            unknown[j] = missing[0]
        else:
            subset = tuple(sorted(positions[name] for name in qv))
            groups.setdefault(subset, []).append(j)
    n_tuples = len(registry.tuples)
    for subset, members in groups.items():
        codes, code_of = space.published.qi_value_codes
        wanted = np.array(
            [
                [code_of[p].get(qvs[j][names[p]], -1) for p in subset]
                for j in members
            ],
            dtype=np.int64,
        )
        stacked = np.concatenate([codes[:, list(subset)], wanted])
        order = np.lexsort(stacked.T[::-1])
        ordered = stacked[order]
        new_key = np.ones(order.size, dtype=bool)
        new_key[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.cumsum(new_key)
        tuple_order = order[order < n_tuples]
        tuple_ranks = rank[tuple_order]
        starts = np.searchsorted(tuple_ranks, rank[n_tuples:], side="left")
        ends = np.searchsorted(tuple_ranks, rank[n_tuples:], side="right")
        cumulative = np.zeros(n_tuples + 1, dtype=np.int64)
        np.cumsum(registry.counts[tuple_order], out=cumulative[1:])
        counts[members] = cumulative[ends] - cumulative[starts]
        for j, start, end in zip(members, starts.tolist(), ends.tolist()):
            ids[j] = tuple_order[start:end]
    return ids, counts, unknown


def _vars_of_qis(space: VariableSpace, qids: np.ndarray, sa_value: str) -> np.ndarray:
    """One summation set: one ``searchsorted`` range probe per QI id."""
    sid = space.sa_id_of.get(sa_value)
    if sid is None or qids.size == 0:
        return np.empty(0, dtype=np.int64)
    index = space._summation_index()
    wanted = qids * index._stride + int(sid)
    starts = np.searchsorted(index._sorted, wanted, side="left")
    ends = np.searchsorted(index._sorted, wanted, side="right")
    hits = index._order[_take_ranges(starts, ends)]
    hits.sort()
    return hits


_RHS_TOL = 1e-12
_DISTRIBUTION = (
    ConditionalProbability, JointProbability, ConditionalInterval, Comparison,
)


class _RowBatch:
    """Accumulates compiled rows, emitted as one batch append per family."""

    def __init__(self) -> None:
        self._eq: list[tuple] = []
        self._ineq: list[tuple] = []

    def add_equality(self, indices, coefficients, rhs, *, kind, label=""):
        self._eq.append((indices, coefficients, float(rhs), kind, label))

    def add_inequality(self, indices, coefficients, upper, *, kind, label=""):
        self._ineq.append((indices, coefficients, float(upper), kind, label))

    @staticmethod
    def _flush(rows: list[tuple], append_batch) -> None:
        if not rows:
            return
        lengths = np.array([len(r[0]) for r in rows], dtype=np.int64)
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        append_batch(
            indptr,
            np.concatenate([np.asarray(r[0], dtype=np.int64) for r in rows]),
            np.concatenate([np.asarray(r[1], dtype=float) for r in rows]),
            np.array([r[2] for r in rows]),
            kinds=[r[3] for r in rows],
            labels=[r[4] or f"{r[3]}[{i}]" for i, r in enumerate(rows)],
        )

    def emit(self, system: ConstraintSystem) -> None:
        self._flush(self._eq, system.add_equalities)
        self._flush(self._ineq, system.add_inequalities)


def _equality_row(
    label: str, indices: np.ndarray, rhs: float, rows: _RowBatch
) -> None:
    if indices.size == 0:
        if rhs > _RHS_TOL:
            raise InfeasibleKnowledgeError(
                f"statement {label!r} requires probability {rhs:g} on a "
                "summation set that is structurally empty (the SA value "
                "never co-occurs with the antecedent in any bucket)"
            )
        return
    rows.add_equality(indices, np.ones(indices.size), rhs, kind="bk", label=label)


def _compile_distribution(
    statement: Statement,
    space: VariableSpace,
    qids: np.ndarray,
    count: int,
    unknown: str | None,
    rows: _RowBatch,
) -> None:
    label = statement.describe()
    if unknown is not None:
        raise CompilationError(f"{label}: {unknown!r} is not a QI attribute")
    if isinstance(statement, JointProbability):
        _equality_row(
            label,
            _vars_of_qis(space, qids, statement.sa_value),
            statement.probability,
            rows,
        )
        return
    if count == 0:
        antecedent = ", ".join(
            f"{k}={v}" for k, v in sorted(statement.given.items())
        )
        raise CompilationError(
            f"{label}: antecedent {{{antecedent}}} matches no published "
            "record, so P(Qv) = 0 and the statement constrains nothing"
        )
    p_qv = float(count) / space.n_records

    if isinstance(statement, ConditionalProbability):
        _equality_row(
            label,
            _vars_of_qis(space, qids, statement.sa_value),
            statement.probability * p_qv,
            rows,
        )
        return

    if isinstance(statement, ConditionalInterval):
        indices = _vars_of_qis(space, qids, statement.sa_value)
        if indices.size == 0:
            if statement.low > _RHS_TOL:
                raise InfeasibleKnowledgeError(
                    f"statement {label!r} has an empty summation set but a "
                    "strictly positive lower bound"
                )
            return
        ones = np.ones(indices.size)
        rows.add_inequality(
            indices, ones, statement.high * p_qv, kind="bk",
            label=f"{label} [upper]",
        )
        if statement.low > 0.0:
            rows.add_inequality(
                indices, -ones, -statement.low * p_qv, kind="bk",
                label=f"{label} [lower]",
            )
        return

    more = _vars_of_qis(space, qids, statement.more_likely)
    less = _vars_of_qis(space, qids, statement.less_likely)
    if more.size == 0 and less.size == 0:
        if statement.margin > _RHS_TOL:
            raise InfeasibleKnowledgeError(
                f"statement {label!r}: both sides are structurally zero but "
                "the margin is positive"
            )
        return
    rows.add_inequality(
        np.concatenate([less, more]),
        np.concatenate([np.ones(less.size), -np.ones(more.size)]),
        -statement.margin * p_qv,
        kind="bk",
        label=label,
    )


def _compile_individual(
    statement: IndividualStatement,
    space: PersonVariableSpace,
    rows: _RowBatch,
) -> None:
    n = space.n_records
    if isinstance(statement, IndividualProbability):
        indices = space.vars_of_person(statement.person, statement.sa_value)
        rhs = statement.probability / n
        if indices.size == 0:
            if rhs > _RHS_TOL:
                raise InfeasibleKnowledgeError(
                    f"{statement.describe()}: {statement.person.name} can "
                    f"never carry {statement.sa_value!r} (no bucket offers it)"
                )
            return
        rows.add_equality(
            indices, np.ones(indices.size), rhs, kind="bk",
            label=statement.describe(),
        )
        return

    if isinstance(statement, IndividualDisjunction):
        pieces = [
            space.vars_of_person(statement.person, value)
            for value in statement.sa_values
        ]
        indices = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        if indices.size == 0:
            raise InfeasibleKnowledgeError(
                f"{statement.describe()}: none of the listed values is "
                f"available to {statement.person.name} in any bucket"
            )
        rows.add_equality(
            indices, np.ones(indices.size), 1.0 / n, kind="bk",
            label=statement.describe(),
        )
        return

    if isinstance(statement, (GroupCount, GroupCountAtLeast, GroupCountAtMost)):
        pieces = [
            space.vars_of_person(person, statement.sa_value)
            for person in statement.persons
        ]
        indices = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        rhs = statement.count / n
        if indices.size == 0:
            if isinstance(statement, GroupCountAtMost):
                return
            raise InfeasibleKnowledgeError(
                f"{statement.describe()}: no member of the group can carry "
                f"{statement.sa_value!r} in any bucket"
            )
        ones = np.ones(indices.size)
        if isinstance(statement, GroupCount):
            rows.add_equality(
                indices, ones, rhs, kind="bk", label=statement.describe()
            )
        elif isinstance(statement, GroupCountAtLeast):
            rows.add_inequality(
                indices, -ones, -rhs, kind="bk", label=statement.describe()
            )
        else:
            rows.add_inequality(
                indices, ones, rhs, kind="bk", label=statement.describe()
            )
        return

    raise CompilationError(
        f"unsupported individual statement type {type(statement).__name__}"
    )


def compile_statements_per_statement(statements, space: VariableSpace) -> ConstraintSystem:
    """The knowledge rows of ``statements``, compiled one statement at a
    time in input order (each summation set its own probe); the first
    statement that cannot compile raises."""
    statements = list(statements)
    ids, counts, unknown = match_antecedents_lexsort(
        space, [s.given for s in statements if isinstance(s, _DISTRIBUTION)]
    )
    resolved = zip(ids, counts.tolist(), unknown)
    rows = _RowBatch()
    for statement in statements:
        if isinstance(statement, _DISTRIBUTION):
            _compile_distribution(statement, space, *next(resolved), rows)
        elif isinstance(statement, IndividualStatement):
            if not isinstance(space, PersonVariableSpace):
                raise CompilationError(
                    f"statement {statement.describe()!r} is about an "
                    "individual; build the engine with a PersonVariableSpace "
                    "(PrivacyMaxEnt(..., individuals=True))"
                )
            _compile_individual(statement, space, rows)
        else:
            raise CompilationError(
                f"unsupported statement type {type(statement).__name__}"
            )
    system = ConstraintSystem(space.n_vars)
    rows.emit(system)
    return system
