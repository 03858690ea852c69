"""Row-wise reference implementations of the construction pipeline.

These are the pre-array-native algorithms, preserved verbatim (modulo the
per-row append API they go through): one boolean mask per invariant row,
Python union-find over the bucket graph with per-variable/per-row loops,
and per-row ``argsort`` fingerprint encoding.  They are the oracle of
the equivalence suite (``test_pipeline_equivalence.py``), which proves the
array-native pipeline produces identical systems, identical fingerprints,
identical component partitions and identical posteriors.

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
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.maxent.constraints import ConstraintSystem, Row
from repro.maxent.decompose import DATA_ROW_KINDS, Component
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.utils.unionfind import UnionFind

VariableSpace = GroupVariableSpace | PersonVariableSpace


def data_constraints_rowwise(space: VariableSpace) -> ConstraintSystem:
    """Section 5 invariants via one full-length mask per (pair, bucket)."""
    system = ConstraintSystem(space.n_vars)
    n = space.n_records

    if isinstance(space, GroupVariableSpace):
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

    if isinstance(space, PersonVariableSpace):
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


def decompose_rowwise(
    space: VariableSpace,
    system: ConstraintSystem,
    *,
    enabled: bool = True,
) -> list[Component]:
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

    components: list[Component] = []
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
            Component(
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
    system: ConstraintSystem, mass: float = 1.0
) -> str:
    """The historical per-row fingerprint encoding (digest-compatible)."""
    rows = [_encode_row(r, b"E", with_rhs=True) for r in system.equalities]
    rows += [_encode_row(r, b"I", with_rhs=True) for r in system.inequalities]
    rows.sort()
    digest = hashlib.sha256()
    digest.update(struct.pack("<q", system.n_vars))
    digest.update(struct.pack("<d", mass))
    for encoded in rows:
        digest.update(struct.pack("<q", len(encoded)))
        digest.update(encoded)
    return digest.hexdigest()


@dataclass(frozen=True)
class PipelineResult:
    """Everything the cold construction pipeline produces, for comparison."""

    system: ConstraintSystem
    components: list[Component]
    fingerprints: list[str]


def run_pipeline_rowwise(space: VariableSpace) -> PipelineResult:
    """Cold build -> decompose -> fingerprint, entirely row-wise."""
    system = data_constraints_rowwise(space)
    components = decompose_rowwise(space, system)
    fingerprints = [
        fingerprint_system_rowwise(c.system, c.mass) for c in components
    ]
    return PipelineResult(system, components, fingerprints)
