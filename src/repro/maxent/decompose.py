"""Bucket-graph decomposition (Section 5.5), array-native.

Without background knowledge, every bucket's distribution is independent
(Lemma 2), so the global maximum entropy is the product of per-bucket
maxima (Theorem 4).  Background knowledge couples exactly the buckets its
rows touch; buckets not mentioned by any knowledge row stay *irrelevant*
(Definition 5.6) and still solve independently (Proposition 1).

This module generalizes that observation: build a graph whose nodes are
buckets and whose edges join buckets co-occurring in a constraint row, then
split the MaxEnt program by connected component.  Singleton components with
only data rows are the paper's irrelevant buckets and get the closed-form
solution; the rest are solved jointly per component — still far cheaper
than one global solve.

The implementation is flat-array end to end: the bucket graph is one
sparse adjacency matrix fed to ``scipy.sparse.csgraph.connected_components``
(no Python union-find), variables and rows are assigned to components with
single gathers over the system's CSR arrays, and local reindexing is one
vectorized scatter — no per-variable loops, no per-row dict remaps, no
re-validation of rows that were validated when first appended.  A
:class:`Component` is therefore a plain bundle of flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.maxent.constraints import (
    ConstraintSystem,
    RowArrays,
    kind_code,
    known_kind_codes,
)
from repro.maxent.indexing import (
    GroupVariableSpace,
    PersonVariableSpace,
    _take_ranges,
)

VariableSpace = GroupVariableSpace | PersonVariableSpace

#: Row kinds emitted by ``data_constraints`` — anything else is knowledge.
DATA_ROW_KINDS = frozenset({"qi", "sa", "person", "slot"})


@dataclass
class Component:
    """An independent sub-problem covering a set of buckets."""

    buckets: tuple[int, ...]
    var_indices: np.ndarray
    system: ConstraintSystem
    mass: float
    knowledge_rows: int
    inequality_rows: int

    @property
    def n_vars(self) -> int:
        """Number of variables in the component."""
        return int(self.var_indices.size)

    @property
    def is_irrelevant(self) -> bool:
        """True when no knowledge row touches the component (Def. 5.6).

        Irrelevant components admit the closed-form uniform solution of
        Eq. (9) / Theorem 5 (for group spaces).
        """
        return self.knowledge_rows == 0 and self.inequality_rows == 0


def _row_first_buckets(
    space: VariableSpace, arrays: RowArrays
) -> tuple[np.ndarray, np.ndarray]:
    """(bucket of each row's first entry, per-row entry counts).

    A row's component is its first variable's bucket's component — the
    same convention the row-wise pipeline used.  Empty rows cannot be
    placed and are rejected up front with a real message.
    """
    lengths = arrays.row_lengths()
    if arrays.n_rows and bool((lengths == 0).any()):
        empty = int(np.nonzero(lengths == 0)[0][0])
        raise ReproError(
            f"row {arrays.labels[empty]!r} references no variables and "
            "cannot be assigned to a component"
        )
    if arrays.n_rows == 0:
        return np.empty(0, dtype=np.int64), lengths
    first = space.var_bucket[arrays.indices[arrays.indptr[:-1]]]
    return first, lengths


def _bucket_labels(
    space: VariableSpace,
    eq: RowArrays,
    ineq: RowArrays,
    n_buckets: int,
    enabled: bool,
) -> tuple[int, np.ndarray]:
    """Connected-component labels of the bucket graph, min-bucket ordered."""
    if not enabled:
        return 1, np.zeros(n_buckets, dtype=np.int64)

    edge_src: list[np.ndarray] = []
    edge_dst: list[np.ndarray] = []
    for arrays in (eq, ineq):
        if arrays.n_rows == 0:
            continue
        first, lengths = _row_first_buckets(space, arrays)
        # Star edges: every entry's bucket joins its row's first bucket —
        # enough to make each row's bucket set one connected clique.
        edge_src.append(np.repeat(first, lengths))
        edge_dst.append(space.var_bucket[arrays.indices])

    if all(np.array_equal(s, d) for s, d in zip(edge_src, edge_dst)):
        # No row spans two buckets (as with no knowledge rows): every
        # bucket is its own component, already in canonical order, and
        # there is no graph to label.
        return n_buckets, np.arange(n_buckets, dtype=np.int64)

    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    src = np.concatenate(edge_src)
    dst = np.concatenate(edge_dst)
    graph = sp.coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)),
        shape=(n_buckets, n_buckets),
    )
    n_components, labels = connected_components(graph, directed=False)

    # Canonical order: components sorted by their smallest bucket id.
    first_bucket = np.full(n_components, n_buckets, dtype=np.int64)
    np.minimum.at(first_bucket, labels, np.arange(n_buckets, dtype=np.int64))
    remap = np.empty(n_components, dtype=np.int64)
    remap[np.argsort(first_bucket)] = np.arange(n_components, dtype=np.int64)
    return n_components, remap[labels]


def _permute_rows(
    arrays: RowArrays, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-permuted CSR pieces ``(indptr, entry_positions, rhs)``.

    ``entry_positions`` gathers the flat entry arrays into the permuted
    layout; callers index ``arrays.indices`` / ``arrays.coefficients``
    with it.
    """
    lengths = arrays.row_lengths()[order]
    indptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    starts = arrays.indptr[order]
    positions = _take_ranges(starts, starts + lengths)
    return indptr, positions, arrays.rhs[order]


def drop_redundant_data_rows(
    space: VariableSpace, system: ConstraintSystem
) -> ConstraintSystem:
    """Remove one implied SA-invariant row per bucket (Theorem 3).

    The conciseness theorem: within each bucket the QI- and SA-invariant
    rows satisfy ``sum(QI rows) - sum(SA rows) = 0``, so any one row is
    implied by the rest.  Dropping one "sa" row per bucket removes the exact
    linear dependency, which conditions the dual and speeds every iterative
    solver without changing the feasible set.

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
        indptr, positions, rhs = _permute_rows(eq, kept)
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


def decompose(
    space: VariableSpace,
    system: ConstraintSystem,
    *,
    enabled: bool = True,
) -> list[Component]:
    """Split ``system`` into independent per-component systems.

    With ``enabled=False`` a single component holding everything is
    returned — this reproduces the paper's *unoptimized* setup ("we have
    not applied the optimization techniques discussed in Section 5.5"),
    which the performance figures rely on.
    """
    n_buckets = int(space.var_bucket.max()) + 1 if space.n_vars else 0
    eq = system.equality_arrays()
    ineq = system.inequality_arrays()

    n_components, labels = _bucket_labels(space, eq, ineq, n_buckets, enabled)
    if n_components == 0:
        return []

    # -- variables per component (single stable sort + one scatter) ----------
    var_component = labels[space.var_bucket]
    var_order = np.argsort(var_component, kind="stable")
    var_counts = np.bincount(var_component, minlength=n_components)
    var_indptr = np.zeros(n_components + 1, dtype=np.int64)
    np.cumsum(var_counts, out=var_indptr[1:])
    # Local index of every variable within its component, as one gather:
    # position within the component-sorted order minus the component start.
    local_of_var = np.empty(space.n_vars, dtype=np.int64)
    local_of_var[var_order] = np.arange(space.n_vars, dtype=np.int64) - np.repeat(
        var_indptr[:-1], var_counts
    )

    # -- buckets per component ------------------------------------------------
    bucket_order = np.argsort(labels, kind="stable")
    bucket_counts = np.bincount(labels, minlength=n_components)
    bucket_indptr = np.zeros(n_components + 1, dtype=np.int64)
    np.cumsum(bucket_counts, out=bucket_indptr[1:])

    # -- rows per component, one family at a time ----------------------------
    mass_code = kind_code(space.mass_partition_kind)
    data_codes = known_kind_codes(DATA_ROW_KINDS)

    def family_by_component(arrays: RowArrays):
        """Rows grouped by component: permuted CSR + per-component counts."""
        if arrays.n_rows == 0:
            empty = np.zeros(n_components, dtype=np.int64)
            return None, empty
        first, _ = _row_first_buckets(space, arrays)
        row_component = labels[first]
        order = np.argsort(row_component, kind="stable")
        counts = np.bincount(row_component, minlength=n_components)
        indptr, positions, rhs = _permute_rows(arrays, order)
        local_indices = local_of_var[arrays.indices[positions]]
        coefficients = arrays.coefficients[positions]
        kind_codes = arrays.kind_codes[order]
        return (
            order,
            indptr,
            local_indices,
            coefficients,
            rhs,
            kind_codes,
            row_component,
        ), counts

    eq_grouped, eq_counts = family_by_component(eq)
    ineq_grouped, ineq_counts = family_by_component(ineq)

    # Component masses: rhs-sum of the mass-partition rows, accumulated in
    # insertion order (the stable sort preserves it within a component).
    # Reuses the row -> component map family_by_component already built.
    if eq_grouped is not None:
        row_component = eq_grouped[-1]
        mass_mask = eq.kind_codes == mass_code
        masses = np.bincount(
            row_component[mass_mask],
            weights=eq.rhs[mass_mask],
            minlength=n_components,
        )
        knowledge_counts = np.bincount(
            row_component[~np.isin(eq.kind_codes, data_codes)],
            minlength=n_components,
        )
    else:
        masses = np.zeros(n_components)
        knowledge_counts = np.zeros(n_components, dtype=np.int64)

    eq_row_indptr = np.zeros(n_components + 1, dtype=np.int64)
    np.cumsum(eq_counts, out=eq_row_indptr[1:])
    ineq_row_indptr = np.zeros(n_components + 1, dtype=np.int64)
    np.cumsum(ineq_counts, out=ineq_row_indptr[1:])

    components: list[Component] = []
    for comp in range(n_components):
        n_local = int(var_counts[comp])
        if n_local == 0:
            continue
        variables = var_order[var_indptr[comp] : var_indptr[comp + 1]]
        local = ConstraintSystem(n_local)

        if eq_grouped is not None and eq_counts[comp]:
            order, indptr, idx, coef, rhs, codes, _ = eq_grouped
            r0, r1 = int(eq_row_indptr[comp]), int(eq_row_indptr[comp + 1])
            e0, e1 = int(indptr[r0]), int(indptr[r1])
            local.add_equalities(
                indptr[r0 : r1 + 1] - e0,
                idx[e0:e1],
                coef[e0:e1],
                rhs[r0:r1],
                kinds=codes[r0:r1],
                labels=[eq.labels[int(order[r])] for r in range(r0, r1)],
                validate=False,
            )
        if ineq_grouped is not None and ineq_counts[comp]:
            order, indptr, idx, coef, rhs, codes, _ = ineq_grouped
            r0, r1 = int(ineq_row_indptr[comp]), int(ineq_row_indptr[comp + 1])
            e0, e1 = int(indptr[r0]), int(indptr[r1])
            local.add_inequalities(
                indptr[r0 : r1 + 1] - e0,
                idx[e0:e1],
                coef[e0:e1],
                rhs[r0:r1],
                kinds=codes[r0:r1],
                labels=[ineq.labels[int(order[r])] for r in range(r0, r1)],
                validate=False,
            )

        mass = float(masses[comp])
        if mass <= 0:
            raise ReproError(
                "component mass is non-positive; the constraint system must "
                f"include the {space.mass_partition_kind!r} data rows (build "
                "them with data_constraints() before solving)"
            )
        components.append(
            Component(
                buckets=tuple(
                    int(b)
                    for b in bucket_order[
                        bucket_indptr[comp] : bucket_indptr[comp + 1]
                    ]
                ),
                var_indices=variables,
                system=local,
                mass=mass,
                knowledge_rows=int(knowledge_counts[comp]),
                inequality_rows=int(ineq_counts[comp]),
            )
        )
    return components
