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

The result is one :class:`ComponentStack`, not one system per component:
the system's rows regrouped by component (each component's equalities,
then its inequalities, each family in the system's order) with
component-local variable indices, plus per-component boundaries, buckets,
masses and knowledge counts as flat arrays.  The bucket graph is one
sparse adjacency matrix fed to ``scipy.sparse.csgraph.connected_components``;
variables and rows are assigned to components with single gathers over
the system's CSR arrays.  The execution plan, the cache keys
(:mod:`repro.engine.fingerprint`) and presolve
(:func:`repro.maxent.presolve.presolve_stack`) all read the stack
directly; a :class:`Component` is a view of one of its segments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.maxent.constraints import (
    ConstraintSystem,
    RowArrays,
    RowLabels,
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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, cumsum(counts)...]`` as int64 boundaries."""
    bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


class StackedRows(NamedTuple):
    """Rows of consecutive blocks as one flat CSR.

    Block ``k`` owns rows ``row_indptr[k]:row_indptr[k + 1]``: its
    ``n_equalities[k]`` equalities first, then its inequalities.
    ``indices`` are block-local.  ``rows`` maps each row back to its row
    in the stack it was taken from (for labels).
    """

    row_indptr: np.ndarray
    n_equalities: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray
    rhs: np.ndarray
    rows: np.ndarray

    def is_equality(self) -> np.ndarray:
        """Per row: True for an equality."""
        counts = np.diff(self.row_indptr)
        first_inequality = self.row_indptr[:-1] + self.n_equalities
        return np.arange(self.rhs.size) < np.repeat(first_inequality, counts)

    @classmethod
    def of_system(cls, system: ConstraintSystem) -> "StackedRows":
        """``system`` as one block: its equalities, then its inequalities."""
        eq = system.equality_arrays()
        ineq = system.inequality_arrays()
        n_rows = eq.n_rows + ineq.n_rows
        if ineq.n_rows:
            indptr = np.concatenate(
                (eq.indptr, ineq.indptr[1:] + eq.indptr[-1])
            )
            indices = np.concatenate((eq.indices, ineq.indices))
            coefficients = np.concatenate(
                (eq.coefficients, ineq.coefficients)
            )
            rhs = np.concatenate((eq.rhs, ineq.rhs))
        else:
            indptr, indices, coefficients, rhs = (
                eq.indptr, eq.indices, eq.coefficients, eq.rhs,
            )
        return cls(
            row_indptr=np.array([0, n_rows], dtype=np.int64),
            n_equalities=np.array([eq.n_rows], dtype=np.int64),
            indptr=indptr,
            indices=indices,
            coefficients=coefficients,
            rhs=rhs,
            rows=np.arange(n_rows, dtype=np.int64),
        )


@dataclass(eq=False)
class ComponentStack(Sequence):
    """Every component of one decomposition, as flat arrays.

    Component ``k`` owns the global variables
    ``var_indices[var_indptr[k]:var_indptr[k + 1]]`` (ascending; local
    index ``i`` is the ``i``-th of them), the buckets
    ``buckets[bucket_indptr[k]:bucket_indptr[k + 1]]`` (ascending) and
    the rows ``row_indptr[k]:row_indptr[k + 1]``: its ``n_equalities[k]``
    equalities, then its inequalities, each family in the system's
    order.  Rows are one CSR over component-local indices; row ``r``'s
    label is ``labels[label_rows[r]]``.  Kind codes index this process's
    intern table.

    Components are ordered by smallest bucket.  Indexing yields
    :class:`Component` views.
    """

    var_indptr: np.ndarray
    var_indices: np.ndarray
    bucket_indptr: np.ndarray
    buckets: np.ndarray
    row_indptr: np.ndarray
    n_equalities: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray
    rhs: np.ndarray
    kind_codes: np.ndarray
    labels: RowLabels
    label_rows: np.ndarray
    masses: np.ndarray
    knowledge_rows: np.ndarray

    def __len__(self) -> int:
        return int(self.masses.size)

    def __getitem__(self, index: int) -> "Component":
        if not -len(self) <= index < len(self):
            raise IndexError(f"component {index} of {len(self)}")
        return Component(self, index % len(self))

    @property
    def var_counts(self) -> np.ndarray:
        """Variables per component."""
        return np.diff(self.var_indptr)

    @property
    def inequality_rows(self) -> np.ndarray:
        """Inequality rows per component."""
        return np.diff(self.row_indptr) - self.n_equalities

    def variables(self, positions) -> np.ndarray:
        """The global variables of the components at ``positions``."""
        positions = np.asarray(positions, dtype=np.int64)
        return self.var_indices[
            _take_ranges(
                self.var_indptr[positions], self.var_indptr[positions + 1]
            )
        ]

    def label(self, row: int) -> str:
        """The label of stacked row ``row``."""
        return self.labels[int(self.label_rows[row])]

    def rows(self, positions) -> StackedRows:
        """The rows of the components at ``positions``, in that order.

        The whole stack in order comes back without a copy; any other
        selection is gathered.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == len(self) and np.array_equal(
            positions, np.arange(len(self))
        ):
            return StackedRows(
                self.row_indptr, self.n_equalities, self.indptr,
                self.indices, self.coefficients, self.rhs,
                np.arange(self.rhs.size, dtype=np.int64),
            )
        starts = self.row_indptr[positions]
        ends = self.row_indptr[positions + 1]
        rows = _take_ranges(starts, ends)
        entries = _take_ranges(self.indptr[rows], self.indptr[rows + 1])
        return StackedRows(
            row_indptr=_offsets(ends - starts),
            n_equalities=self.n_equalities[positions],
            indptr=_offsets(self.indptr[rows + 1] - self.indptr[rows]),
            indices=self.indices[entries],
            coefficients=self.coefficients[entries],
            rhs=self.rhs[rows],
            rows=rows,
        )

    def system(self, k: int) -> ConstraintSystem:
        """Component ``k`` materialized as its own constraint system."""
        system = ConstraintSystem(int(self.var_counts[k]))
        r0 = int(self.row_indptr[k])
        r_eq = r0 + int(self.n_equalities[k])
        for lo, hi, append in (
            (r0, r_eq, system.add_equalities),
            (r_eq, int(self.row_indptr[k + 1]), system.add_inequalities),
        ):
            if hi == lo:
                continue
            e0, e1 = self.indptr[lo], self.indptr[hi]
            append(
                self.indptr[lo : hi + 1] - e0,
                self.indices[e0:e1],
                self.coefficients[e0:e1],
                self.rhs[lo:hi],
                kinds=self.kind_codes[lo:hi],
                labels=self.labels.take(self.label_rows[lo:hi]),
                validate=False,
            )
        return system


class Component:
    """One component of a :class:`ComponentStack` (a view, not a copy)."""

    def __init__(self, stack: ComponentStack, index: int) -> None:
        self.stack = stack
        self.index = index

    @property
    def buckets(self) -> tuple[int, ...]:
        """The buckets the component covers, ascending."""
        stack, k = self.stack, self.index
        lo, hi = stack.bucket_indptr[k], stack.bucket_indptr[k + 1]
        return tuple(stack.buckets[lo:hi].tolist())

    @property
    def var_indices(self) -> np.ndarray:
        """The component's global variables, ascending."""
        stack, k = self.stack, self.index
        return stack.var_indices[stack.var_indptr[k] : stack.var_indptr[k + 1]]

    @property
    def mass(self) -> float:
        """Total probability of the component's variables."""
        return float(self.stack.masses[self.index])

    @property
    def knowledge_rows(self) -> int:
        """Equality rows that are not data invariants."""
        return int(self.stack.knowledge_rows[self.index])

    @property
    def inequality_rows(self) -> int:
        """Inequality rows of the component."""
        return int(self.stack.inequality_rows[self.index])

    @property
    def n_vars(self) -> int:
        """Number of variables in the component."""
        return int(self.stack.var_counts[self.index])

    @property
    def is_irrelevant(self) -> bool:
        """True when no knowledge row touches the component (Def. 5.6).

        Irrelevant components admit the closed-form uniform solution of
        Eq. (9) / Theorem 5 (for group spaces).
        """
        return self.knowledge_rows == 0 and self.inequality_rows == 0

    @cached_property
    def system(self) -> ConstraintSystem:
        """The component's rows as a standalone system (built on demand)."""
        return self.stack.system(self.index)


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
    indptr: np.ndarray, rhs: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-permuted CSR pieces ``(indptr, entry_positions, rhs)``.

    ``entry_positions`` gathers the flat entry arrays into the permuted
    layout; callers index their indices and coefficients with it.
    """
    lengths = np.diff(indptr)[order]
    starts = indptr[order]
    positions = _take_ranges(starts, starts + lengths)
    return _offsets(lengths), positions, rhs[order]


def decompose(
    space: VariableSpace,
    system: ConstraintSystem,
    *,
    enabled: bool = True,
) -> ComponentStack:
    """Split ``system`` into independent components, as one stack.

    With ``enabled=False`` a single component holding everything is
    returned — this reproduces the paper's *unoptimized* setup ("we have
    not applied the optimization techniques discussed in Section 5.5"),
    which the performance figures rely on.
    """
    n_buckets = int(space.var_bucket.max()) + 1 if space.n_vars else 0
    eq = system.equality_arrays()
    ineq = system.inequality_arrays()

    n_components, labels = _bucket_labels(space, eq, ineq, n_buckets, enabled)
    var_component = labels[space.var_bucket]
    var_counts = np.bincount(var_component, minlength=n_components)
    if not var_counts.all():
        # A component without variables (a bucket id no variable uses)
        # has no rows either; it is dropped and the rest renumbered.
        present = var_counts > 0
        renumber = np.where(present, np.cumsum(present) - 1, -1)
        labels = renumber[labels]
        var_component = labels[space.var_bucket]
        var_counts = var_counts[present]
        n_components = int(var_counts.size)

    # -- variables: one stable sort, local index by one scatter --------------
    var_order = np.argsort(var_component, kind="stable")
    var_indptr = _offsets(var_counts)
    local_of_var = np.empty(space.n_vars, dtype=np.int64)
    local_of_var[var_order] = np.arange(space.n_vars, dtype=np.int64) - np.repeat(
        var_indptr[:-1], var_counts
    )

    # -- buckets --------------------------------------------------------------
    placed = np.flatnonzero(labels >= 0)
    bucket_order = placed[np.argsort(labels[placed], kind="stable")]
    bucket_indptr = _offsets(
        np.bincount(labels[placed], minlength=n_components)
    )

    # -- rows: both families, grouped by (component, family) ------------------
    eq_first, _ = _row_first_buckets(space, eq)
    ineq_first, _ = _row_first_buckets(space, ineq)
    rows = StackedRows.of_system(system)
    eq_component = labels[eq_first]
    row_component = np.concatenate((eq_component, labels[ineq_first]))
    family = np.arange(row_component.size) >= eq.n_rows
    order = np.argsort(2 * row_component + family, kind="stable")
    indptr, positions, rhs = _permute_rows(rows.indptr, rows.rhs, order)
    row_indptr = _offsets(np.bincount(row_component, minlength=n_components))

    # Component masses: rhs-sum of the mass-partition rows, accumulated in
    # insertion order.
    mass_mask = eq.kind_codes == kind_code(space.mass_partition_kind)
    masses = np.bincount(
        eq_component[mass_mask],
        weights=eq.rhs[mass_mask],
        minlength=n_components,
    )
    knowledge = ~np.isin(eq.kind_codes, known_kind_codes(DATA_ROW_KINDS))
    if n_components and bool((masses <= 0).any()):
        raise ReproError(
            "component mass is non-positive; the constraint system must "
            f"include the {space.mass_partition_kind!r} data rows (build "
            "them with data_constraints() before solving)"
        )
    return ComponentStack(
        var_indptr=var_indptr,
        var_indices=var_order,
        bucket_indptr=bucket_indptr,
        buckets=bucket_order,
        row_indptr=row_indptr,
        n_equalities=np.bincount(eq_component, minlength=n_components),
        indptr=indptr,
        indices=local_of_var[rows.indices[positions]],
        coefficients=rows.coefficients[positions],
        rhs=rhs,
        kind_codes=np.concatenate((eq.kind_codes, ineq.kind_codes))[order],
        labels=eq.labels + ineq.labels,
        label_rows=order,
        masses=masses,
        knowledge_rows=np.bincount(
            eq_component[knowledge], minlength=n_components
        ),
    )
