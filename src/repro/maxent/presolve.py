"""Constraint presolve: eliminate forced variables before optimization.

Background knowledge routinely *pins* variables — the paper's motivating
deduction ("both females must have Breast Cancer") is exactly a chain of
such eliminations: a zero-probability rule zeroes variables, the remaining
single-variable rows become forced values, and so on.  Running this to a
fixed point

- shrinks the optimization problem (often dramatically for confidence-1
  negative rules),
- keeps the dual solvers away from boundary solutions (a variable forced to
  0 has no finite dual multiplier, so eliminating it is a numerical
  necessity, not just a speed-up),
- detects structural infeasibility with a message naming the row.

Both row families are stacked into one flat CSR (equalities first, then
inequalities) and reduced in rounds.  Each round evaluates, as masks over
the rows that can fire:

1. an empty equality with non-zero rhs, or an empty inequality with
   negative rhs, is infeasible; otherwise the row is dropped,
2. a single-variable equality fixes that variable (rejecting values outside
   ``[0, 1]`` beyond round-off),
3. an equality whose non-negligible coefficients all share one sign and
   whose rhs is zero fixes every variable in it to zero,
4. an inequality whose coefficients are all positive fixes every variable
   in it to zero when its rhs is zero, and is infeasible when its rhs is
   negative.

The round's fixes, in row order, are substituted into every row with one
``np.subtract.at`` over the entries they hit (unbuffered, so each row's
rhs takes its hits one at a time in entry order and rounds exactly as a
row-at-a-time loop would).  A variable fixed twice in one round keeps its
first value, and the fixes must agree.  Each reduction
needs a row that is short (at most one entry) or has rhs <= tol, and a row
the substitution did not touch already failed to fire and is unchanged.
So the first round examines every row, each later round only the touched
rows that became short or reached rhs <= tol, and the loop stops when a
round fixes nothing or no such row remains.

5. Duplicate equalities (equal left sides) are dropped once, from the
   quiescent rows; conflicting duplicates are infeasible.

Substitution keeps a duplicate pair a pair, so running reduction 5 once
at the end fixes the same values as running it every round; only which
infeasibility a contradictory system reports first can differ.

Fixes keep their first-fix order (round, then row) and surviving rows keep
their order, kinds and labels.  A system on which nothing fires comes back
as the same object.

:func:`presolve_stack` runs the same loop once over the components of
an engine work unit (a batch group, or one component), as the blocks of
one block-diagonal CSR gathered straight from the decomposition's
:class:`~repro.maxent.decompose.ComponentStack`: each block's equalities,
then its inequalities, in the stack's order.  Rows never cross blocks,
so each round on the stack is the union of the per-block rounds, and the
results it splits back out per block equal :func:`presolve`'s on each
component's own system bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import InfeasibleKnowledgeError
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.decompose import ComponentStack, StackedRows

#: Absolute tolerance for treating right-hand sides as zero.  Right-hand
#: sides are rationals with denominator N (record count), so genuine zeros
#: are exact and anything this small is round-off.
_TOL = 1e-11

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0)


@dataclass
class PresolveResult:
    """Outcome of presolve: a reduced system plus the elimination record."""

    original_n_vars: int
    fixed_values: dict[int, float]
    free_vars: np.ndarray
    system: ConstraintSystem

    @property
    def n_free(self) -> int:
        """Number of variables still to optimize."""
        return int(self.free_vars.size)

    @property
    def mass_removed(self) -> float:
        """Total probability mass assigned by presolve."""
        return float(sum(self.fixed_values.values()))

    def restore(self, p_reduced: np.ndarray) -> np.ndarray:
        """Lift a reduced solution back to the original variable space."""
        if p_reduced.shape != (self.n_free,):
            raise ValueError(
                f"expected a solution of length {self.n_free}, "
                f"got shape {p_reduced.shape}"
            )
        full = np.zeros(self.original_n_vars)
        for var, value in self.fixed_values.items():
            full[var] = value
        full[self.free_vars] = p_reduced
        return full


class _FixedPoint(NamedTuple):
    """What the fixed point leaves of a flat CSR: fixes and surviving rows."""

    #: Fixed variables and their values, in fix order (round, then row).
    fixed_vars: np.ndarray
    fixed_values: np.ndarray
    is_fixed: np.ndarray
    #: Rows that survive (not consumed, not dropped as a duplicate).
    keep: np.ndarray
    #: Entries of the surviving rows that reference a free variable.
    kept_entry: np.ndarray
    #: Live entries per row and the right-hand sides after substitution.
    lengths: np.ndarray
    rhs: np.ndarray


def presolve(system: ConstraintSystem) -> PresolveResult:
    """Run the reductions to a fixed point and return the reduced problem."""
    n_vars = system.n_vars
    eq = system.equality_arrays()
    ineq = system.inequality_arrays()
    n_eq = eq.n_rows
    n_rows = n_eq + ineq.n_rows
    rows = StackedRows.of_system(system)
    indptr, indices, coefficients = rows.indptr, rows.indices, rows.coefficients
    labels = eq.labels + ineq.labels
    state = _fixed_point(
        n_vars,
        indptr,
        indices,
        coefficients,
        rows.rhs.copy(),
        np.arange(n_rows) < n_eq,
        labels.__getitem__,
    )
    if not state.fixed_vars.size and state.keep.all():
        return PresolveResult(
            original_n_vars=n_vars,
            fixed_values={},
            free_vars=np.arange(n_vars, dtype=np.int64),
            system=system,
        )

    free_vars = (~state.is_fixed).nonzero()[0]
    # Old -> reduced index remap; surviving entries reference free
    # variables only (fixed ones were substituted out), so the gather below
    # never reads a fixed variable's slot.
    remap = np.cumsum(~state.is_fixed) - 1
    kind_codes = np.concatenate((eq.kind_codes, ineq.kind_codes))
    reduced = ConstraintSystem(int(free_vars.size))
    for lo, hi, append_batch in (
        (0, n_eq, reduced.add_equalities),
        (n_eq, n_rows, reduced.add_inequalities),
    ):
        kept = state.keep[lo:hi].nonzero()[0] + lo
        if kept.size == 0:
            continue
        entries = state.kept_entry[indptr[lo] : indptr[hi]].nonzero()[0]
        entries += indptr[lo]
        kept_indptr = np.zeros(kept.size + 1, dtype=np.int64)
        np.cumsum(state.lengths[kept], out=kept_indptr[1:])
        append_batch(
            kept_indptr,
            remap[indices[entries]],
            coefficients[entries],
            state.rhs[kept],
            kinds=kind_codes[kept],
            labels=labels.take(kept),
            validate=False,
        )
    return PresolveResult(
        original_n_vars=n_vars,
        fixed_values=dict(
            zip(state.fixed_vars.tolist(), state.fixed_values.tolist())
        ),
        free_vars=free_vars,
        system=reduced,
    )


@dataclass
class StackedPresolve:
    """Presolve of many independent systems, run once on their stack.

    The systems become the diagonal blocks of one flat CSR: block ``k``
    owns the stacked variables ``[var_indptr[k], var_indptr[k + 1])`` and
    its rows in its own order, equalities first.  Rows never reach across
    blocks, so each round of the fixed point on the stack is the union of
    the per-block rounds: every block's fixes, fix order, substituted
    right-hand sides and surviving rows equal :func:`presolve`'s on that
    block alone, bit for bit.

    Per-block results are the ``*_indptr`` segments of the flat fields.
    The surviving rows keep the stack's order (so each block's are its
    equalities, then its inequalities) and index the variables left to
    optimize, numbered across the whole stack.
    """

    var_indptr: np.ndarray
    #: Fixed stacked variables and their values, grouped by block, each
    #: block's in its own fix order.
    fixed_indptr: np.ndarray
    fixed_vars: np.ndarray
    fixed_values: np.ndarray
    #: Per block, its fixed values summed in fix order (as
    #: :attr:`PresolveResult.mass_removed`).
    mass_removed: list[float]
    #: The stacked variables left to optimize, ascending.
    free_indptr: np.ndarray
    free_vars: np.ndarray
    #: The surviving rows (stacked row ids) and their reduced CSR.
    row_indptr: np.ndarray
    kept_rows: np.ndarray
    n_equalities: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray
    rhs: np.ndarray

    @property
    def fixed_counts(self) -> np.ndarray:
        """Variables presolve fixed, per block."""
        return np.diff(self.fixed_indptr)

    @property
    def free_counts(self) -> np.ndarray:
        """Variables left to optimize, per block."""
        return np.diff(self.free_indptr)

    def lift(self, p_free: np.ndarray) -> np.ndarray:
        """Lift a solution over the free variables to the whole stack."""
        full = np.zeros(int(self.var_indptr[-1]))
        full[self.fixed_vars] = self.fixed_values
        full[self.free_vars] = p_free
        return full


def presolve_stack(stack: ComponentStack, positions) -> StackedPresolve:
    """Presolve the stack's components at ``positions`` once, as blocks.

    The blocks' rows are gathered straight from the stack, each block's
    equalities, then its inequalities.  An infeasibility names its row and
    the block-local variable index, so its message is the one
    :func:`presolve` gives on that component's own system.
    """
    positions = np.asarray(positions, dtype=np.int64)
    n_blocks = positions.size
    rows = stack.rows(positions)
    var_counts = stack.var_counts[positions]
    var_indptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(var_counts, out=var_indptr[1:])
    row_block = np.repeat(np.arange(n_blocks), np.diff(rows.row_indptr))
    indices = rows.indices + np.repeat(
        var_indptr[:-1][row_block], np.diff(rows.indptr)
    )
    is_eq = rows.is_equality()
    state = _fixed_point(
        int(var_indptr[-1]),
        rows.indptr,
        indices,
        rows.coefficients,
        rows.rhs.copy(),
        is_eq,
        lambda row: stack.label(rows.rows[row]),
        var_indptr,
    )
    var_block = np.repeat(np.arange(n_blocks), var_counts)
    fixed_block = var_block[state.fixed_vars]
    order = np.argsort(fixed_block, kind="stable")
    fixed_values = state.fixed_values[order]
    fixed_indptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(fixed_block, minlength=n_blocks), out=fixed_indptr[1:])
    # Python's sum over Python floats, in each block's fix order: the
    # very additions ``PresolveResult.mass_removed`` makes.
    values = fixed_values.tolist()
    bounds = fixed_indptr.tolist()
    mass_removed = [
        float(sum(values[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]

    free = ~state.is_fixed
    free_indptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(var_block[free], minlength=n_blocks), out=free_indptr[1:])
    kept_rows = state.keep.nonzero()[0]
    kept_block = row_block[kept_rows]
    row_indptr = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_block, minlength=n_blocks), out=row_indptr[1:])
    kept_indptr = np.zeros(kept_rows.size + 1, dtype=np.int64)
    np.cumsum(state.lengths[kept_rows], out=kept_indptr[1:])
    entries = state.kept_entry.nonzero()[0]
    return StackedPresolve(
        var_indptr=var_indptr,
        fixed_indptr=fixed_indptr,
        fixed_vars=state.fixed_vars[order],
        fixed_values=fixed_values,
        mass_removed=mass_removed,
        free_indptr=free_indptr,
        free_vars=free.nonzero()[0],
        row_indptr=row_indptr,
        kept_rows=kept_rows,
        n_equalities=np.bincount(
            kept_block[is_eq[kept_rows]], minlength=n_blocks
        ),
        indptr=kept_indptr,
        indices=(np.cumsum(free) - 1)[indices[entries]],
        coefficients=rows.coefficients[entries],
        rhs=state.rhs[kept_rows],
    )


def _fixed_point(
    n_vars: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    coefficients: np.ndarray,
    rhs: np.ndarray,
    is_eq: np.ndarray,
    label: Callable[[int], str],
    var_indptr: np.ndarray | None = None,
) -> _FixedPoint:
    """Run the reductions on one flat CSR (``rhs`` is updated in place).

    ``var_indptr`` splits the variables into blocks; an infeasibility
    names a variable by its index within its block.
    """
    n_rows = rhs.size
    lengths = indptr[1:] - indptr[:-1]
    row_of = np.repeat(np.arange(n_rows), lengths)

    live = np.ones(n_rows, dtype=bool)
    live_entry = np.ones(indices.size, dtype=bool)
    is_fixed = np.zeros(n_vars, dtype=bool)
    value_of = np.zeros(n_vars)
    fixed_vars: list[np.ndarray] = []
    fixed_values: list[np.ndarray] = []
    # Every reduction needs a short row or an rhs <= tol: the first round
    # examines every row, each later one the rows the substitution touched.
    # (np.count_nonzero is the truth test: on small masks it costs a
    # quarter of ndarray.any.)
    active = (lengths <= 1) | (rhs <= _TOL)
    while np.count_nonzero(active):
        zero_rhs = np.abs(rhs) <= _TOL
        empty = active & (lengths == 0)
        pin = active & is_eq & (lengths == 1)
        infeasible = empty & np.where(is_eq, ~zero_rhs, rhs < -_TOL)
        zeroes = np.zeros(n_rows, dtype=bool)
        # Reductions 3-4 and the inequality bound read the signs of a
        # row's live coefficients, and only fire at rhs <= tol on rows
        # with at least two entries (equalities: one is a pin) or one
        # (inequalities).
        signed = active & (rhs <= _TOL) & (lengths > is_eq)
        if np.count_nonzero(signed):
            entries = (live_entry & signed[row_of]).nonzero()[0]
            rows = row_of[entries]
            signs = coefficients[entries]
            n_positive = np.bincount(rows[signs > _TOL], minlength=n_rows)
            n_negative = np.bincount(rows[signs < -_TOL], minlength=n_rows)
            all_positive = signed & ~is_eq & (n_positive == lengths)
            zeroes = signed & zero_rhs & (
                all_positive | (is_eq & ((n_positive > 0) != (n_negative > 0)))
            )
            infeasible |= all_positive & (rhs < -_TOL)
        consumed = pin | zeroes
        if not np.count_nonzero(empty | consumed | infeasible):
            break

        entries = (live_entry & consumed[row_of]).nonzero()[0]
        rows = row_of[entries]
        variables = indices[entries]
        values = np.zeros(entries.size)
        pins = pin[rows]
        values[pins] = rhs[rows[pins]] / coefficients[entries[pins]]
        out_of_range = (values < -_TOL) | (values > 1.0 + 1e-9)
        forced, values = values, np.minimum(np.maximum(values, 0.0), 1.0)
        # A variable fixed twice in one round keeps its first value, which
        # the later fixes must match.
        first = np.ones(entries.size, dtype=bool)
        conflict = np.zeros(entries.size, dtype=bool)
        if np.count_nonzero(np.bincount(variables, minlength=n_vars) > 1):
            _, first_at, inverse = np.unique(
                variables, return_index=True, return_inverse=True
            )
            first_value = values[first_at][inverse]
            conflict = np.abs(values - first_value) > 1e-8
            first = np.zeros(entries.size, dtype=bool)
            first[first_at] = True

        bad = infeasible.copy()
        bad[rows[out_of_range | conflict]] = True
        if np.count_nonzero(bad):
            row = int(np.argmax(bad))
            name = label(row)
            if lengths[row] == 0:
                relation = "=" if is_eq[row] else "<="
                raise InfeasibleKnowledgeError(
                    f"constraint {name!r} reduces to 0 {relation} "
                    f"{rhs[row]:.3e}"
                )
            if infeasible[row]:
                raise InfeasibleKnowledgeError(
                    f"constraint {name!r} bounds a non-negative sum "
                    f"above by {rhs[row]:.3e}"
                )
            at = ((rows == row) & (out_of_range | conflict)).nonzero()[0][0]
            if out_of_range[at]:
                raise InfeasibleKnowledgeError(
                    f"constraint {name!r} forces P = {forced[at]:.3e}, "
                    "outside [0, 1]"
                )
            var = variables[at]
            if var_indptr is not None:
                var -= var_indptr[np.searchsorted(var_indptr, var, "right") - 1]
            raise InfeasibleKnowledgeError(
                f"constraint {name!r} forces variable {var} to "
                f"{values[at]:.3e}, but it was already fixed to "
                f"{first_value[at]:.3e}"
            )
        live &= ~(empty | consumed)
        if entries.size == 0:
            break

        new_vars, new_values = variables[first], values[first]
        fixed_vars.append(new_vars)
        fixed_values.append(new_values)
        is_fixed[new_vars] = True
        value_of[new_vars] = new_values
        hit = (live_entry & is_fixed[indices]).nonzero()[0]
        live_entry[hit] = False
        hit_rows = row_of[hit]
        np.subtract.at(rhs, hit_rows, coefficients[hit] * value_of[indices[hit]])
        lengths -= np.bincount(hit_rows, minlength=n_rows)
        touched = np.zeros(n_rows, dtype=bool)
        touched[hit_rows] = True
        active = live & touched & ((lengths <= 1) | (rhs <= _TOL))

    keep = live & ~_duplicates(
        (live & is_eq).nonzero()[0], lengths, row_of, indices, coefficients,
        rhs, live_entry, label,
    )
    return _FixedPoint(
        fixed_vars=np.concatenate(fixed_vars) if fixed_vars else _EMPTY,
        fixed_values=(
            np.concatenate(fixed_values) if fixed_values else _EMPTY_F
        ),
        is_fixed=is_fixed,
        keep=keep,
        kept_entry=live_entry & keep[row_of],
        lengths=lengths,
        rhs=rhs,
    )


def _duplicates(
    rows, lengths, row_of, indices, coefficients, rhs, live_entry, label
) -> np.ndarray:
    """Mask of the ``rows`` whose live left side repeats an earlier row's.

    Left sides compare as their index-sorted (index, coefficient) pairs,
    coefficients rounded to 12 digits.  A repeat whose rhs differs from
    the first row's by more than round-off is infeasible.
    """
    duplicate = np.zeros(rhs.size, dtype=bool)
    # Equal left sides have equal sums of squared indices (reduced mod a
    # prime, so the float sums are exact in any order): only rows sharing
    # that sum with another row are compared entry by entry.
    hash_sums = np.bincount(
        row_of[live_entry],
        weights=indices[live_entry] ** 2 % 1000003,
        minlength=rhs.size,
    )[rows]
    order = np.argsort(hash_sums)
    sorted_sums = hash_sums[order]
    same = sorted_sums[1:] == sorted_sums[:-1]
    if not np.count_nonzero(same):
        return duplicate
    shared = np.zeros(rows.size, dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    rows = np.sort(rows[order[shared]])

    in_rows = np.zeros(rhs.size, dtype=bool)
    in_rows[rows] = True
    entries = (live_entry & in_rows[row_of]).nonzero()[0]
    entries = entries[np.lexsort((indices[entries], row_of[entries]))]
    index_bytes = indices[entries].tobytes()
    coeff_bytes = np.round(coefficients[entries], 12).tobytes()
    seen: dict[tuple[bytes, bytes], float] = {}
    end = 0
    for row, length in zip(rows.tolist(), lengths[rows].tolist()):
        start, end = end, end + 8 * length
        key = (index_bytes[start:end], coeff_bytes[start:end])
        if key not in seen:
            seen[key] = rhs[row]
            continue
        if abs(seen[key] - rhs[row]) > 1e-9:
            raise InfeasibleKnowledgeError(
                f"constraints conflict: row {label(row)!r} duplicates "
                f"another row's left side with a different value "
                f"({rhs[row]:.3e} vs {seen[key]:.3e})"
            )
        duplicate[row] = True
    return duplicate
