"""The Lagrangian dual of the constrained MaxEnt program (Section 3.3).

Primal:  maximize  H(p) = -sum p ln p
         subject to  A p = c   (equality rows: invariants + knowledge)
                     G p <= d  (inequality rows: vague knowledge)
                     p >= 0,  with total mass  sum p = M  implied by the
                     QI/person partition rows.

The stationarity condition gives the exponential family
``p_t proportional to exp(theta_t)`` with ``theta = -(A^T lambda +
G^T mu)`` and ``mu >= 0`` (Kazama-Tsujii sign convention for the
inequality multipliers).  Normalizing to mass ``M`` yields the smooth
convex dual

    f(lambda, mu) = M * logsumexp(theta) + lambda . c + mu . d,

whose gradient is ``(c - A p, d - G p)`` — i.e. the negated constraint
residual — making L-BFGS(-B) the natural solver, exactly as the paper
implements with Nocedal's package.  The log-sum-exp keeps the evaluation
overflow-free regardless of multiplier magnitudes.

One class evaluates every dual.  Independent duals stack into one
*block-diagonal* dual, the sum of the blocks' objectives, held as a
:class:`DualStack` of flat CSR arrays plus block offsets; a lone
component's dual is a one-block stack (:func:`build_dual`).
:class:`StackedDual` evaluates a stack: every per-block reduction
(logsumexp/softmax, residual maxima, Hessian inner products) is a
segment reduction over the block offsets, whose non-empty starts it
finds once per stack.  On a one-block stack it uses the plain
reductions instead (``.sum()``, ``.max()``, ``p @ w``, and
``p = M w / sum(w)``): ``reduceat`` adds sequentially where ``.sum()``
adds pairwise, and the plain forms are the arithmetic a lone
component's dual has always had, so its solves stay bit for bit what
earlier versions of this package returned.

Evaluations multiply by the stacked matrix ``R = [A; G]`` and by its
transpose.  :class:`StackedDual` builds ``R^T`` as a CSR matrix once
(``matrix.T.tocsr()``): ``matrix.T @ x`` would build a fresh CSC view
per call, which costs more than the product itself on the duals this
package solves.  The CSR transpose adds each entry's terms in the same
order as that CSC product, so the results are bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.maxent.constraints import ConstraintSystem

__all__ = ["DualStack", "StackedDual", "build_dual"]


class _Segments:
    """Consecutive segments given by CSR offsets, ready for ``reduceat``.

    ``np.ufunc.reduceat`` treats an empty segment (a start equal to the
    next start) as a length-1 segment holding the *next* segment's first
    element — silently wrong.  Reducing over the starts of the non-empty
    segments only gives exactly their values; empty segments take
    ``fill``.  Those starts are found here once, not on every reduction.
    """

    def __init__(self, indptr: np.ndarray) -> None:
        self.counts = np.diff(indptr)
        self.nonempty = self.counts > 0
        self.starts = indptr[:-1][self.nonempty]
        self.dense = bool(self.nonempty.all())

    def reduce(
        self, ufunc: np.ufunc, values: np.ndarray, fill: float = 0.0
    ) -> np.ndarray:
        """``ufunc`` over each segment of ``values``."""
        if self.dense and self.starts.size:
            return ufunc.reduceat(values, self.starts)
        out = np.full(self.counts.size, fill)
        if self.starts.size:
            out[self.nonempty] = ufunc.reduceat(values, self.starts)
        return out


def _softmax_parts(
    theta: np.ndarray, segments: _Segments, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment mass-scaled softmax and logsumexp of ``theta``.

    Returns ``(p, logsumexp)`` where segment ``k`` of ``p`` is
    ``masses[k] * softmax(theta[k])`` and ``logsumexp[k]`` is the
    shift-stable log of segment ``k``'s exp-sum — the two quantities one
    stacked dual evaluation needs.
    """
    shift = segments.reduce(np.maximum, theta)
    weights = np.exp(theta - np.repeat(shift, segments.counts))
    totals = segments.reduce(np.add, weights)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = np.repeat(masses / safe, segments.counts) * weights
    with np.errstate(divide="ignore"):
        logsumexp = shift + np.log(totals)
    return p, logsumexp


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR-style offsets of consecutive segments of ``counts`` items."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass
class DualStack:
    """Independent duals as one block-diagonal CSR of flat arrays.

    Block ``k`` owns the rows ``[row_indptr[k], row_indptr[k + 1])`` —
    its ``n_equalities[k]`` equalities, then its inequalities — and the
    columns ``[var_indptr[k], var_indptr[k + 1])``, with mass
    ``masses[k]``.  Kept scipy-free so that stacking thousands of blocks,
    or selecting some of them, costs a few gathers rather than a
    sparse-matrix build per block.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    row_indptr: np.ndarray
    var_indptr: np.ndarray
    n_equalities: np.ndarray
    masses: np.ndarray

    @property
    def n_blocks(self) -> int:
        return int(self.masses.size)

    @property
    def row_counts(self) -> np.ndarray:
        """Dual parameters (rows) per block."""
        return np.diff(self.row_indptr)

    @property
    def var_counts(self) -> np.ndarray:
        """Primal variables per block."""
        return np.diff(self.var_indptr)

    def select(self, mask: np.ndarray) -> "DualStack":
        """The stack of the blocks ``mask`` picks, in order."""
        if np.all(mask):
            return self
        row_counts = self.row_counts
        var_counts = self.var_counts
        rows = np.repeat(mask, row_counts)
        lengths = np.diff(self.indptr)[rows]
        entries = np.repeat(rows, np.diff(self.indptr))
        # Old column -> new column: the kept blocks' columns renumbered
        # contiguously (dropped columns are never referenced).
        columns = np.cumsum(np.repeat(mask, var_counts)) - 1
        return DualStack(
            indptr=_offsets(lengths),
            indices=columns[self.indices[entries]],
            data=self.data[entries],
            rhs=self.rhs[rows],
            row_indptr=_offsets(row_counts[mask]),
            var_indptr=_offsets(var_counts[mask]),
            n_equalities=self.n_equalities[mask],
            masses=self.masses[mask],
        )

    def residual_scales(self) -> np.ndarray:
        """Per-block normalizers of relative residuals.

        A block's natural rhs magnitude: its largest ``|rhs|``, floored
        at its mass per variable; a block with no rows takes its mass.
        """
        rows = _Segments(self.row_indptr)
        rhs_max = rows.reduce(np.maximum, np.abs(self.rhs))
        per_var = self.masses / np.maximum(self.var_counts, 1)
        scales = np.maximum(np.maximum(rhs_max, per_var), 1e-12)
        return np.where(
            self.row_counts > 0, scales, np.maximum(self.masses, 1e-12)
        )

    def inequality_rows(self) -> np.ndarray:
        """Mask of the stacked rows that are inequalities."""
        row_counts = self.row_counts
        local = np.arange(int(self.row_indptr[-1])) - np.repeat(
            self.row_indptr[:-1], row_counts
        )
        return local >= np.repeat(self.n_equalities, row_counts)


class StackedDual:
    """The evaluation surface of a :class:`DualStack`.

    ``value_and_grad``, ``primal`` and ``hess_vec`` act on the stacked
    multipliers; ``block_residuals`` and ``converged_mask`` report per
    block.  ``bounds`` is the L-BFGS-B box (equality multipliers free,
    inequality ones ``>= 0``), or ``None`` when there are no
    inequalities, and ``scales`` the per-block residual normalizers.
    """

    def __init__(self, stack: DualStack) -> None:
        import scipy.sparse as sp
        from scipy.optimize import Bounds

        self.row_indptr = stack.row_indptr
        self.var_indptr = stack.var_indptr
        self.row_counts = stack.row_counts
        self.masses = stack.masses
        self.rhs = stack.rhs
        self.n_params = int(stack.row_indptr[-1])
        self.matrix = sp.csr_matrix(
            (stack.data, stack.indices, stack.indptr),
            shape=(self.n_params, int(stack.var_indptr[-1])),
        )
        self.transpose = self.matrix.T.tocsr()
        # A lone block's mass, which selects the plain reductions.
        self._mass = float(stack.masses[0]) if stack.n_blocks == 1 else None
        self._vars = _Segments(stack.var_indptr)

        ineq_mask = stack.inequality_rows()
        self._ineq_mask = ineq_mask
        self.n_inequalities = int(np.count_nonzero(ineq_mask))
        # Within a block rows are [equalities; inequalities], so each
        # family is one contiguous sub-segment of the block's rows.  A
        # family's segments run from its start in one block to its start
        # in the next; the other family's rows in between are zeroed
        # before the maxima, which never changes them (violations are
        # non-negative).
        starts = self.row_indptr[:-1]
        split = starts + stack.n_equalities
        self._eq_rows = _Segments(np.append(starts, split[-1:]))
        self._ineq_rows = _Segments(np.append(split, self.row_indptr[-1:]))
        if self.n_inequalities:
            lower = np.where(ineq_mask, 0.0, -np.inf)
            self.bounds = Bounds(lower, np.full(lower.size, np.inf))
        else:
            self.bounds = None
        self.scales = stack.residual_scales()

    # -- evaluation ----------------------------------------------------------

    def _softmax(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """(stacked primal point, ``sum_k M_k logsumexp(theta_k)``)."""
        theta = -(self.transpose @ x)
        if self._mass is not None:
            shift = theta.max()
            weights = np.exp(theta - shift)
            total = weights.sum()
            p = self._mass * weights / total
            return p, self._mass * float(shift + np.log(total))
        p, logsumexps = _softmax_parts(theta, self._vars, self.masses)
        return p, float(self.masses @ logsumexps)

    def primal(self, x: np.ndarray) -> np.ndarray:
        """The stacked primal point (every block's ``M_k softmax``)."""
        return self._softmax(x)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Dual objective and gradient (the negated residual).

        One ``theta`` matvec and one softmax serve both the objective and
        the gradient — the dominant per-iteration cost is the two sparse
        matvecs (``R^T x`` and ``R p``), not four.
        """
        p, log_partition = self._softmax(x)
        value = log_partition + float(x @ self.rhs)
        grad = self.rhs - self.matrix @ p
        return value, grad

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product of the dual at multipliers ``x``.

        Block ``k``'s Hessian is ``R_k (diag(p_k) - p_k p_k^T / M_k)
        R_k^T`` — two sparse matvecs per product, which makes Newton-CG
        polishing cheap and is how the solver pushes the residual past
        the point where L-BFGS stalls on ill-conditioned (near-collinear
        knowledge) systems.
        """
        p = self.primal(x)
        w = self.transpose @ v
        rp = self.matrix @ p
        if self._mass is not None:
            return self.matrix @ (p * w) - rp * (float(p @ w) / self._mass)
        pw = self._vars.reduce(np.add, p * w)
        return self.matrix @ (p * w) - rp * np.repeat(
            pw / self.masses, self.row_counts
        )

    def block_residuals(
        self, p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-block (worst equality, worst inequality) violations."""
        diff = self.matrix @ p - self.rhs
        eq_violation = np.abs(diff)
        eq_violation[self._ineq_mask] = 0.0
        ineq_violation = np.where(
            self._ineq_mask, np.clip(diff, 0.0, None), 0.0
        )
        return (
            self._eq_rows.reduce(np.maximum, eq_violation),
            self._ineq_rows.reduce(np.maximum, ineq_violation),
        )

    def converged_mask(self, p: np.ndarray, tol: float) -> np.ndarray:
        """Which blocks meet their own relative residual target at ``p``."""
        eq, ineq = self.block_residuals(p)
        return np.maximum(eq, ineq) <= tol * self.scales


def build_dual(system: ConstraintSystem, mass: float) -> DualStack:
    """A (component-local) system's dual as a one-block :class:`DualStack`.

    The block's rows are the system's equalities, then its inequalities.
    """
    if mass <= 0:
        raise ReproError(f"component mass must be positive, got {mass}")
    eq = system.equality_arrays()
    ineq = system.inequality_arrays()
    n_rows = system.n_equalities + system.n_inequalities
    return DualStack(
        indptr=np.concatenate([eq.indptr, ineq.indptr[1:] + eq.indptr[-1]]),
        indices=np.concatenate([eq.indices, ineq.indices]),
        data=np.concatenate([eq.coefficients, ineq.coefficients]),
        rhs=np.concatenate([eq.rhs, ineq.rhs]),
        row_indptr=np.array([0, n_rows], dtype=np.int64),
        var_indptr=np.array([0, system.n_vars], dtype=np.int64),
        n_equalities=np.array([system.n_equalities], dtype=np.int64),
        masses=np.array([float(mass)]),
    )
