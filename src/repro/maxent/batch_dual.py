"""Batched block-diagonal dual solver: one vectorized loop, many blocks.

Section 5.5's decomposition makes Privacy-MaxEnt tractable but leaves
the hot path as thousands of *tiny* independent dual programs, each
paying a full ``scipy.optimize.minimize`` dispatch (argument packing,
Fortran setup, one Python callback per iteration).  For worst-case
background knowledge — one distinct statement per bucket, the Martin et
al. adversarial sweeps — that per-component overhead dominates the cold
solve the way row-wise construction dominated the build before the
array-native rewrite.

The cure is the same as it was for construction: stop iterating in
Python.  Independent duals stack into one *block-diagonal* dual

    minimize  sum_k [ M_k * logsumexp(theta_k) + x_k . rhs_k ],
    theta_k = -(R_k^T x_k),

held as one :class:`DualStack` of flat CSR arrays plus block offsets
(the engine builds it straight from a batch group's stacked presolve;
no per-block objects) and assembled as one CSR matrix, so every L-BFGS
iteration evaluates all
blocks with two sparse matvecs plus segment-wise logsumexp/softmax
(``np.ufunc.reduceat`` over the block offsets).  One optimizer call
replaces N.

Because the objective is separable, the joint optimum *is* the tuple of
per-block optima; only the iteration trajectory couples blocks (L-BFGS
curvature pairs and the line search are shared).  The loop therefore
runs in *rounds* with per-component convergence masking: after each
L-BFGS leg (and a stacked Newton-CG polish when the active blocks are
equality-only), every block's residual is checked against its own
tolerance, converged blocks freeze — their multipliers are final, they
leave the stacked problem — and only stragglers iterate on.  Blocks
still unconverged after the round budget fall back to their own
:func:`~repro.maxent.lbfgs.solve_dual_lbfgs` call, so the batched path
is never less robust than per-component dispatch.

Results agree with per-component solves within the solver tolerance,
not bit for bit: the stacked trajectory lands on a different
last-few-ulps point of the same optimum.  That tolerance is the one
reproducibility contract of every solve; ``batch_components=0`` opts
back into per-component dispatch.

The segment reductions themselves — per-block logsumexp/softmax,
residual maxima, Hessian inner products — are the guarded ``reduceat``
helpers below (:func:`segment_max`, :func:`segment_sum`, ...).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.maxent.dual import DualProblem
from repro.maxent.lbfgs import (
    DualSolveResult,
    solve_dual_lbfgs,
    usable_start,
)

__all__ = [
    "MAX_ROUNDS",
    "BatchDualResult",
    "DualStack",
    "segment_max",
    "segment_min",
    "segment_sum",
    "solve_batch_dual",
]

#: L-BFGS legs (each with the full per-component iteration budget) the
#: round loop runs before stragglers fall back to per-component solves.
MAX_ROUNDS = 3


def _guarded_reduceat(
    ufunc: np.ufunc,
    values: np.ndarray,
    indptr: np.ndarray,
    fill: float,
) -> np.ndarray:
    """Apply ``ufunc.reduceat`` per CSR segment; empty segments -> ``fill``.

    ``np.ufunc.reduceat`` treats an empty segment (a start equal to the
    next start) as a length-1 segment holding the *next* segment's first
    element — silently wrong.  Dropping the starts of empty segments
    leaves exactly the non-empty segment boundaries, and the dropped
    segments take ``fill`` instead.
    """
    n_segments = indptr.size - 1
    out = np.full(n_segments, fill)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size and bool(nonempty.any()):
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


def segment_max(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment maxima; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.maximum, values, indptr, fill)


def segment_min(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment minima; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.minimum, values, indptr, fill)


def segment_sum(
    values: np.ndarray, indptr: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment sums; empty segments contribute ``fill``."""
    return _guarded_reduceat(np.add, values, indptr, fill)


def _softmax_parts(
    theta: np.ndarray,
    var_indptr: np.ndarray,
    var_counts: np.ndarray,
    masses: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment mass-scaled softmax and logsumexp of ``theta``.

    Returns ``(p, logsumexp)`` where segment ``k`` of ``p`` is
    ``masses[k] * softmax(theta[k])`` and ``logsumexp[k]`` is the
    shift-stable log of segment ``k``'s exp-sum — the two quantities one
    stacked dual evaluation needs.
    """
    shift = segment_max(theta, var_indptr)
    weights = np.exp(theta - np.repeat(shift, var_counts))
    totals = segment_sum(weights, var_indptr)
    safe = np.where(totals > 0.0, totals, 1.0)
    p = np.repeat(masses / safe, var_counts) * weights
    with np.errstate(divide="ignore"):
        logsumexp = shift + np.log(totals)
    return p, logsumexp


@dataclass
class DualStack:
    """Many independent duals as one block-diagonal CSR of flat arrays.

    Block ``k`` owns the rows ``[row_indptr[k], row_indptr[k + 1])`` —
    its ``n_equalities[k]`` equalities, then its inequalities, matching
    ``build_dual`` — and the columns ``[var_indptr[k], var_indptr[k + 1])``.
    Kept scipy-free so that stacking thousands of blocks, or selecting
    some of them, costs a few gathers rather than a sparse-matrix build
    per block.
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
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # Old column -> new column: the kept blocks' columns renumbered
        # contiguously (dropped columns are never referenced).
        columns = np.cumsum(np.repeat(mask, var_counts)) - 1
        return DualStack(
            indptr=indptr,
            indices=columns[self.indices[entries]],
            data=self.data[entries],
            rhs=self.rhs[rows],
            row_indptr=_offsets(row_counts[mask]),
            var_indptr=_offsets(var_counts[mask]),
            n_equalities=self.n_equalities[mask],
            masses=self.masses[mask],
        )

    def block(self, k: int) -> DualProblem:
        """Block ``k`` as its own :class:`DualProblem` (built from slices)."""
        import scipy.sparse as sp

        lo, hi = int(self.row_indptr[k]), int(self.row_indptr[k + 1])
        start, stop = int(self.indptr[lo]), int(self.indptr[hi])
        n_vars = int(self.var_indptr[k + 1] - self.var_indptr[k])
        matrix = sp.csr_matrix(
            (
                self.data[start:stop],
                self.indices[start:stop] - self.var_indptr[k],
                self.indptr[lo : hi + 1] - start,
            ),
            shape=(hi - lo, n_vars),
        )
        n_eq = int(self.n_equalities[k])
        return DualProblem(
            matrix=matrix,
            rhs=self.rhs[lo:hi],
            n_equalities=n_eq,
            n_inequalities=hi - lo - n_eq,
            mass=float(self.masses[k]),
        )

    def residual_scales(self) -> np.ndarray:
        """Per-block normalizers of relative residuals (as ``DualProblem``'s)."""
        rhs_max = segment_max(np.abs(self.rhs), self.row_indptr)
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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR-style offsets of consecutive segments of ``counts`` items."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass
class BatchDualResult:
    """Outcome of one batched solve, per block in input order."""

    results: list[DualSolveResult]
    #: L-BFGS rounds the stacked loop ran.
    rounds: int
    #: Blocks whose final multipliers came from the vectorized loop.
    batched: list[bool]
    #: Every block's primal point, stacked like the input's columns
    #: (each result's ``p`` is a view into it, or a straggler's own).
    p: np.ndarray


class _StackedDual:
    """The evaluation surface of a :class:`DualStack`.

    Mirrors :class:`DualProblem` (``value_and_grad``/``hess_vec``/
    ``primal``) over the stacked multipliers, with every per-block
    reduction a segment reduction over the block offsets.
    """

    def __init__(self, stack: DualStack) -> None:
        import scipy.sparse as sp
        from scipy.optimize import Bounds

        self.var_indptr = stack.var_indptr
        self.row_indptr = stack.row_indptr
        self.var_counts = stack.var_counts
        self.row_counts = stack.row_counts
        self.matrix = sp.csr_matrix(
            (stack.data, stack.indices, stack.indptr),
            shape=(int(self.row_indptr[-1]), int(self.var_indptr[-1])),
        )
        # Built once per stacked dual, like DualProblem.transpose.
        self.transpose = self.matrix.T.tocsr()
        self.rhs = stack.rhs
        self.masses = stack.masses

        ineq_mask = stack.inequality_rows()
        self.n_ineq_total = int(np.count_nonzero(ineq_mask))
        # Within a block rows are [equalities; inequalities], so the two
        # families are each one contiguous sub-segment of the block's
        # rows — encode them as (start, stop) pairs for segment maxima.
        starts = self.row_indptr[:-1]
        self._eq_bounds = (starts, starts + stack.n_equalities)
        self._ineq_bounds = (starts + stack.n_equalities, self.row_indptr[1:])
        self._ineq_mask = ineq_mask
        if self.n_ineq_total:
            lower = np.where(ineq_mask, 0.0, -np.inf)
            self.bounds = Bounds(lower, np.full(lower.size, np.inf))
        else:
            self.bounds = None
        self.scales = stack.residual_scales()

    # -- evaluation ----------------------------------------------------------

    def _softmax_parts(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(stacked primal point, per-block logsumexp)."""
        theta = -(self.transpose @ x)
        return _softmax_parts(
            theta, self.var_indptr, self.var_counts, self.masses
        )

    def primal(self, x: np.ndarray) -> np.ndarray:
        """The stacked primal point (every block's ``M_k softmax``)."""
        return self._softmax_parts(x)[0]

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Separable dual objective and gradient over all blocks."""
        p, logsumexps = self._softmax_parts(x)
        value = float(self.masses @ logsumexps) + float(x @ self.rhs)
        grad = self.rhs - self.matrix @ p
        return value, grad

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Block-diagonal Hessian-vector product (Newton-CG polish)."""
        p = self.primal(x)
        w = self.transpose @ v
        rp = self.matrix @ p
        pw = segment_sum(p * w, self.var_indptr)
        return self.matrix @ (p * w) - rp * np.repeat(
            pw / self.masses, self.row_counts
        )

    def block_residuals(
        self, p: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-block (worst equality, worst inequality) violations."""
        values = self.matrix @ p
        diff = values - self.rhs
        eq_violation = np.abs(diff)
        eq_violation[self._ineq_mask] = 0.0
        ineq_violation = np.where(
            self._ineq_mask, np.clip(diff, 0.0, None), 0.0
        )
        eq = self._segment_family_max(eq_violation, self._eq_bounds)
        ineq = self._segment_family_max(ineq_violation, self._ineq_bounds)
        return eq, ineq

    def _segment_family_max(
        self,
        values: np.ndarray,
        bounds: tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Per-block max of ``values`` over each block's family rows."""
        starts, stops = bounds
        indptr = np.empty(starts.size + 1, dtype=np.int64)
        indptr[:-1] = starts
        indptr[-1] = stops[-1] if stops.size else 0
        # Family segments are [start, stop) but reduceat segments run to
        # the next start; rows between stop and the next start belong to
        # the other family and were zeroed by the caller, so including
        # them never changes the max (violations are non-negative).
        return segment_max(values, indptr)

    def converged_mask(self, p: np.ndarray, tol: float) -> np.ndarray:
        """Which blocks meet their own relative residual target at ``p``."""
        eq, ineq = self.block_residuals(p)
        return np.maximum(eq, ineq) <= tol * self.scales


def solve_batch_dual(
    stack: DualStack,
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0s: Sequence[np.ndarray | None] | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> BatchDualResult:
    """Solve many independent duals as one block-diagonal program.

    ``stack`` holds one block per dual.  ``tol`` and ``max_iterations``
    mean exactly what they mean for
    :func:`~repro.maxent.lbfgs.solve_dual_lbfgs`: per-block
    relative residual target, and the L-BFGS iteration budget of one leg.
    Each round spends one leg on the still-active blocks; blocks
    converged at a round boundary freeze with their multipliers final.
    ``x0s`` optionally warm-starts individual blocks (``None`` entries
    start at zero; shape-mismatched vectors are ignored, a cold start is
    always correct).

    Blocks still unconverged after ``max_rounds`` legs (plus the
    Newton-CG polish available to equality-only actives) are re-solved
    individually — the fallback keeps worst-case robustness identical to
    per-component dispatch, and such blocks are reported with
    ``batched = False``.
    """
    from scipy.optimize import minimize

    n = stack.n_blocks
    row_counts = stack.row_counts
    var_counts = stack.var_counts
    x_all = np.zeros(int(stack.row_indptr[-1]))
    for k, candidate in enumerate(x0s or ()):
        candidate = usable_start(candidate, int(row_counts[k]))
        if candidate is not None:
            x_all[stack.row_indptr[k] : stack.row_indptr[k + 1]] = candidate

    iterations = np.zeros(n, dtype=np.int64)
    # Zero-row blocks (presolve can reduce a component to free variables
    # only, making the uniform point exact) have nothing to optimize.
    active = row_counts > 0

    rounds = 0
    while np.count_nonzero(active) and rounds < max_rounds:
        rounds += 1
        stacked = _StackedDual(stack.select(active))
        rows = np.repeat(active, row_counts)
        x = x_all[rows]
        if rounds == 1:
            # Blocks already at their optimum (converged warm starts)
            # freeze before any optimizer work.
            mask = stacked.converged_mask(stacked.primal(x), tol)
            if bool(mask.any()):
                active[active] = ~mask
                if not np.count_nonzero(active):
                    break
                stacked = _StackedDual(stack.select(active))
                rows = np.repeat(active, row_counts)
                x = x_all[rows]
        # The projected-gradient stop of the stacked problem must serve
        # its strictest block, hence the min scale (matching the
        # per-component gtol = tol * scale * 0.1).
        gtol = max(tol * float(stacked.scales.min()) * 0.1, 1e-15)
        result = minimize(
            stacked.value_and_grad,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=stacked.bounds,
            options={
                "maxiter": max_iterations,
                "maxfun": max_iterations * 4,
                "gtol": gtol,
                # The dual is flat along redundant-row directions; a
                # strict ftol would stop the whole stack early.
                "ftol": 1e-18,
            },
        )
        x = result.x
        iterations[active] += int(result.nit)

        if stacked.n_ineq_total == 0:
            mask = stacked.converged_mask(stacked.primal(x), tol)
            if not bool(mask.all()):
                # Stacked Newton-CG polish, exactly like the
                # per-component path: the block-diagonal Hessian-vector
                # product is two sparse matvecs plus one reduceat.
                polish = minimize(
                    stacked.value_and_grad,
                    x,
                    jac=True,
                    hessp=stacked.hess_vec,
                    method="Newton-CG",
                    options={
                        "maxiter": max(50, max_iterations // 10),
                        "xtol": 1e-14,
                    },
                )
                # Keep the polish per block only where it did not hurt.
                eq0, ineq0 = stacked.block_residuals(stacked.primal(x))
                eq1, ineq1 = stacked.block_residuals(
                    stacked.primal(polish.x)
                )
                better = np.maximum(eq1, ineq1) <= np.maximum(eq0, ineq0)
                keep = np.repeat(better, stacked.row_counts)
                x = np.where(keep, polish.x, x)
                iterations[active] += int(polish.nit)

        x_all[rows] = x
        mask = stacked.converged_mask(stacked.primal(x), tol)
        active[active] = ~mask

    # Stragglers: per-component fallback from the best stacked point.
    batched = ~active
    p_all = np.zeros(int(stack.var_indptr[-1]))
    fallback: dict[int, DualSolveResult] = {}
    for k in np.flatnonzero(active).tolist():
        dual = stack.block(k)
        solo = solve_dual_lbfgs(
            dual,
            tol=tol,
            max_iterations=max_iterations,
            x0=x_all[stack.row_indptr[k] : stack.row_indptr[k + 1]],
        )
        if not solo.converged:
            # The stacked trajectory can strand a block at an absurd
            # point (the joint line search mixes coordinates across
            # blocks, so a near-degenerate neighbor can fling a feasible
            # block's multipliers far out).  A cold solve is exactly
            # what per-component dispatch would have run — the batched
            # path must never do worse than that.
            cold = solve_dual_lbfgs(
                dual, tol=tol, max_iterations=max_iterations
            )
            if cold.relative_residual <= solo.relative_residual:
                solo = cold
        solo.iterations += int(iterations[k])
        p_all[stack.var_indptr[k] : stack.var_indptr[k + 1]] = solo.p
        fallback[k] = solo

    # Package every batched block in one final stacked evaluation: the
    # primal points, residuals and convergence flags all come from
    # segment reductions instead of per-block matvecs.
    results: list[DualSolveResult | None] = [None] * n
    if np.count_nonzero(batched):
        stacked = _StackedDual(stack.select(batched))
        x = x_all[np.repeat(batched, row_counts)]
        p = stacked.primal(x)
        eq, ineq = stacked.block_residuals(p)
        converged = np.maximum(eq, ineq) <= tol * stacked.scales
        p_all[np.repeat(batched, var_counts)] = p
        var_bounds = stack.var_indptr.tolist()
        row_bounds = stacked.row_indptr.tolist()
        spent = iterations.tolist()
        for position, (k, eq_k, ineq_k, scale, ok) in enumerate(
            zip(
                np.flatnonzero(batched).tolist(),
                eq.tolist(),
                ineq.tolist(),
                stacked.scales.tolist(),
                converged.tolist(),
            )
        ):
            results[k] = DualSolveResult(
                p=p_all[var_bounds[k] : var_bounds[k + 1]],
                iterations=spent[k],
                eq_residual=eq_k,
                ineq_residual=ineq_k,
                scale=scale,
                converged=ok,
                message="batched L-BFGS-B",
                multipliers=x[
                    row_bounds[position] : row_bounds[position + 1]
                ].copy(),
            )
    for k, solo in fallback.items():
        results[k] = solo
    assert all(result is not None for result in results)
    return BatchDualResult(
        results=results,  # type: ignore[arg-type]
        rounds=rounds,
        batched=batched.tolist(),
        p=p_all,
    )
