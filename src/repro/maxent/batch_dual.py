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

assembled as one CSR matrix straight from the blocks' flat arrays (no
per-block scipy objects), so every L-BFGS iteration evaluates all
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
last-few-ulps point of the same optimum.  That is the *tolerance*
replay contract (``MaxEntConfig.replay``) batching runs under by
default; ``replay="bitwise"`` opts back into per-component dispatch.

The segment reductions themselves — per-block logsumexp/softmax,
residual maxima, Hessian inner products — are the guarded ``reduceat``
helpers below (:func:`segment_max`, :func:`segment_sum`, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, minimize

from repro.maxent.constraints import ConstraintSystem
from repro.maxent.dual import DualProblem, build_dual
from repro.maxent.lbfgs import DualSolveResult, solve_dual_lbfgs

__all__ = [
    "MAX_ROUNDS",
    "BatchDualResult",
    "DualBlock",
    "block_from_dual",
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
class DualBlock:
    """One block's dual pieces as flat arrays (no scipy objects).

    The per-block analogue of :class:`~repro.maxent.dual.DualProblem`,
    kept scipy-free so stacking thousands of blocks costs concatenation,
    not thousands of sparse-matrix constructions.  Rows are ordered
    [equalities; inequalities], matching ``build_dual``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    n_equalities: int
    n_inequalities: int
    n_vars: int
    mass: float

    @property
    def n_params(self) -> int:
        """Number of dual parameters (one per row)."""
        return self.n_equalities + self.n_inequalities

    @classmethod
    def from_system(
        cls, system: ConstraintSystem, mass: float
    ) -> "DualBlock":
        """Assemble the block from a (component-local) system's arrays."""
        eq = system.equality_arrays()
        ineq = system.inequality_arrays()
        indptr = np.concatenate(
            [eq.indptr, ineq.indptr[1:] + eq.indptr[-1]]
        )
        return cls(
            indptr=indptr,
            indices=np.concatenate([eq.indices, ineq.indices]),
            data=np.concatenate([eq.coefficients, ineq.coefficients]),
            rhs=np.concatenate([eq.rhs, ineq.rhs]),
            n_equalities=eq.n_rows,
            n_inequalities=ineq.n_rows,
            n_vars=system.n_vars,
            mass=mass,
        )

    def residual_scale(self) -> float:
        """Normalizer for relative residuals (as ``DualProblem``'s)."""
        if self.rhs.size == 0:
            return max(self.mass, 1e-12)
        return float(
            max(
                np.abs(self.rhs).max(),
                self.mass / max(self.n_vars, 1),
                1e-12,
            )
        )

    def to_dual(self) -> DualProblem:
        """A real :class:`DualProblem` (the straggler-fallback bridge)."""
        matrix = sp.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.n_params, self.n_vars),
        )
        return DualProblem(
            matrix=matrix,
            rhs=self.rhs,
            n_equalities=self.n_equalities,
            n_inequalities=self.n_inequalities,
            mass=self.mass,
        )


def block_from_dual(dual: DualProblem) -> DualBlock:
    """The flat-array view of an assembled :class:`DualProblem`."""
    matrix = dual.matrix.tocsr()
    return DualBlock(
        indptr=np.asarray(matrix.indptr, dtype=np.int64),
        indices=np.asarray(matrix.indices, dtype=np.int64),
        data=np.asarray(matrix.data, dtype=float),
        rhs=dual.rhs,
        n_equalities=dual.n_equalities,
        n_inequalities=dual.n_inequalities,
        n_vars=dual.n_vars,
        mass=dual.mass,
    )


@dataclass
class BatchDualResult:
    """Outcome of one batched solve, per block in input order."""

    results: list[DualSolveResult]
    #: L-BFGS rounds the stacked loop ran.
    rounds: int
    #: Blocks whose final multipliers came from the vectorized loop.
    batched: list[bool]


class _StackedDual:
    """The block-diagonal stacking of a list of :class:`DualBlock`.

    Mirrors the evaluation surface of :class:`DualProblem`
    (``value_and_grad``/``hess_vec``/``primal``) but over the stacked
    multipliers, with every per-block reduction a segment reduction over
    the block offsets.  Assembly is pure
    concatenation: the blocks' CSR pieces line up into one CSR matrix
    after offsetting.
    """

    def __init__(self, blocks: list[DualBlock]) -> None:
        self.blocks = blocks
        n = len(blocks)
        var_counts = np.array([b.n_vars for b in blocks], dtype=np.int64)
        row_counts = np.array([b.n_params for b in blocks], dtype=np.int64)
        self.var_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(var_counts, out=self.var_indptr[1:])
        self.row_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_counts, out=self.row_indptr[1:])
        self.var_counts = var_counts
        self.row_counts = row_counts

        nnz = np.array([b.indices.size for b in blocks], dtype=np.int64)
        entry_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nnz, out=entry_offsets[1:])
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [b.indptr[1:] + entry_offsets[k] for k, b in enumerate(blocks)]
        )
        indices = (
            np.concatenate([b.indices for b in blocks])
            if n
            else np.empty(0, dtype=np.int64)
        )
        if n:
            indices = indices + np.repeat(self.var_indptr[:-1], nnz)
        data = (
            np.concatenate([b.data for b in blocks])
            if n
            else np.empty(0)
        )
        self.matrix = sp.csr_matrix(
            (data, indices, indptr),
            shape=(int(self.row_indptr[-1]), int(self.var_indptr[-1])),
        )
        self.rhs = (
            np.concatenate([b.rhs for b in blocks]) if n else np.empty(0)
        )
        self.masses = np.array([b.mass for b in blocks])

        n_eq = np.array([b.n_equalities for b in blocks], dtype=np.int64)
        self.n_ineq_total = int(row_counts.sum() - n_eq.sum())
        # Within a block rows are [equalities; inequalities], so the two
        # families are each one contiguous sub-segment of the block's
        # rows — encode them as (start, stop) pairs for segment maxima.
        starts = self.row_indptr[:-1]
        self._eq_bounds = (starts, starts + n_eq)
        self._ineq_bounds = (starts + n_eq, self.row_indptr[1:])
        ineq_mask = np.zeros(int(self.row_indptr[-1]), dtype=bool)
        for k in range(n):
            ineq_mask[self._ineq_bounds[0][k] : self._ineq_bounds[1][k]] = (
                True
            )
        self._ineq_mask = ineq_mask
        if self.n_ineq_total:
            lower = np.where(ineq_mask, 0.0, -np.inf)
            self.bounds = Bounds(lower, np.full(lower.size, np.inf))
        else:
            self.bounds = None
        self.scales = np.array([b.residual_scale() for b in blocks])

    @property
    def n_params(self) -> int:
        return int(self.row_indptr[-1])

    # -- evaluation ----------------------------------------------------------

    def _softmax_parts(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(stacked primal point, per-block logsumexp)."""
        theta = -(self.matrix.T @ x)
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
        w = self.matrix.T @ v
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

    # -- slicing -------------------------------------------------------------

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-block multiplier slices of a stacked vector."""
        return [
            x[self.row_indptr[k] : self.row_indptr[k + 1]]
            for k in range(len(self.blocks))
        ]

    def split_vars(self, p: np.ndarray) -> list[np.ndarray]:
        """Per-block primal slices of a stacked vector."""
        return [
            p[self.var_indptr[k] : self.var_indptr[k + 1]]
            for k in range(len(self.blocks))
        ]


def solve_batch_dual(
    blocks: list[DualBlock | DualProblem],
    *,
    tol: float = 1e-6,
    max_iterations: int = 1000,
    x0s: list[np.ndarray | None] | None = None,
    max_rounds: int = MAX_ROUNDS,
) -> BatchDualResult:
    """Solve many independent duals as one block-diagonal program.

    ``tol`` and ``max_iterations`` mean exactly what they mean for
    :func:`~repro.maxent.lbfgs.solve_dual_lbfgs`: per-block relative
    residual target, and the L-BFGS iteration budget of one leg.  Each
    round spends one leg on the still-active blocks; blocks converged at
    a round boundary freeze with their multipliers final.  ``x0s``
    optionally warm-starts individual blocks (``None`` entries start at
    zero; shape-mismatched vectors are ignored, a cold start is always
    correct).

    Blocks still unconverged after ``max_rounds`` legs (plus the
    Newton-CG polish available to equality-only actives) are re-solved
    individually — the fallback keeps worst-case robustness identical to
    per-component dispatch, and such blocks are reported with
    ``batched = False``.
    """
    blocks = [
        block if isinstance(block, DualBlock) else block_from_dual(block)
        for block in blocks
    ]
    n = len(blocks)
    if n == 0:
        return BatchDualResult(results=[], rounds=0, batched=[])
    if x0s is None:
        x0s = [None] * n

    iterations = np.zeros(n, dtype=np.int64)
    batched = [True] * n

    def starting_point(k: int) -> np.ndarray:
        candidate = x0s[k]
        if candidate is not None:
            candidate = np.asarray(candidate, dtype=float)
            if candidate.shape == (blocks[k].n_params,) and bool(
                np.all(np.isfinite(candidate))
            ):
                return candidate
        return np.zeros(blocks[k].n_params)

    current = [starting_point(k) for k in range(n)]
    # Zero-row blocks (presolve can reduce a component to free variables
    # only, making the uniform point exact) have nothing to optimize.
    active = [k for k in range(n) if blocks[k].n_params > 0]

    rounds = 0
    while active and rounds < max_rounds:
        rounds += 1
        stacked = _StackedDual([blocks[k] for k in active])
        x = np.concatenate([current[k] for k in active])
        if rounds == 1:
            # Blocks already at their optimum (converged warm starts)
            # freeze before any optimizer work.
            mask = stacked.converged_mask(stacked.primal(x), tol)
            if bool(mask.any()):
                active = [
                    k
                    for position, k in enumerate(active)
                    if not mask[position]
                ]
                if not active:
                    break
                if len(active) < len(mask):
                    stacked = _StackedDual([blocks[k] for k in active])
                    x = np.concatenate([current[k] for k in active])
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

        mask = stacked.converged_mask(stacked.primal(x), tol)
        pieces = stacked.split(x)
        still_active: list[int] = []
        for position, k in enumerate(active):
            current[k] = pieces[position]
            if not mask[position]:
                still_active.append(k)
        active = still_active

    # Stragglers: per-component fallback from the best stacked point.
    fallback: dict[int, DualSolveResult] = {}
    for k in active:
        batched[k] = False
        dual = blocks[k].to_dual()
        solo = solve_dual_lbfgs(
            dual,
            tol=tol,
            max_iterations=max_iterations,
            x0=current[k],
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
        fallback[k] = solo

    # Package every batched block in one final stacked evaluation: the
    # primal points, residuals and convergence flags all come from
    # segment reductions instead of per-block matvecs.
    results: list[DualSolveResult | None] = [None] * n
    settled = [k for k in range(n) if k not in fallback]
    if settled:
        stacked = _StackedDual([blocks[k] for k in settled])
        x = np.concatenate([current[k] for k in settled])
        p = stacked.primal(x)
        eq, ineq = stacked.block_residuals(p)
        converged = np.maximum(eq, ineq) <= tol * stacked.scales
        p_pieces = stacked.split_vars(p)
        x_pieces = stacked.split(x)
        for position, k in enumerate(settled):
            results[k] = DualSolveResult(
                p=p_pieces[position].copy(),
                iterations=int(iterations[k]),
                eq_residual=float(eq[position]),
                ineq_residual=float(ineq[position]),
                scale=float(stacked.scales[position]),
                converged=bool(converged[position]),
                message="batched L-BFGS-B",
                multipliers=np.asarray(x_pieces[position], dtype=float).copy(),
            )
    for k, solo in fallback.items():
        results[k] = solo
    assert all(result is not None for result in results)
    return BatchDualResult(
        results=results,  # type: ignore[arg-type]
        rounds=rounds,
        batched=batched,
    )
