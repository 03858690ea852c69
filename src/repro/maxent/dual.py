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

Evaluations multiply by the stacked matrix ``R = [A; G]`` and by its
transpose.  :class:`DualProblem` builds ``R^T`` as a CSR matrix once,
when the dual is assembled (``matrix.T.tocsr()``): ``matrix.T @ x``
would build a fresh CSC view per call, which costs more than the product
itself on the duals this package solves.  The CSR transpose adds each
entry's terms in the same order as that CSC product, so the results are
bitwise equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.maxent.constraints import ConstraintSystem

if TYPE_CHECKING:
    import scipy.sparse as sp


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

    # -- evaluation ---------------------------------------------------------

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
        """Dual objective and gradient (the negated residual).

        One ``theta`` matvec and one softmax serve both the objective and
        the gradient — the dominant per-iteration cost is the two sparse
        matvecs (``R^T x`` and ``R p``), not four.
        """
        theta = self.theta(x)
        shift = theta.max()
        weights = np.exp(theta - shift)
        total = weights.sum()
        value = self.mass * float(shift + np.log(total)) + float(x @ self.rhs)
        p = self.mass * weights / total
        grad = self.rhs - self.matrix @ p
        return value, grad

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product of the dual at multipliers ``x``.

        ``H = R (diag(p) - p p^T / M) R^T`` — two sparse matvecs per
        product, which makes Newton-CG polishing cheap and is how the solver
        pushes the residual past the point where L-BFGS stalls on
        ill-conditioned (near-collinear knowledge) systems.
        """
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


def build_dual(system: ConstraintSystem, mass: float) -> DualProblem:
    """Assemble a :class:`DualProblem` from a (component-local) system."""
    import scipy.sparse as sp

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
