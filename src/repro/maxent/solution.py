"""Solution and statistics containers for the MaxEnt engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.utils.probability import entropy as shannon_entropy

VariableSpace = GroupVariableSpace | PersonVariableSpace


@dataclass
class SolverStats:
    """Performance and convergence record of one solve (or one component).

    ``iterations`` counts outer L-BFGS iterations of the dual solve — the
    quantity plotted on the y-axis of the paper's Figures 7(a) and 7(c).

    ``seconds`` is wall-clock time; ``cpu_seconds`` is the summed compute
    time of the individual component solves (equal to ``seconds`` up to
    planning and bookkeeping overhead).
    ``cache_hits`` counts components served from the engine's solve cache
    without any numeric work this run.  ``batched_components`` counts
    components solved through the stacked block-diagonal dual
    (:mod:`repro.maxent.batch_dual`) rather than their own optimizer
    call — ``1`` on such a component's own record, the sum on the
    aggregate.

    The three construction-phase timers break out where a solve's
    non-numeric time went: ``build_seconds`` (variable-space indexing,
    data invariants and knowledge compilation — recorded by whoever built
    the system and passed through the engine), ``decompose_seconds``
    (Section 5.5 component splitting) and ``fingerprint_seconds``
    (canonical cache-key encoding).  Aggregate-level only; per-component
    records leave them zero.

    ``phase_seconds`` is the structured per-phase breakdown the
    observability layer emits as span attributes: keys like
    ``"presolve"``, ``"dual"``, ``"closed_form"``, ``"plan"``,
    ``"cache_lookup"`` map to summed wall seconds.  On a per-component
    record it covers that component's own phases; :meth:`add_phase`
    accumulates, and aggregate records merge every component's map
    key-wise (see ``repro.engine.engine._reassemble``).
    """

    solver: str
    iterations: int
    seconds: float
    n_vars: int
    n_equalities: int
    n_inequalities: int
    eq_residual: float
    ineq_residual: float
    converged: bool
    n_components: int = 1
    presolve_fixed: int = 0
    message: str = ""
    cpu_seconds: float = 0.0
    cache_hits: int = 0
    batched_components: int = 0
    build_seconds: float = 0.0
    decompose_seconds: float = 0.0
    fingerprint_seconds: float = 0.0
    #: Per-phase wall-second breakdown (``{"presolve": ..., "dual": ...}``).
    phase_seconds: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        """Worst constraint violation (either family)."""
        return max(self.eq_residual, self.ineq_residual)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall seconds against a named solve phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def merge_phases(self, phases: dict) -> None:
        """Key-wise fold of another record's ``phase_seconds``."""
        for name, seconds in phases.items():
            self.add_phase(name, seconds)


@dataclass
class ComponentRecord:
    """One decomposition component's identity and statistics."""

    buckets: tuple[int, ...]
    stats: SolverStats


class MaxEntSolution:
    """The maximum-entropy joint distribution over a variable space."""

    def __init__(
        self,
        space: VariableSpace,
        p: np.ndarray,
        stats: SolverStats,
        components: list[ComponentRecord] | None = None,
    ) -> None:
        p = np.asarray(p, dtype=float)
        if p.shape != (space.n_vars,):
            raise ValueError(
                f"solution vector has shape {p.shape}, expected ({space.n_vars},)"
            )
        self._space = space
        self._p = p
        self._p.setflags(write=False)
        self.stats = stats
        self.components = components or []

    @property
    def space(self) -> VariableSpace:
        """The variable space the solution lives in."""
        return self._space

    @property
    def p(self) -> np.ndarray:
        """The joint probability vector (read-only)."""
        return self._p

    def joint(self, first, sa_value: str, bucket: int) -> float:
        """``P(q, s, b)`` (group space) or ``P(i, s, b)`` (person space).

        ``first`` is a QI tuple for group spaces or a pseudonym / pseudonym
        name for person spaces.  Structural zeros return 0.0.
        """
        index = self._space.index_of(first, sa_value, bucket)
        if index < 0:
            return 0.0
        return float(self._p[index])

    def joint_dict(self) -> dict[tuple, float]:
        """The full joint as ``{(q_or_person, s, b): probability}``.

        Structural zeros are omitted (they are Zero-invariants).  Useful for
        evaluating symbolic :class:`~repro.knowledge.expressions.
        ProbabilityExpression` objects against the solution.
        """
        return {
            self._space.describe_var(var): float(self._p[var])
            for var in range(self._space.n_vars)
        }

    def entropy(self, base: float = 2.0) -> float:
        """Shannon entropy of the joint (the maximized objective)."""
        return shannon_entropy(self._p, base=base)

    def total_mass(self) -> float:
        """Total probability (1.0 up to solver tolerance)."""
        return float(self._p.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaxEntSolution(n_vars={self._space.n_vars}, "
            f"solver={self.stats.solver!r}, iterations={self.stats.iterations}, "
            f"residual={self.stats.residual:.2e})"
        )
