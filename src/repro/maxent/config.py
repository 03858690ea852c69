"""Configuration of the MaxEnt solve pipeline.

:class:`MaxEntConfig` lives in its own module (rather than next to
``solve_maxent``) because both the solver façade and the execution engine
(:mod:`repro.engine`) consume it, and the engine must not import the façade
it powers.  ``repro.maxent.solver`` re-exports it, so existing imports keep
working.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

#: Relative residual (to the component's mass) above which an
#: unconverged component counts as contradictory knowledge rather than
#: a slow solve, when ``raise_on_infeasible`` is set.
INFEASIBILITY_THRESHOLD = 1e-2


@dataclass(frozen=True)
class MaxEntConfig:
    """Tuning knobs of the MaxEnt pipeline.

    The numeric solver is fixed: every component not settled by the
    closed form or presolve is presolved and solved on the L-BFGS dual
    (the paper's choice), one component at a time or stacked with others
    of its size (``batch_components``).  Results are reproducible within
    ``tol``: whichever grouping or cache entry produced a component's
    solution, it agrees with any other path's within that tolerance.

    Parameters
    ----------
    decompose:
        Solve per bucket-component (Section 5.5).  Disable to reproduce the
        paper's unoptimized performance experiments.
    use_closed_form:
        Use Eq. (9) directly for components without knowledge rows.
    tol:
        Relative residual target for convergence.
    max_iterations:
        Outer iteration budget per component.
    raise_on_infeasible:
        Raise :class:`InfeasibleKnowledgeError` when an unconverged
        component's relative residual exceeds
        :data:`INFEASIBILITY_THRESHOLD` (contradictory constraints);
        otherwise return with ``stats.converged = False``.
    cache_size:
        Bound of the per-engine LRU solve cache (entries are solved
        components, keyed by a canonical constraint-system fingerprint).
        ``0`` disables caching entirely.
    cache_path:
        Optional file the engine persists its solve cache to.  When set,
        an engine loads the stored cache on construction (starting warm
        after a process restart — the serving workflow) and saves it on
        ``close()``.  A missing or unreadable file simply means a cold
        start; it is never an error.
    batch_components:
        Upper bound on how many small components the engine stacks into
        one block-diagonal dual and solves with a single vectorized
        L-BFGS loop (:mod:`repro.maxent.batch_dual`) — the cure for
        many-tiny-component workloads where per-``scipy.optimize``
        dispatch overhead dominates.  On by default (1024): batched
        results agree with per-component solves within ``tol`` (the
        stacked trajectory differs in the last bits), not bit for bit.
        ``0`` (or ``1``) makes every component its own work unit, whose
        dual is a one-block stack solved by the L-BFGS ladder alone; on
        an engine with ``cache_size=0`` that replays bit for bit across
        runs.
    batch_max_vars:
        Size threshold of the batched path: only components with at most
        this many variables are binned into batch groups (large
        components amortize their own dispatch overhead and keep better
        per-problem curvature handling solo).
    """

    decompose: bool = True
    use_closed_form: bool = True
    tol: float = 1e-6
    max_iterations: int = 1000
    raise_on_infeasible: bool = True
    # Execution-engine knobs (see repro.engine).
    cache_size: int = 128
    cache_path: str | None = None
    # Batched block-diagonal dual solve (repro.maxent.batch_dual).
    batch_components: int = 1024
    batch_max_vars: int = 96

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ReproError(f"tol must be positive, got {self.tol}")
        if self.max_iterations <= 0:
            raise ReproError("max_iterations must be positive")
        if self.cache_size < 0:
            raise ReproError(
                f"cache_size must be non-negative, got {self.cache_size}"
            )
        if self.batch_components < 0:
            raise ReproError(
                f"batch_components must be non-negative, got "
                f"{self.batch_components}"
            )
        if self.batch_max_vars <= 0:
            raise ReproError(
                f"batch_max_vars must be positive, got {self.batch_max_vars}"
            )

    @property
    def batching_enabled(self) -> bool:
        """True when small components may take the batched dual path."""
        return self.batch_components > 1

    def solve_key(self) -> tuple:
        """The configuration facets a cached solution depends on.

        Two configs with equal ``solve_key()`` produce the same solution for
        the same constraint system, so cache entries are shared across
        cache-bookkeeping differences but never across tolerance changes.
        The first two slots are literals: ``"lbfgs"`` once named a
        configurable solver and ``True`` the retired ``use_presolve``
        toggle.  They stay so that component fingerprints, persisted
        cache snapshots and service result-cache keys remain valid
        across those knobs' removal.  The batching knobs are deliberately excluded:
        batched and per-component solves converge to the same optimum
        within ``tol``, so their cache entries are interchangeable — and
        keys (hence persisted caches) stay identical whichever path
        produced them.
        """
        return ("lbfgs", True, self.tol, self.max_iterations)
