"""Configuration of the MaxEnt solve pipeline.

:class:`MaxEntConfig` lives in its own module (rather than next to
``solve_maxent``) because both the solver façade and the execution engine
(:mod:`repro.engine`) consume it, and the engine must not import the façade
it powers.  ``repro.maxent.solver`` re-exports it, so existing imports keep
working.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ReproError

_REPLAY_NAMES = ("tolerance", "bitwise")


def _env_int(name: str, fallback: int) -> int:
    """Integer default read from the environment (deploy-time override)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ReproError(
            f"environment variable {name}={raw!r} is not an integer"
        ) from None


def _env_str(name: str, fallback: str) -> str:
    """String default read from the environment (deploy-time override)."""
    raw = os.environ.get(name, "").strip()
    return raw if raw else fallback


@dataclass(frozen=True)
class MaxEntConfig:
    """Tuning knobs of the MaxEnt pipeline.

    The numeric solver is fixed: every component not settled by the
    closed form or presolve is solved on the L-BFGS dual (the paper's
    choice), one component at a time or stacked with others of its size
    (``batch_components``).  The segment-kernel backend of the stacked
    dual is picked from what the host can import
    (:func:`repro.maxent.kernels.get_kernel` ``"auto"``).

    Parameters
    ----------
    decompose:
        Solve per bucket-component (Section 5.5).  Disable to reproduce the
        paper's unoptimized performance experiments.
    use_presolve:
        Eliminate forced variables first.
    use_closed_form:
        Use Eq. (9) directly for components without knowledge rows.
    tol:
        Relative residual target for convergence.
    max_iterations:
        Outer iteration budget per component.
    raise_on_infeasible:
        Raise :class:`InfeasibleKnowledgeError` when the residual indicates
        contradictory constraints; otherwise return with
        ``stats.converged = False``.
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
    warm_start:
        Reuse converged dual multipliers from a structurally identical
        component (same rows, different right-hand sides) as the starting
        point of the next solve.  Changes only the iteration count, never
        the converged solution.
    replay:
        The solve-result reproducibility contract.  ``"tolerance"`` (the
        default) guarantees results equal within ``tol`` across
        grouping, caching and kernel-backend differences — which lets
        the batched block-diagonal dual run by default.  ``"bitwise"``
        forces the per-component solve path (batching off), restoring
        bit-identical replays across re-runs for
        workflows that diff posteriors byte for byte; its cache entries
        are keyed separately (see :meth:`solve_key`) so a bitwise
        replay never consumes a tolerance-path entry.  Default
        overridable via ``REPRO_REPLAY``.
    batch_components:
        Upper bound on how many small components the engine stacks into
        one block-diagonal dual and solves with a single vectorized
        L-BFGS loop (:mod:`repro.maxent.batch_dual`) — the cure for
        many-tiny-component workloads where per-``scipy.optimize``
        dispatch overhead dominates.  On by default (1024) under the
        tolerance replay contract: batched results agree with
        per-component solves within ``tol`` (the stacked trajectory
        differs in the last bits), not bit for bit.  ``0`` disables
        batching explicitly; ``replay="bitwise"`` disables it
        regardless of this knob.  Default overridable via the
        ``REPRO_BATCH_COMPONENTS`` environment variable.
    batch_max_vars:
        Size threshold of the batched path: only components with at most
        this many variables are binned into batch groups (large
        components amortize their own dispatch overhead and keep better
        per-problem curvature handling solo).  Default overridable via
        ``REPRO_BATCH_MAX_VARS``.
    """

    decompose: bool = True
    use_presolve: bool = True
    use_closed_form: bool = True
    tol: float = 1e-6
    max_iterations: int = 1000
    raise_on_infeasible: bool = True
    infeasibility_threshold: float = 1e-2
    # Execution-engine knobs (see repro.engine).
    cache_size: int = 128
    cache_path: str | None = None
    warm_start: bool = True
    # The solve-result reproducibility contract.
    replay: str = field(
        default_factory=lambda: _env_str("REPRO_REPLAY", "tolerance")
    )
    # Batched block-diagonal dual solve (repro.maxent.batch_dual) —
    # default-on under the tolerance replay contract.
    batch_components: int = field(
        default_factory=lambda: _env_int("REPRO_BATCH_COMPONENTS", 1024)
    )
    batch_max_vars: int = field(
        default_factory=lambda: _env_int("REPRO_BATCH_MAX_VARS", 96)
    )

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ReproError(f"tol must be positive, got {self.tol}")
        if self.max_iterations <= 0:
            raise ReproError("max_iterations must be positive")
        if self.cache_size < 0:
            raise ReproError(
                f"cache_size must be non-negative, got {self.cache_size}"
            )
        if self.replay not in _REPLAY_NAMES:
            raise ReproError(
                f"unknown replay contract {self.replay!r}; choose one of "
                f"{_REPLAY_NAMES}"
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
        """True when small components may take the batched dual path.

        Batching stacks many components into one block-diagonal dual, and
        its results agree with per-component solves within ``tol`` rather
        than bit for bit — so the ``"bitwise"`` replay contract turns it
        off regardless of ``batch_components``.
        """
        return self.replay != "bitwise" and self.batch_components > 1

    def solve_key(self) -> tuple:
        """The configuration facets a cached solution depends on.

        Two configs with equal ``solve_key()`` produce the same solution for
        the same constraint system, so cache entries are shared across
        cache-bookkeeping differences but never across presolve or
        tolerance changes.  The first slot is the literal ``"lbfgs"``:
        it once named a configurable solver, and keeping it keeps
        component fingerprints, persisted cache snapshots and service
        result-cache keys valid across that knob's removal.  The
        batching knobs are deliberately excluded: under the tolerance
        contract batched, per-component and cross-kernel solves converge
        to the same optimum within ``tol``, so their cache entries are
        interchangeable — and keys (hence persisted caches) stay
        identical whichever path produced them.

        The ``"bitwise"`` contract appends a marker instead, and still
        needs its own namespace with one solver: a batched entry differs
        from a per-component one in the last bits, so a bitwise replay
        must never be served a tolerance-path entry — a within-``tol``
        vector is exactly what it promises not to return.
        """
        key = (
            "lbfgs",
            self.use_presolve,
            self.tol,
            self.max_iterations,
        )
        if self.replay == "bitwise":
            key += ("bitwise",)
        return key
