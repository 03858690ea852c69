"""Solver façade: decompose, presolve, dispatch, reassemble.

``solve_maxent`` solves one program on the process-wide shared engine.
The core library (:class:`~repro.core.privacy_maxent.PrivacyMaxEnt`) and
the service call a :class:`~repro.engine.engine.PrivacyEngine` directly;
this function is for callers that hold only a space and a system.  The
engine implements the full Section 5.5 pipeline:

1. split the program into bucket components (unless disabled, to reproduce
   the paper's unoptimized performance numbers),
2. irrelevant components (Definition 5.6) take the closed-form Eq. (9)
   solution (Theorem 5) — batched over all of them in one vectorized call,
3. the rest are presolved (forced variables eliminated) and solved on the
   L-BFGS dual — the paper's solver (the GIS / IIS / Newton / primal
   reference solvers live with the tests, ``tests/reference_solvers.py``),
4. per-component solutions are reassembled, statistics aggregated, and
   clear errors raised when the constraints turn out infeasible.

The actual execution — the component solve cache, warm-started duals,
the batched closed form and the batched dual — lives in
:mod:`repro.engine`; this module is the stable entry point wrapping the
process-wide shared :class:`~repro.engine.engine.PrivacyEngine` for the
config's cache knobs.  :class:`MaxEntConfig` is re-exported from
:mod:`repro.maxent.config`.
"""

from __future__ import annotations

from repro.engine.engine import shared_engine
from repro.maxent.config import MaxEntConfig
from repro.maxent.constraints import ConstraintSystem
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.solution import MaxEntSolution

VariableSpace = GroupVariableSpace | PersonVariableSpace

__all__ = [
    "MaxEntConfig",
    "solve_maxent",
]


def solve_maxent(
    space: VariableSpace,
    system: ConstraintSystem,
    config: MaxEntConfig | None = None,
) -> MaxEntSolution:
    """Solve the full MaxEnt program over ``space`` with rows ``system``.

    ``system`` must contain the data invariants (from
    :func:`repro.maxent.constraints.data_constraints`) plus any compiled
    background-knowledge rows.

    Routes through the process-wide shared engine for ``config``'s
    cache knobs (cache_size / cache_path), so repeated solves of
    overlapping programs reuse per-component solutions.  Hold a
    dedicated :class:`repro.engine.PrivacyEngine` instead when you need an
    isolated cache.

    Every solve is traced: the engine opens an ``engine.solve`` span
    (nested under whatever span is active on the calling thread, e.g. a
    service request), and the returned solution's
    ``stats.phase_seconds`` carries the structured phase breakdown
    (decompose / build / presolve / dual / fingerprint) that also rides
    the span attributes — see :mod:`repro.obs.trace` and
    ``repro traces``.
    """
    config = config or MaxEntConfig()
    return shared_engine(config).solve(space, system, config)
