"""Execution engine: component solves, solve cache, batching.

The Section 5.5 decomposition splits the MaxEnt program into independent
components.  This package is the execution layer underneath
:func:`repro.maxent.solver.solve_maxent`, and it has one execution path:
an in-process loop that solves small components together through
stacked block-diagonal duals and the rest one by one.  Scale-out
beyond one process is release sharding (:mod:`repro.cluster`), not
component fan-out.

- :mod:`repro.engine.fingerprint` — canonical, order-independent hashes of
  constraint systems (full fingerprints key the solve cache; structure
  fingerprints key warm-start duals),
- :mod:`repro.engine.cache` — a bounded LRU of solved components plus the
  warm-start multiplier store,
- :mod:`repro.engine.component` — the per-component and batched solve
  tasks,
- :mod:`repro.engine.plan` — splits a decomposed program into the batched
  closed-form path, the numeric path and its batch groups,
- :mod:`repro.engine.engine` — :class:`PrivacyEngine`, the facade the core
  library, CLI, experiments and benchmarks all route through.
"""

from repro.engine.cache import CacheEntry, SolveCache, WarmStartStore
from repro.engine.engine import (
    PrivacyEngine,
    shared_engine,
    shutdown_shared_engines,
)
from repro.engine.fingerprint import (
    component_fingerprint,
    fingerprint_system,
    structure_fingerprint,
)
from repro.engine.plan import ExecutionPlan, bin_batch_groups, build_plan

__all__ = [
    "CacheEntry",
    "ExecutionPlan",
    "bin_batch_groups",
    "PrivacyEngine",
    "SolveCache",
    "WarmStartStore",
    "build_plan",
    "component_fingerprint",
    "fingerprint_system",
    "shared_engine",
    "shutdown_shared_engines",
    "structure_fingerprint",
]
