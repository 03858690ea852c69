"""Live-query privacy workloads: seeded query mixes over posteriors.

A registered release is not attacked once — it is *queried*, and every
answer leaks a little.  This package replays a pgbench-style seeded mix
of query shapes (point / range / group-by / join-OLAP) against the
posterior ``P*(SA | QI)`` a service (or embedded engine) computes for a
release, grows the assumed adversary's mined-rule knowledge batch by
batch, and scores the paper's posterior bounds alongside the attacker's
accumulated per-cell view:

- :mod:`repro.workload.queries` — the seeded :class:`QueryMix`, the
  vectorized :class:`PosteriorIndex`, and :func:`evaluate` returning
  each answer *and* what it revealed;
- :mod:`repro.workload.driver` — :class:`WorkloadDriver` batching it
  all into a JSON-ready trajectory, with :class:`ServiceBackend` (HTTP)
  and :class:`EmbeddedBackend` (in-process) posterior sources.

Run one with ``repro workload``.
"""

from repro.workload.driver import (
    AttackerView,
    EmbeddedBackend,
    ServiceBackend,
    WorkloadConfig,
    WorkloadDriver,
)
from repro.workload.queries import (
    DEFAULT_SHAPE_WEIGHTS,
    SHAPES,
    PosteriorIndex,
    Query,
    QueryMix,
    QueryResult,
    evaluate,
)

__all__ = [
    "DEFAULT_SHAPE_WEIGHTS",
    "SHAPES",
    "AttackerView",
    "EmbeddedBackend",
    "PosteriorIndex",
    "Query",
    "QueryMix",
    "QueryResult",
    "ServiceBackend",
    "WorkloadConfig",
    "WorkloadDriver",
    "evaluate",
]
