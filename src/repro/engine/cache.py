"""Bounded LRU stores for solved components and warm-start duals.

The figure sweeps, skyline enumeration and bound sweeps all re-solve
near-identical MaxEnt programs; after decomposition most of their
components are *exactly* identical across solves.  :class:`SolveCache`
keeps the most recently used component solutions (keyed by the canonical
fingerprint of :mod:`repro.engine.fingerprint`), returning bit-identical
probability vectors on a hit.  :class:`WarmStartStore` keeps converged dual
multipliers keyed by structure fingerprint, so a near-miss system (same
rows, new right-hand sides) starts its solve from an almost-right point.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.maxent.solution import SolverStats


@dataclass(frozen=True)
class CacheEntry:
    """One cached component solution."""

    p: np.ndarray
    stats: SolverStats

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float).copy()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def replay_stats(self) -> SolverStats:
        """Stats for a cache hit: no time spent, the hit counted.

        Iterations and residuals describe the stored solution (they are
        properties of the returned vector); ``seconds``, ``cpu_seconds``,
        ``batched_components`` and the ``phase_seconds`` breakdown are
        zeroed because this run did no numeric work (batched or
        otherwise).
        """
        # The constructor over the stored fields: half the cost of
        # ``dataclasses.replace``, paid once per hit component.
        return SolverStats(
            **{
                **vars(self.stats),
                "seconds": 0.0,
                "cpu_seconds": 0.0,
                "cache_hits": 1,
                "batched_components": 0,
                "phase_seconds": {},
            }
        )


class _LRU:
    """Minimal bounded LRU over an OrderedDict (move-to-end on get).

    Thread-safe: the shared engines hand one store to every
    ``solve_maxent`` caller in the process, so mutation happens under a
    lock (the pre-engine ``solve_maxent`` was stateless and therefore
    safe to call concurrently — that property must survive).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, value) -> list[str]:
        """Store ``value``; returns the keys evicted to make room."""
        if not self.enabled:
            return []
        evicted: list[str] = []
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                old_key, _ = self._entries.popitem(last=False)
                evicted.append(old_key)
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def items(self) -> list[tuple[str, object]]:
        """Snapshot of (key, value) pairs, least recently used first.

        The ordering lets a persisted cache be replayed through
        :meth:`put` so the restored LRU recency matches the saved one.
        """
        with self._lock:
            return list(self._entries.items())


#: Fingerprint-prefix length of the per-prefix counters.  Eight hex chars
#: (32 bits) keep distinct solves' prefixes collision-free in practice
#: while staying short enough to read off a telemetry dump.
PREFIX_LENGTH = 8

#: Bound on distinct prefixes tracked; a long-lived shard serving an
#: unbounded stream of releases must not grow telemetry without limit.
MAX_TRACKED_PREFIXES = 512


class SolveCache(_LRU):
    """LRU of :class:`CacheEntry` keyed by component fingerprint.

    Besides the aggregate hit/miss counters the cache keeps per-prefix
    counters (the first :data:`PREFIX_LENGTH` characters of each key),
    which the sharded front-end merges across shards in its aggregated
    telemetry.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._prefix_stats: dict[str, dict[str, int]] = {}

    def _prefix_slot(self, key: str) -> dict[str, int] | None:
        prefix = key[:PREFIX_LENGTH]
        slot = self._prefix_stats.get(prefix)
        if slot is None:
            if len(self._prefix_stats) >= MAX_TRACKED_PREFIXES:
                return None
            slot = self._prefix_stats[prefix] = {
                "hits": 0, "misses": 0, "evictions": 0
            }
        return slot

    def lookup(self, key: str) -> CacheEntry | None:
        """A counted get: bumps ``hits``/``misses`` (total and per prefix)."""
        entry = self.get(key)
        with self._lock:
            slot = self._prefix_slot(key)
            if entry is None:
                self.misses += 1
                if slot is not None:
                    slot["misses"] += 1
            else:
                self.hits += 1
                if slot is not None:
                    slot["hits"] += 1
        return entry

    def put(self, key: str, value) -> list[str]:
        evicted = super().put(key, value)
        if evicted:
            with self._lock:
                self.evictions += len(evicted)
                for old_key in evicted:
                    slot = self._prefix_slot(old_key)
                    if slot is not None:
                        slot["evictions"] += 1
        return evicted

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def prefix_stats(self) -> dict[str, dict[str, int]]:
        """Per-fingerprint-prefix counters (JSON-ready snapshot)."""
        with self._lock:
            return {
                prefix: dict(counters)
                for prefix, counters in self._prefix_stats.items()
            }

    def clear(self) -> None:
        super().clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._prefix_stats = {}


class WarmStartStore(_LRU):
    """LRU of converged dual multiplier vectors keyed by structure."""

    def put(self, key: str, multipliers: np.ndarray) -> None:
        super().put(key, np.asarray(multipliers, dtype=float).copy())
