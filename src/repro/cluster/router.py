"""Shard routing by rendezvous (highest-random-weight) hashing.

The cluster partitions release content digests across workers
(release sharding — each worker owns its releases' compiled systems and
solve caches).  Routing needs three properties:

- *deterministic*: the same key always maps to the same worker for a
  given worker set, so repeat solves land on the shard whose caches are
  already warm;
- *minimal reassignment*: removing a dead worker moves only that
  worker's keys (each reassigned key independently falls to its
  second-choice worker), so a failure does not cold-start the whole
  fleet's caches;
- *coordination-free*: any coordinator (or several) computes the same
  assignment from the worker list alone — there is no routing table to
  replicate.

Rendezvous hashing gives all three with ten lines of stdlib: score every
(key, worker) pair with a stable hash and pick the maximum.  With the
worker counts a single coordinator drives (ones to tens), the O(workers)
score loop per key is noise against the HTTP round-trip it precedes.
"""

from __future__ import annotations

import hashlib

from repro.errors import ReproError


class ClusterError(ReproError):
    """A cluster-layer failure (no workers, exhausted retries, bad peer)."""


def rendezvous_score(worker_id: str, key: str) -> int:
    """Stable 64-bit score of one (worker, key) pair."""
    digest = hashlib.sha256(
        worker_id.encode("utf-8") + b"\x00" + key.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class ShardRouter:
    """Deterministic key -> worker assignment over a changeable worker set."""

    def __init__(self, worker_ids=()) -> None:
        self._workers: list[str] = list(dict.fromkeys(worker_ids))

    @property
    def worker_ids(self) -> tuple[str, ...]:
        """The registered worker ids, in registration order."""
        return tuple(self._workers)

    def add(self, worker_id: str) -> None:
        """Register a worker (idempotent).

        Mutations rebind the worker list rather than editing it in
        place, so a concurrent reader (routing during a join) iterates
        a consistent snapshot instead of a list shifting under it.
        """
        if worker_id not in self._workers:
            self._workers = [*self._workers, worker_id]

    def remove(self, worker_id: str) -> None:
        """Forget a worker (idempotent)."""
        if worker_id in self._workers:
            self._workers = [w for w in self._workers if w != worker_id]

    def owner(self, key: str, *, exclude=()) -> str:
        """The worker owning ``key`` among registered minus ``exclude``."""
        excluded = set(exclude)
        candidates = [w for w in self._workers if w not in excluded]
        if not candidates:
            raise ClusterError(
                f"no eligible worker for key {key[:16]!r}... "
                f"({len(self._workers)} registered, "
                f"{len(excluded)} excluded)"
            )
        return max(candidates, key=lambda w: rendezvous_score(w, key))

    def owners(self, key: str, *, k: int = 2, exclude=()) -> list[str]:
        """The top-``k`` workers for ``key``, best first (replica set).

        The replication counterpart of :meth:`owner`: a release
        registered on its ``owners(digest, k=K)`` survives any single
        owner death without re-registration, because the surviving
        replicas are exactly the next rendezvous choices the failed
        key would re-route to.  Returns fewer than ``k`` entries when
        the eligible worker set is smaller; raises only when *no*
        worker is eligible (same contract as :meth:`owner`).
        """
        if k < 1:
            raise ClusterError(f"replica count must be >= 1, got {k}")
        excluded = set(exclude)
        candidates = [w for w in self._workers if w not in excluded]
        if not candidates:
            raise ClusterError(
                f"no eligible worker for key {key[:16]!r}... "
                f"({len(self._workers)} registered, "
                f"{len(excluded)} excluded)"
            )
        return sorted(
            candidates,
            key=lambda w: rendezvous_score(w, key),
            reverse=True,
        )[:k]

    def ranked(self, key: str) -> list[str]:
        """All registered workers, best owner first (the failover order)."""
        return sorted(
            self._workers,
            key=lambda w: rendezvous_score(w, key),
            reverse=True,
        )

    def partition(self, keys, *, exclude=()) -> dict[str, list[int]]:
        """Group key positions by owning worker.

        Returns ``{worker_id: [index, ...]}`` over ``enumerate(keys)`` —
        every key grouped under its owner.
        """
        assignment: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            assignment.setdefault(self.owner(key, exclude=exclude), []).append(
                index
            )
        return assignment
