"""How fast the host runs right now, gauged by a fixed reference kernel.

The benchmark's host is a shared virtual machine whose speed drifts by
15-30% over minutes, with the load of its neighbours.  A drift that size
moves every timing of a run together, and it swamps any change in the
program.  So each run also times a fixed kernel, written here in plain
Python and numpy and independent of the program, interleaved with its
ops.  The host's speed also swings from one second to the next, so each
timing is divided by the host factor of the two gauge samples on either
side of it: their mean kernel time over ``REFERENCE_SECONDS``.  That
gives seconds at the development host's quiet speed.  A change to the
program cannot move the kernel, so it moves the reported times in full.

The kernel mixes what an op spends its time on: tuple hashing and dict
and list traffic in the interpreter (knowledge compilation, indexing,
serialization), many small numpy calls (the batched dual) and a dense
solve and sort (the larger components).

Set-up is other work (process start, dynamic loading, imports) and
tracks the kernel poorly; ``run.py`` gauges it with a reference launch.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict

import numpy as np

#: Mean kernel time on the development host when it was quiet.
REFERENCE_SECONDS = 0.0120
#: Kernel passes per gauge sample.
REPETITIONS = 5

_rng = np.random.default_rng(20080609)
_MATRIX = _rng.random((96, 96))
_MATRIX = _MATRIX @ _MATRIX.T + 96.0 * np.eye(96)
_VECTOR = _rng.random(120_000)
_KEYS = [tuple(int(v) for v in row) for row in _rng.integers(0, 40, size=(6000, 4))]


def kernel() -> float:
    """One pass of the reference kernel; returns its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would walk the op's heap, not the kernel's
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    started = time.perf_counter()
    index: dict = {}
    for position, key in enumerate(_KEYS):
        index.setdefault(key, []).append(position)
    total = 0
    for key, positions in index.items():
        total += len(positions) * key[0] + sum(key)
    text = ",".join(str(k) for k in index)
    x = np.zeros(96)
    for _ in range(200):
        x = np.exp(-np.abs(x - 0.5)) / 3.0 + _MATRIX[0] * 1e-3
    y = np.linalg.solve(_MATRIX, x)
    z = float(np.sort(_VECTOR)[total % 1000]) + float(y[0]) + len(text)
    assert z > 0
    return time.perf_counter() - started


class Gauge:
    """Kernel samples taken between a run's ops, and the timings they scale.

    ``time`` holds a timing until the next ``sample``, which divides it
    by the host factor of the samples before and after it and files it
    under ``scaled[kind]``.  Timings before the first sample are warm-up
    and are dropped.  A sample's level is its mean pass time, not the
    median: an op lasts far longer than the host's swings, so it pays
    their mean, and so must the kernel that stands in for it.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self._pending: list[tuple[str, float]] = []
        self._level: float | None = None

    def time(self, kind: str, seconds: float) -> None:
        self._pending.append((kind, seconds))

    def sample(self, cpus=None) -> None:
        """Time ``REPETITIONS`` passes; with ``cpus``, on each of them.

        A first pass on each CPU is discarded: it refills the caches the
        op just used, and that cost depends on the op.
        """
        passes: list[float] = []
        if cpus is None:
            kernel()
            passes.extend(kernel() for _ in range(REPETITIONS))
        else:
            own = os.sched_getaffinity(0)
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    kernel()
                    passes.extend(kernel() for _ in range(REPETITIONS))
            finally:
                os.sched_setaffinity(0, own)
        self.passes.extend(passes)
        level = statistics.fmean(passes)
        if self._level is not None:
            factor = (self._level + level) / 2.0 / REFERENCE_SECONDS
            for kind, seconds in self._pending:
                self.scaled[kind].append(seconds / factor)
        self._pending = []
        self._level = level

    def factor(self) -> float:
        """Mean host slowness of the run: 1.0 is the development host, quiet."""
        return statistics.fmean(self.passes) / REFERENCE_SECONDS
