"""One retry policy for every cluster transport path.

:class:`RetryPolicy` is the one backoff shape of the cluster's
transport paths (the front-end's forwards and failover
re-registrations):

- *jittered exponential backoff* — delays grow geometrically from
  ``base_delay`` to ``max_delay`` with a uniform ``±jitter`` fraction,
  so two callers that collided once de-correlate instead of hammering
  the same worker on the same schedule forever;
- *deadline budgets* — a policy (or a single :meth:`run`) can carry an
  overall time budget: retry as long as the budget allows, then
  surface the error;
- *env/CLI configuration* — every knob reads a ``REPRO_CLUSTER_*``
  variable (:func:`cluster_env_float` / :func:`cluster_env_int`) so
  deployments tune transport behaviour without code changes, and the
  ``repro serve`` flags override the environment.

Determinism matters to the chaos suite: every random draw goes through
an explicit :class:`random.Random` (per call or per policy), so a seeded
test replays the exact delay sequence.
"""

from __future__ import annotations

import http.client
import os
import random
import time
from dataclasses import dataclass, field, replace

from repro.cluster.router import ClusterError

#: Environment prefix of every cluster tuning knob.
ENV_PREFIX = "REPRO_CLUSTER_"

#: Transport failures worth retrying: the connection died or the HTTP
#: framing broke.  Application-level errors (4xx/5xx verdicts) are the
#: caller's business — a worker that *answered* is alive.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def cluster_env_float(name: str, default: float) -> float:
    """``REPRO_CLUSTER_<name>`` as a float, loudly rejecting junk."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError:
        raise ClusterError(
            f"{ENV_PREFIX + name}={raw!r} is not a number"
        ) from None


def cluster_env_int(name: str, default: int) -> int:
    """``REPRO_CLUSTER_<name>`` as an int, loudly rejecting junk."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ClusterError(
            f"{ENV_PREFIX + name}={raw!r} is not an integer"
        ) from None


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with an optional overall deadline.

    ``attempts`` bounds how many times an operation runs (first try
    included); ``deadline`` bounds how long the whole retry loop may
    take.  Either alone, or both together, ends the loop — whichever
    trips first.  ``attempts=0`` means *no attempt cap* (deadline-only
    policies).
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 1.0
    multiplier: float = 2.0
    #: Uniform jitter as a fraction of the backed-off delay: the actual
    #: sleep is drawn from ``[delay*(1-jitter), delay*(1+jitter)]``.
    jitter: float = 0.5
    deadline: float | None = None
    #: Policy-owned RNG used when a call site passes none.  Excluded
    #: from equality/repr: two policies with the same knobs are the
    #: same policy.
    rng: random.Random = field(
        default_factory=random.Random, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ClusterError(
                f"retry attempts must be >= 0, got {self.attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ClusterError(
                "retry delays need 0 <= base_delay <= max_delay, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ClusterError(
                f"retry multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ClusterError(
                f"retry jitter must be in [0, 1], got {self.jitter}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "RetryPolicy":
        """Policy from ``REPRO_CLUSTER_RETRY_*``; kwargs win over env."""
        knobs = {
            "attempts": cluster_env_int("RETRY_ATTEMPTS", cls.attempts),
            "base_delay": cluster_env_float(
                "RETRY_BASE_DELAY", cls.base_delay
            ),
            "max_delay": cluster_env_float("RETRY_MAX_DELAY", cls.max_delay),
            "multiplier": cluster_env_float(
                "RETRY_MULTIPLIER", cls.multiplier
            ),
            "jitter": cluster_env_float("RETRY_JITTER", cls.jitter),
        }
        knobs.update(overrides)
        return cls(**knobs)

    def with_deadline(self, deadline: float | None) -> "RetryPolicy":
        """The same policy under a different overall time budget."""
        return replace(self, deadline=deadline)

    def backoff(self, attempt: int) -> float:
        """The un-jittered delay after the ``attempt``-th failure (0-based)."""
        return min(
            self.base_delay * (self.multiplier**attempt), self.max_delay
        )

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """The jittered sleep after the ``attempt``-th failure (0-based)."""
        backoff = self.backoff(attempt)
        if self.jitter == 0.0 or backoff == 0.0:
            return backoff
        draw = (rng or self.rng).random()
        return backoff * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    def run(
        self,
        operation,
        *,
        retry_on: tuple = TRANSPORT_ERRORS,
        rng: random.Random | None = None,
        on_retry=None,
    ):
        """Run ``operation()`` under this policy; re-raise when exhausted.

        Only exceptions in ``retry_on`` are retried — anything else
        (including an HTTP verdict from a live worker) propagates on
        the first throw.  ``on_retry(attempt, exc, sleep)`` is called
        before each backoff sleep, the hook telemetry counters hang on.
        """
        start = time.monotonic()
        attempt = 0
        while True:
            try:
                return operation()
            except retry_on as exc:
                attempt += 1
                if self.attempts and attempt >= self.attempts:
                    raise
                sleep = self.delay(attempt - 1, rng)
                if (
                    self.deadline is not None
                    and time.monotonic() - start + sleep > self.deadline
                ):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc, sleep)
                time.sleep(sleep)
