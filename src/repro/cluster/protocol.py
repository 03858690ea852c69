"""The versioned front-end <-> worker wire protocol.

One protocol version string (:data:`SHARD_PROTOCOL`) tags every shard
message; a worker rejects (and a front-end refuses to decode) anything
else, so mixed-version fleets fail loudly at the first message instead
of misbehaving quietly.  Payloads are plain JSON over the same stdlib
HTTP stack the serving subsystem already speaks:

- *join* / *heartbeat* — a worker's self-registration and liveness
  announcements (``POST /shard/v1/join``, ``POST /shard/v1/heartbeat``),
  naming the worker by its stable identity and contact address.
- *state* — a worker's shard-level identity and counters
  (``GET /shard/v1/state``).

Release traffic itself is forwarded over the ordinary ``/v1`` service
endpoints.  :class:`ShardClient` extends the blocking service client
with the shard endpoints, so a front-end drives workers exactly the way
external clients drive the service (keep-alive, retries on stale
connections, uniform error decoding).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.service.client import ServiceClient

#: Protocol tag of every shard message; bump on incompatible changes.
#: (v2: the solver config grew the ``batch_components``/``batch_max_vars``
#: knobs, which a v1 worker's strict config decoder rejects — the bump
#: turns a confusing unknown-key failure in a mixed-version fleet into
#: the designed loud version-mismatch error.
#: v3: the solve-result contract is versioned — the config grew the
#: ``replay``/``kernel`` knobs, batching is default-on, and cluster
#: results are *tolerance*-equivalent to single-engine solves (both
#: knobs have since been retired; their defaults are still accepted on
#: the wire, see ``core/serialize.RETIRED_SOLVER_KEYS``).  A v2 peer
#: would both reject the new config keys and assume the old
#: bit-identical contract, so mixed fleets must fail loudly.
#: v4: solve requests carry an optional ``trace`` context and responses
#: an optional ``spans`` list (cross-machine trace stitching).  A v3
#: worker's strict request decoder rejects the ``trace`` field, so the
#: bump again turns an unknown-key failure into the designed
#: version-mismatch error.
#: v5: dynamic membership — workers carry a stable identity decoupled
#: from their bind address, dial in over the new ``/shard/v1/join`` and
#: ``/shard/v1/heartbeat`` messages, and solve responses name the
#: worker by that identity.  A v4 coordinator would route by
#: ``host:port`` while a v5 worker self-reports its persisted id, so a
#: mixed fleet must fail loudly rather than split-brain the ring.
#: v6: component scatter is gone — the ``/shard/v1/components`` route
#: and its solve request/response forms were removed; workers serve
#: release traffic and membership only.  A v5 coordinator would still
#: scatter components to a v6 worker that no longer solves them, so a
#: mixed fleet must fail loudly.)
SHARD_PROTOCOL = "privacy-maxent-shard/6"


def check_protocol(payload, what: str) -> None:
    """Reject a message not speaking :data:`SHARD_PROTOCOL`."""
    if not isinstance(payload, dict):
        raise ReproError(f"{what} must be a JSON object")
    version = payload.get("protocol")
    if version != SHARD_PROTOCOL:
        raise ReproError(
            f"{what} speaks protocol {version!r}, expected "
            f"{SHARD_PROTOCOL!r}; coordinator and workers must run the "
            "same version"
        )


def _membership_to_wire(worker_id: str, host: str, port: int) -> dict:
    return {
        "protocol": SHARD_PROTOCOL,
        "worker_id": worker_id,
        "host": host,
        "port": int(port),
    }


def _membership_from_wire(payload, what: str) -> tuple[str, str, int]:
    """Decode a join/heartbeat announcement (strict: unknown keys rejected)."""
    check_protocol(payload, what)
    unknown = set(payload) - {"protocol", "worker_id", "host", "port"}
    if unknown:
        raise ReproError(f"{what} has unknown field(s): {sorted(unknown)}")
    worker_id = payload.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id.strip():
        raise ReproError(f"{what} needs a non-empty worker_id")
    host = payload.get("host")
    if not isinstance(host, str) or not host.strip():
        raise ReproError(f"{what} needs a non-empty host")
    port = payload.get("port")
    if not isinstance(port, int) or isinstance(port, bool) or not (
        0 < port < 65536
    ):
        raise ReproError(f"{what} needs a port in 1..65535, got {port!r}")
    return worker_id.strip(), host.strip(), port


def join_request_to_wire(worker_id: str, host: str, port: int) -> dict:
    """Encode a worker's self-registration announcement."""
    return _membership_to_wire(worker_id, host, port)


def join_request_from_wire(payload) -> tuple[str, str, int]:
    """Decode a ``POST /shard/v1/join`` body -> (worker_id, host, port)."""
    return _membership_from_wire(payload, "join request")


def heartbeat_request_to_wire(worker_id: str, host: str, port: int) -> dict:
    """Encode a worker's liveness heartbeat."""
    return _membership_to_wire(worker_id, host, port)


def heartbeat_request_from_wire(payload) -> tuple[str, str, int]:
    """Decode a ``POST /shard/v1/heartbeat`` body -> (worker_id, host, port)."""
    return _membership_from_wire(payload, "heartbeat")


class ShardClient(ServiceClient):
    """Blocking client a front-end drives one shard worker with."""

    def request(
        self, method: str, path: str, payload=None, *, extra_headers=None
    ) -> dict:
        """A raw JSON request (the forwarding primitive)."""
        return self._request(method, path, payload, extra_headers=extra_headers)

    def shard_state(self) -> dict:
        """The worker's shard-level identity and counters."""
        return self._request("GET", "/shard/v1/state")

    def join(self, payload: dict) -> dict:
        """Announce a worker to a membership authority (front-end)."""
        return self._request("POST", "/shard/v1/join", payload)

    def heartbeat(self, payload: dict) -> dict:
        """Refresh a worker's liveness with a membership authority."""
        return self._request("POST", "/shard/v1/heartbeat", payload)
