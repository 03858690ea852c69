"""Deterministic fault injection for the cluster wire.

"Prove it under fire": the elastic-cluster claims (no failed client
requests, no duplicate cache entries, bit-identical posteriors while
workers die and join) are worth nothing asserted on a healthy loopback.
This module injects the failures the cluster's detection logic is built
around, *deterministically*, so a chaos test that passes once passes
every time:

- :class:`FaultSchedule` — a seeded per-connection fault plan.  Every
  accepted connection draws exactly one decision from one
  ``random.Random(seed)``, so a schedule replays the same fault
  sequence for the same traffic order, and the decision log shows
  exactly what a run injected.
- :class:`ChaosProxy` — a threaded TCP proxy wrapping one worker's
  port.  Per the schedule it refuses connections (reset at accept),
  cuts responses mid-flight (a truncated HTTP response, the
  "worker died while answering" shape), delays traffic (latency
  spikes), or passes bytes through untouched.  Clients keep dialing the
  proxy's port; the worker behind it stays perfectly healthy — the
  *wire* is what fails.
- :class:`WorkerProcess` — spawn/SIGKILL/respawn helper for real
  ``repro shard-worker`` subprocesses that keeps the identity file
  across respawns, so tests can assert that a returning worker
  reclaims its rendezvous slot on a brand-new port.
- :class:`ServerProcess` — the same spawn/kill/respawn story for a real
  ``repro serve`` front door, keeping the ``--state-dir`` across
  restarts — the SIGKILL-mid-ingest → restart → resume-and-finalize
  drill the durable serving mode exists for, plus SIGTERM
  (:meth:`ServerProcess.terminate`) for the graceful-drain contract.

Only the chaos suites (``test_cluster_chaos.py``, ``test_service_chaos.py``)
import this module; the package itself never does.
"""

from __future__ import annotations

import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from random import Random

from repro.cluster.coordinator import _worker_environment, free_port
from repro.cluster.protocol import ShardClient
from repro.cluster.router import ClusterError

#: Everything a schedule can decide for one connection.
FAULT_KINDS = ("pass", "refuse", "reset", "delay")

#: Bytes of the upstream response forwarded before a mid-response reset
#: — enough to start the status line, never enough to finish headers.
RESET_PREFIX_BYTES = 24


class FaultSchedule:
    """A seeded plan: one fault decision per accepted connection.

    Rates are cumulative probabilities over one uniform draw per
    connection; whatever remains is a clean pass-through.  The decision
    log (:attr:`decisions`) makes a run's injections auditable, and
    :meth:`replay` confirms determinism: the same seed and connection
    count always produce the same sequence.
    """

    def __init__(
        self,
        seed: int,
        *,
        refuse: float = 0.0,
        reset: float = 0.0,
        delay: float = 0.0,
        delay_seconds: float = 0.05,
    ) -> None:
        for name, rate in (
            ("refuse", refuse), ("reset", reset), ("delay", delay)
        ):
            if not 0.0 <= rate <= 1.0:
                raise ClusterError(
                    f"fault rate {name}={rate} must be in [0, 1]"
                )
        if refuse + reset + delay > 1.0:
            raise ClusterError(
                "fault rates must sum to at most 1, got "
                f"{refuse + reset + delay}"
            )
        self.seed = seed
        self.refuse = refuse
        self.reset = reset
        self.delay = delay
        self.delay_seconds = delay_seconds
        self._rng = Random(seed)
        self._lock = threading.Lock()
        self.decisions: list[str] = []

    def next_fault(self) -> str:
        """The (seeded) decision for the next accepted connection."""
        with self._lock:
            draw = self._rng.random()
            if draw < self.refuse:
                kind = "refuse"
            elif draw < self.refuse + self.reset:
                kind = "reset"
            elif draw < self.refuse + self.reset + self.delay:
                kind = "delay"
            else:
                kind = "pass"
            self.decisions.append(kind)
            return kind

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(Counter(self.decisions))

    def replay(self, n: int) -> list[str]:
        """The first ``n`` decisions a fresh copy of this schedule makes."""
        twin = FaultSchedule(
            self.seed,
            refuse=self.refuse,
            reset=self.reset,
            delay=self.delay,
            delay_seconds=self.delay_seconds,
        )
        return [twin.next_fault() for _ in range(n)]


def _rst_close(sock: socket.socket) -> None:
    """Close with RST (SO_LINGER 0): the abrupt-death wire signature."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _pump(src: socket.socket, dst: socket.socket) -> None:
    """Copy bytes one way until EOF or error, then half-close the sink."""
    try:
        while True:
            chunk = src.recv(65536)
            if not chunk:
                break
            dst.sendall(chunk)
    except OSError:
        pass
    try:
        dst.shutdown(socket.SHUT_WR)
    except OSError:
        pass


class ChaosProxy:
    """A TCP proxy injecting one scheduled fault per connection."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        schedule: FaultSchedule,
        *,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.schedule = schedule
        self.host = host
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self.injected: Counter[str] = Counter()
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name=f"chaos-proxy:{self.port}", daemon=True
        )

    @property
    def address(self) -> str:
        """The ``host:port`` clients should dial instead of the worker."""
        return f"{self.host}:{self.port}"

    def start(self) -> "ChaosProxy":
        self._thread.start()
        return self

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        fault = self.schedule.next_fault()
        self.injected[fault] += 1
        if fault == "refuse":
            # The connection-refused shape: the client's first read (or
            # write) dies immediately — a worker that is simply gone.
            _rst_close(conn)
            return
        try:
            upstream = socket.create_connection(
                (self.upstream_host, self.upstream_port), timeout=10.0
            )
        except OSError:
            _rst_close(conn)
            return
        if fault == "delay":
            time.sleep(self.schedule.delay_seconds)
        if fault == "reset":
            self._reset_mid_response(conn, upstream)
            return
        threading.Thread(
            target=_pump, args=(conn, upstream), daemon=True
        ).start()
        _pump(upstream, conn)
        _rst_close(conn)
        try:
            upstream.close()
        except OSError:
            pass

    def _reset_mid_response(
        self, conn: socket.socket, upstream: socket.socket
    ) -> None:
        """Forward the request, truncate the response, RST both ends.

        The worker *receives and processes* the request — the nastiest
        failure shape for exactly-once claims, because the presumed-dead
        worker's side effects (cache writes, solves) really happened and
        the retry lands somewhere else.
        """
        threading.Thread(
            target=_pump, args=(conn, upstream), daemon=True
        ).start()
        forwarded = 0
        try:
            while forwarded < RESET_PREFIX_BYTES:
                chunk = upstream.recv(65536)
                if not chunk:
                    break
                conn.sendall(chunk[: RESET_PREFIX_BYTES - forwarded])
                forwarded += len(chunk[: RESET_PREFIX_BYTES - forwarded])
        except OSError:
            pass
        _rst_close(conn)
        try:
            upstream.close()
        except OSError:
            pass


class WorkerProcess:
    """One real ``repro shard-worker`` under test control.

    Spawns the same subprocess shape the coordinator does, but owns the
    identity/respawn story: :meth:`kill` SIGKILLs (no goodbye, no
    flush), and :meth:`respawn` restarts on a *fresh* port with the
    same identity arguments — the supervisor-restarts-a-crashed-worker
    scenario the stable-identity design exists for.
    """

    def __init__(
        self,
        *,
        worker_id: str | None = None,
        identity_file: str | None = None,
        host: str = "127.0.0.1",
        join: list[str] | None = None,
        cache_path: str | None = None,
        extra_args: list[str] | None = None,
    ) -> None:
        if not worker_id and not identity_file:
            raise ClusterError(
                "a chaos worker needs --worker-id or --identity-file"
            )
        self.worker_id = worker_id
        self.identity_file = identity_file
        self.host = host
        self.join = list(join or [])
        self.cache_path = cache_path
        self.extra_args = list(extra_args or [])
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.spawn_count = 0

    @property
    def address(self) -> str:
        if self.port is None:
            raise ClusterError("worker not spawned yet")
        return f"{self.host}:{self.port}"

    def spawn(self, *, startup_timeout: float = 60.0) -> "WorkerProcess":
        if self.process is not None and self.process.poll() is None:
            raise ClusterError("worker already running; kill() it first")
        self.port = free_port(self.host)
        command = [
            sys.executable,
            "-m",
            "repro",
            "shard-worker",
            "--host",
            self.host,
            "--port",
            str(self.port),
        ]
        if self.worker_id:
            command += ["--worker-id", self.worker_id]
        if self.identity_file:
            command += ["--identity-file", self.identity_file]
        for target in self.join:
            command += ["--join", target]
        if self.cache_path:
            command += ["--cache-path", self.cache_path]
        command += self.extra_args
        self.process = subprocess.Popen(
            command, env=_worker_environment()
        )
        self.spawn_count += 1
        with ShardClient(
            self.host, self.port, timeout=startup_timeout
        ) as client:
            client.wait_until_healthy(timeout=startup_timeout)
        return self

    def kill(self) -> None:
        """SIGKILL: no shutdown hooks, no cache flush, no goodbye."""
        if self.process is None:
            return
        try:
            self.process.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=10.0)

    def respawn(self, *, startup_timeout: float = 60.0) -> "WorkerProcess":
        """Restart after a kill: same identity, brand-new port."""
        if self.process is not None and self.process.poll() is None:
            self.kill()
        return self.spawn(startup_timeout=startup_timeout)

    def close(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)

    def __enter__(self) -> "WorkerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServerProcess:
    """One real ``repro serve`` front door under test control.

    The durable-state counterpart of :class:`WorkerProcess`: spawn a
    genuine server subprocess, SIGKILL it mid-request (:meth:`kill` — no
    drain, no final snapshot, the journal's fsync'd tail is all that
    survives), then :meth:`respawn` on a fresh port against the *same*
    ``state_dir`` and assert the recovered state answers.  SIGTERM via
    :meth:`terminate` exercises the graceful-drain path instead.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        state_dir: str | None = None,
        cache_path: str | None = None,
        extra_args: list[str] | None = None,
    ) -> None:
        self.host = host
        self.state_dir = state_dir
        self.cache_path = cache_path
        self.extra_args = list(extra_args or [])
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.spawn_count = 0

    @property
    def address(self) -> str:
        if self.port is None:
            raise ClusterError("server not spawned yet")
        return f"{self.host}:{self.port}"

    def client(self, **kwargs):
        """A :class:`~repro.service.client.ServiceClient` for this server."""
        from repro.service.client import ServiceClient

        if self.port is None:
            raise ClusterError("server not spawned yet")
        return ServiceClient(self.host, self.port, **kwargs)

    def spawn(self, *, startup_timeout: float = 60.0) -> "ServerProcess":
        if self.process is not None and self.process.poll() is None:
            raise ClusterError("server already running; kill() it first")
        self.port = free_port(self.host)
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            str(self.port),
        ]
        if self.state_dir:
            command += ["--state-dir", self.state_dir]
        if self.cache_path:
            command += ["--cache-path", self.cache_path]
        command += self.extra_args
        self.process = subprocess.Popen(command, env=_worker_environment())
        self.spawn_count += 1
        with self.client(timeout=startup_timeout) as probe:
            probe.wait_until_healthy(timeout=startup_timeout)
        return self

    def kill(self) -> None:
        """SIGKILL: no drain, no final snapshot — the crash scenario."""
        if self.process is None:
            return
        try:
            self.process.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=10.0)

    def terminate(self, *, timeout: float = 30.0) -> int:
        """SIGTERM and wait: the graceful drain + final-snapshot path.

        Returns the exit code, so tests can assert a clean shutdown.
        """
        if self.process is None:
            raise ClusterError("server not spawned yet")
        try:
            self.process.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        return self.process.wait(timeout=timeout)

    def respawn(self, *, startup_timeout: float = 60.0) -> "ServerProcess":
        """Restart after a kill: same state_dir, brand-new port."""
        if self.process is not None and self.process.poll() is None:
            self.kill()
        return self.spawn(startup_timeout=startup_timeout)

    def close(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
