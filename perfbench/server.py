"""A ``repro serve --state-dir`` subprocess under the benchmark's control.

Spawn time runs until ``/v1/healthz`` first answers 200, polled every
5 ms.  Shutdown is SIGTERM (the graceful drain) after the caller has
closed its connections, and the exit code is kept.  The server's log goes
to a file in its state directory, so a shutdown traceback can be counted.
(``repro.cluster.chaos.ServerProcess`` polls health every 100 ms, too
coarse for ``setup_s``, and lets the server write to the caller's stderr.)
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time

HEALTH_POLL_SECONDS = 0.005


def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _healthy(host: str, port: int) -> bool:
    connection = http.client.HTTPConnection(host, port, timeout=1.0)
    try:
        connection.request("GET", "/v1/healthz")
        response = connection.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        connection.close()


class Server:
    """One server process; ``spawn`` returns the seconds until healthy."""

    def __init__(
        self, state_dir: str, *, env: dict, host: str = "127.0.0.1", cpus=None
    ):
        self.state_dir = state_dir
        self.env = env
        self.host = host
        self.cpus = cpus
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.exit_code: int | None = None
        self._log = None

    def spawn(self, *, timeout: float = 60.0) -> float:
        os.makedirs(self.state_dir, exist_ok=True)
        self.port = free_port(self.host)
        self._log = open(os.path.join(self.state_dir, "server.log"), "ab")
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", str(self.port),
            "--state-dir", self.state_dir,
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=(
                None if self.cpus is None
                else lambda: os.sched_setaffinity(0, self.cpus)
            ),
        )
        while not _healthy(self.host, self.port):
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} during boot"
                )
            if time.perf_counter() - started > timeout:
                raise RuntimeError("server did not become healthy")
            time.sleep(HEALTH_POLL_SECONDS)
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MB."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, *, timeout: float = 30.0) -> int:
        """SIGTERM, wait, and keep the exit code (kill on a hung drain)."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self.exit_code = self.process.returncode
        if self._log is not None:
            self._log.close()
            self._log = None
        return self.exit_code

    def tracebacks(self) -> int:
        """``Traceback`` lines the server logged."""
        path = os.path.join(self.state_dir, "server.log")
        with open(path, "rb") as handle:
            return handle.read().count(b"Traceback")
