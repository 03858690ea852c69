"""Privacy-MaxEnt benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ``src``).
Every process it starts gets ``OPENBLAS/OMP/MKL_NUM_THREADS=1`` and
``PYTHONHASHSEED=0``.  The run:

1. makes one discarded launch, which warms ``.pyc`` files and the page
   cache;
2. times set-up several times in fresh processes, each launch right
   after a reference launch (``reference_launch``), and keeps the
   median set-up over the median reference launch, in units of the
   development host's reference launch (``setup_s``);
3. starts a fresh worker process (``worker.py``) that runs a fixed
   number of ops, ``--seconds`` times the workload's nominal rate,
   scales each time by the host speed gauged around it, and checks
   every answer.

The last line of standard output is the JSON result; the line before it
is the host record.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from host import PINS  # noqa: E402
from layers import PER_LAYER  # noqa: E402

#: Nominal ops per second of run length: the op count of a run is fixed
#: by ``--seconds`` alone, never by how fast this host happens to be.
OPS_PER_SECOND = {
    "quantify-many-small": 1.2,
    "assess-topk": 0.6,
    "serve-durable": 1.2,
}
MIN_OPS = 4
SETUP_SAMPLES = {"quantify-many-small": 3, "assess-topk": 3, "serve-durable": 3}
DEADLINE_SECONDS = 170.0
#: What the reference launch imports: the numerical stack the program
#: loads, so that the launch does the same kind of work as set-up.
REFERENCE_IMPORTS = "import numpy, scipy.sparse, scipy.optimize"
#: Median reference launch on the development host when it was quiet.
REFERENCE_LAUNCH_SECONDS = 0.89

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "solve_p50_s": "s",
    "hit_p50_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def _environment() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_TRACE"] = "0"
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def _worker(*arguments: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *arguments]


def reference_launch(env: dict) -> float:
    """Seconds from spawn to exit of ``python3 -c REFERENCE_IMPORTS``.

    Set-up is process start, dynamic loading and imports, which the
    reference kernel of ``calibrate.py`` tracks poorly; this launch does
    the same kind of work and is independent of the program.
    """
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_IMPORTS],
        env=env, stdin=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - started


def _setup_in_process(workload: str, env: dict) -> tuple[float, dict]:
    """Spawn to ready: the entry points imported, the engine built."""
    started = time.perf_counter()
    process = subprocess.Popen(
        _worker("--workload", workload, "--setup-only"),
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    try:
        line = process.stdout.readline()
        seconds = time.perf_counter() - started
        process.stdout.read()
    finally:
        process.stdout.close()
        if process.wait(timeout=60) != 0:
            raise RuntimeError(f"set-up launch exited with {process.returncode}")
    return seconds, json.loads(line)


def _setup_server(env: dict) -> float:
    """Spawn to the first 200 from ``/v1/healthz``."""
    from server import Server

    state_dir = os.path.join(".perfbench_state", "setup-" + uuid.uuid4().hex[:12])
    server = Server(state_dir, env=env)
    try:
        return server.spawn()
    finally:
        code = server.stop()
        shutil.rmtree(state_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up server exited with {code}")


def measure_setup(
    workload: str, env: dict, references: list[float], *, trace: bool
) -> tuple[list[float], dict]:
    """Set-up samples after one discarded warming launch, plus, with
    ``trace``, the import layers.

    For ``serve-durable`` the samples are server spawns; in a traced run
    two extra launches that only import what ``repro serve`` imports give
    the import layer, and ``service.boot_s`` is what a spawn takes beyond
    such a launch.
    """
    serve = workload == "serve-durable"
    extra = 2 if serve and trace else 0
    launches = [_setup_in_process(workload, env) for _ in range(1 + extra)]
    samples = [_setup_server(env)] if serve else []
    for _ in range(SETUP_SAMPLES[workload]):
        references.append(reference_launch(env))
        if serve:
            samples.append(_setup_server(env))
        else:
            launches.append(_setup_in_process(workload, env))
            samples.append(launches[-1][0])
    if serve:
        samples.pop(0)  # the discarded server launch
    launches.pop(0)  # the discarded warming launch
    if not trace:
        return samples, {}
    layer = {
        "import.repro_s": statistics.median(r["import.repro_s"] for _, r in launches),
        "import.scipy_eager": max(r["import.scipy_eager"] for _, r in launches),
        "service.boot_s": (
            statistics.median(samples) - statistics.median(s for s, _ in launches)
            if serve else 0.0
        ),
    }
    return samples, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(OPS_PER_SECOND), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size (tiny: self-tests only)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt every answer before the check (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _environment()
    references: list[float] = []
    samples, setup_layers = measure_setup(
        args.workload, env, references, trace=bool(args.trace)
    )
    setup_factor = statistics.median(references) / REFERENCE_LAUNCH_SECONDS
    ops = max(MIN_OPS, round(args.seconds * OPS_PER_SECOND[args.workload]))
    if args.scale == "tiny":
        ops = MIN_OPS
    command = _worker(
        "--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops),
        "--trace", str(args.trace), "--scale", args.scale,
    )
    if args.perturb:
        command.append("--perturb")
    budget = DEADLINE_SECONDS - (time.perf_counter() - started)
    process = subprocess.Popen(
        command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    )
    try:
        stdout, _ = process.communicate(timeout=max(budget, 10.0))
    except subprocess.TimeoutExpired:
        process.terminate()  # the worker stops its servers on SIGTERM
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        print("perfbench: worker ran past the deadline", file=sys.stderr)
        return 1
    lines = stdout.decode("utf-8").strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"perfbench: worker exited with {process.returncode}",
              file=sys.stderr)
        return 1
    worker = json.loads(lines[-1])
    try:
        os.rmdir(".perfbench_state")
    except OSError:
        pass  # absent, or still holding another run's state

    if args.trace:
        values = {**worker["metrics"], **setup_layers}
        units = PER_LAYER
    else:
        values = {
            **worker["metrics"],
            "setup_s": statistics.median(samples) / setup_factor,
        }
        units = END_TO_END
    clean_exit = all(code == 0 for code in worker.get("server_exit", [0]))
    clean_log = worker.get("server_tracebacks", 0) == 0
    result = {
        "correct": worker["failed"] == 0 and clean_exit and clean_log,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "host": worker.get("host"),
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "setup_samples_s": samples,
        "setup_references_s": references,
        "setup_host_factor": setup_factor,
        "host_factor": worker.get("host_factor"),
        "raw": worker.get("raw"),
        "server_exit": worker.get("server_exit"),
        "server_tracebacks": worker.get("server_tracebacks"),
        "failures": worker.get("reasons"),
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
