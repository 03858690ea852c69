"""The host record every benchmark result carries.

CPU count and model, interpreter and numerical-library versions, the BLAS
library numpy was built against, the thread count each loaded OpenBLAS
actually runs with (asked through ctypes), the thread pins the runner
applied, and the filesystem under the service's state directory.
"""

from __future__ import annotations

import ctypes
import os
import platform

#: Thread pins the runner applies to every process it starts.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> dict:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _openblas_threads() -> dict:
    """Effective thread count of every OpenBLAS mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                path = line.rsplit(" ", 1)[-1].strip()
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(function())
                break
    return threads


def _filesystem(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def host_record(state_dir: str | None = None, *, nproc: int | None = None) -> dict:
    """The record; call it after numpy and scipy are imported.

    ``nproc`` defaults to this process's CPU affinity; a caller that has
    narrowed its own affinity passes the count it started with.
    """
    import numpy
    import scipy

    record = {
        "nproc": nproc or len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": _openblas_threads(),
        "pins": {name: os.environ.get(name) for name in PINS},
    }
    if state_dir is not None:
        record["state_dir_fs"] = _filesystem(state_dir)
    return record
