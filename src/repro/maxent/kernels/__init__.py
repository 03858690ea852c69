"""Segment-reduction kernel backends for the stacked dual solver.

The batched block-diagonal dual (:mod:`repro.maxent.batch_dual`) spends
its iterations in segment-wise reductions over block offsets: the
logsumexp/softmax that maps stacked multipliers to the stacked primal
point, the per-block residual maxima behind convergence masking, and
the Hessian-vector inner products of the Newton-CG polish.  This package
is the seam that lets those reductions run on more than one
implementation:

- ``"numpy"`` — the reference backend: the original ``np.ufunc.reduceat``
  code, moved behind the interface verbatim.  Always available.
- ``"numba"`` — a JIT-compiled backend with a parallel ``prange`` over
  blocks (``pip install repro[numba]``).  Optional: importing it is
  attempted lazily and failure simply leaves it unavailable.
- ``"auto"`` — numba when importable, else numpy.  The default.

The engine always asks for ``"auto"``: the backend follows from what the
host can import, not from a user option.  Naming a backend explicitly
(:func:`get_kernel`, ``solve_batch_dual(kernel=...)``) is for benchmarks
and the kernel-equivalence tests; naming ``"numba"`` on a host without
numba fails loudly instead of quietly running something else.  Backends
are tolerance-equivalent, not bit-identical — exactly the contract the
batched path already trades under (``MaxEntConfig.replay``).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.maxent.kernels.reference import (
    NUMPY_KERNEL,
    KernelBackend,
    segment_max,
    segment_min,
    segment_sum,
)

#: Names accepted by :func:`get_kernel`.
KERNEL_NAMES = ("auto", "numpy", "numba")

#: Lazily resolved numba backend: unset -> not yet attempted,
#: ``None`` -> attempted and unavailable.
_NUMBA_KERNEL: KernelBackend | None | str = "unresolved"


def _numba_kernel() -> KernelBackend | None:
    """The numba backend, imported (and JIT-registered) on first use."""
    global _NUMBA_KERNEL
    if _NUMBA_KERNEL == "unresolved":
        try:
            from repro.maxent.kernels.numba_backend import NUMBA_KERNEL

            _NUMBA_KERNEL = NUMBA_KERNEL
        except ImportError:
            _NUMBA_KERNEL = None
    return _NUMBA_KERNEL  # type: ignore[return-value]


def available_backends() -> tuple[str, ...]:
    """Concrete backend names usable on this host (numpy always)."""
    return ("numpy", "numba") if _numba_kernel() is not None else ("numpy",)


def get_kernel(name: str | KernelBackend = "auto") -> KernelBackend:
    """Resolve a kernel selection to a concrete backend.

    ``"auto"`` prefers numba when importable and falls back to numpy; a
    pre-resolved :class:`KernelBackend` passes through unchanged (how
    the solver threads one resolution through a whole batch).
    """
    if not isinstance(name, str):
        # A pre-resolved backend object (anything but a name).
        return name
    if name == "auto":
        return _numba_kernel() or NUMPY_KERNEL
    if name == "numpy":
        return NUMPY_KERNEL
    if name == "numba":
        kernel = _numba_kernel()
        if kernel is None:
            raise ReproError(
                "kernel 'numba' requested but numba is not importable; "
                "install the extra (pip install repro[numba]) or use "
                "kernel='numpy'/'auto'"
            )
        return kernel
    raise ReproError(
        f"unknown kernel {name!r}; choose one of {KERNEL_NAMES}"
    )


__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "available_backends",
    "get_kernel",
    "segment_max",
    "segment_min",
    "segment_sum",
]
