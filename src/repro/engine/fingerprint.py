"""Canonical fingerprints of constraint systems.

A fingerprint is a stable SHA-256 over a canonical encoding of a system:
row order never matters (rows are encoded independently and sorted), and
within a row the (index, coefficient) pairs are sorted by index, so two
systems describing the same mathematics hash identically no matter how the
knowledge compiler happened to emit them.  Labels and ``kind`` tags are
deliberately excluded — they are diagnostics, not mathematics.

The encoding is computed straight from the system's CSR arrays in one
pass: a single ``lexsort`` of (row id, variable index) canonicalizes every
row's within-row order at once (instead of one ``argsort`` per row), and
the per-row byte strings are then cheap buffer slices of the two flat
sorted arrays.  The bytes produced are identical to the historical
row-at-a-time encoding, so fingerprints — and therefore persisted solve
caches — survive the array-native rewrite unchanged.

Two variants:

- :func:`fingerprint_system` — the *full* fingerprint (rows, coefficients,
  right-hand sides, total mass).  Equal fingerprints mean equal MaxEnt
  solutions, so this keys the solve cache.
- :func:`structure_fingerprint` — the same encoding *minus* right-hand
  sides and mass.  Equal structure means the dual has the same shape, so a
  previously converged multiplier vector is a useful warm start even when
  the rhs changed (the figure sweeps' "near-miss" systems).

Floats are encoded via their IEEE-754 bytes: no rounding, no repr
ambiguity, bit-identical inputs give bit-identical keys.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.maxent.constraints import ConstraintSystem, RowArrays


def _encode_family(
    arrays: RowArrays, family: bytes, *, with_rhs: bool
) -> list[bytes]:
    """Canonical per-row byte encodings of one row family.

    One lexsort canonicalizes within-row order for every row at once; the
    per-row strings are then buffer slices of the two flat sorted arrays.
    """
    n_rows = arrays.n_rows
    if n_rows == 0:
        return []
    indptr = arrays.indptr
    lengths = np.diff(indptr)
    row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
    order = np.lexsort((arrays.indices, row_ids))
    index_bytes = np.ascontiguousarray(
        arrays.indices[order], dtype=np.int64
    ).tobytes()
    coeff_bytes = np.ascontiguousarray(
        arrays.coefficients[order], dtype=np.float64
    ).tobytes()
    rhs = arrays.rhs
    encoded: list[bytes] = []
    for row in range(n_rows):
        lo = int(indptr[row]) * 8
        hi = int(indptr[row + 1]) * 8
        parts = [family, index_bytes[lo:hi], coeff_bytes[lo:hi]]
        if with_rhs:
            parts.append(struct.pack("<d", float(rhs[row])))
        encoded.append(b"\x00".join(parts))
    return encoded


def _digest(
    system: ConstraintSystem, *, mass: float | None, with_rhs: bool
) -> str:
    rows = _encode_family(
        system.equality_arrays(), b"E", with_rhs=with_rhs
    )
    rows += _encode_family(
        system.inequality_arrays(), b"I", with_rhs=with_rhs
    )
    rows.sort()
    digest = hashlib.sha256()
    digest.update(struct.pack("<q", system.n_vars))
    if mass is not None:
        digest.update(struct.pack("<d", mass))
    for encoded in rows:
        digest.update(struct.pack("<q", len(encoded)))
        digest.update(encoded)
    return digest.hexdigest()


def fingerprint_system(system: ConstraintSystem, mass: float = 1.0) -> str:
    """Full canonical fingerprint of ``system`` at total mass ``mass``.

    Stable under row permutation and within-row index reordering; sensitive
    to every index, coefficient, right-hand side, the variable count and
    the mass — exactly the inputs the solution depends on.
    """
    return _digest(system, mass=mass, with_rhs=True)


def structure_fingerprint(system: ConstraintSystem) -> str:
    """Fingerprint of the row *structure* only (no rhs, no mass).

    Keys the warm-start store: systems sharing a structure share a dual
    geometry, so converged multipliers transfer as starting points.
    """
    return _digest(system, mass=None, with_rhs=False)


def component_fingerprint(
    system: ConstraintSystem, mass: float, solve_key: tuple
) -> str:
    """Cache key of one component solve: system + mass + solver facets.

    ``solve_key`` is :meth:`repro.maxent.config.MaxEntConfig.solve_key` —
    the configuration facets (presolve, tolerance, budget, after the fixed
    ``"lbfgs"`` tag) a cached solution depends on.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint_system(system, mass).encode())
    digest.update(repr(solve_key).encode())
    return digest.hexdigest()
