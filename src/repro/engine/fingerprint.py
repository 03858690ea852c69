"""Canonical fingerprints of constraint systems and component stacks.

A fingerprint is a stable SHA-256 over a canonical encoding of a system:
row order never matters (rows are encoded independently and sorted), and
within a row the (index, coefficient) pairs are sorted by index, so two
systems describing the same mathematics hash identically no matter how the
knowledge compiler happened to emit them.  Labels and ``kind`` tags are
deliberately excluded — they are diagnostics, not mathematics.

The digest of one system hashes its variable count (``<q``), its mass
(``<d``, full keys only), then for each row in ascending byte order its
encoding's length (``<q``) and the encoding: the family byte (``E`` or
``I``), the row's indices (int64) and coefficients (float64) in index
order and, for full keys, its right-hand side (``<d``), the four parts
joined by zero bytes.

One encoder, :func:`_digests`, hashes many systems in one pass: the
segments of a :class:`~repro.maxent.decompose.StackedRows` (a whole
decomposition, or a single system as its one segment).  Rows of equal
length share a byte layout, so each length class is written as one 2-D
block; one stable sort over fixed-width keys (segment, the encoding's
first :data:`_PREFIX` bytes, its length) orders every segment's rows as
``sorted()`` orders their encodings, and only rows that tie on the
whole prefix while both being longer fall back to comparing full bytes.
The sorted records land in one buffer, and each segment is one
``sha256`` over its slice.  The bytes are those of the historical
row-at-a-time encoding, so fingerprints — and persisted solve caches —
are unchanged.

Two variants:

- the *full* fingerprint (rows, coefficients, right-hand sides, total
  mass; :func:`fingerprint_system`, :func:`component_keys`).  Equal
  fingerprints mean equal MaxEnt solutions, so this keys the solve cache.
- the *structure* fingerprint — the same encoding *minus* right-hand
  sides and mass (:func:`structure_fingerprint`, :func:`structure_keys`).
  Equal structure means the dual has the same shape, so a previously
  converged multiplier vector is a useful warm start even when the rhs
  changed (the figure sweeps' "near-miss" systems).

Floats are encoded via their IEEE-754 bytes: no rounding, no repr
ambiguity, bit-identical inputs give bit-identical keys.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.maxent.constraints import ConstraintSystem
from repro.maxent.decompose import ComponentStack, StackedRows

#: Encoding bytes the vectorized sort compares; longer rows tying on all
#: of them are ordered by comparing their full encodings.
_PREFIX = 64


def _big_endian(values: np.ndarray) -> np.ndarray:
    """Non-negative integers as rows of 8 big-endian bytes."""
    return values.astype(">u8").view(np.uint8).reshape(-1, 8)


def _length_class(
    rows: StackedRows, members: np.ndarray, length: int, family: np.ndarray,
    with_rhs: bool,
) -> np.ndarray:
    """The hashed records (length prefix + encoding) of equal-length rows."""
    n = members.size
    entries = rows.indptr[members][:, None] + np.arange(length)
    indices = rows.indices[entries]
    coefficients = rows.coefficients[entries]
    if length > 1 and not bool((indices[:, 1:] > indices[:, :-1]).all()):
        by_index = np.argsort(indices, axis=1)
        indices = np.take_along_axis(indices, by_index, axis=1)
        coefficients = np.take_along_axis(coefficients, by_index, axis=1)
    width = 8 * length
    encoded = 3 + 2 * width + (9 if with_rhs else 0)
    record = np.zeros((n, 8 + encoded), dtype=np.uint8)
    record[:, :8] = np.array([encoded], dtype="<i8").view(np.uint8)
    record[:, 8] = family[members]
    if length:
        record[:, 10 : 10 + width] = (
            np.ascontiguousarray(indices, dtype=np.int64)
            .view(np.uint8)
            .reshape(n, width)
        )
        record[:, 11 + width : 11 + 2 * width] = (
            np.ascontiguousarray(coefficients, dtype=np.float64)
            .view(np.uint8)
            .reshape(n, width)
        )
    if with_rhs:
        record[:, 12 + 2 * width :] = (
            rows.rhs[members].astype("<f8").view(np.uint8).reshape(n, 8)
        )
    return record


def _resort_ties(
    buffer: np.ndarray,
    keys: np.ndarray,
    order: np.ndarray,
    start: np.ndarray,
    record_length: np.ndarray,
) -> None:
    """Reorder, by full bytes, runs of rows tying on the sort prefix.

    A run (same segment, same first ``_PREFIX`` bytes) is already right
    unless two of its rows are longer than the prefix; such runs are
    re-sorted in place within their slice of ``buffer``.
    """
    words = keys.view(np.uint64)[order, :-1]
    tie = (words[1:] == words[:-1]).all(axis=1)
    if not tie.any():
        return
    run = np.concatenate(([0], np.cumsum(~tie)))
    sizes = np.bincount(run)
    long = np.bincount(run, weights=record_length[order] > 8 + _PREFIX)
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    for index in np.flatnonzero(long > 1).tolist():
        members = order[first[index] : first[index] + sizes[index]].tolist()
        spans = [
            (int(start[r]), int(start[r] + record_length[r])) for r in members
        ]
        records = [buffer[lo:hi].tobytes() for lo, hi in spans]
        records.sort(key=lambda record: record[8:])
        buffer[spans[0][0] : spans[-1][1]] = np.frombuffer(
            b"".join(records), dtype=np.uint8
        )


def _digests(rows: StackedRows, n_vars, masses) -> list[str]:
    """SHA-256 hex digest of every segment of ``rows``.

    ``n_vars`` gives each segment's variable count; ``masses`` its mass
    for full keys, or ``None`` for structure keys (no rhs, no mass).
    """
    with_rhs = masses is not None
    n_segments = rows.row_indptr.size - 1
    n_rows = rows.rhs.size
    lengths = np.diff(rows.indptr)
    segment = np.repeat(np.arange(n_segments), np.diff(rows.row_indptr))
    family = np.where(rows.is_equality(), ord("E"), ord("I")).astype(np.uint8)
    record_length = 8 + 3 + 16 * lengths + (9 if with_rhs else 0)

    # Sort keys, compared bytewise: segment, the encoding's first _PREFIX
    # bytes (zero-padded), the encoding's length.
    keys = np.zeros((n_rows, 16 + _PREFIX), dtype=np.uint8)
    keys[:, :8] = _big_endian(segment)
    classes = []
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    bounds = np.flatnonzero(np.diff(sorted_lengths)) + 1
    for members in np.split(by_length, bounds) if n_rows else ():
        length = int(lengths[members[0]])
        record = _length_class(rows, members, length, family, with_rhs)
        width = min(_PREFIX, record.shape[1] - 8)
        keys[members, 8 : 8 + width] = record[:, 8 : 8 + width]
        classes.append((members, record))
    keys[:, 8 + _PREFIX :] = _big_endian(record_length - 8)
    order = np.argsort(keys.view(f"V{keys.shape[1]}").ravel(), kind="stable")

    # Records in sorted order, each segment after its header.
    header = 16 if with_rhs else 8
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(record_length[order], out=offsets[1:])
    start = np.empty(n_rows, dtype=np.int64)
    start[order] = offsets[:-1] + header * (segment[order] + 1)
    segment_bounds = offsets[rows.row_indptr] + header * np.arange(
        n_segments + 1
    )
    buffer = np.zeros(int(segment_bounds[-1]), dtype=np.uint8)
    heads = np.zeros((n_segments, header), dtype=np.uint8)
    heads[:, :8] = (
        np.asarray(n_vars, dtype="<i8").view(np.uint8).reshape(-1, 8)
    )
    if with_rhs:
        heads[:, 8:] = (
            np.asarray(masses, dtype="<f8").view(np.uint8).reshape(-1, 8)
        )
    if n_segments:
        sliding_window_view(buffer, header, writeable=True)[
            segment_bounds[:-1]
        ] = heads
    for members, record in classes:
        sliding_window_view(buffer, record.shape[1], writeable=True)[
            start[members]
        ] = record
    if bool((record_length > 8 + _PREFIX).any()):
        _resort_ties(buffer, keys, order, start, record_length)

    view = memoryview(buffer)
    bounds_list = segment_bounds.tolist()
    return [
        hashlib.sha256(view[lo:hi]).hexdigest()
        for lo, hi in zip(bounds_list[:-1], bounds_list[1:])
    ]


def _with_solve_key(digests: list[str], solve_key: tuple) -> list[str]:
    """Cache keys: each system digest combined with the solver facets."""
    suffix = repr(solve_key).encode()
    return [
        hashlib.sha256(digest.encode() + suffix).hexdigest()
        for digest in digests
    ]


def component_keys(
    stack: ComponentStack, positions, solve_key: tuple
) -> list[str]:
    """Solve-cache keys of the stack's components at ``positions``.

    Each equals :func:`component_fingerprint` of that component's own
    system and mass.
    """
    positions = np.asarray(positions, dtype=np.int64)
    digests = _digests(
        stack.rows(positions),
        stack.var_counts[positions],
        stack.masses[positions],
    )
    return _with_solve_key(digests, solve_key)


def structure_keys(stack: ComponentStack, positions) -> list[str]:
    """Structure fingerprints of the stack's components at ``positions``."""
    positions = np.asarray(positions, dtype=np.int64)
    return _digests(stack.rows(positions), stack.var_counts[positions], None)


def fingerprint_system(system: ConstraintSystem, mass: float = 1.0) -> str:
    """Full canonical fingerprint of ``system`` at total mass ``mass``.

    Stable under row permutation and within-row index reordering; sensitive
    to every index, coefficient, right-hand side, the variable count and
    the mass — exactly the inputs the solution depends on.
    """
    return _digests(StackedRows.of_system(system), [system.n_vars], [mass])[0]


def structure_fingerprint(system: ConstraintSystem) -> str:
    """Fingerprint of the row *structure* only (no rhs, no mass).

    Keys the warm-start store: systems sharing a structure share a dual
    geometry, so converged multipliers transfer as starting points.
    """
    return _digests(StackedRows.of_system(system), [system.n_vars], None)[0]


def component_fingerprint(
    system: ConstraintSystem, mass: float, solve_key: tuple
) -> str:
    """Cache key of one component solve: system + mass + solver facets.

    ``solve_key`` is :meth:`repro.maxent.config.MaxEntConfig.solve_key` —
    the configuration facets (presolve, tolerance, budget, after the fixed
    ``"lbfgs"`` tag) a cached solution depends on.
    """
    return _with_solve_key([fingerprint_system(system, mass)], solve_key)[0]
