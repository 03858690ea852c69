"""Numeric constraint systems over a variable space.

A :class:`ConstraintSystem` collects equality rows ``a . p = c`` and
inequality rows ``g . p <= d``.  Storage is *structure-of-arrays*: each row
family is a CSR triple ``(indptr, indices, coefficients)`` plus parallel
per-row arrays for right-hand sides and ``kind`` tags and a label list —
the array-native representation the whole construction pipeline (group-by
invariant build, csgraph decomposition, one-pass fingerprinting) operates
on without ever materializing per-row Python objects.

Two append surfaces:

- the batch APIs :meth:`ConstraintSystem.add_equalities` /
  :meth:`ConstraintSystem.add_inequalities` take whole CSR blocks at once
  (validated vectorized) — the hot path,
- the legacy per-row :meth:`ConstraintSystem.add_equality` /
  :meth:`ConstraintSystem.add_inequality` remain as thin wrappers
  appending one-row blocks — convenient for hand-built systems and tests,
  and guaranteed (by a property test) to produce bit-identical CSR
  matrices to the batch path.

Rows carry a ``kind`` tag ("qi", "sa", "person", "slot", "bk", ...) used by
decomposition, presolve diagnostics and the experiment harness, plus a
human-readable label for error messages.  :class:`Row` objects still exist
as *views*: the ``equalities`` / ``inequalities`` properties materialize
them lazily from the arrays for row-at-a-time consumers.

:func:`data_constraints` builds the *data* rows of Section 5 (and their
Section 6 pseudonym-space analogues) — the sound, complete and concise
invariant set proven in Theorems 1-3 — as three grouped sorts over the
variable arrays instead of one full-length boolean mask per invariant row.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

VariableSpace = GroupVariableSpace | PersonVariableSpace

# -- kind interning -------------------------------------------------------------
#
# Row kinds are short strings drawn from a tiny vocabulary, so every store
# keeps them as int codes into a process-wide intern table.  This makes all
# kind-based operations (decomposition's knowledge-row counts, the
# mass-partition sums, redundant-row filtering) pure integer vector ops and
# lets systems merge without any vocabulary remapping.

_KIND_CODES: dict[str, int] = {}
_KIND_NAMES: list[str] = []
_KIND_LOCK = threading.Lock()


def kind_code(kind: str) -> int:
    """Intern ``kind`` and return its process-wide integer code."""
    code = _KIND_CODES.get(kind)
    if code is None:
        # Interning mutates the shared table; service threads compile
        # concurrently, so first-time kinds must be assigned under a lock
        # (unlocked dict reads above are safe — codes never change).
        with _KIND_LOCK:
            code = _KIND_CODES.get(kind)
            if code is None:
                code = len(_KIND_NAMES)
                _KIND_NAMES.append(kind)
                _KIND_CODES[kind] = code
    return code


def kind_name(code: int) -> str:
    """The kind string of an interned code."""
    return _KIND_NAMES[code]


def known_kind_codes(kinds) -> np.ndarray:
    """Codes of the given kinds that are interned (unknown ones omitted)."""
    codes = [_KIND_CODES[k] for k in kinds if k in _KIND_CODES]
    return np.array(sorted(codes), dtype=np.int64)


def _objects(values: list) -> np.ndarray:
    """``values`` as a flat object array (items are never unpacked)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _described(statement, suffix: str) -> str:
    return statement.describe() + suffix


class RowLabels(Sequence):
    """The labels of a row family, formatted only when read.

    Labels name rows in errors and diagnostics; a solve reads almost none
    of them, so no label is formatted until it is read.  The sequence is
    a list of segments ``(render, columns)``: row ``i`` of a segment is
    ``render(*(column[i] for column in columns))``.  Data rows render a
    format string over their id arrays (:meth:`formatted`), knowledge
    rows their statement's ``describe()`` (:meth:`described`), and rows
    appended without labels ``kind[i]``.  ``+`` and :meth:`take` build
    new sequences without formatting anything; iterating formats every
    label.  A ``RowLabels`` equals a list of the same strings.
    """

    __slots__ = ("_segments", "_offsets")

    def __init__(self, segments=()) -> None:
        self._segments = tuple(s for s in segments if len(s[1][0]))
        offsets = [0]
        for _, columns in self._segments:
            offsets.append(offsets[-1] + len(columns[0]))
        self._offsets = offsets

    @classmethod
    def formatted(cls, fmt: str, *columns) -> "RowLabels":
        """Row ``i`` reads ``fmt.format(*(c[i] for c in columns))``."""
        return cls([(fmt.format, columns)])

    @classmethod
    def described(cls, statements: np.ndarray, suffixes: np.ndarray) -> "RowLabels":
        """Row ``i`` reads ``statements[i].describe() + suffixes[i]``
        (both object arrays)."""
        return cls([(_described, (statements, suffixes))])

    @classmethod
    def of(cls, labels: Sequence[str]) -> "RowLabels":
        """``labels`` as a ``RowLabels`` (a given one is returned as is)."""
        if isinstance(labels, RowLabels):
            return labels
        return cls.formatted("{}", _objects(list(labels)))

    @classmethod
    def concat(cls, parts: Sequence["RowLabels"]) -> "RowLabels":
        """The labels of ``parts``, one after another."""
        return cls([segment for part in parts for segment in part._segments])

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, index: int) -> str:
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"row label {index} of {n}")
        index = int(index) % n
        k = bisect_right(self._offsets, index) - 1
        render, columns = self._segments[k]
        local = index - self._offsets[k]
        return render(*(column[local] for column in columns))

    def __iter__(self):
        for render, columns in self._segments:
            yield from map(render, *(column.tolist() for column in columns))

    def __add__(self, other):
        if not isinstance(other, RowLabels):
            return NotImplemented
        return RowLabels(self._segments + other._segments)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RowLabels, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return RowLabels, (self._segments,)

    def __repr__(self) -> str:
        return f"RowLabels({list(self)!r})"

    def take(self, rows) -> "RowLabels":
        """The labels of rows ``rows`` (positions), in that order.

        Each run of rows from one segment becomes one segment of the
        result, so ascending ``rows`` give at most as many segments.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return _NO_LABELS
        offsets = np.asarray(self._offsets)
        segment = np.searchsorted(offsets, rows, side="right") - 1
        bounds = [0, *(np.flatnonzero(np.diff(segment)) + 1).tolist(), rows.size]
        parts = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            k = int(segment[lo])
            render, columns = self._segments[k]
            local = rows[lo:hi] - offsets[k]
            parts.append((render, tuple(column[local] for column in columns)))
        return RowLabels(parts)


_NO_LABELS = RowLabels()


class RowArrays(NamedTuple):
    """One row family as flat CSR-style arrays (the SoA view).

    ``indptr`` has ``n_rows + 1`` entries; row ``r`` owns
    ``indices[indptr[r]:indptr[r+1]]`` and the parallel ``coefficients``
    slice.  ``kind_codes`` index the process-wide kind intern table
    (decode with :func:`kind_name`).  ``labels`` formats each row's label
    when it is read (:class:`RowLabels`).  All arrays are owned by the
    system — treat them as read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray
    rhs: np.ndarray
    kind_codes: np.ndarray
    labels: RowLabels

    @property
    def n_rows(self) -> int:
        return int(self.rhs.size)

    def row_lengths(self) -> np.ndarray:
        """Entries per row (``diff`` of the indptr)."""
        return np.diff(self.indptr)

    def kinds(self) -> list[str]:
        """Decoded kind strings, one per row."""
        return [_KIND_NAMES[int(code)] for code in self.kind_codes]


_EMPTY_INDPTR = np.zeros(1, dtype=np.int64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


def _empty_arrays() -> RowArrays:
    return RowArrays(
        indptr=_EMPTY_INDPTR,
        indices=_EMPTY_I64,
        coefficients=_EMPTY_F64,
        rhs=_EMPTY_F64,
        kind_codes=_EMPTY_I64,
        labels=_NO_LABELS,
    )


@dataclass(frozen=True)
class Row:
    """One linear row: ``sum(coefficients * p[indices]) (=|<=) rhs``."""

    indices: np.ndarray
    coefficients: np.ndarray
    rhs: float
    kind: str
    label: str

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        coefficients = np.asarray(self.coefficients, dtype=float)
        if indices.shape != coefficients.shape or indices.ndim != 1:
            raise ReproError(
                f"row {self.label!r}: indices and coefficients must be "
                "1-D arrays of equal length"
            )
        if indices.size > 1:
            ordered = np.sort(indices)
            if bool((ordered[1:] == ordered[:-1]).any()):
                raise ReproError(f"row {self.label!r} repeats a variable index")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "coefficients", coefficients)

    def buckets(self, space: VariableSpace) -> frozenset[int]:
        """The set of bucket indices this row touches (cached per space)."""
        cache = getattr(self, "_buckets_cache", None)
        if cache is not None and cache[0] is space:
            return cache[1]
        result = frozenset(np.unique(space.var_bucket[self.indices]).tolist())
        object.__setattr__(self, "_buckets_cache", (space, result))
        return result

    def value(self, p: np.ndarray) -> float:
        """Evaluate the row's left-hand side at ``p``."""
        return float(self.coefficients @ p[self.indices])


def _row_view(indices, coefficients, rhs, kind, label) -> Row:
    """Materialize a :class:`Row` from already-validated store arrays."""
    row = object.__new__(Row)
    object.__setattr__(row, "indices", indices)
    object.__setattr__(row, "coefficients", coefficients)
    object.__setattr__(row, "rhs", rhs)
    object.__setattr__(row, "kind", kind)
    object.__setattr__(row, "label", label)
    return row


class _RowStore:
    """Append-friendly SoA storage of one row family.

    Batches land as blocks; reads compact them into one flat CSR triple
    (amortized — the flat form is cached until the next append).
    """

    __slots__ = ("n_vars", "_blocks", "_flat", "_n_rows", "_nnz", "_rows")

    def __init__(self, n_vars: int) -> None:
        self.n_vars = n_vars
        self._blocks: list[RowArrays] = []
        self._flat: RowArrays | None = None
        self._n_rows = 0
        self._nnz = 0
        self._rows: tuple[Row, ...] | None = None

    def __len__(self) -> int:
        return self._n_rows

    # -- pickling ------------------------------------------------------------
    #
    # Kind codes index a *process-local* intern table, so a pickle must
    # carry the kind names and re-intern on load — a spawn-started pool
    # worker (empty table) or a fork that predates a kind's first interning
    # would otherwise decode codes against the wrong table.

    def __getstate__(self) -> dict:
        flat = self.arrays()
        local_names = [_KIND_NAMES[int(c)] for c in np.unique(flat.kind_codes)]
        local_code_of = {name: i for i, name in enumerate(local_names)}
        if flat.n_rows:
            to_local = np.empty(
                int(flat.kind_codes.max()) + 1, dtype=np.int64
            )
            for name, local in local_code_of.items():
                to_local[_KIND_CODES[name]] = local
            local_codes = to_local[flat.kind_codes]
        else:
            local_codes = flat.kind_codes
        return {
            "n_vars": self.n_vars,
            "arrays": flat._replace(kind_codes=local_codes),
            "kind_names": local_names,
        }

    def __setstate__(self, state: dict) -> None:
        self.n_vars = state["n_vars"]
        flat: RowArrays = state["arrays"]
        names: list[str] = state["kind_names"]
        if names:
            global_codes = np.array(
                [kind_code(name) for name in names], dtype=np.int64
            )
            flat = flat._replace(kind_codes=global_codes[flat.kind_codes])
        self._blocks = [flat]
        self._flat = flat
        self._n_rows = flat.n_rows
        self._nnz = int(flat.indices.size)
        self._rows = None

    # -- appending -----------------------------------------------------------

    def append_batch(
        self,
        indptr,
        indices,
        coefficients,
        rhs,
        kinds,
        labels: Sequence[str] | None,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        coefficients = np.ascontiguousarray(coefficients, dtype=np.float64)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        n_rows = rhs.size

        if isinstance(kinds, str):
            codes = np.full(n_rows, kind_code(kinds), dtype=np.int64)
        elif isinstance(kinds, np.ndarray) and kinds.dtype.kind in "iu":
            # Pre-interned kind codes (internal fast path: decomposition,
            # presolve and row filters slice them straight from a store).
            codes = np.ascontiguousarray(kinds, dtype=np.int64)
        else:
            codes = np.array([kind_code(k) for k in kinds], dtype=np.int64)
        if codes.size != n_rows:
            raise ReproError(
                f"batch append: {codes.size} kinds for {n_rows} rows"
            )

        if labels is None:
            labels = RowLabels.formatted(
                "{}[{}]",
                _objects(_KIND_NAMES)[codes],
                np.arange(self._n_rows, self._n_rows + n_rows),
            )
        else:
            labels = RowLabels.of(labels)
            if len(labels) != n_rows:
                raise ReproError(
                    f"batch append: {len(labels)} labels for {n_rows} rows"
                )

        if validate:
            self._validate(indptr, indices, coefficients, n_rows, labels)

        self._blocks.append(
            RowArrays(indptr, indices, coefficients, rhs, codes, labels)
        )
        self._n_rows += n_rows
        self._nnz += indices.size
        self._flat = None
        self._rows = None

    def _validate(self, indptr, indices, coefficients, n_rows, labels) -> None:
        if indptr.ndim != 1 or indptr.size != n_rows + 1:
            raise ReproError(
                f"batch append: indptr must have {n_rows + 1} entries, "
                f"got {indptr.size}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ReproError(
                "batch append: indptr must start at 0 and end at the number "
                "of index entries"
            )
        lengths = np.diff(indptr)
        if bool((lengths < 0).any()):
            raise ReproError("batch append: indptr must be non-decreasing")
        if indices.shape != coefficients.shape or indices.ndim != 1:
            raise ReproError(
                "batch append: indices and coefficients must be 1-D arrays "
                "of equal length"
            )
        if indices.size:
            lo = int(indices.min())
            hi = int(indices.max())
            if lo < 0 or hi >= self.n_vars:
                bad_entry = int(
                    np.nonzero((indices < 0) | (indices >= self.n_vars))[0][0]
                )
                bad_row = int(
                    np.searchsorted(indptr, bad_entry, side="right") - 1
                )
                raise ReproError(
                    f"row {labels[bad_row]!r} references variables outside "
                    f"[0, {self.n_vars})"
                )
            # Duplicate-index check: one lexsort over (row, index), then a
            # single adjacent comparison — no per-row np.unique.
            row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
            order = np.lexsort((indices, row_ids))
            sorted_idx = indices[order]
            sorted_rows = row_ids[order]
            dup = (sorted_idx[1:] == sorted_idx[:-1]) & (
                sorted_rows[1:] == sorted_rows[:-1]
            )
            if bool(dup.any()):
                bad_row = int(sorted_rows[1:][dup][0])
                raise ReproError(
                    f"row {labels[bad_row]!r} repeats a variable index"
                )

    def append_arrays(self, arrays: RowArrays) -> None:
        """Append an already-validated block from another store."""
        if arrays.n_rows == 0:
            return
        self._blocks.append(arrays)
        self._n_rows += arrays.n_rows
        self._nnz += arrays.indices.size
        self._flat = None
        self._rows = None

    # -- reading -------------------------------------------------------------

    def arrays(self) -> RowArrays:
        """The whole family as one flat CSR block (compacted, cached)."""
        if self._flat is None:
            if not self._blocks:
                self._flat = _empty_arrays()
            elif len(self._blocks) == 1:
                self._flat = self._blocks[0]
            else:
                offsets = np.cumsum(
                    [0] + [b.indices.size for b in self._blocks[:-1]]
                )
                indptr = np.concatenate(
                    [self._blocks[0].indptr]
                    + [
                        b.indptr[1:] + off
                        for b, off in zip(self._blocks[1:], offsets[1:])
                    ]
                )
                labels = RowLabels.concat([b.labels for b in self._blocks])
                self._flat = RowArrays(
                    indptr=indptr,
                    indices=np.concatenate(
                        [b.indices for b in self._blocks]
                    ),
                    coefficients=np.concatenate(
                        [b.coefficients for b in self._blocks]
                    ),
                    rhs=np.concatenate([b.rhs for b in self._blocks]),
                    kind_codes=np.concatenate(
                        [b.kind_codes for b in self._blocks]
                    ),
                    labels=labels,
                )
            self._blocks = [self._flat]
        return self._flat

    def rows(self) -> tuple[Row, ...]:
        """Materialized :class:`Row` views (lazy, cached)."""
        if self._rows is None:
            flat = self.arrays()
            indptr = flat.indptr
            labels = list(flat.labels)
            self._rows = tuple(
                _row_view(
                    flat.indices[indptr[r] : indptr[r + 1]],
                    flat.coefficients[indptr[r] : indptr[r + 1]],
                    float(flat.rhs[r]),
                    _KIND_NAMES[int(flat.kind_codes[r])],
                    labels[r],
                )
                for r in range(flat.n_rows)
            )
        return self._rows

    def matrix(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(M, rhs)`` as a scipy CSR matrix plus the rhs vector.

        The matrix gets private copies of the arrays: scipy canonicalizes
        (sorts / deduplicates) lazily in place, which must never mutate the
        store.
        """
        import scipy.sparse as sp

        flat = self.arrays()
        matrix = sp.csr_matrix(
            (
                flat.coefficients.copy(),
                flat.indices.copy(),
                flat.indptr.copy(),
            ),
            shape=(flat.n_rows, self.n_vars),
        )
        return matrix, flat.rhs.copy()


class ConstraintSystem:
    """A mutable collection of equality and inequality rows (SoA-backed)."""

    def __init__(self, n_vars: int) -> None:
        if n_vars < 0:
            raise ReproError("n_vars must be non-negative")
        self._n_vars = n_vars
        self._eq = _RowStore(n_vars)
        self._ineq = _RowStore(n_vars)

    # -- building -------------------------------------------------------------

    def add_equality(
        self,
        indices,
        coefficients,
        rhs: float,
        *,
        kind: str,
        label: str = "",
    ) -> None:
        """Append the equality row ``coefficients . p[indices] = rhs``.

        Thin wrapper over :meth:`add_equalities` with a one-row block.
        """
        self._add_single(self._eq, indices, coefficients, rhs, kind, label)

    def add_inequality(
        self,
        indices,
        coefficients,
        upper: float,
        *,
        kind: str,
        label: str = "",
    ) -> None:
        """Append the inequality row ``coefficients . p[indices] <= upper``.

        Thin wrapper over :meth:`add_inequalities` with a one-row block.
        """
        self._add_single(self._ineq, indices, coefficients, upper, kind, label)

    def _add_single(
        self, store: _RowStore, indices, coefficients, rhs, kind, label
    ) -> None:
        indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        coefficients = np.atleast_1d(np.asarray(coefficients, dtype=np.float64))
        if indices.shape != coefficients.shape or indices.ndim != 1:
            raise ReproError(
                f"row {label or kind!r}: indices and coefficients must be "
                "1-D arrays of equal length"
            )
        indptr = np.array([0, indices.size], dtype=np.int64)
        store.append_batch(
            indptr,
            indices,
            coefficients,
            np.array([float(rhs)]),
            kind,
            [label] if label else None,
        )

    def add_equalities(
        self,
        indptr,
        indices,
        coefficients,
        rhs,
        *,
        kinds,
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        """Append a whole CSR block of equality rows at once.

        ``indptr`` delimits rows within ``indices`` / ``coefficients``
        exactly as in scipy CSR; ``rhs`` has one entry per row.  ``kinds``
        is a single kind string (broadcast) or one string per row;
        ``labels`` defaults to auto-generated ``kind[i]`` names.  Pass
        ``validate=False`` only for rows sliced from an already-validated
        system (the decomposition / presolve fast path).
        """
        self._eq.append_batch(
            indptr, indices, coefficients, rhs, kinds, labels,
            validate=validate,
        )

    def add_inequalities(
        self,
        indptr,
        indices,
        coefficients,
        upper,
        *,
        kinds,
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        """Append a whole CSR block of inequality rows at once."""
        self._ineq.append_batch(
            indptr, indices, coefficients, upper, kinds, labels,
            validate=validate,
        )

    def extend(self, other: "ConstraintSystem") -> None:
        """Append every row of ``other`` (same variable space required).

        Array-native: the other system's compacted blocks are appended by
        reference (no per-row copying).
        """
        if other.n_vars != self._n_vars:
            raise ReproError(
                f"cannot merge systems over {other.n_vars} and "
                f"{self._n_vars} variables"
            )
        self._eq.append_arrays(other._eq.arrays())
        self._ineq.append_arrays(other._ineq.arrays())

    # -- inspection ---------------------------------------------------------

    @property
    def n_vars(self) -> int:
        """Dimension of the variable space the rows index into."""
        return self._n_vars

    @property
    def equalities(self) -> tuple[Row, ...]:
        """All equality rows, in insertion order (lazy views)."""
        return self._eq.rows()

    @property
    def inequalities(self) -> tuple[Row, ...]:
        """All inequality rows, in insertion order (lazy views)."""
        return self._ineq.rows()

    @property
    def n_equalities(self) -> int:
        """Number of equality rows."""
        return len(self._eq)

    @property
    def n_inequalities(self) -> int:
        """Number of inequality rows."""
        return len(self._ineq)

    def equality_arrays(self) -> RowArrays:
        """The equality family as flat CSR arrays (the SoA hot path)."""
        return self._eq.arrays()

    def inequality_arrays(self) -> RowArrays:
        """The inequality family as flat CSR arrays."""
        return self._ineq.arrays()

    def rows_of_kind(self, kind: str) -> tuple[Row, ...]:
        """All rows (both families) tagged with ``kind``."""
        code = _KIND_CODES.get(kind)
        if code is None:
            return ()
        rows = []
        for store in (self._eq, self._ineq):
            flat = store.arrays()
            if flat.n_rows and bool((flat.kind_codes == code).any()):
                all_rows = store.rows()
                rows.extend(
                    all_rows[r]
                    for r in np.nonzero(flat.kind_codes == code)[0]
                )
        return tuple(rows)

    # -- assembly ------------------------------------------------------------

    def equality_matrix(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(A, c)`` with one row per equality."""
        return self._eq.matrix()

    def inequality_matrix(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(G, d)`` with one row per inequality (``G p <= d``)."""
        return self._ineq.matrix()

    def residual(self, p: np.ndarray) -> float:
        """Worst violation of any row at ``p`` (0 when all satisfied)."""
        worst = 0.0
        eq = self._eq.arrays()
        if eq.n_rows:
            matrix, rhs = self._eq.matrix()
            worst = float(np.abs(matrix @ p - rhs).max())
        ineq = self._ineq.arrays()
        if ineq.n_rows:
            matrix, rhs = self._ineq.matrix()
            excess = matrix @ p - rhs
            worst = max(worst, float(np.clip(excess, 0.0, None).max()))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConstraintSystem(n_vars={self._n_vars}, "
            f"eq={self.n_equalities}, ineq={self.n_inequalities})"
        )


# -- grouped invariant construction ---------------------------------------------


def _boundary_groups(
    primary: np.ndarray, secondary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group variables by the (primary, secondary) key pair.

    Returns ``(order, indptr, group_primary, group_secondary)``: ``order``
    is a permutation of the variables sorted by (primary, secondary,
    original index); ``indptr`` delimits the groups within it, in sorted
    key order.  One ``lexsort`` + one adjacent comparison — O(n log n)
    total instead of one O(n) mask per group.
    """
    order = np.lexsort((secondary, primary))
    if order.size == 0:
        return order, np.zeros(1, dtype=np.int64), _EMPTY_I64, _EMPTY_I64
    sorted_primary = primary[order]
    sorted_secondary = secondary[order]
    boundary = np.empty(order.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (sorted_primary[1:] != sorted_primary[:-1]) | (
        sorted_secondary[1:] != sorted_secondary[:-1]
    )
    starts = np.nonzero(boundary)[0]
    indptr = np.append(starts, order.size).astype(np.int64)
    return order, indptr, sorted_primary[starts], sorted_secondary[starts]


def data_constraints(space: VariableSpace) -> ConstraintSystem:
    """The invariant equations derived from the published data (Section 5).

    For a :class:`GroupVariableSpace`:

    - QI-invariant rows (Eq. 4): ``sum_s P(q, s, b) = n(q,b) / N``,
    - SA-invariant rows (Eq. 5): ``sum_q P(q, s, b) = n(s,b) / N``.

    Zero-invariants (Eq. 6) are structural — invalid triples have no
    variable at all.  Theorem 2 proves this set complete and Theorem 3
    proves it concise (one redundant row per bucket, harmless to solvers).

    For a :class:`PersonVariableSpace` (Section 6, "Deriving Invariants
    from Data"):

    - person rows: each pseudonym occurs exactly once,
      ``sum_{s,b} P(i, s, b) = 1 / N``,
    - slot rows: the occurrences of QI tuple ``q`` in bucket ``b`` are
      filled by its pseudonym group, ``sum_{i in I(q)} sum_s P(i, s, b) =
      n(q,b) / N``,
    - SA rows: ``sum_i P(i, s, b) = n(s,b) / N``.

    Built as grouped sorts over the variable arrays: each invariant family
    is one ``lexsort`` of the variables by its (id, bucket) key followed by
    one batch append — O(n_vars log n_vars) per family, independent of the
    number of invariant rows.
    """
    system = ConstraintSystem(space.n_vars)
    n = space.n_records

    def add_grouped(primary, secondary, counts_fn, kind, label_fmt):
        order, indptr, group_a, group_b = _boundary_groups(primary, secondary)
        if group_a.size == 0:
            return
        rhs = counts_fn(group_a, group_b) / n
        system.add_equalities(
            indptr,
            order,
            np.ones(order.size),
            rhs,
            kinds=kind,
            labels=RowLabels.formatted(label_fmt, group_a, group_b),
            validate=False,
        )

    if isinstance(space, GroupVariableSpace):
        add_grouped(
            space.var_qi,
            space.var_bucket,
            space.qi_bucket_counts,
            "qi",
            "QI-invariant(q={}, b={})",
        )
        add_grouped(
            space.var_sa,
            space.var_bucket,
            space.sa_bucket_counts,
            "sa",
            "SA-invariant(s={}, b={})",
        )
        return system

    if isinstance(space, PersonVariableSpace):
        # Person rows cover *every* pseudonym id (even a hypothetically
        # variable-less one), so group via searchsorted over the id range
        # rather than boundaries of the present keys.
        n_people = len(space.people)
        order = np.argsort(space.var_person, kind="stable")
        sorted_person = space.var_person[order]
        starts = np.searchsorted(
            sorted_person, np.arange(n_people, dtype=np.int64), side="left"
        )
        indptr = np.append(starts, order.size).astype(np.int64)
        system.add_equalities(
            indptr,
            order,
            np.ones(order.size),
            np.full(n_people, 1.0 / n),
            kinds="person",
            labels=RowLabels.formatted(
                "person({})", _objects([p.name for p in space.people])
            ),
            validate=False,
        )

        person_qi = space.person_qi_ids()
        add_grouped(
            person_qi[space.var_person],
            space.var_bucket,
            space.qi_bucket_counts,
            "slot",
            "slot(q={}, b={})",
        )
        add_grouped(
            space.var_sa,
            space.var_bucket,
            space.sa_bucket_counts,
            "sa",
            "SA-invariant(s={}, b={})",
        )
        return system

    raise ReproError(f"unsupported variable space type {type(space).__name__}")
