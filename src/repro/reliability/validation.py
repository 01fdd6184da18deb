"""Strict input canonicalization for hostile real-world matrices.

Every format encoder and kernel in this repository assumes a *canonical*
CSR matrix: monotone ``indptr``, per-row sorted and duplicate-free
column indices, in-range indices, finite values, dimensions that fit the
32-bit device index arrays.  Real Matrix Market files and user-built
matrices violate all of these in practice (Kreutzer et al.,
arXiv:1112.5588 call such inputs "hostile"), and a violation that slips
through produces a silently wrong answer or a numpy traceback deep
inside tile encoding.

:func:`canonicalize_csr` is the single gate: it inspects the input,
then — per :class:`ValidationPolicy` — either *rejects* it with a
structured :class:`MatrixValidationError` naming the offending rows
(``strict``), *repairs* it and records what was fixed in a
:class:`CanonicalReport` (``repair``), or skips the inspection entirely
(``trust``, the zero-overhead path for inputs already known good).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ValidationPolicy",
    "MatrixValidationError",
    "CanonicalReport",
    "canonicalize_csr",
    "pattern_values",
    "MAX_DIM",
]

# Device-side index arrays (tileColIdx, CSR colidx, BSR block columns)
# are 32-bit; any dimension at or beyond 2**31 overflows them.
MAX_DIM = 2**31 - 1

# How many offending rows a diagnostic names before truncating.
_MAX_NAMED_ROWS = 10


class ValidationPolicy(str, Enum):
    """What :func:`canonicalize_csr` does about a defective input."""

    STRICT = "strict"  # reject with MatrixValidationError diagnostics
    REPAIR = "repair"  # fix what is fixable, record it, reject the rest
    TRUST = "trust"    # no inspection (caller guarantees canonical input)

    @classmethod
    def coerce(cls, value: "ValidationPolicy | str") -> "ValidationPolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"validation policy must be one of {options}, got {value!r}"
            ) from None


class MatrixValidationError(ValueError):
    """A matrix failed canonicalization.

    Attributes
    ----------
    reason:
        Machine-readable defect class (``"nonfinite"``,
        ``"out_of_range"``, ``"dim_overflow"``, ``"unsorted"``,
        ``"duplicates"``, ``"bad_indptr"``).
    rows:
        Offending row indices (possibly truncated; empty when the defect
        is not row-local, e.g. dimension overflow).
    """

    def __init__(self, reason: str, message: str, rows: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.rows = np.asarray(rows, dtype=np.int64) if rows is not None else np.zeros(0, np.int64)


@dataclass
class CanonicalReport:
    """What canonicalization found and (under ``repair``) fixed."""

    policy: ValidationPolicy
    sorted_rows: int = 0            # rows whose indices needed sorting
    merged_duplicates: int = 0      # entries merged into an earlier slot
    dropped_out_of_range: int = 0   # entries outside [0, n) removed
    dropped_nonfinite: int = 0      # NaN/Inf entries removed
    bad_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def n_repairs(self) -> int:
        return (
            self.sorted_rows
            + self.merged_duplicates
            + self.dropped_out_of_range
            + self.dropped_nonfinite
        )

    def describe(self) -> str:
        if self.policy is ValidationPolicy.TRUST:
            return "canonicalization: trusted (not inspected)"
        if self.n_repairs == 0:
            return "canonicalization: clean"
        parts = []
        if self.sorted_rows:
            parts.append(f"sorted {self.sorted_rows} rows")
        if self.merged_duplicates:
            parts.append(f"merged {self.merged_duplicates} duplicates")
        if self.dropped_out_of_range:
            parts.append(f"dropped {self.dropped_out_of_range} out-of-range entries")
        if self.dropped_nonfinite:
            parts.append(f"dropped {self.dropped_nonfinite} non-finite entries")
        return "canonicalization: repaired (" + ", ".join(parts) + ")"


def _name_rows(rows: np.ndarray) -> str:
    rows = np.unique(rows)
    shown = ", ".join(str(r) for r in rows[:_MAX_NAMED_ROWS])
    if rows.size > _MAX_NAMED_ROWS:
        shown += f", ... ({rows.size} rows total)"
    return shown


def _entry_rows(indptr: np.ndarray, entry_idx: np.ndarray) -> np.ndarray:
    """Row index of each flat nonzero position."""
    return np.searchsorted(indptr, entry_idx, side="right") - 1


def _is_canonical(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int) -> bool:
    """No defect of any class: columns in ``[0, n)`` and strictly
    ascending within each row, every value finite.

    Works in the input's own index dtype, with no per-entry row array.
    """
    if indices.size == 0:
        return True
    if indices.min() < 0 or indices.max() >= n or not np.isfinite(data).all():
        return False
    ascends = np.diff(indices) > 0
    row_starts = indptr[1:-1]
    ascends[row_starts[(row_starts > 0) & (row_starts < indices.size)] - 1] = True
    return bool(ascends.all())


def _owned(data: np.ndarray, source: np.ndarray) -> np.ndarray:
    """``data``, copied if it still shares memory with the caller's ``source``."""
    return data.copy() if np.may_share_memory(data, source) else data


def canonicalize_csr(
    matrix: sp.spmatrix,
    policy: ValidationPolicy | str = ValidationPolicy.REPAIR,
) -> tuple[sp.csr_matrix, CanonicalReport]:
    """Validate and canonicalize a sparse matrix per ``policy``.

    Returns ``(csr, report)`` where ``csr`` has monotone ``indptr``,
    sorted duplicate-free indices in ``[0, n)`` and finite float64
    values.  ``strict`` raises :class:`MatrixValidationError` on the
    first defect class found (naming up to 10 offending rows); ``repair``
    fixes sorting/duplicates and drops out-of-range or non-finite
    entries, tallying everything in the report; ``trust`` converts to
    CSR and returns without inspecting — the caller owns correctness.

    A clean input — the common case — is recognised by a few passes in
    its own index dtype and returned as a copy without the rebuild; the
    arrays, dtypes and report are the full inspection's.

    Dimension overflow (any dimension > ``MAX_DIM``, the 32-bit device
    index limit) is never repairable and raises under every policy —
    including ``trust``, because proceeding would allocate an
    ``indptr`` of several GiB before any kernel even runs.
    """
    policy = ValidationPolicy.coerce(policy)

    m, n = matrix.shape
    if m > MAX_DIM or n > MAX_DIM:
        raise MatrixValidationError(
            "dim_overflow",
            f"matrix dimensions {m}x{n} exceed the 32-bit device index "
            f"limit ({MAX_DIM}); shard the matrix instead",
        )

    if policy is ValidationPolicy.TRUST:
        csr = matrix.tocsr()
        if not csr.has_sorted_indices:
            csr = csr.sorted_indices()
        return csr, CanonicalReport(policy=policy)

    csr = matrix.tocsr()
    report = CanonicalReport(policy=policy)
    bad_rows: list[np.ndarray] = []

    indptr = np.asarray(csr.indptr, dtype=np.int64)
    if (
        indptr.size != m + 1
        or (indptr.size and (indptr[0] != 0 or indptr[-1] != csr.indices.size))
        or np.any(np.diff(indptr) < 0)
    ):
        raise MatrixValidationError(
            "bad_indptr",
            f"indptr is not a monotone [0, nnz] offset array of length {m + 1}",
        )

    data = np.asarray(csr.data, dtype=np.float64)
    if _is_canonical(indptr, csr.indices, data, n):
        # Clean input: the rebuild below would return these very arrays.
        out = sp.csr_matrix(
            (_owned(data, csr.data), csr.indices.copy(), _owned(indptr, csr.indptr)),
            shape=(m, n),
        )
        out.has_sorted_indices = True
        return out, report

    # Some defect: find each class, then rebuild.
    indices = np.asarray(csr.indices, dtype=np.int64)

    # 1. Out-of-range column indices -------------------------------------
    oob = (indices < 0) | (indices >= n)
    if oob.any():
        rows = _entry_rows(indptr, np.flatnonzero(oob))
        if policy is ValidationPolicy.STRICT:
            raise MatrixValidationError(
                "out_of_range",
                f"{int(oob.sum())} column indices outside [0, {n}) in rows "
                f"{_name_rows(rows)}",
                rows=rows,
            )
        report.dropped_out_of_range = int(oob.sum())
        bad_rows.append(rows)

    # 2. Non-finite values ------------------------------------------------
    nonfinite = ~np.isfinite(data)
    if nonfinite.any():
        rows = _entry_rows(indptr, np.flatnonzero(nonfinite))
        if policy is ValidationPolicy.STRICT:
            raise MatrixValidationError(
                "nonfinite",
                f"{int(nonfinite.sum())} NaN/Inf values in rows {_name_rows(rows)}",
                rows=rows,
            )
        report.dropped_nonfinite = int(nonfinite.sum())
        bad_rows.append(rows)

    # 3. Unsorted / duplicate indices (checked on the surviving entries) --
    keep = ~(oob | nonfinite)
    k_indices = indices[keep]
    entry_row = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    row_lens = np.bincount(entry_row[keep], minlength=m).astype(np.int64)
    k_indptr = np.concatenate(([0], np.cumsum(row_lens))).astype(np.int64)
    if k_indices.size:
        diffs = np.diff(k_indices)
        # A decrease inside a row = unsorted; equality inside a row = duplicate.
        boundary = np.zeros(k_indices.size - 1, dtype=bool)
        starts = k_indptr[1:-1]
        boundary[starts[(starts > 0) & (starts < k_indices.size)] - 1] = True
        unsorted_pos = np.flatnonzero((diffs < 0) & ~boundary)
        dup_pos = np.flatnonzero((diffs == 0) & ~boundary)
    else:
        unsorted_pos = dup_pos = np.zeros(0, np.int64)

    if unsorted_pos.size:
        rows = _entry_rows(k_indptr, unsorted_pos)
        if policy is ValidationPolicy.STRICT:
            raise MatrixValidationError(
                "unsorted",
                f"column indices are not sorted within rows {_name_rows(rows)}",
                rows=rows,
            )
        report.sorted_rows = int(np.unique(rows).size)
        bad_rows.append(rows)
    if dup_pos.size and not unsorted_pos.size:
        # (Unsorted rows may hide further duplicates; the repair below
        # merges them regardless — the count is exact after the rebuild.)
        rows = _entry_rows(k_indptr, dup_pos)
        if policy is ValidationPolicy.STRICT:
            raise MatrixValidationError(
                "duplicates",
                f"duplicate column indices in rows {_name_rows(rows)}",
                rows=rows,
            )
        bad_rows.append(rows)

    # 4. Rebuild canonical CSR from the surviving entries -----------------
    coo = sp.coo_matrix(
        (data[keep], (entry_row[keep], k_indices)), shape=(m, n)
    )
    nnz_before_merge = coo.nnz
    out = coo.tocsr()  # sums duplicates, sorts indices
    out.sort_indices()
    report.merged_duplicates = int(nnz_before_merge - out.nnz)
    # Summing duplicates can itself create non-finite values (two
    # huge finite entries overflowing to Inf, or +Inf/-Inf pairs
    # collapsing to NaN) *after* the pre-merge inspection above, so
    # the merged payload must be re-checked or it silently poisons
    # the ABFT checksums downstream.  Strict never gets here (it raised
    # on the first defect), so drop & count.
    merged_bad = ~np.isfinite(out.data)
    if merged_bad.any():
        out_coo = out.tocoo()
        keep2 = ~merged_bad
        rows = out_coo.row[merged_bad].astype(np.int64)
        out = sp.csr_matrix(
            (out_coo.data[keep2], (out_coo.row[keep2], out_coo.col[keep2])),
            shape=(m, n),
        )
        out.sort_indices()
        report.dropped_nonfinite += int(merged_bad.sum())
        bad_rows.append(rows)

    if bad_rows:
        report.bad_rows = np.unique(np.concatenate(bad_rows))
    return out, report


def pattern_values(values, shape: tuple[int, int], nnz: int, pattern) -> np.ndarray:
    """The canonical-order float64 value array of an ``update_values``
    argument: every engine's one same-pattern check.

    ``values`` is a sparse matrix with the prepared matrix's sparsity
    pattern (canonicalized under ``trust``) or its length-``nnz`` value
    array in canonical CSR order.  ``pattern()`` returns the prepared
    matrix's canonical ``(indptr, indices)``; it is called only for a
    sparse ``values``.  A different shape, entry count or pattern
    raises ``ValueError``.
    """
    if sp.issparse(values):
        csr = canonicalize_csr(values, ValidationPolicy.TRUST)[0]
        same = csr.shape == tuple(shape) and csr.nnz == nnz
        if same:
            indptr, indices = pattern()
            same = np.array_equal(csr.indptr, indptr) and np.array_equal(csr.indices, indices)
        if not same:
            raise ValueError(
                "sparsity pattern differs from the prepared matrix; "
                "build a new engine instead of update_values"
            )
        values = csr.data
    data = np.asarray(values, dtype=np.float64)
    if data.shape != (nnz,):
        raise ValueError(f"expected {nnz} values, got {data.shape}")
    return data
