"""Shared cost-accounting helpers for the baseline kernels."""

from __future__ import annotations

import numpy as np

from repro.util.segments import repeat_offsets, run_starts

__all__ = ["row_gather_sectors", "csr_payload_bytes", "X_SECTOR_DOUBLES"]

X_SECTOR_DOUBLES = 4  # 32-byte sector = 4 float64 x entries
INDEX_BYTES = 4  # baselines use 32-bit column indices / row pointers
VALUE_BYTES = 8


def row_gather_sectors(indptr: np.ndarray, indices: np.ndarray) -> int:
    """Raw x-gather sectors of a row-ordered CSR traversal.

    Counts distinct (row, x-sector) pairs: within one row, accesses to
    the same 32-byte sector of ``x`` coalesce; across rows they do not
    (each row is handled by different lanes at a different time), so the
    reuse is left to the L2 model.

    Requires non-decreasing column indices within each row (duplicates
    allowed), which every baseline gets from
    :func:`~repro.reliability.validation.canonicalize_csr` under any
    policy: the (row, sector) key is then non-decreasing and the pairs
    are counted as runs, without a sort.
    """
    if indices.size == 0:
        return 0
    rows = repeat_offsets(np.asarray(indptr, dtype=np.int64))
    n_sectors = int(indices.max()) // X_SECTOR_DOUBLES + 1
    key = rows * n_sectors + indices.astype(np.int64) // X_SECTOR_DOUBLES
    return int(run_starts(key).size)


def csr_payload_bytes(m: int, nnz: int) -> int:
    """Standard CSR device footprint: rowptr + 32-bit colidx + values."""
    return INDEX_BYTES * (m + 1) + INDEX_BYTES * nnz + VALUE_BYTES * nnz
