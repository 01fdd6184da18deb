"""Scalar CSR SpMV: one thread per row.

The simplest GPU mapping — and the canonical victim of load imbalance
(a power-law hub row stalls its whole warp) and uncoalesced column
gathers.  Included as the naive anchor for the comparisons and as the
home of the scipy ground-truth helper.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.common import csr_payload_bytes, row_gather_sectors
from repro.gpu.costmodel import RunCost
from repro.gpu.warp import WARP_SIZE
from repro.reliability.validation import canonicalize_csr

__all__ = ["reference_spmv", "CsrScalarSpMV"]


def reference_spmv(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Ground truth y = A @ x via scipy (used by every correctness test)."""
    return np.asarray(matrix.tocsr() @ np.asarray(x, dtype=np.float64))


class CsrScalarSpMV:
    """Row-per-thread CSR SpMV with warp-level cost accounting."""

    name = "CSR-scalar"

    def __init__(self, matrix: sp.spmatrix, validation: str = "repair") -> None:
        # The canonical CSR's own arrays, not copies: under ``trust`` a
        # verified engine's reference reads its operand's memory.
        csr, self.validation_report = canonicalize_csr(matrix, validation)
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.data = np.asarray(csr.data, dtype=np.float64)
        self.m, self.n = csr.shape
        self._gather: np.ndarray | None = None

    def _columns(self) -> np.ndarray:
        """``indices`` as ``intp``, widened on the first product and kept:
        numpy gathers through an ``intp`` index about twice as fast as
        through an ``int32`` one.  Pricing never needs it."""
        if self._gather is None:
            self._gather = np.asarray(self.indices, dtype=np.intp)
        return self._gather

    @property
    def nnz(self) -> int:
        return self.data.size

    def spmv(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        products = self.data * x[self._columns()]
        # Row sums via reduceat; empty rows handled by masking.
        y = np.zeros(self.m)
        lens = np.diff(self.indptr)
        nonempty = lens > 0
        if products.size:
            sums = np.add.reduceat(products, self.indptr[:-1][nonempty])
            y[nonempty] = sums
        return y

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X: the row-sum reduceat applied to a column block.

        Degenerate widths short-circuit to the exact :meth:`spmv` path
        (k=1) or a typed empty block (k=0), so a batch of one is
        bit-for-bit a standalone product.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"X must have shape ({self.n}, k)")
        k = x.shape[1]
        if k == 0:
            return np.zeros((self.m, 0))
        if k == 1:
            return self.spmv(x[:, 0]).reshape(self.m, 1)
        products = self.data[:, None] * x[self._columns()]
        y = np.zeros((self.m, k))
        lens = np.diff(self.indptr)
        nonempty = lens > 0
        if products.size:
            y[nonempty] = np.add.reduceat(
                products, self.indptr[:-1][nonempty], axis=0
            )
        return y

    def nbytes_model(self) -> int:
        return csr_payload_bytes(self.m, self.nnz)

    def run_cost(self) -> RunCost:
        """One thread per row: a warp's trip count is its longest row."""
        lens = np.diff(self.indptr)
        n_warps = -(-self.m // WARP_SIZE)
        pad = n_warps * WARP_SIZE - self.m
        padded = np.concatenate([lens, np.zeros(pad, dtype=lens.dtype)])
        per_warp_iters = padded.reshape(n_warps, WARP_SIZE).max(axis=1)
        per_iter = 4.0  # colidx load + x gather + val load + FMA
        warp_cycles = 8.0 + per_iter * per_warp_iters
        return RunCost(
            payload_bytes=float(self.nbytes_model()),
            x_gather_bytes=float(row_gather_sectors(self.indptr, self.indices) * 32),
            x_footprint_bytes=float(self.n * 8),
            y_write_bytes=float(self.m * 8),
            warp_instructions=float(warp_cycles.sum()),
            warp_cycles_max=float(warp_cycles.max()) if warp_cycles.size else 0.0,
            n_warps=int(n_warps),
            useful_flops=2.0 * self.nnz,
            executed_flops=2.0 * self.nnz,
            label=self.name,
        )
