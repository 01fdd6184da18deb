"""CSR5 SpMV (Liu & Vinter, ICS'15).

CSR5 partitions the nonzeros into 2D tiles of ``omega`` lanes by
``sigma`` levels, stores each tile *transposed* (lane-major -> level-
major) so loads coalesce, and marks row boundaries with per-tile bit
flags; SpMV is then a segmented sum per tile plus an atomic carry into
the next tile's first row.  Work per tile is constant — like Merge-SpMV
it is insensitive to row-length skew, which is why the paper uses it as
the strong baseline and as the engine for TileSpMV_DeferredCOO's
extracted matrix.

This implementation builds the real transposed payload and bit flags
(property-tested: flags reconstruct the row pointer exactly) and uses
them for the cost accounting; the numeric path evaluates the stored
payload through the inverse tile permutation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.common import csr_payload_bytes
from repro.gpu import faults
from repro.gpu.costmodel import RunCost

__all__ = ["Csr5SpMV"]

OMEGA = 32  # lanes per tile (one warp)


def _auto_sigma(m: int, nnz: int) -> int:
    """CSR5's GPU heuristic: deeper tiles for denser rows.

    The published GPU implementation fixes sigma at 16 for most inputs
    and shrinks it for very sparse rows so a tile doesn't span too many
    rows; we mirror that shape.
    """
    r = nnz / max(m, 1)
    if r <= 2:
        return 4
    if r <= 8:
        return 8
    return 16


class Csr5SpMV:
    """CSR5 format + segmented-sum SpMV with cost accounting."""

    name = "CSR5"

    def __init__(
        self,
        matrix: sp.spmatrix,
        sigma: int | None = None,
        validation: str = "repair",
    ) -> None:
        from repro.reliability.validation import canonicalize_csr

        csr, self.validation_report = canonicalize_csr(matrix, validation)
        self._build_tiles(csr.indptr, csr.indices, csr.shape, sigma)
        self.data = csr.data.astype(np.float64)
        valid = self.stored_valid
        self.stored_val = np.zeros(valid.size)
        self.stored_val[valid] = self.data[self.perm[valid]]

    @classmethod
    def layout(cls, indptr: np.ndarray, indices: np.ndarray, shape: tuple[int, int]) -> "Csr5SpMV":
        """The CSR5 structure of a canonical pattern, without values
        (``data`` and ``stored_val`` are ``None``): everything
        :meth:`run_cost` and :meth:`nbytes_model` read.  A DeferredCOO
        plan prices its CSR5 half with one; its products run the
        engine's operand."""
        engine = cls.__new__(cls)
        engine.validation_report = None
        engine._build_tiles(indptr, indices, shape, None)
        engine.data = engine.stored_val = None
        return engine

    @property
    def nnz(self) -> int:
        return self.indices.size

    @property
    def tile_nnz(self) -> int:
        return OMEGA * self.sigma

    def _build_tiles(self, indptr, indices, shape, sigma) -> None:
        """Build tile_ptr, the transposed layout and the bit flags."""
        self.indptr = np.asarray(indptr).astype(np.int64)
        self.indices = np.asarray(indices).astype(np.int64)
        self.m, self.n = shape
        self.sigma = sigma or _auto_sigma(self.m, self.nnz)
        tn = self.tile_nnz
        nnz = self.nnz
        self.n_tiles = -(-nnz // tn) if nnz else 0
        padded = self.n_tiles * tn
        # Transposed storage: lane w of tile t owns original entries
        # [base + w*sigma, base + (w+1)*sigma); stored index = s*omega + w.
        # self.perm maps stored position -> original nnz index.
        s = np.arange(padded) // OMEGA % self.sigma
        w = np.arange(padded) % OMEGA
        base = (np.arange(padded) // tn) * tn
        self.perm = base + w * self.sigma + s
        valid = self.perm < nnz
        self.stored_col = np.zeros(padded, dtype=np.int64)
        self.stored_col[valid] = self.indices[self.perm[valid]]
        self.stored_valid = valid
        # Row-start bit flags in stored order.  A stored position is
        # flagged iff its original index starts a row (appears in indptr).
        is_row_start = np.zeros(nnz + 1, dtype=bool)
        is_row_start[self.indptr[:-1][np.diff(self.indptr) > 0]] = True
        flags = np.zeros(padded, dtype=bool)
        flags[valid] = is_row_start[self.perm[valid]]
        self.bit_flag = flags
        # tile_ptr: row of each tile's first nonzero.
        bases = np.arange(self.n_tiles, dtype=np.int64) * tn
        self.tile_ptr = np.searchsorted(self.indptr, bases, side="right") - 1
        # Row of every original entry; computed once and shared by the
        # single- and multi-vector numeric paths.
        self.entry_rows = (
            np.searchsorted(self.indptr, np.arange(nnz), side="right") - 1
        )
        # Inspector-executor matrix for spmm, assembled lazily from the
        # stored (transposed) payload on first use.
        self._spmm_csr: sp.csr_matrix | None = None

    def reconstruct_row_starts(self) -> np.ndarray:
        """Original nnz indices flagged as row starts (for validation)."""
        flagged_original = self.perm[self.stored_valid & self.bit_flag]
        return np.sort(flagged_original)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Segmented sum over the stored (transposed) payload.

        Row membership of each stored entry is recovered from the bit
        flags and tile pointers exactly as the device kernel's prefix
        scan would; products come from the stored arrays.
        """
        x = np.asarray(x, dtype=np.float64)
        if self.nnz == 0:
            return np.zeros(self.m)
        products = np.zeros_like(self.stored_val)
        products[self.stored_valid] = (
            self.stored_val[self.stored_valid] * x[self.stored_col[self.stored_valid]]
        )
        # Segment id in original order = row index; derive from flags:
        # row(entry) = tile_ptr[tile of first entry] + (# flags among
        # original positions <= this one) adjusting for empty rows is
        # equivalent to a searchsorted on indptr — use the flags' inverse
        # permutation to stay payload-driven.
        original_products = np.zeros(self.nnz)
        original_products[self.perm[self.stored_valid]] = products[self.stored_valid]
        inj = faults.active_injector()
        if inj is not None:
            original_products = inj.corrupt_payload(original_products, kind="csr5_payload")
        return np.bincount(self.entry_rows, weights=original_products, minlength=self.m)

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors, in one pass.

        The stored (transposed) payload is gathered once; every column
        of ``X`` rides the same index traffic — the k-vector
        amortisation that makes batched CSR5 SpMM profitable.  No
        per-column Python loop.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"X must have shape ({self.n}, k)")
        k = x.shape[1]
        if k == 0:
            return np.zeros((self.m, 0))
        if k == 1:
            # Degenerate batch: the exact spmv path (segmented bincount
            # over the stored payload), reshaped — bit-for-bit with a
            # standalone product.
            return self.spmv(x[:, 0]).reshape(self.m, 1)
        if self.nnz == 0:
            return np.zeros((self.m, k))
        if self._spmm_csr is None:
            # Values routed through the stored (transposed) payload so
            # the block product exercises the same arrays as spmv.
            original_val = np.zeros(self.nnz)
            original_val[self.perm[self.stored_valid]] = self.stored_val[self.stored_valid]
            self._spmm_csr = sp.csr_matrix(
                (original_val, self.indices, self.indptr), shape=(self.m, self.n)
            )
        inj = faults.active_injector()
        if inj is not None:
            # Throwaway product: injected values never enter the cache.
            vals = inj.corrupt_payload(self._spmm_csr.data, kind="csr5_payload")
            if vals is not self._spmm_csr.data:
                return np.asarray(
                    sp.csr_matrix((vals, self._spmm_csr.indices, self._spmm_csr.indptr),
                                  shape=(self.m, self.n)) @ x
                )
        return np.asarray(self._spmm_csr @ x)

    def descriptor_bytes(self) -> int:
        """Per-tile metadata: bit flags + tile_ptr + y/seg offsets."""
        per_tile = self.tile_nnz // 8 + 4 + 2 * OMEGA
        return self.n_tiles * per_tile

    def nbytes_model(self) -> int:
        return csr_payload_bytes(self.m, self.nnz) + self.descriptor_bytes()

    def transposed_gather_sectors(self) -> int:
        """Raw x sectors of the *transposed* access order.

        At level ``s`` the 32 lanes gather the columns of entries
        ``{w*sigma + s : w}``, which are spread across the whole tile's
        span rather than being row-neighbours — CSR5 pays for its
        coalesced value loads with a more scattered ``x`` pattern.  Each
        warp-level gather step is one coalescing window: its distinct
        sectors are the value changes of its sorted sector row (padding
        slots sort first as -1 and count no change).
        """
        sectors = np.where(self.stored_valid, self.stored_col // 4, -1).reshape(-1, OMEGA)
        sectors.sort(axis=1)
        return int(np.count_nonzero(np.diff(sectors, axis=1, prepend=-1)))

    def run_cost(self) -> RunCost:
        """One warp per tile; per-lane work is exactly sigma entries."""
        per_level = 4.0  # col load + x gather + FMA + flag check
        seg_reduce = 2.0 * np.log2(OMEGA) + self.sigma  # in-tile segmented scan
        cycles_per_tile = 12.0 + per_level * self.sigma + seg_reduce
        n_warps = max(self.n_tiles, 1)
        warp_cycles_total = cycles_per_tile * n_warps
        atomics = float(max(self.n_tiles - 1, 0))  # carry into next tile's row
        return RunCost(
            payload_bytes=float(self.nbytes_model()),
            x_gather_bytes=float(self.transposed_gather_sectors() * 32),
            x_footprint_bytes=float(self.n * 8),
            y_write_bytes=float(self.m * 8 + atomics * 8),
            warp_instructions=float(warp_cycles_total),
            warp_cycles_max=float(cycles_per_tile),
            n_warps=int(n_warps),
            atomic_ops=atomics,
            atomic_rounds=atomics,
            useful_flops=2.0 * self.nnz,
            executed_flops=2.0 * (self.n_tiles * self.tile_nnz if self.n_tiles else 0),
            label=self.name,
        )
