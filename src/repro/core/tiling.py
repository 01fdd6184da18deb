"""Tile decomposition: CSR matrix -> level-1 tile structure.

Divides the matrix into square tiles (16x16 in the paper) and builds the
three level-1 arrays of §III.B: ``tilePtr`` (offsets of each tile row's
tiles), ``tileColIdx`` (tile column index of each tile) and ``tileNnz``
(per-tile nonzero offsets).  Only *occupied* tiles are materialised.
The nonzero entries come out sorted by (tile, local row, local column),
which every format encoder relies on.  The tile set keeps the canonical
CSR matrix it was cut from, which every plan built on it executes, and
holds the tile-sorted entries as structure only: their values are that
matrix's, read through ``entry_perm`` when :attr:`TileSet.view` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.formats.base import TilesView
from repro.util.segments import index_dtype, lengths_to_offsets, run_starts, stable_key_order

__all__ = ["TileSet", "tile_decompose"]


@dataclass
class TileSet:
    """Level-1 tile structure plus the tile-sorted nonzero entries.

    The per-tile arrays and ``entry_perm`` are ``int32`` whenever their
    values fit (:func:`~repro.util.segments.index_dtype`), ``int64``
    otherwise; arithmetic on them widens to ``int64`` where it is used.

    Attributes
    ----------
    m, n:
        Matrix dimensions.
    tile:
        Tile edge length.
    tile_ptr:
        ``int64 (tile_rows + 1)``: per-tile-row offsets into the tile
        list (the paper's ``tilePtr``).
    tile_colidx:
        ``(n_tiles,)``: tile column of each occupied tile
        (``tileColIdx``).
    tile_rowidx:
        ``(n_tiles,)``: tile row of each tile (implied by ``tile_ptr``;
        kept explicit for vectorised kernels).
    pattern:
        All tiles' entries as a structure-only
        :class:`~repro.formats.base.TilesView` (``val`` is ``None``);
        ``pattern.offsets`` is the paper's ``tileNnz``.
    entry_perm:
        ``(nnz,)``: permutation mapping canonical-CSR entry order to the
        tile-sorted order (``view.val == csr.data[entry_perm]``).  This
        is what lets a plan with the same sparsity pattern take new
        values without re-sorting.
    csr:
        The canonical CSR matrix the tiles were cut from: the operand,
        and the only holder of the entry values.
    """

    m: int
    n: int
    tile: int
    tile_ptr: np.ndarray
    tile_colidx: np.ndarray
    tile_rowidx: np.ndarray
    pattern: TilesView
    entry_perm: np.ndarray
    csr: sp.csr_matrix

    @cached_property
    def view(self) -> TilesView:
        """:attr:`pattern` with the values in tile-sorted order, gathered
        from :attr:`csr` on first read (pricing never reads them)."""
        val = np.asarray(self.csr.data, dtype=np.float64)[self.entry_perm]
        return replace(self.pattern, val=val)

    @property
    def n_tiles(self) -> int:
        return self.tile_colidx.size

    @property
    def tile_rows(self) -> int:
        return self.tile_ptr.size - 1

    @property
    def tile_cols(self) -> int:
        return -(-self.n // self.tile)

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def tile_nnz(self) -> np.ndarray:
        """The paper's ``tileNnz`` offsets array."""
        return self.pattern.offsets

    def level1_nbytes_model(self) -> int:
        """Device footprint of the level-1 arrays.

        ``tilePtr``/``tileColIdx``/``tileNnz`` as 4-byte integers plus
        one format byte per tile (needed by any multi-format variant).
        """
        return (
            4 * (self.tile_rows + 1)
            + 4 * self.n_tiles
            + 4 * (self.n_tiles + 1)
            + self.n_tiles
        )

    def row_heights(self) -> np.ndarray:
        """Effective height of every *tile row* (``tile`` except at the
        bottom boundary, where the matrix may end mid-tile)."""
        starts = np.arange(self.tile_rows, dtype=np.int64) * self.tile
        return np.minimum(self.tile, self.m - starts)

    def with_values(self, csr_data: np.ndarray) -> "TileSet":
        """A structurally identical tile set carrying new entry values.

        ``csr_data`` is in canonical CSR order.  Everything structural
        is shared by reference and only the CSR's value array is
        replaced, so this is the cheap half of the ``update_values``
        fast path: no sort, no tiling, no gather.
        """
        csr_data = np.asarray(csr_data, dtype=np.float64)
        if csr_data.shape != (self.nnz,):
            raise ValueError(f"expected {self.nnz} values, got {csr_data.size}")
        return replace(
            self,
            csr=sp.csr_matrix(
                (csr_data, self.csr.indices, self.csr.indptr), shape=self.csr.shape
            ),
        )

    def global_rows(self) -> np.ndarray:
        """Global row index of every entry (tile-sorted order)."""
        rows = self.pattern.per_entry(self.tile_rowidx).astype(np.int64)
        return rows * self.tile + self.pattern.lrow

    def global_cols(self) -> np.ndarray:
        """Global column index of every entry (tile-sorted order)."""
        cols = self.pattern.per_entry(self.tile_colidx).astype(np.int64)
        return cols * self.tile + self.pattern.lcol


def tile_decompose(
    matrix: sp.spmatrix, tile: int = 16, validation: str = "repair"
) -> TileSet:
    """Decompose a sparse matrix into the TileSpMV level-1 structure.

    The tile sort relies on the canonical row-major order the input gate
    returns under every policy: rows in order, column indices
    non-decreasing within each row (``trust`` sorts unsorted rows but
    keeps duplicates).  Each row's entries inside one tile are therefore
    consecutive: a *segment*.  One stable sort of the segments on the
    tile key, expanded back to entries, leaves each tile's entries in
    (local row, local column) order, duplicates in their CSR order — the
    stable sort of every entry on the tile key, over a fraction of the
    items.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; its canonical CSR is tiled directly.
    tile:
        Tile edge length.  The paper fixes 16; 4/8/16 are supported (the
        4-bit index packing requires <= 16).
    validation:
        Input-gate policy (see
        :func:`repro.reliability.validation.canonicalize_csr`).  Callers
        holding an already-canonical matrix pass ``"trust"``; the tile
        set then keeps that matrix itself as its ``csr``, not a copy.

    Returns
    -------
    TileSet
        Occupied tiles in (tile row, tile column) order with entries
        sorted by (tile, local row, local column).
    """
    if tile < 2 or tile > 16:
        raise ValueError("tile size must be in [2, 16] (4-bit packed indices)")
    from repro.reliability.validation import canonicalize_csr

    csr, _ = canonicalize_csr(matrix, validation)
    m, n = csr.shape
    indptr = np.asarray(csr.indptr, dtype=np.int64)
    indices = csr.indices
    nnz = int(indptr[-1])
    tile_rows_total = -(-m // tile)
    tile_cols_total = -(-n // tile)
    # Per-entry arithmetic stays in the CSR's own (usually int32) dtype.
    tcol = indices // tile
    # A segment starts at every row start and wherever the tile column
    # changes inside a row.
    is_start = np.empty(nnz, dtype=bool)
    if nnz:
        is_start[0] = True
        np.not_equal(tcol[1:], tcol[:-1], out=is_start[1:])
        is_start[indptr[:-1][np.diff(indptr) > 0]] = True
    seg_start = np.flatnonzero(is_start)
    segs_per_row = np.diff(np.searchsorted(seg_start, indptr))
    rows = np.arange(m, dtype=np.int64)
    seg_key = np.repeat((rows // tile) * tile_cols_total, segs_per_row) + tcol[seg_start]
    # Stable: canonical CSR order already sorts each tile's segments.
    seg_order = stable_key_order(seg_key, tile_rows_total * tile_cols_total)
    seg_key = seg_key[seg_order]
    seg_len = np.diff(seg_start, append=nnz)[seg_order]
    seg_offsets = lengths_to_offsets(seg_len)
    # View position p of sorted segment s holds entry
    # seg_start[s] + (p - seg_offsets[s]).
    order = np.repeat(seg_start[seg_order] - seg_offsets[:-1], seg_len)
    order += np.arange(nnz, dtype=np.int64)
    first_seg = run_starts(seg_key)
    offsets = np.append(seg_offsets[first_seg], nnz)
    uniq_keys = seg_key[first_seg]
    tile_rowidx = uniq_keys // tile_cols_total
    tile_colidx = uniq_keys % tile_cols_total
    tiles_per_row = np.bincount(tile_rowidx, minlength=tile_rows_total)
    tile_ptr = lengths_to_offsets(tiles_per_row)
    eff_h = np.minimum(tile, m - tile_rowidx * tile).astype(np.uint8)
    eff_w = np.minimum(tile, n - tile_colidx * tile).astype(np.uint8)
    # What the plan holds narrows to int32 when it fits; ``nnz`` bounds
    # every value (tile indices and offsets included: each tile holds
    # an entry) except a tile index of an empty-tiled axis, ``max(m, n)``.
    idx = index_dtype(max(nnz, m, n))
    pattern = TilesView(
        lrow=np.repeat((rows % tile).astype(np.uint8), np.diff(indptr))[order],
        lcol=(indices - tcol * tile).astype(np.uint8)[order],
        val=None,
        offsets=offsets.astype(idx),
        eff_h=eff_h,
        eff_w=eff_w,
        tile=tile,
    )
    return TileSet(
        m=m,
        n=n,
        tile=tile,
        tile_ptr=tile_ptr,
        tile_colidx=tile_colidx.astype(idx),
        tile_rowidx=tile_rowidx.astype(idx),
        pattern=pattern,
        entry_perm=order.astype(idx),
        csr=csr,
    )
