"""Tile decomposition: CSR matrix -> level-1 tile structure.

Divides the matrix into square tiles (16x16 in the paper) and builds the
three level-1 arrays of §III.B: ``tilePtr`` (offsets of each tile row's
tiles), ``tileColIdx`` (tile column index of each tile) and ``tileNnz``
(per-tile nonzero offsets).  Only *occupied* tiles are materialised.
The nonzero entries come out sorted by (tile, local row, local column),
which every format encoder relies on.  A tile set is structure only: it
keeps the pattern (``indptr``, ``indices``) of the canonical CSR matrix
it was cut from and holds no values.  A reader that needs the entries'
values passes that matrix's value array to :meth:`TileSet.view`, which
gathers them into tile-sorted order through ``entry_perm``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        tile-sorted order (``view(data).val == data[entry_perm]``).  This
        is what lets any value array of the pattern be read without
        re-sorting.
    indptr, indices:
        The pattern of the canonical CSR matrix the tiles were cut from
        (shared with it, not copied).
    """

    m: int
    n: int
    tile: int
    tile_ptr: np.ndarray
    tile_colidx: np.ndarray
    tile_rowidx: np.ndarray
    pattern: TilesView
    entry_perm: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def view(self, data: np.ndarray) -> TilesView:
        """:attr:`pattern` carrying ``data``, a value array in canonical
        CSR order, gathered into tile-sorted order (pricing never reads
        values)."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ValueError(f"expected {self.nnz} values, got {data.shape}")
        return replace(self.pattern, val=data[self.entry_perm])

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
        set then shares that matrix's index arrays, not copies.

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
        indptr=csr.indptr,
        indices=csr.indices,
    )
