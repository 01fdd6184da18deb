"""TileSpMV_DeferredCOO: extract COO data into a separate CSR5 matrix.

For graph-like matrices the COO tiles dominate the tile count; warp
kernels over thousands of 2-entry tiles waste nearly every lane.  The
paper's remedy (§III.D) extracts all COO-resident nonzeros — whole COO
tiles *and* the COO overflow of HYB tiles — into one ordinary CSR matrix
computed by CSR5, leaving the tiled matrix with only its well-shaped
tiles.  The paper's SpMV then runs two kernels whose results sum into
``y``.

Here the split is the representation the cost model prices (two
launches, each half's payload and schedule).  Execution does not fork:
:class:`~repro.core.tilespmv.TileSpMV` decodes both halves into one
canonical CSR operand, the same operand ADPT runs, so DeferredCOO
products are bit-for-bit ADPT's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import TileSet, tile_decompose
from repro.formats import FormatID
from repro.formats.tile_hyb import hyb_split_widths

__all__ = ["DeferredSplit", "split_deferred_coo"]


@dataclass
class DeferredSplit:
    """Result of the DeferredCOO extraction.

    ``tiled`` is the remaining TileMatrix (COO tiles gone, HYB tiles
    demoted to their ELL part; ``None`` when everything was extracted);
    ``deferred`` is the extracted canonical CSR matrix (empty when the
    matrix had no COO-resident data).
    """

    tiled: TileMatrix | None
    deferred: sp.csr_matrix
    extracted_nnz: int


def _canonical(vals, rows, cols, shape) -> sp.csr_matrix:
    """Distinct entries as a CSR matrix in (row, ascending column) order."""
    csr = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    csr.sort_indices()
    return csr


def split_deferred_coo(
    tileset: TileSet,
    config: SelectionConfig | None = None,
    formats: np.ndarray | None = None,
) -> DeferredSplit:
    """Run ADPT selection, then extract all COO-resident nonzeros.

    Tile formats are decided *once*, on the full matrix, exactly as the
    paper does; the extraction never re-triggers selection (a remaining
    ELL part keeps its format even if it became very sparse).
    """
    config = config or SelectionConfig()
    if formats is None:
        formats = select_formats(tileset, config)
    view = tileset.view
    tile_of_entry = view.tile_of_entry()
    entry_fmt = formats[tile_of_entry]

    extract = entry_fmt == FormatID.COO
    hyb_ids = np.flatnonzero(formats == FormatID.HYB)
    if hyb_ids.size:
        hyb_view = view.select(hyb_ids)
        widths = hyb_split_widths(hyb_view)
        # Map widths back to per-entry overflow decisions on the full view.
        width_of_tile = np.zeros(tileset.n_tiles, dtype=np.int64)
        width_of_tile[hyb_ids] = widths
        pos = view.pos_in_row()
        overflow = (entry_fmt == FormatID.HYB) & (pos >= width_of_tile[tile_of_entry])
        extract |= overflow

    grow = tileset.global_rows()
    gcol = tileset.global_cols()
    shape = (tileset.m, tileset.n)
    deferred = _canonical(view.val[extract], grow[extract], gcol[extract], shape)
    extracted_nnz = int(np.count_nonzero(extract))
    keep = ~extract
    if not keep.any():
        return DeferredSplit(tiled=None, deferred=deferred, extracted_nnz=extracted_nnz)

    remaining = _canonical(view.val[keep], grow[keep], gcol[keep], shape)
    new_tileset = tile_decompose(remaining, tile=tileset.tile)
    # Carry the original per-tile decisions over by tile coordinate.
    tile_cols_total = new_tileset.tile_cols
    old_key = tileset.tile_rowidx * tile_cols_total + tileset.tile_colidx
    new_key = new_tileset.tile_rowidx * tile_cols_total + new_tileset.tile_colidx
    pos_in_old = np.searchsorted(old_key, new_key)
    if not np.array_equal(old_key[pos_in_old], new_key):
        raise AssertionError("extraction produced a tile absent from the original")
    new_formats = formats[pos_in_old].copy()
    new_formats[new_formats == FormatID.HYB] = FormatID.ELL
    tiled = TileMatrix.build(new_tileset, new_formats)
    return DeferredSplit(tiled=tiled, deferred=deferred, extracted_nnz=extracted_nnz)
