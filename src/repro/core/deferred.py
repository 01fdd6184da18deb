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
:class:`~repro.core.tilespmv.TileSpMV` executes the full canonical CSR
matrix, the same operand ADPT runs, so DeferredCOO products are
bit-for-bit ADPT's.  Both halves are masks of that matrix's pattern in
its canonical order, so the split sorts nothing and re-tiles nothing;
like the tile set it is cut from, it holds no values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.csr5 import Csr5SpMV
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix, masked_pattern
from repro.core.tiling import TileSet
from repro.formats import FormatID
from repro.formats.tile_hyb import hyb_split_widths
from repro.util.segments import index_dtype, lengths_to_offsets

__all__ = ["DeferredSplit", "split_deferred_coo"]


@dataclass
class DeferredSplit:
    """Result of the DeferredCOO extraction.

    ``extracted`` masks the extracted entries ``m`` in the canonical
    order of the full matrix ``c`` (the pattern the tile set was cut
    from).  ``deferred`` is the CSR5 layout of ``c[m]``; ``tiled`` is
    the TileMatrix of ``c[~m]`` (COO tiles gone, HYB tiles demoted to
    their ELL part; ``None`` when everything was extracted).  Their
    values are ``c.data[m]`` and ``c.data[~m]``.
    """

    tiled: TileMatrix | None
    deferred: Csr5SpMV
    extracted: np.ndarray

    @property
    def extracted_nnz(self) -> int:
        return int(np.count_nonzero(self.extracted))


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
    view = tileset.pattern
    entry_fmt = view.per_entry(formats)

    extract = entry_fmt == FormatID.COO
    hyb_ids = np.flatnonzero(formats == FormatID.HYB)
    if hyb_ids.size:
        hyb_view = view.select(hyb_ids)
        widths = hyb_split_widths(hyb_view)
        # Map widths back to per-entry overflow decisions on the full view.
        width_of_tile = np.zeros(tileset.n_tiles, dtype=np.int64)
        width_of_tile[hyb_ids] = widths
        pos = view.pos_in_row()
        overflow = (entry_fmt == FormatID.HYB) & (pos >= view.per_entry(width_of_tile))
        extract |= overflow

    extracted = np.empty(tileset.nnz, dtype=bool)
    extracted[tileset.entry_perm] = extract  # view order -> canonical order
    deferred = Csr5SpMV.layout(
        *masked_pattern(tileset.indptr, tileset.indices, extracted), (tileset.m, tileset.n)
    )
    keep = ~extract
    if not keep.any():
        return DeferredSplit(tiled=None, deferred=deferred, extracted=extracted)

    # Masking keeps the view's (tile, lrow, lcol) order: dropping the
    # extracted entries and the tiles left empty is what tiling c[~m]
    # from scratch yields.
    rest = view.masked(keep)
    kept = np.flatnonzero(np.diff(rest.offsets))
    # The dtypes tiling c[~m] picks (see tile_decompose).
    idx = index_dtype(max(rest.nnz, tileset.m, tileset.n))
    tile_rowidx = tileset.tile_rowidx[kept].astype(idx)
    indptr, indices = masked_pattern(tileset.indptr, tileset.indices, ~extracted)
    remainder = replace(
        tileset,
        tile_ptr=lengths_to_offsets(np.bincount(tile_rowidx, minlength=tileset.tile_rows)),
        tile_colidx=tileset.tile_colidx[kept].astype(idx),
        tile_rowidx=tile_rowidx,
        pattern=replace(
            rest,
            offsets=np.append(rest.offsets[kept], rest.nnz).astype(idx),
            eff_h=view.eff_h[kept],
            eff_w=view.eff_w[kept],
        ),
        # A kept entry's new canonical slot: kept entries before it.
        entry_perm=lengths_to_offsets(~extracted)[tileset.entry_perm[keep]].astype(idx),
        indptr=indptr,
        indices=indices,
    )
    # Carry the original per-tile decisions over; HYB keeps its ELL part.
    formats = formats[kept]
    formats[formats == FormatID.HYB] = FormatID.ELL
    tiled = TileMatrix.build(remainder, formats)
    return DeferredSplit(tiled=tiled, deferred=deferred, extracted=extracted)
