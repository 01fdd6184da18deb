"""Tile-structure statistics across a matrix collection (Fig 7)."""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.core.selection import SelectionConfig, select_formats
from repro.core.tiling import tile_decompose
from repro.formats import FormatID

__all__ = ["FormatShare", "matrix_format_counts", "aggregate_format_shares"]


@dataclass
class FormatShare:
    """Per-format share of tiles and of nonzeros (the two Fig 7 panels)."""

    tiles: dict[FormatID, int]
    nnz: dict[FormatID, int]

    @property
    def total_tiles(self) -> int:
        return sum(self.tiles.values())

    @property
    def total_nnz(self) -> int:
        return sum(self.nnz.values())

    def tile_ratio(self, fmt: FormatID) -> float:
        return self.tiles[fmt] / self.total_tiles if self.total_tiles else 0.0

    def nnz_ratio(self, fmt: FormatID) -> float:
        return self.nnz[fmt] / self.total_nnz if self.total_nnz else 0.0


def matrix_format_counts(
    matrix: sp.spmatrix,
    config: SelectionConfig | None = None,
    tile: int = 16,
) -> FormatShare:
    """Format histogram of one matrix under ADPT selection.

    Counts come straight from selection; no payload encoding is needed,
    which keeps the whole-collection sweep fast.
    """
    tileset = tile_decompose(matrix, tile=tile)
    formats = select_formats(tileset, config)
    counts = tileset.pattern.counts()
    tiles = {f: int((formats == f).sum()) for f in FormatID}
    nnz = {f: int(counts[formats == f].sum()) for f in FormatID}
    return FormatShare(tiles=tiles, nnz=nnz)


def aggregate_format_shares(shares: list[FormatShare]) -> FormatShare:
    """Pool per-matrix histograms into the collection-wide totals."""
    tiles = {f: 0 for f in FormatID}
    nnz = {f: 0 for f in FormatID}
    for s in shares:
        for f in FormatID:
            tiles[f] += s.tiles[f]
            nnz[f] += s.nnz[f]
    return FormatShare(tiles=tiles, nnz=nnz)
