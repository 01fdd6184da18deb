"""DnsCol tile format: a few completely dense columns, everything else empty.

The column-wise mirror of DnsRow: each dense column stores ``eff_h``
consecutive values plus a one-byte local column id.  Its SpMV reuses a
single ``x`` entry per column across all lanes (paper Fig 4, pink tile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, scattered_values
from repro.util.segments import lengths_to_offsets

__all__ = ["TileDnsColData", "encode_dnscol"]


@dataclass
class TileDnsColData:
    """All DnsCol tiles' payloads, concatenated."""

    colidx: np.ndarray  # uint8: local index of each dense column
    col_offsets: np.ndarray  # int64 (n_tiles + 1): dense columns per tile
    val: np.ndarray | None  # float64: columns' values back-to-back
    val_offsets: np.ndarray  # int64 (n_tiles + 1)
    eff_h: np.ndarray  # uint8 per tile: dense-column length
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.col_offsets.size - 1

    @property
    def nnz(self) -> int:
        return int(self.val_offsets[-1])

    def n_cols(self) -> np.ndarray:
        return np.diff(self.col_offsets)

    def nbytes_model(self) -> int:
        """Device footprint: values + one column-id byte per dense column."""
        return self.nnz * VALUE_BYTES + self.colidx.size

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val) for all entries."""
        cols_per_tile = self.n_cols()
        col_tile = np.repeat(np.arange(self.n_tiles), cols_per_tile)
        h = self.eff_h.astype(np.int64)[col_tile]
        entry_tile = np.repeat(col_tile, h)
        lcol = np.repeat(self.colidx, h)
        col_starts = lengths_to_offsets(h)
        lrow = (np.arange(int(col_starts[-1])) - np.repeat(col_starts[:-1], h)).astype(np.uint8)
        return entry_tile, lrow, lcol, self.val


def encode_dnscol(view: TilesView) -> TileDnsColData:
    """Encode every tile of ``view`` in the DnsCol format.

    Requires every occupied column to hold exactly ``eff_h`` entries.
    Values are stored column-major (the view arrives row-major): each
    entry's slot follows from its tile's first slot, the occupied
    columns left of its own, and its row — no sort.
    """
    cc = view.col_counts()  # (n, tile)
    occupied = cc > 0
    eff_h = view.eff_h.astype(np.int64)
    full = cc == eff_h[:, None]
    if not bool(np.all(~occupied | full)):
        raise ValueError("DnsCol tile has a partially-filled column")
    cols_per_tile = occupied.sum(axis=1)
    col_offsets = lengths_to_offsets(cols_per_tile)
    val_offsets = lengths_to_offsets(cc.sum(axis=1))
    # Rank of each occupied column among its tile's occupied columns.
    col_rank = np.cumsum(occupied, axis=1) - 1
    tile_of_entry = view.tile_of_entry()
    slot = (
        val_offsets[tile_of_entry]
        + col_rank[tile_of_entry, view.lcol] * eff_h[tile_of_entry]
        + view.lrow
    )
    tile_grid, col_grid = np.nonzero(occupied)
    return TileDnsColData(
        colidx=col_grid.astype(np.uint8),
        col_offsets=col_offsets,
        val=scattered_values(view, slot, view.nnz),
        val_offsets=val_offsets,
        eff_h=view.eff_h.astype(np.uint8),
        tile=view.tile,
    )
