"""DnsRow tile format: a few completely dense rows, everything else empty.

Stores the dense rows' values back-to-back (each row is ``eff_w`` values)
plus one byte per dense row recording which local row it is.  Selected
when every occupied row of a tile is completely full — common under
dense-border (arrow) and contact-block structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, copied_values
from repro.util.segments import lengths_to_offsets

__all__ = ["TileDnsRowData", "encode_dnsrow"]


@dataclass
class TileDnsRowData:
    """All DnsRow tiles' payloads, concatenated."""

    rowidx: np.ndarray  # uint8: local index of each dense row
    row_offsets: np.ndarray  # int64 (n_tiles + 1): dense rows per tile
    val: np.ndarray | None  # float64: rows' values back-to-back, row-major
    val_offsets: np.ndarray  # int64 (n_tiles + 1): value offsets per tile
    eff_w: np.ndarray  # uint8 per tile: dense-row length
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.row_offsets.size - 1

    @property
    def nnz(self) -> int:
        return int(self.val_offsets[-1])

    def n_rows(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def nbytes_model(self) -> int:
        """Device footprint: values + one row-id byte per dense row."""
        return self.nnz * VALUE_BYTES + self.rowidx.size

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val) for all entries."""
        rows_per_tile = self.n_rows()
        row_tile = np.repeat(np.arange(self.n_tiles), rows_per_tile)
        w = self.eff_w.astype(np.int64)[row_tile]
        entry_tile = np.repeat(row_tile, w)
        lrow = np.repeat(self.rowidx, w)
        # Column index: position within each row.
        row_starts = lengths_to_offsets(w)
        lcol = (np.arange(int(row_starts[-1])) - np.repeat(row_starts[:-1], w)).astype(np.uint8)
        return entry_tile, lrow, lcol, self.val


def encode_dnsrow(view: TilesView) -> TileDnsRowData:
    """Encode every tile of ``view`` in the DnsRow format.

    Requires (selection guarantees) every occupied row to be completely
    dense, i.e. hold exactly ``eff_w`` entries.
    """
    rc = view.row_counts()  # (n, tile)
    occupied = rc > 0
    full = rc == view.eff_w.astype(np.int64)[:, None]
    if not bool(np.all(~occupied | full)):
        raise ValueError("DnsRow tile has a partially-filled row")
    rows_per_tile = occupied.sum(axis=1)
    row_offsets = lengths_to_offsets(rows_per_tile)
    tile_grid, row_grid = np.nonzero(occupied)
    rowidx = row_grid.astype(np.uint8)
    # Entries arrive sorted by (tile, lrow, lcol): exactly storage order.
    val_offsets = lengths_to_offsets(rc.sum(axis=1))
    return TileDnsRowData(
        rowidx=rowidx,
        row_offsets=row_offsets,
        val=copied_values(view),
        val_offsets=val_offsets,
        eff_w=view.eff_w.astype(np.uint8),
        tile=view.tile,
    )
