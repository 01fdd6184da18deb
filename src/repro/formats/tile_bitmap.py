"""Bitmap tile format (extension).

Not one of the paper's seven formats, but the indexing scheme its
follow-on works (the Tile-series: TileSpGEMM, TileSpTRSV) converge on: a
256-bit occupancy bitmap per 16x16 tile plus the values in row-major
order.  Index cost is a flat 32 bytes per tile regardless of density —
cheaper than CSR's 16-byte pointer plus packed indices once a tile holds
more than ~32 nonzeros, and GPU-friendly (position = popcount prefix).

Enabled through ``SelectionConfig(use_bitmap=True)``; disabled by
default so the paper experiments run exactly the published selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, copied_values
from repro.util.segments import run_starts

__all__ = ["TileBitmapData", "encode_bitmap", "bitmap_nbytes"]

BITMAP_BYTES = 32  # 16*16 bits


@dataclass
class TileBitmapData:
    """All bitmap tiles' payloads, concatenated.

    ``bitmap`` holds 32 bytes per tile; bit ``lrow*16 + lcol`` (LSB
    first within each byte) marks occupancy.  ``val`` holds the values
    in bit order (row-major), delimited by ``offsets``.
    """

    bitmap: np.ndarray  # uint8, 32 * n_tiles
    val: np.ndarray | None
    offsets: np.ndarray
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.offsets.size - 1

    @property
    def nnz(self) -> int:
        return int(self.offsets[-1])

    def nbytes_model(self) -> int:
        return self.nnz * VALUE_BYTES + self.n_tiles * BITMAP_BYTES

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val)."""
        bits = np.unpackbits(self.bitmap.reshape(self.n_tiles, BITMAP_BYTES), axis=1, bitorder="little")
        tile_ids, positions = np.nonzero(bits)
        lrow = (positions // self.tile).astype(np.uint8)
        lcol = (positions % self.tile).astype(np.uint8)
        return tile_ids.astype(np.int64), lrow, lcol, self.val


def encode_bitmap(view: TilesView) -> TileBitmapData:
    """Encode every tile of ``view`` in the bitmap format."""
    if view.tile != 16:
        raise ValueError("the bitmap format is defined for 16x16 tiles")
    n = view.n_tiles
    bit = view.lrow.astype(np.int64) * view.tile + view.lcol
    byte_idx = view.per_entry(np.arange(0, n * BITMAP_BYTES, BITMAP_BYTES, dtype=np.int64)) + bit // 8
    bitmap = np.zeros(n * BITMAP_BYTES, dtype=np.uint8)
    # Entries are sorted (tile, lrow, lcol) == bit order, so ``byte_idx``
    # is non-decreasing: OR each run of equal bytes into one value.
    starts = run_starts(byte_idx)
    bits = (1 << (bit % 8)).astype(np.uint8)
    bitmap[byte_idx[starts]] = np.bitwise_or.reduceat(bits, starts)
    return TileBitmapData(
        bitmap=bitmap,
        val=copied_values(view),
        offsets=view.offsets.copy(),
        tile=view.tile,
    )


def bitmap_nbytes(nnz_per_tile: np.ndarray) -> np.ndarray:
    """Modelled per-tile footprint, for selection comparisons."""
    return nnz_per_tile * VALUE_BYTES + BITMAP_BYTES
