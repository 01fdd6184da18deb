"""Dns tile format: the whole tile stored densely, column-major.

Selected for tiles with at least 128 of 256 positions occupied — at that
density explicit zeros cost less than any index structure.  Only values
are stored (no indices at all); boundary tiles store their effective
``eff_h x eff_w`` rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, scattered_values
from repro.util.segments import lengths_to_offsets

__all__ = ["TileDnsData", "encode_dns"]


@dataclass
class TileDnsData:
    """All Dns tiles' payloads, concatenated column-major rectangles."""

    val: np.ndarray | None  # float64, per tile eff_h*eff_w values, column-major
    slot_offsets: np.ndarray  # int64 (n_tiles + 1)
    eff_h: np.ndarray  # uint8 per tile
    eff_w: np.ndarray  # uint8 per tile
    valid: np.ndarray  # bool per slot: explicitly-stored structural nonzero
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.eff_h.size

    @property
    def n_slots(self) -> int:
        return int(self.slot_offsets[-1])

    def nbytes_model(self) -> int:
        """Device footprint: values only — Dns stores no indices."""
        return self.n_slots * VALUE_BYTES

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val) for structural nonzeros."""
        heights = self.eff_h.astype(np.int64)
        slots = heights * self.eff_w.astype(np.int64)
        slot_tile = np.repeat(np.arange(self.n_tiles), slots)
        local = np.arange(self.n_slots) - self.slot_offsets[slot_tile]
        h = heights[slot_tile]
        lcol = (local // h).astype(np.uint8)
        lrow = (local % h).astype(np.uint8)
        keep = self.valid
        return slot_tile[keep], lrow[keep], lcol[keep], self.val[keep]


def encode_dns(view: TilesView) -> TileDnsData:
    """Encode every tile of ``view`` as a dense column-major rectangle."""
    heights = view.eff_h.astype(np.int64)
    widths = view.eff_w.astype(np.int64)
    slots_per_tile = heights * widths
    slot_offsets = lengths_to_offsets(slots_per_tile)
    n_slots = int(slot_offsets[-1])
    valid = np.zeros(n_slots, dtype=bool)
    dst = view.per_entry(slot_offsets[:-1]) + view.lcol * view.per_entry(heights) + view.lrow
    valid[dst] = True
    return TileDnsData(
        val=scattered_values(view, dst, n_slots),
        slot_offsets=slot_offsets,
        eff_h=view.eff_h.astype(np.uint8),
        eff_w=view.eff_w.astype(np.uint8),
        valid=valid,
        tile=view.tile,
    )
