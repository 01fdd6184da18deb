"""ELL tile format.

Each tile stores ``tilewidth`` (the maximum per-row nonzero count) slots
per row, column-major so a warp's accesses are contiguous, padding short
rows with explicit zeros.  Column indices are 4-bit packed; a per-tile
``tilewidth`` byte completes the layout (paper §III.B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, scattered_values
from repro.util.segments import lengths_to_offsets

__all__ = ["TileELLData", "encode_ell", "ell_widths"]


@dataclass
class TileELLData:
    """All ELL tiles' payloads, concatenated.

    Slots for tile ``i`` live at ``slot_offsets[i]:slot_offsets[i+1]``
    and hold ``width[i] * tile`` elements in column-major order:
    slot ``c * tile + r`` is the ``c``-th nonzero of local row ``r``.
    Padding slots carry value 0 and column index 0 (a 0-valued
    contribution, so kernels need no masking).
    """

    width: np.ndarray  # uint8 per tile
    colidx: np.ndarray  # packed 4-bit, per tile ceil(width*tile/2) bytes
    byte_offsets: np.ndarray
    val: np.ndarray | None  # float64 slots (padded); None when structure-only
    slot_offsets: np.ndarray
    valid: np.ndarray  # bool per slot: real nonzero vs padding
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.width.size

    @property
    def n_slots(self) -> int:
        return int(self.slot_offsets[-1])

    def nbytes_model(self) -> int:
        """Device footprint: padded values + packed indices + width bytes."""
        return self.n_slots * VALUE_BYTES + int(self.byte_offsets[-1]) + self.n_tiles

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val) for real entries only."""
        slots = self.n_slots
        widths = self.width.astype(np.int64)
        slot_tile = np.repeat(np.arange(self.n_tiles), widths * self.tile)
        local_slot = np.arange(slots) - self.slot_offsets[slot_tile]
        lrow = (local_slot % self.tile).astype(np.uint8)
        byte_idx = self.byte_offsets[slot_tile] + local_slot // 2
        packed = self.colidx[byte_idx]
        lcol = np.where(local_slot % 2 == 0, packed >> 4, packed & 0x0F).astype(np.uint8)
        keep = self.valid
        return slot_tile[keep], lrow[keep], lcol[keep], self.val[keep]


def ell_widths(view: TilesView) -> np.ndarray:
    """Per-tile ELL width = maximum per-row nonzero count."""
    return view.row_counts().max(axis=1).astype(np.int64)


def encode_ell(view: TilesView) -> TileELLData:
    """Encode every tile of ``view`` in the ELL tile format."""
    if view.tile > 16 or view.tile % 2:
        raise ValueError("ELL nibble packing requires an even tile size <= 16")
    t = view.tile
    widths = ell_widths(view)
    slots_per_tile = widths * t
    slot_offsets = lengths_to_offsets(slots_per_tile)
    n_slots = int(slot_offsets[-1])
    lcol_slots = np.zeros(n_slots, dtype=np.uint8)
    valid = np.zeros(n_slots, dtype=bool)
    dst = view.per_entry(slot_offsets[:-1]) + view.pos_in_row() * t + view.lrow
    lcol_slots[dst] = view.lcol.astype(np.uint8)
    valid[dst] = True
    # Pack column nibbles two-per-byte; every tile's slot count is a
    # multiple of the (even) tile size, so tiles stay byte-aligned.
    bytes_per_tile = (slots_per_tile + 1) // 2
    byte_offsets = lengths_to_offsets(bytes_per_tile)
    padded = lcol_slots
    if padded.size % 2:
        padded = np.concatenate([padded, np.zeros(1, dtype=np.uint8)])
    colidx = ((padded[0::2] << 4) | padded[1::2]).astype(np.uint8)
    return TileELLData(
        width=widths.astype(np.uint8),
        colidx=colidx[: int(byte_offsets[-1])],
        byte_offsets=byte_offsets,
        val=scattered_values(view, dst, n_slots),
        slot_offsets=slot_offsets,
        valid=valid,
        tile=t,
    )
