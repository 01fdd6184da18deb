"""COO tile format.

The paper's choice for very sparse tiles: per nonzero, one value plus one
byte holding the 4-bit local row index (high nibble) and 4-bit column
index (low nibble).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, copied_values
from repro.util.packing import pack_nibble_pairs, unpack_nibble_pairs

__all__ = ["TileCOOData", "encode_coo"]


@dataclass
class TileCOOData:
    """All COO tiles' payloads, concatenated.

    ``offsets[i]:offsets[i+1]`` delimits tile ``i``'s entries in
    ``rowcol`` / ``val``.
    """

    rowcol: np.ndarray  # uint8, packed (lrow << 4) | lcol
    val: np.ndarray | None  # float64; None when structure-only
    offsets: np.ndarray  # per-tile entry offsets

    @property
    def n_tiles(self) -> int:
        return self.offsets.size - 1

    @property
    def nnz(self) -> int:
        return int(self.offsets[-1])

    def nbytes_model(self) -> int:
        """Modelled device footprint: 1 packed-index byte + value per nnz."""
        return self.nnz * (1 + VALUE_BYTES)

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (lrow, lcol, val) for all entries, tile-concatenated."""
        lrow, lcol = unpack_nibble_pairs(self.rowcol)
        return lrow, lcol, self.val


def encode_coo(view: TilesView) -> TileCOOData:
    """Encode every tile of ``view`` in the COO format."""
    if view.tile > 16:
        raise ValueError("COO nibble packing requires tile size <= 16")
    return TileCOOData(
        rowcol=pack_nibble_pairs(view.lrow, view.lcol),
        val=copied_values(view),
        offsets=view.offsets.copy(),
    )
