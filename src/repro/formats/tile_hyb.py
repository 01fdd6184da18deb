"""HYB tile format: an ELL part plus a COO overflow part.

The per-tile ELL width is chosen by the paper's space search: sweep the
width from the maximum row count down to zero and keep the width whose
combined ELL + COO footprint is smallest.  Rows longer than the chosen
width spill their tail entries into the COO part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView
from repro.formats.tile_coo import TileCOOData, encode_coo
from repro.formats.tile_ell import TileELLData, encode_ell

__all__ = ["TileHYBData", "encode_hyb", "hyb_split_widths"]


@dataclass
class TileHYBData:
    """All HYB tiles' payloads: aligned ELL and COO sub-payloads.

    Tile ``i`` of the ELL part and tile ``i`` of the COO part describe
    the same source tile; either part may be empty for a given tile.
    """

    ell: TileELLData
    coo: TileCOOData

    @property
    def n_tiles(self) -> int:
        return self.ell.n_tiles

    @property
    def nnz(self) -> int:
        return int(self.ell.valid.sum()) + self.coo.nnz

    def nbytes_model(self) -> int:
        return self.ell.nbytes_model() + self.coo.nbytes_model()

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (tile_of_entry, lrow, lcol, val) over both parts."""
        et, er, ec, ev = self.ell.decode()
        cr, cc, cv = self.coo.decode()
        ct = np.repeat(np.arange(self.coo.n_tiles), np.diff(self.coo.offsets))
        return (
            np.concatenate([et, ct]),
            np.concatenate([er, cr]),
            np.concatenate([ec, cc]),
            np.concatenate([ev, cv]),
        )


def _ell_bytes(width: np.ndarray, tile: int) -> np.ndarray:
    """Modelled ELL footprint per tile for candidate widths."""
    slots = width * tile
    return slots * VALUE_BYTES + (slots + 1) // 2 + 1  # values + packed idx + width byte


def hyb_split_widths(view: TilesView) -> np.ndarray:
    """Paper's width search: minimise ELL + COO bytes per tile.

    Scanning from the maximum width down to zero and keeping strict
    improvements yields the smallest width among cost minima, matching
    the paper's 'until the smallest memory space is found'.  Each step
    updates per-tile running counts from a histogram of row lengths:
    narrowing the ELL part by one spills one more entry of every row
    longer than the new width.
    """
    rc = view.row_counts()  # (n, tile)
    n = view.n_tiles
    max_w = int(rc.max()) if rc.size else 0
    # rows_of_len[v, t]: rows of tile t holding exactly v entries.
    key = rc.astype(np.int64) * n + np.arange(n, dtype=np.int64)[:, None]
    rows_of_len = np.bincount(key.ravel(), minlength=(max_w + 1) * n).reshape(max_w + 1, n)
    best_w = np.zeros(n, dtype=np.int64)
    best_cost = np.full(n, np.iinfo(np.int64).max)
    longer = np.zeros(n, dtype=np.int64)  # rows holding more than w entries
    overflow = np.zeros(n, dtype=np.int64)  # COO entries at width w
    for w in range(max_w, -1, -1):
        overflow += longer
        cost = _ell_bytes(w, view.tile) + overflow * (1 + VALUE_BYTES)
        better = cost <= best_cost  # <=: prefer the smaller width on ties
        best_cost = np.where(better, cost, best_cost)
        best_w[better] = w
        longer += rows_of_len[w]
    return best_w


def encode_hyb(view: TilesView, widths: np.ndarray | None = None) -> TileHYBData:
    """Encode every tile of ``view`` as HYB with per-tile split widths."""
    if widths is None:
        widths = hyb_split_widths(view)
    widths = np.asarray(widths, dtype=np.int64)
    to_ell = view.pos_in_row() < view.per_entry(widths)
    ell = encode_ell(view.masked(to_ell))
    # Force the searched width even when a tile's ELL part is empty but
    # the search still chose w=0 (encode_ell would agree) — assert parity.
    if not np.array_equal(ell.width.astype(np.int64), widths):
        raise AssertionError("ELL part width disagrees with the split search")
    coo = encode_coo(view.masked(~to_ell))
    return TileHYBData(ell=ell, coo=coo)
