"""Shared definitions for the tile formats.

:class:`TilesView` is the hand-off between the tiling front-end and the
format encoders: a selected subset of tiles together with their sorted
nonzero entries, expressed in tile-local coordinates.  Encoders consume a
``TilesView`` for the tiles assigned to their format and emit a payload
dataclass; they never see the rest of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from repro.util.segments import (
    lengths_to_offsets,
    offsets_to_lengths,
    repeat_offsets,
)

__all__ = ["FormatID", "FORMAT_NAMES", "TilesView", "VALUE_BYTES", "copied_values", "scattered_values"]

VALUE_BYTES = 8  # float64 throughout, matching the paper's double precision.


class FormatID(IntEnum):
    """The seven per-tile formats of TileSpMV (paper §III.B), plus the
    bitmap format the Tile-series follow-on works introduced (an
    extension, off by default — see :mod:`repro.formats.tile_bitmap`)."""

    CSR = 0
    COO = 1
    ELL = 2
    HYB = 3
    DNS = 4
    DNSROW = 5
    DNSCOL = 6
    BITMAP = 7


FORMAT_NAMES = {f: f.name for f in FormatID}


def copied_values(view: "TilesView") -> np.ndarray | None:
    """The view's values as an owned float64 array (``None`` stays ``None``)."""
    return None if view.val is None else np.asarray(view.val, dtype=np.float64).copy()


def scattered_values(view: "TilesView", dst: np.ndarray, n_slots: int) -> np.ndarray | None:
    """``n_slots`` float64 slots, zero except the view's values at ``dst``
    (``None`` for a structure-only view)."""
    if view.val is None:
        return None
    val = np.zeros(n_slots, dtype=np.float64)
    val[dst] = view.val
    return val


@dataclass
class TilesView:
    """A selected group of tiles and their entries, tile-locally indexed.

    Entries are sorted by (tile, local row, local column) — the order the
    tiling front-end guarantees — and ``offsets[i]:offsets[i+1]`` delimits
    tile ``i`` of the view.

    Attributes
    ----------
    lrow, lcol:
        Tile-local coordinates of each entry, in ``[0, tile)``.
    val:
        Entry values, or ``None`` in a structure-only view (the
        encoders then emit structure-only payloads, ``val=None``).
    offsets:
        Per-tile entry offsets, length ``n_tiles + 1``.
    eff_h, eff_w:
        Effective tile height/width (smaller than ``tile`` only for tiles
        straddling the matrix boundary).
    tile:
        Nominal tile edge length (16 in the paper).
    """

    lrow: np.ndarray
    lcol: np.ndarray
    val: np.ndarray | None
    offsets: np.ndarray
    eff_h: np.ndarray
    eff_w: np.ndarray
    tile: int = 16

    @property
    def n_tiles(self) -> int:
        return self.offsets.size - 1

    @property
    def nnz(self) -> int:
        return int(self.offsets[-1])

    def tile_of_entry(self) -> np.ndarray:
        """View-local tile index of every entry."""
        return repeat_offsets(self.offsets)

    def per_entry(self, per_tile: np.ndarray) -> np.ndarray:
        """``per_tile[tile_of_entry()]``, in ``per_tile``'s dtype.

        One ``repeat`` over the tile counts: no tile index is built.
        """
        return np.repeat(per_tile, self.counts())

    def entry_rank(self) -> np.ndarray:
        """Position of each entry within its tile."""
        return np.arange(self.nnz, dtype=np.int64) - self.per_entry(self.offsets[:-1])

    def counts(self) -> np.ndarray:
        """Nonzeros per tile."""
        return offsets_to_lengths(self.offsets)

    def row_counts(self) -> np.ndarray:
        """(n_tiles, tile) matrix of per-local-row nonzero counts.

        ``int16`` keeps the whole-collection preprocessing footprint small
        (counts never exceed the tile size).  One ``bincount`` pass that
        relies on the canonical order :func:`~repro.core.tiling.tile_decompose`
        emits: each tile's entries are contiguous, exactly
        ``offsets[i]:offsets[i+1]``, and every local index lies in
        ``[0, tile)``.  The order *within* a tile does not matter here.
        """
        return self._local_counts(self.lrow)

    def col_counts(self) -> np.ndarray:
        """(n_tiles, tile) matrix of per-local-column nonzero counts."""
        return self._local_counts(self.lcol)

    def _local_counts(self, local: np.ndarray) -> np.ndarray:
        key = self.per_entry(np.arange(0, self.n_tiles * self.tile, self.tile, dtype=np.int64))
        key += local
        counts = np.bincount(key, minlength=self.n_tiles * self.tile)
        return counts.reshape(self.n_tiles, self.tile).astype(np.int16)

    def pos_in_row(self) -> np.ndarray:
        """Rank of each entry within its (tile, row) group.

        Relies on the (tile, lrow, lcol) sort order: entries of one row
        are consecutive, so a run starts where the local row changes or
        a tile begins, and the rank counts from the run's start.
        """
        n = self.nnz
        is_start = np.empty(n, dtype=bool)
        if n:
            is_start[0] = True
            np.not_equal(self.lrow[1:], self.lrow[:-1], out=is_start[1:])
            tile_starts = self.offsets[:-1]
            is_start[tile_starts[tile_starts < n]] = True
        starts = np.flatnonzero(is_start)
        return np.arange(n, dtype=np.int64) - np.repeat(starts, np.diff(starts, append=n))

    def masked(self, keep: np.ndarray) -> "TilesView":
        """The entries the boolean ``keep`` selects; every tile stays."""
        kept_before = lengths_to_offsets(keep)
        return replace(
            self,
            lrow=self.lrow[keep],
            lcol=self.lcol[keep],
            val=None if self.val is None else self.val[keep],
            offsets=kept_before[self.offsets],
        )

    def select(self, mask_or_idx: np.ndarray) -> "TilesView":
        """A new view restricted to the given tiles (mask or index array)."""
        idx = np.asarray(mask_or_idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        lengths = self.counts()[idx]
        new_offsets = lengths_to_offsets(lengths, dtype=self.offsets.dtype)
        # Source of every kept entry: its tile's old start plus its rank,
        # i.e. the new position shifted by a per-tile constant.
        src = np.repeat(self.offsets[idx] - new_offsets[:-1], lengths)
        src += np.arange(src.size, dtype=np.int64)
        return TilesView(
            lrow=self.lrow[src],
            lcol=self.lcol[src],
            val=None if self.val is None else self.val[src],
            offsets=new_offsets,
            eff_h=self.eff_h[idx],
            eff_w=self.eff_w[idx],
            tile=self.tile,
        )
