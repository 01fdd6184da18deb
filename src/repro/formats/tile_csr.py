"""CSR tile format.

Per tile (paper §III.B): values in row-major order, 4-bit column indices
packed two-per-byte, and a 16-entry ``unsigned char`` row pointer.  The
pointer stores only the first 16 offsets — the 17th (the tile's total
nonzero count, which can reach 256 and so does not fit in a byte) lives
in the level-1 ``tileNnz`` array instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import VALUE_BYTES, TilesView, copied_values
from repro.util.segments import repeat_offsets, segment_local_index

__all__ = ["TileCSRData", "encode_csr"]


@dataclass
class TileCSRData:
    """All CSR tiles' payloads, concatenated.

    Attributes
    ----------
    rowptr:
        ``uint8`` array of shape ``(n_tiles, tile)``: per-tile local row
        pointers (entry ``[t, r]`` = offset of row ``r`` within tile
        ``t``'s payload; the implicit final offset is the tile's count).
    colidx:
        Packed 4-bit column indices; each tile starts on a byte boundary.
    byte_offsets:
        Per-tile offsets into ``colidx`` (``n_tiles + 1``).
    val:
        Values, row-major within each tile (``None`` in a
        structure-only payload).
    offsets:
        Per-tile entry offsets into ``val`` (``n_tiles + 1``) — the
        in-memory stand-in for the level-1 ``tileNnz`` slice.
    tile:
        Tile edge length.
    """

    rowptr: np.ndarray
    colidx: np.ndarray
    byte_offsets: np.ndarray
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
        """Device footprint: values + packed indices + uint8 row pointers."""
        return (
            self.nnz * VALUE_BYTES
            + int(self.byte_offsets[-1])
            + self.rowptr.size  # one byte per pointer entry
        )

    def decode(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (lrow, lcol, val) for all entries, tile-concatenated."""
        n_tiles = self.n_tiles
        # Column indices: unpack per tile (each tile is byte-aligned);
        # compute each entry's byte and nibble position vectorised.
        tile_of_entry = repeat_offsets(self.offsets)
        rank = segment_local_index(self.offsets)
        byte_idx = self.byte_offsets[tile_of_entry] + rank // 2
        nibble_hi = (rank % 2) == 0
        packed = self.colidx[byte_idx]
        lcol = np.where(nibble_hi, packed >> 4, packed & 0x0F).astype(np.uint8)
        # Rows: invert the row pointer. Row of an entry = number of row
        # starts <= its rank; vectorised with searchsorted per tile is
        # avoided by expanding pointer deltas.
        row_lengths = self.row_lengths().ravel()
        lrow = np.repeat(np.tile(np.arange(self.tile, dtype=np.uint8), n_tiles), row_lengths)
        return lrow, lcol, self.val

    def row_lengths(self) -> np.ndarray:
        """(n_tiles, tile) per-row nonzero counts, from the row pointers.

        ``int16`` throughout: per-tile counts never exceed 256.
        """
        rp = self.rowptr.reshape(self.n_tiles, self.tile).astype(np.int16)
        counts = np.diff(self.offsets).astype(np.int16)
        full = np.concatenate([rp, counts[:, None]], axis=1)
        return np.diff(full, axis=1)


def encode_csr(view: TilesView) -> TileCSRData:
    """Encode every tile of ``view`` in the CSR tile format."""
    if view.tile > 16:
        raise ValueError("CSR nibble packing requires tile size <= 16")
    n = view.n_tiles
    t = view.tile
    # Row pointers fit int16 during the prefix sum (tile nnz <= 256) and
    # uint8 afterwards; small dtypes keep multi-million-tile matrices
    # comfortably in memory.
    rc = view.row_counts()  # (n, tile) int16
    rowptr = np.zeros((n, t), dtype=np.int16)
    np.cumsum(rc[:, :-1], axis=1, out=rowptr[:, 1:])
    if rowptr.size and rowptr.max() > 255:
        raise ValueError("tile row pointer exceeds uint8 range")
    # Pack column indices per tile: tiles are byte-aligned, so pad each
    # odd-length tile with a zero nibble.  Each byte receives at most one
    # high (even rank) and one low (odd rank) nibble, so plain fancy
    # assignment packs them.
    counts = view.counts()
    bytes_per_tile = (counts + 1) // 2
    byte_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bytes_per_tile, out=byte_offsets[1:])
    rank = view.entry_rank()
    byte_idx = view.per_entry(byte_offsets[:-1]) + rank // 2
    colidx = np.zeros(int(byte_offsets[-1]), dtype=np.uint8)
    hi = (rank % 2) == 0
    nib = view.lcol.astype(np.uint8)
    colidx[byte_idx[hi]] = nib[hi] << 4
    colidx[byte_idx[~hi]] |= nib[~hi]
    return TileCSRData(
        rowptr=rowptr.astype(np.uint8).ravel(),
        colidx=colidx,
        byte_offsets=byte_offsets,
        val=copied_values(view),
        offsets=view.offsets.copy(),
        tile=t,
    )
