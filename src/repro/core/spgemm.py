"""Tile-level sparse general matrix-matrix multiply (extension).

The Tile-series successor to this paper (TileSpGEMM) carries the same
idea to C = A * B: operate on 16x16 tiles, pair A's tile rows with B's
tile columns through the *tile-level* sparsity pattern, and multiply
matched tiles as dense blocks.  This module implements that two-phase
scheme on the reproduction's tiling substrate:

* **symbolic phase** — the occupied tiles of C are exactly the nonzero
  entries of ``pattern(Atiles) @ pattern(Btiles)`` on the tile grid, a
  matrix three orders of magnitude smaller than A;
* **numeric phase** — every matched (A-tile, B-tile) pair contributes a
  dense 16x16 product, batched through one ``einsum`` and scatter-added
  into C's tiles.

Exact numerics (validated against ``A @ B`` in scipy); the pairing
statistics (pairs per C tile, the compression the tiling achieves) are
exposed for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.tiling import TileSet, tile_decompose
from repro.reliability.validation import canonicalize_csr

__all__ = ["SpgemmStats", "tile_spgemm"]


@dataclass
class SpgemmStats:
    """Structure counters of one tiled SpGEMM."""

    a_tiles: int
    b_tiles: int
    c_tiles: int
    tile_pairs: int  # dense 16x16 products performed
    c_nnz: int

    @property
    def pairs_per_c_tile(self) -> float:
        return self.tile_pairs / self.c_tiles if self.c_tiles else 0.0


def _dense_tiles(ts: TileSet, data: np.ndarray) -> np.ndarray:
    """(n_tiles, tile, tile) dense materialisation of every tile, values
    ``data`` (canonical CSR order)."""
    t = ts.tile
    out = np.zeros((ts.n_tiles, t, t))
    view = ts.view(data)
    out[view.tile_of_entry(), view.lrow.astype(np.int64), view.lcol.astype(np.int64)] = view.val
    return out


def _tile_pattern(ts: TileSet, shape: tuple[int, int]) -> sp.csr_matrix:
    """Tile-grid pattern matrix: entry (I, K) = index of tile + 1."""
    data = np.arange(1, ts.n_tiles + 1, dtype=np.int64)
    return sp.csr_matrix(
        (data, (ts.tile_rowidx, ts.tile_colidx)), shape=shape
    )


def tile_spgemm(
    a: sp.spmatrix,
    b: sp.spmatrix,
    tile: int = 16,
    return_stats: bool = False,
):
    """C = A @ B through 16x16 tile pairing.

    Parameters
    ----------
    a, b:
        Conforming sparse matrices.
    tile:
        Tile edge (A and B use the same).
    return_stats:
        When true, returns ``(C, SpgemmStats)``.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    ca, cb = canonicalize_csr(a)[0], canonicalize_csr(b)[0]
    ts_a = tile_decompose(ca, tile=tile, validation="trust")
    ts_b = tile_decompose(cb, tile=tile, validation="trust")
    m, n = a.shape[0], b.shape[1]
    if ts_a.n_tiles == 0 or ts_b.n_tiles == 0:
        c = sp.csr_matrix((m, n))
        if return_stats:
            return c, SpgemmStats(ts_a.n_tiles, ts_b.n_tiles, 0, 0, 0)
        return c

    # Symbolic phase on the tile grid.  Patterns store tile-index + 1 so
    # a CSR join recovers which tiles matched.
    grid_k = -(-a.shape[1] // tile)
    pat_a = _tile_pattern(ts_a, (ts_a.tile_rows, grid_k)).tocsr()
    pat_b = _tile_pattern(ts_b, (grid_k, -(-n // tile))).tocsr()

    # Pair enumeration: for every A tile (I, K), join with B's tile row K.
    a_tile_row = ts_a.tile_rowidx
    a_tile_col = ts_a.tile_colidx  # = K
    b_row_ptr = pat_b.indptr
    pairs_per_a = b_row_ptr[a_tile_col + 1] - b_row_ptr[a_tile_col]
    pair_a = np.repeat(np.arange(ts_a.n_tiles), pairs_per_a)
    # Offsets into B's tile row K for each pair.
    from repro.util.segments import lengths_to_offsets, segment_local_index

    pair_offsets = lengths_to_offsets(pairs_per_a)
    local = segment_local_index(pair_offsets)
    pair_b_pos = b_row_ptr[a_tile_col[pair_a]] + local
    pair_b = pat_b.data[pair_b_pos] - 1  # stored tile index
    # Widened: a tile set's indices may be int32, and the C-tile key
    # (tile row x tile columns) can pass 2**31 on a large grid.
    pair_cj = pat_b.indices[pair_b_pos].astype(np.int64)
    pair_ci = a_tile_row[pair_a].astype(np.int64)

    # Numeric phase: batched dense tile products, accumulated per C tile.
    dense_a = _dense_tiles(ts_a, ca.data)
    dense_b = _dense_tiles(ts_b, cb.data)
    c_key = pair_ci * pat_b.shape[1] + pair_cj
    uniq_keys, c_of_pair = np.unique(c_key, return_inverse=True)
    n_ctiles = uniq_keys.size
    c_tiles = np.zeros((n_ctiles, tile, tile))
    products = np.einsum("pij,pjk->pik", dense_a[pair_a], dense_b[pair_b])
    np.add.at(c_tiles, c_of_pair, products)

    # Assemble C from its dense tiles.
    ci = uniq_keys // pat_b.shape[1]
    cj = uniq_keys % pat_b.shape[1]
    tidx, lr, lc = np.nonzero(c_tiles)
    rows = ci[tidx] * tile + lr
    cols = cj[tidx] * tile + lc
    keep = (rows < m) & (cols < n)
    c = sp.csr_matrix(
        (c_tiles[tidx, lr, lc][keep], (rows[keep], cols[keep])), shape=(m, n)
    )
    c.sum_duplicates()
    c.sort_indices()
    if return_stats:
        stats = SpgemmStats(
            a_tiles=ts_a.n_tiles,
            b_tiles=ts_b.n_tiles,
            c_tiles=n_ctiles,
            tile_pairs=int(pair_a.size),
            c_nnz=c.nnz,
        )
        return c, stats
    return c
