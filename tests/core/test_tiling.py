"""Tile decomposition tests: level-1 structure invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.tiling import tile_decompose
from repro.matrices import random_uniform
from repro.reliability.validation import canonicalize_csr


def _values(ts, matrix):
    """The entries' values in tile-sorted order, read from ``matrix``'s
    canonical CSR (a tile set holds none)."""
    return ts.view(canonicalize_csr(matrix)[0].data).val


class TestTileDecompose:
    def test_paper_layout_small(self):
        # 6x6 matrix of Fig 1 with tile 4: tiles (0,0),(0,1),(1,0),(1,1).
        rows = np.array([0, 0, 1, 2, 3, 4, 5, 5])
        cols = np.array([0, 3, 1, 4, 2, 4, 0, 5])
        a = sp.csr_matrix((np.arange(1.0, 9.0), (rows, cols)), shape=(6, 6))
        ts = tile_decompose(a, tile=4)
        assert ts.tile_rows == 2 and ts.tile_cols == 2
        assert ts.n_tiles == 4
        assert ts.tile_ptr.tolist() == [0, 2, 4]
        assert ts.tile_colidx.tolist() == [0, 1, 0, 1]

    def test_tile_nnz_offsets_cover_all(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        assert int(ts.tile_nnz[-1]) == zoo_matrix.nnz
        assert np.all(np.diff(ts.tile_nnz) > 0)  # only occupied tiles stored

    def test_entries_sorted_within_tiles(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        t = ts.pattern.tile_of_entry()
        key = (
            t * (ts.tile * ts.tile)
            + ts.pattern.lrow.astype(np.int64) * ts.tile
            + ts.pattern.lcol.astype(np.int64)
        )
        assert np.all(np.diff(key) > 0)  # strictly increasing: sorted + unique

    def test_tiles_row_major_order(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        key = ts.tile_rowidx * ts.tile_cols + ts.tile_colidx
        assert np.all(np.diff(key) > 0)

    def test_global_coords_roundtrip(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        coo = zoo_matrix.tocoo()
        got = sp.csr_matrix(
            (_values(ts, zoo_matrix), (ts.global_rows(), ts.global_cols())), shape=coo.shape
        )
        assert (got != zoo_matrix.tocsr()).nnz == 0

    def test_effective_dims_at_boundary(self):
        a = random_uniform(20, 35, nnz_per_row=35, seed=1)  # fully dense-ish
        ts = tile_decompose(a, tile=16)
        # Bottom tile row has eff_h 4, rightmost tile column eff_w 3.
        bottom = ts.tile_rowidx == ts.tile_rows - 1
        right = ts.tile_colidx == ts.tile_cols - 1
        assert np.all(ts.pattern.eff_h[bottom] == 4)
        assert np.all(ts.pattern.eff_h[~bottom] == 16)
        assert np.all(ts.pattern.eff_w[right] == 3)
        assert np.all(ts.pattern.eff_w[~right] == 16)

    def test_duplicates_merged(self):
        a = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([3, 3]), np.array([4, 4]))), shape=(8, 8)
        )
        ts = tile_decompose(a, tile=8)
        assert ts.nnz == 1
        assert _values(ts, a).tolist() == [3.0]

    def test_rejects_bad_tile_size(self):
        a = random_uniform(10, 10, 2, seed=0)
        with pytest.raises(ValueError):
            tile_decompose(a, tile=32)
        with pytest.raises(ValueError):
            tile_decompose(a, tile=1)

    def test_level1_bytes_positive(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        assert ts.level1_nbytes_model() > 0

    @pytest.mark.parametrize("tile", [4, 8, 16])
    def test_tile_sizes(self, tile):
        a = random_uniform(100, 100, 5, seed=2)
        ts = tile_decompose(a, tile=tile)
        got = sp.csr_matrix((_values(ts, a), (ts.global_rows(), ts.global_cols())), shape=(100, 100))
        assert (got != a).nnz == 0
