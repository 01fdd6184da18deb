"""Tile-level SpGEMM (extension) tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.spgemm import tile_spgemm
from repro.matrices import banded, fem_blocks, power_law, random_uniform


def assert_equal_sparse(got, want, atol=1e-10):
    diff = (got - want).tocoo()
    if diff.nnz:
        assert np.max(np.abs(diff.data)) < atol
    assert got.shape == want.shape


class TestCorrectness:
    def test_square_random(self):
        a = random_uniform(200, 200, 5, seed=1)
        b = random_uniform(200, 200, 5, seed=2)
        assert_equal_sparse(tile_spgemm(a, b), (a @ b).tocsr())

    def test_rectangular_chain(self):
        a = random_uniform(90, 150, 4, seed=3)
        b = random_uniform(150, 70, 4, seed=4)
        assert_equal_sparse(tile_spgemm(a, b), (a @ b).tocsr())

    def test_structured_classes(self):
        a = banded(198, half_bandwidth=6, seed=5)
        b = fem_blocks(66, block=3, avg_degree=8, seed=6)  # 198x198
        assert_equal_sparse(tile_spgemm(a, b), (a @ b).tocsr())

    def test_graph_squaring(self):
        a = power_law(400, avg_degree=3, seed=7)
        assert_equal_sparse(tile_spgemm(a, a), (a @ a).tocsr())

    def test_identity(self):
        a = random_uniform(100, 100, 4, seed=8)
        eye = sp.identity(100, format="csr")
        assert_equal_sparse(tile_spgemm(a, eye), a.tocsr())
        assert_equal_sparse(tile_spgemm(eye, a), a.tocsr())

    def test_empty_operands(self):
        a = sp.csr_matrix((40, 40))
        b = random_uniform(40, 40, 3, seed=9)
        assert tile_spgemm(a, b).nnz == 0
        assert tile_spgemm(b, a).nnz == 0

    def test_large_tile_grid(self):
        """A C-tile key (tile row x tile columns + tile column) past 2**31:
        the int32 tile indices of a tile set widen before the product."""
        n = 800_000
        a = sp.csr_matrix(([2.0, 3.0], ([700_000, 5], [5, 9])), shape=(n, n))
        b = sp.csr_matrix(([5.0, 7.0], ([5, 9], [700_000, 799_999])), shape=(n, n))
        assert_equal_sparse(tile_spgemm(a, b), (a @ b).tocsr())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tile_spgemm(sp.csr_matrix((4, 5)), sp.csr_matrix((6, 4)))

    @pytest.mark.parametrize("tile", [4, 8, 16])
    def test_tile_sizes(self, tile):
        a = random_uniform(100, 100, 4, seed=10)
        b = random_uniform(100, 100, 4, seed=11)
        assert_equal_sparse(tile_spgemm(a, b, tile=tile), (a @ b).tocsr())

    def test_zoo_squares(self, zoo_matrix):
        if zoo_matrix.shape[0] != zoo_matrix.shape[1]:
            pytest.skip("square only")
        if zoo_matrix.nnz > 50_000:
            pytest.skip("keep the dense-tile batch small in unit tests")
        got = tile_spgemm(zoo_matrix, zoo_matrix)
        assert_equal_sparse(got, (zoo_matrix @ zoo_matrix).tocsr())


class TestStats:
    def test_counters_consistent(self):
        a = random_uniform(200, 200, 5, seed=12)
        c, stats = tile_spgemm(a, a, return_stats=True)
        assert stats.c_nnz == c.nnz
        assert stats.tile_pairs >= stats.c_tiles
        assert stats.pairs_per_c_tile >= 1.0

    def test_banded_pairing_is_sparse(self):
        """Band x band: each C tile comes from O(1) pairs — the tiling's
        compression of the symbolic phase."""
        a = banded(400, half_bandwidth=5, seed=13)
        _, stats = tile_spgemm(a, a, return_stats=True)
        assert stats.pairs_per_c_tile < 4.0

    def test_empty_stats(self):
        a = sp.csr_matrix((32, 32))
        _, stats = tile_spgemm(a, a, return_stats=True)
        assert stats.c_tiles == 0 and stats.tile_pairs == 0


class TestSpgemmProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_products_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 80))
        k = int(rng.integers(1, 80))
        n = int(rng.integers(1, 80))
        nnz_a = int(rng.integers(0, m * k // 2 + 1))
        nnz_b = int(rng.integers(0, k * n // 2 + 1))
        a = sp.csr_matrix(
            (rng.standard_normal(nnz_a), (rng.integers(0, m, nnz_a), rng.integers(0, k, nnz_a))),
            shape=(m, k),
        )
        b = sp.csr_matrix(
            (rng.standard_normal(nnz_b), (rng.integers(0, k, nnz_b), rng.integers(0, n, nnz_b))),
            shape=(k, n),
        )
        got = tile_spgemm(a, b)
        want = (a @ b).tocsr()
        diff = (got - want).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-9
