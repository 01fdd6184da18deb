"""Matrix-level lane-accurate execution vs the vectorised path.

The strongest cross-check in the repository: the instruction-level
simulation of every warp kernel over the real payload bytes must equal
the CSR-operand fast path on every zoo matrix and every format mix.
"""

import numpy as np
import pytest

from repro.core.selection import select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.gpu.executor import lane_accurate_spmv
from repro.reliability.validation import canonicalize_csr


def build(matrix, forced=None):
    """``(tile matrix, its operand's values)`` of ``matrix``."""
    c = canonicalize_csr(matrix)[0]
    ts = tile_decompose(c, validation="trust")
    if forced is None:
        formats = select_formats(ts)
    else:
        formats = np.full(ts.n_tiles, forced, dtype=np.uint8)
    return TileMatrix.build(ts, formats), c


class TestLaneAccurateSpmv:
    def test_matches_vectorised_on_zoo(self, zoo_matrix, rng):
        tm, c = build(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        y_lane = lane_accurate_spmv(tm, c.data, x)
        y_fast = c @ x
        np.testing.assert_allclose(y_lane, y_fast, rtol=1e-12, atol=1e-12)

    def test_matches_scipy_on_zoo(self, zoo_matrix, rng):
        tm, c = build(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        np.testing.assert_allclose(
            lane_accurate_spmv(tm, c.data, x), zoo_matrix @ x, rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize(
        "forced", [FormatID.CSR, FormatID.COO, FormatID.ELL, FormatID.HYB, FormatID.DNS]
    )
    def test_single_format_matrices(self, forced, rng):
        from repro.matrices import random_uniform

        a = random_uniform(100, 130, nnz_per_row=5, seed=int(forced))
        tm, c = build(a, forced=forced)
        x = rng.standard_normal(130)
        np.testing.assert_allclose(
            lane_accurate_spmv(tm, c.data, x), a @ x, rtol=1e-10, atol=1e-12
        )

    def test_split_tile_rows_accumulate(self, rng):
        """tbalance=1 maximises cross-warp accumulation."""
        from repro.matrices import banded

        a = banded(200, half_bandwidth=40, seed=1)
        tm, c = build(a)
        x = rng.standard_normal(200)
        np.testing.assert_allclose(
            lane_accurate_spmv(tm, c.data, x, tbalance=1), a @ x, rtol=1e-10, atol=1e-12
        )

    def test_rejects_wrong_x(self, zoo_matrix):
        tm, c = build(zoo_matrix)
        with pytest.raises(ValueError):
            lane_accurate_spmv(tm, c.data, np.zeros(zoo_matrix.shape[1] + 3))
