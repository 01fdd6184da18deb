"""Bitmap tile format (extension) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats.tile_bitmap import BITMAP_BYTES, bitmap_nbytes, encode_bitmap
from tests.conftest import random_tile_entries
from repro.reliability.validation import canonicalize_csr
from tests import build_reference as ref
from tests.formats.conftest import dense_tile_from_view_entries, make_view


def ts_values(a):
    """``a``'s canonical values, the array a tile matrix of ``a`` reads."""
    return canonicalize_csr(a)[0].data


class TestEncodeBitmap:
    def test_bit_layout(self):
        # Entry at (0, 0) -> bit 0 of byte 0; (0, 7) -> bit 7 of byte 0;
        # (1, 0) -> bit 16 -> byte 2 bit 0.
        view = make_view([(np.array([0, 0, 1]), np.array([0, 7, 0]), np.array([1.0, 2.0, 3.0]))])
        data = encode_bitmap(view)
        assert data.bitmap[0] == (1 | (1 << 7))
        assert data.bitmap[2] == 1
        assert data.val.tolist() == [1.0, 2.0, 3.0]

    def test_flat_index_cost(self):
        view = make_view([(np.arange(16), np.arange(16), np.ones(16))])
        data = encode_bitmap(view)
        assert data.nbytes_model() == 16 * 8 + BITMAP_BYTES

    def test_bitmap_beats_csr_bytes_above_32(self):
        from repro.formats.tile_csr import encode_csr

        rng = np.random.default_rng(0)
        entries = random_tile_entries(rng, nnz=64)
        view = make_view([entries])
        assert encode_bitmap(view).nbytes_model() < encode_csr(view).nbytes_model()

    def test_csr_beats_bitmap_below_32(self):
        from repro.formats.tile_csr import encode_csr

        rng = np.random.default_rng(1)
        view = make_view([random_tile_entries(rng, nnz=8)])
        assert encode_csr(view).nbytes_model() < encode_bitmap(view).nbytes_model()

    def test_rejects_non16_tiles(self):
        view = make_view([(np.array([0]), np.array([0]), np.ones(1))], tile=8)
        with pytest.raises(ValueError):
            encode_bitmap(view)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 256))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, nnz):
        rng = np.random.default_rng(seed)
        lrow, lcol, val = random_tile_entries(rng, nnz=nnz)
        view = make_view([(lrow, lcol, val)])
        t, r, c, v = encode_bitmap(view).decode()
        assert (t == 0).all()
        np.testing.assert_allclose(
            dense_tile_from_view_entries(r, c, v),
            dense_tile_from_view_entries(lrow, lcol, val),
        )

    def test_nbytes_helper(self):
        counts = np.array([1, 40, 256])
        np.testing.assert_array_equal(
            bitmap_nbytes(counts), counts * 8 + BITMAP_BYTES
        )


class TestBitmapInPipeline:
    def _engine(self, matrix):
        from repro import SelectionConfig, TileSpMV

        return TileSpMV(matrix, method="adpt", selection=SelectionConfig(use_bitmap=True))

    def test_selection_promotes_dense_csr_tiles(self):
        from repro.formats import FormatID
        from repro.matrices import random_uniform

        a = random_uniform(400, 400, 24, seed=2)  # ~24 nnz/row, mixed tiles
        engine = self._engine(a)
        hist = engine.format_histogram()
        # Under the default selection these would be CSR tiles.
        assert hist[FormatID.BITMAP]["tiles"] + hist[FormatID.CSR]["tiles"] > 0

    def test_spmv_exact_with_bitmap(self, zoo_matrix, rng):
        engine = self._engine(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        np.testing.assert_allclose(engine.spmv(x), zoo_matrix @ x, rtol=1e-10, atol=1e-12)

    def test_lane_accurate_agrees(self, rng):
        from repro.core.selection import SelectionConfig, select_formats
        from repro.core.storage import TileMatrix
        from repro.core.tiling import tile_decompose
        from repro.gpu.executor import lane_accurate_spmv
        from repro.matrices import random_uniform

        a = random_uniform(200, 200, 30, seed=3)
        ts = tile_decompose(a)
        formats = select_formats(ts, SelectionConfig(use_bitmap=True, bitmap_nnz_min=8))
        tm = TileMatrix.build(ts, formats)
        x = rng.standard_normal(200)
        y = lane_accurate_spmv(tm, ts_values(a), x)
        np.testing.assert_allclose(y, a @ x, rtol=1e-10, atol=1e-12)

    def test_serialization_roundtrip(self, tmp_path, rng):
        from repro.core.selection import SelectionConfig, select_formats
        from repro.core.serialize import load_tile_matrix, save_tile_matrix
        from repro.core.storage import TileMatrix
        from repro.core.tiling import tile_decompose
        from repro.formats import FormatID
        from repro.matrices import random_uniform

        a = random_uniform(200, 200, 30, seed=4)
        ts = tile_decompose(a)
        formats = select_formats(ts, SelectionConfig(use_bitmap=True, bitmap_nnz_min=8))
        tm = TileMatrix.build(ts, formats)
        if FormatID.BITMAP not in tm.structure:
            pytest.skip("selection produced no bitmap tiles")
        path = tmp_path / "b.npz"
        save_tile_matrix(path, tm, ts_values(a))
        back, operand = load_tile_matrix(path)
        x = rng.standard_normal(200)
        np.testing.assert_array_equal(operand @ x, a @ x)
        assert ref.flat(back.payloads(operand.data)) == ref.flat(tm.payloads(ts_values(a)))
