"""TileMatrix save/load round-trip tests."""

import numpy as np

from repro import TileSpMV
from repro.core.selection import select_formats
from repro.core.serialize import load_tile_matrix, save_tile_matrix
from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from tests import build_reference as ref


def build(matrix):
    ts = tile_decompose(matrix)
    return TileMatrix.build(ts, select_formats(ts))


class TestRoundtrip:
    def test_spmv_identical_after_reload(self, zoo_matrix, rng, tmp_path):
        tm = build(zoo_matrix)
        path = tmp_path / "m.npz"
        save_tile_matrix(path, tm)
        back = load_tile_matrix(path)
        x = rng.standard_normal(zoo_matrix.shape[1])
        np.testing.assert_array_equal(back.spmv(x), tm.spmv(x))

    def test_structure_preserved(self, zoo_matrix, tmp_path):
        tm = build(zoo_matrix)
        path = tmp_path / "m.npz"
        save_tile_matrix(path, tm)
        back = load_tile_matrix(path)
        assert back.shape == tm.shape
        assert back.nnz == tm.nnz
        np.testing.assert_array_equal(back.formats, tm.formats)
        assert back.nbytes_model() == tm.nbytes_model()
        back.validate()

    def test_payloads_bitwise_equal(self, zoo_matrix, tmp_path):
        tm = build(zoo_matrix)
        path = tmp_path / "m.npz"
        save_tile_matrix(path, tm)
        back = load_tile_matrix(path)
        assert set(back.payloads) == set(tm.payloads)
        for fmt in tm.payloads:
            if fmt == FormatID.HYB:
                np.testing.assert_array_equal(
                    back.payloads[fmt].ell.val, tm.payloads[fmt].ell.val
                )
                np.testing.assert_array_equal(
                    back.payloads[fmt].coo.rowcol, tm.payloads[fmt].coo.rowcol
                )
            else:
                np.testing.assert_array_equal(back.payloads[fmt].val, tm.payloads[fmt].val)

    def test_loaded_plan_is_built_like_any_other(self, zoo_matrix, tmp_path):
        """Structure only until its payloads are read; then every array
        equals the saved plan's byte for byte (a DeferredCOO tiled half
        included: its HYB split widths are pinned)."""
        for tm in (build(zoo_matrix), TileSpMV(zoo_matrix, method="deferred_coo").tiled):
            if tm is None:
                continue
            path = tmp_path / "m.npz"
            save_tile_matrix(path, tm)
            back = load_tile_matrix(path)
            assert back._payloads is None
            assert ref.flat(back.structure) == ref.flat(tm.structure)
            assert ref.flat(back.tile_ids) == ref.flat(tm.tile_ids)
            assert ref.flat(back.payloads) == ref.flat(tm.payloads)

    def test_run_cost_identical(self, zoo_matrix, tmp_path):
        tm = build(zoo_matrix)
        path = tmp_path / "m.npz"
        save_tile_matrix(path, tm)
        back = load_tile_matrix(path)
        a, b = tm.run_cost(), back.run_cost()
        assert a.payload_bytes == b.payload_bytes
        assert a.warp_instructions == b.warp_instructions
