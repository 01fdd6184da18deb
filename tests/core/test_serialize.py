"""TileMatrix save/load round-trip tests."""

import numpy as np

from repro import TileSpMV
from repro.core.selection import select_formats
from repro.core.serialize import load_tile_matrix, save_tile_matrix
from repro.core.storage import TileMatrix, same_csr
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.reliability.validation import canonicalize_csr
from tests import build_reference as ref


def build(matrix):
    """``(tile matrix, operand)`` of ``matrix``."""
    c = canonicalize_csr(matrix)[0]
    ts = tile_decompose(c, validation="trust")
    return TileMatrix.build(ts, select_formats(ts)), c


def reload(tmp_path, tm, c):
    path = tmp_path / "m.npz"
    save_tile_matrix(path, tm, c.data)
    return load_tile_matrix(path)


class TestRoundtrip:
    def test_spmv_identical_after_reload(self, zoo_matrix, rng, tmp_path):
        tm, c = build(zoo_matrix)
        back, operand = reload(tmp_path, tm, c)
        x = rng.standard_normal(zoo_matrix.shape[1])
        np.testing.assert_array_equal(operand @ x, c @ x)

    def test_structure_preserved(self, zoo_matrix, tmp_path):
        tm, c = build(zoo_matrix)
        back, operand = reload(tmp_path, tm, c)
        assert back.shape == tm.shape
        assert back.nnz == tm.nnz
        np.testing.assert_array_equal(back.formats, tm.formats)
        assert back.nbytes_model() == tm.nbytes_model()
        back.validate(operand)

    def test_payloads_bitwise_equal(self, zoo_matrix, tmp_path):
        tm, c = build(zoo_matrix)
        back, operand = reload(tmp_path, tm, c)
        got, want = back.payloads(operand.data), tm.payloads(c.data)
        assert set(got) == set(want)
        for fmt in want:
            if fmt == FormatID.HYB:
                np.testing.assert_array_equal(got[fmt].ell.val, want[fmt].ell.val)
                np.testing.assert_array_equal(got[fmt].coo.rowcol, want[fmt].coo.rowcol)
            else:
                np.testing.assert_array_equal(got[fmt].val, want[fmt].val)

    def test_loaded_plan_is_built_like_any_other(self, zoo_matrix, tmp_path):
        """Structure only, like any plan; its payloads read with the
        loaded operand's values equal the saved plan's byte for byte (a
        DeferredCOO tiled half included: its HYB split widths are
        pinned)."""
        engine = TileSpMV(zoo_matrix, method="deferred_coo")
        for tm, c in (build(zoo_matrix), (engine.tiled, engine.halves()[0])):
            if tm is None:
                continue
            back, operand = reload(tmp_path, tm, c)
            assert same_csr(operand, c)
            assert all(getattr(p, "val", None) is None for p in back.structure.values())
            assert ref.flat(back.structure) == ref.flat(tm.structure)
            assert ref.flat(back.tile_ids) == ref.flat(tm.tile_ids)
            assert ref.flat(back.payloads(operand.data)) == ref.flat(tm.payloads(c.data))

    def test_run_cost_identical(self, zoo_matrix, tmp_path):
        tm, c = build(zoo_matrix)
        back, _ = reload(tmp_path, tm, c)
        a, b = tm.run_cost(), back.run_cost()
        assert a.payload_bytes == b.payload_bytes
        assert a.warp_instructions == b.warp_instructions
