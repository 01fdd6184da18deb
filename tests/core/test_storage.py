"""TileMatrix integration tests: build, spmv, roundtrip, accounting."""

import numpy as np
import pytest

import repro.core.storage
from repro.core.selection import select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.gpu.executor import lane_accurate_spmv
from repro.reliability.validation import canonicalize_csr


def build_adpt(matrix):
    ts = tile_decompose(matrix)
    return TileMatrix.build(ts, select_formats(ts))


def operand(matrix):
    """The canonical CSR whose values a tile matrix of ``matrix`` reads."""
    return canonicalize_csr(matrix)[0]


class TestBuild:
    def test_roundtrip_to_csr(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        assert (tm.to_csr(operand(zoo_matrix).data) != zoo_matrix.tocsr()).nnz == 0

    def test_spmv_matches_scipy(self, zoo_matrix, rng):
        """The payloads multiply like the matrix (lane-accurate SpMV)."""
        tm = build_adpt(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        y = lane_accurate_spmv(tm, operand(zoo_matrix).data, x)
        np.testing.assert_allclose(y, zoo_matrix @ x, rtol=1e-12, atol=1e-12)

    def test_validate_passes(self, zoo_matrix):
        build_adpt(zoo_matrix).validate(operand(zoo_matrix))

    def test_single_format_forced(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        for forced in (FormatID.CSR, FormatID.COO, FormatID.ELL, FormatID.HYB, FormatID.DNS):
            formats = np.full(ts.n_tiles, forced, dtype=np.uint8)
            tm = TileMatrix.build(ts, formats)
            tm.validate(operand(zoo_matrix))
            assert (tm.to_csr(operand(zoo_matrix).data) != zoo_matrix.tocsr()).nnz == 0

    def test_rejects_wrong_format_count(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        with pytest.raises(ValueError):
            TileMatrix.build(ts, np.zeros(ts.n_tiles + 1, dtype=np.uint8))

    def test_spmv_rejects_wrong_x_shape(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        with pytest.raises(ValueError):
            lane_accurate_spmv(tm, operand(zoo_matrix).data, np.zeros(zoo_matrix.shape[1] + 1))


class TestAccounting:
    def test_histogram_totals(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        hist = tm.format_histogram()
        assert sum(h["tiles"] for h in hist.values()) == tm.n_tiles
        assert sum(h["nnz"] for h in hist.values()) == tm.nnz

    def test_nbytes_at_least_values(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        assert tm.nbytes_model() >= tm.nnz * 8

    def test_run_cost_fields(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        rc = tm.run_cost()
        assert rc.useful_flops == 2 * tm.nnz
        assert rc.executed_flops >= rc.useful_flops
        assert rc.payload_bytes > 0
        assert rc.n_warps > 0
        assert rc.warp_cycles_max > 0
        assert rc.kernel_launches == 1

    def test_kernel_costs_cover_all_tiles(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        costs = tm.kernel_costs()
        total = sum(c.cycles.size for c in costs.values())
        assert total == tm.n_tiles

    def test_adpt_bounded_by_dense_and_improves_hypersparse(self, zoo_matrix):
        """ADPT trades space for speed but stays within sane bounds.

        The selection may spend bytes on Dns tiles (a >=50% full tile
        stores all 256 values), so ADPT is not a strict space minimiser;
        it must however never exceed the all-Dns strawman and must beat
        all-CSR when tiles are hypersparse (the paper's Fig 10 point).
        """
        ts = tile_decompose(zoo_matrix)
        adpt = TileMatrix.build(ts, select_formats(ts))
        dns = TileMatrix.build(ts, np.full(ts.n_tiles, FormatID.DNS, np.uint8))
        assert adpt.nbytes_model() <= dns.nbytes_model()
        counts = ts.pattern.counts()
        if counts.mean() < 4:  # hypersparse tiles: COO must beat tile-CSR
            csr = TileMatrix.build(ts, np.full(ts.n_tiles, FormatID.CSR, np.uint8))
            assert adpt.nbytes_model() < csr.nbytes_model()


class TestCostAttribution:
    def test_shares_sum_to_one(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        attr = tm.cost_attribution()
        assert sum(v["cycle_share"] for v in attr.values()) == pytest.approx(1.0)
        assert sum(v["byte_share"] for v in attr.values()) == pytest.approx(1.0)

    def test_only_used_formats_present(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        attr = tm.cost_attribution()
        assert set(attr) == set(tm.structure)

    def test_dense_matrix_dns_dominates(self):
        import scipy.sparse as sp

        a = sp.csr_matrix(np.ones((64, 64)))
        tm = build_adpt(a)
        attr = tm.cost_attribution()
        assert attr[FormatID.DNS]["cycle_share"] == pytest.approx(1.0)


class TestValidateCatchesCorruption:
    """Error injection: validate() must detect broken invariants."""

    def test_detects_format_count_mismatch(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        tm.formats = tm.formats[:-1]
        with pytest.raises(AssertionError):
            tm.validate(operand(zoo_matrix))

    def test_detects_duplicate_tile_ownership(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        fmts = list(tm.tile_ids)
        ids = tm.tile_ids[fmts[0]]
        if ids.size < 2:
            pytest.skip("needs >= 2 tiles in a format")
        tm.tile_ids[fmts[0]] = np.concatenate([ids[:-1], ids[:1]])
        with pytest.raises(AssertionError, match="exactly one format"):
            tm.validate(operand(zoo_matrix))

    def test_detects_truncated_payload(self, zoo_matrix, monkeypatch):
        tm = build_adpt(zoo_matrix)
        if FormatID.COO not in tm.structure:
            pytest.skip("no COO tiles in this matrix")
        encode_coo = repro.core.storage._ENCODERS[FormatID.COO]

        def truncated(view):
            payload = encode_coo(view)
            if payload.val is not None:  # the valued encode a reader runs
                payload.offsets = payload.offsets.copy()
                payload.offsets[-1] -= 1
                payload.rowcol = payload.rowcol[:-1]
                payload.val = payload.val[:-1]
            return payload

        monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.COO, truncated)
        with pytest.raises(AssertionError, match="decoded"):
            tm.validate(operand(zoo_matrix))

    def test_detects_corrupt_tile_nnz(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        tm.tileset.pattern.offsets = tm.tileset.pattern.offsets.copy()
        tm.tileset.pattern.offsets[-1] += 5
        with pytest.raises(AssertionError):
            tm.validate(operand(zoo_matrix))

    def test_detects_unsorted_operand_columns(self, zoo_matrix):
        tm = build_adpt(zoo_matrix)
        op = operand(zoo_matrix)
        long_rows = np.flatnonzero(np.diff(op.indptr) >= 2)
        if long_rows.size == 0:
            pytest.skip("needs a row with >= 2 entries")
        j = int(op.indptr[long_rows[0]])
        op.indices[[j, j + 1]] = op.indices[[j + 1, j]]
        with pytest.raises(AssertionError, match="ascend"):
            tm.validate(op)
