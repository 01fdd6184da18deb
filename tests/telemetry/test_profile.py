"""Profiling hooks: per-tile records, warp records, the hotspot report."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.tiling import tile_decompose
from repro.core.selection import select_formats, SelectionConfig
from repro.core.storage import TileMatrix
from repro.core.tilespmv import TileSpMV
from repro.gpu.device import A100
from repro.gpu.executor import lane_accurate_spmv
from repro.matrices import banded, power_law
from repro.telemetry.profile import ProfileCollector, profile_tile_matrix, hotspot_report
from repro.reliability.validation import canonicalize_csr


def _tiled(matrix):
    ts = tile_decompose(matrix, validation="repair")
    return TileMatrix.build(ts, select_formats(ts, SelectionConfig()))


def _values(matrix):
    return canonicalize_csr(matrix)[0].data


def test_tile_records_cover_every_tile_exactly_once():
    tm = _tiled(power_law(300, avg_degree=5, seed=3))
    records = profile_tile_matrix(tm)
    assert len(records) == tm.n_tiles
    assert [r.tile_id for r in records] == sorted(r.tile_id for r in records)
    assert sum(r.nnz for r in records) == tm.nnz


def test_tile_record_quantities_match_cost_model():
    tm = _tiled(banded(200, half_bandwidth=4, seed=1))
    records = profile_tile_matrix(tm)
    cost = tm.run_cost(tbalance=8)
    # attributed bytes/flops reassemble the whole-kernel totals
    # (run_cost additionally charges the level-1 tile-structure stream)
    structure = float(tm.tileset.level1_nbytes_model())
    assert sum(r.payload_bytes for r in records) == pytest.approx(
        cost.payload_bytes - structure
    )
    assert sum(r.flops for r in records) == pytest.approx(cost.executed_flops)
    for r in records:
        assert 0.0 < r.lane_utilization <= 1.0
        assert r.cycles > 0


def test_warp_records_cover_all_entries():
    a = power_law(300, avg_degree=5, seed=3)
    tm = _tiled(a)
    collector = ProfileCollector()
    x = np.ones(tm.shape[1])
    with telemetry.session(profile=collector):
        y = lane_accurate_spmv(tm, _values(a), x)
    assert np.allclose(y, a @ x)
    assert sum(w.entries for w in collector.warps) == tm.nnz
    balance = collector.warp_balance()
    assert balance["warps"] == len(collector.warps)
    assert balance["imbalance"] >= 1.0


def test_no_warp_records_when_profiling_off():
    a = banded(100, half_bandwidth=3, seed=2)
    tm = _tiled(a)
    with telemetry.session():  # tracing+metrics on, profiler not installed
        lane_accurate_spmv(tm, _values(a), np.ones(tm.shape[1]))
        assert telemetry.profiler() is None


def test_hotspot_report_sections():
    tm = _tiled(power_law(400, avg_degree=6, seed=5))
    text = hotspot_report(tm, A100, top=4)
    assert "Hotspot report" in text
    assert "roofline:" in text
    assert "atomics:" in text
    assert "top 4 tiles by modelled cycles:" in text


def test_tilespmv_profile_method():
    engine = TileSpMV(banded(220, half_bandwidth=5, seed=7), method="adpt")
    text = engine.profile(device=A100, top=3)
    assert "Hotspot report" in text
    assert f"nnz={engine.nnz}" in text
