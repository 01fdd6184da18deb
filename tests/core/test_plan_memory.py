"""What a plan holds in host memory.

A plan is a pattern: an unbuilt one is its canonical index arrays,
shared with the operand of the engine that stored it.  No plan holds a
value; the one copy of an engine's values is its canonical CSR operand,
before and after a value update.  View values and payload values are
read from it on demand, and pricing reads structure only.  A verified
engine's checksum source and scalar reference read the engine's operand
instead of copies.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import PlanCache, TileSpMV
from repro.core.storage import encode_payloads
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.matrices import fem_blocks, random_uniform
from repro.reliability import ReliableSpMV, canonicalize_csr
from repro.serving.checkpoint import VerifiedOperator
from tests import build_reference as ref


def _live_bytes(build):
    """``(result, bytes allocated by build() and still live after it)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _csr_bytes(a) -> int:
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


@pytest.fixture(scope="module")
def spd():
    a = fem_blocks(1500, block=3, seed=3)
    return canonicalize_csr((a + a.T) * 0.5)[0]


def _priced(engine):
    engine.run_cost()  # the first price builds the plan
    return engine


def test_tilespmv_holds_at_most_twice_its_csr(spd):
    engine, live = _live_bytes(lambda: _priced(TileSpMV(spd, plan_cache=PlanCache())))
    assert live <= 2 * _csr_bytes(engine.operand), (live, _csr_bytes(engine.operand))
    # ... and still after a value update: the plan keeps no old values.
    engine, live = _live_bytes(
        lambda: _priced(TileSpMV(spd, plan_cache=PlanCache())).update_values(spd.data * 2.0)
    )
    assert live <= 2 * _csr_bytes(engine.operand), (live, _csr_bytes(engine.operand))


def test_unbuilt_tilespmv_holds_its_csr(spd):
    engine, live = _live_bytes(lambda: TileSpMV(spd, plan_cache=PlanCache()))
    assert engine._plan.tileset is None
    assert live <= 1.1 * _csr_bytes(engine.operand), (live, _csr_bytes(engine.operand))
    # One value update replaces the operand's values; nothing keeps the
    # construction's.
    engine, live = _live_bytes(
        lambda: TileSpMV(spd, plan_cache=PlanCache()).update_values(spd.data * 2.0)
    )
    assert engine._plan.tileset is None
    assert live <= 1.1 * _csr_bytes(engine.operand), (live, _csr_bytes(engine.operand))


def test_pricing_leaves_values_unmaterialized(spd):
    engine = TileSpMV(spd)
    engine.run_cost()
    engine.spmm_cost(4)
    engine.nbytes_model()
    engine.format_histogram()
    tiled = engine.tiled
    # The plan's tile matrix is structure: no payload or view values.
    assert set(vars(tiled)) == {"formats", "tile_ids", "tileset", "structure"}
    assert tiled.tileset.pattern.val is None
    assert not any(
        isinstance(v, np.ndarray) and v.dtype.kind == "f" for v in vars(tiled.tileset).values()
    )
    assert all(p.val is None for p in tiled.structure.values() if hasattr(p, "val"))


def test_spmm_cost_prices_the_plan_once(spd, monkeypatch):
    engine = TileSpMV(spd)
    engine.run_cost()
    calls = []
    monkeypatch.setattr(type(engine.tiled), "run_cost",
                        lambda *a, **k: calls.append(1))
    for k in (2, 4, 8):
        cost = engine.spmm_cost(k)
        assert cost.label == f"TileSpMV_{engine.method}[k={k}]"
    assert engine.run_cost().label == f"TileSpMV_{engine.method}"
    assert calls == []


@pytest.mark.parametrize("shards,grid", [(1, None), (2, None), (1, (2, 2))])
def test_reliable_engine_keeps_one_canonical_csr(spd, shards, grid):
    rel = ReliableSpMV(spd, shards=shards, grid=grid)
    try:
        if shards == 1 and grid is None:
            op = rel.engine.operand
            for arr in ("indices", "data"):
                assert np.shares_memory(getattr(rel.canonical_csr(), arr), getattr(op, arr))
                assert np.shares_memory(getattr(rel.reference, arr), getattr(op, arr))
        x = np.ones(spd.shape[1])
        np.testing.assert_allclose(rel.reference.spmv(x), spd @ x, rtol=1e-12)
        rel.update_values(spd.data * 2.0)
        assert np.allclose(rel.spmv(x), 2.0 * (spd @ x), rtol=1e-12, atol=1e-12)
        assert np.array_equal(rel.reference.data, 2.0 * spd.data)
    finally:
        rel.close()


def test_verified_operator_reads_its_engine_operand(spd):
    op = VerifiedOperator(spd)
    assert np.shares_memory(op._csr.data, op.engine.operand.data)
    assert np.shares_memory(op._csr.indices, op.engine.operand.indices)


def test_sharded_engines_hold_no_more_than_one_device():
    a = random_uniform(4000, 4000, nnz_per_row=10, seed=5)
    from repro import ShardedSpMV
    from repro.dist.recovery import RecoverableShardedSpMV

    live = {}
    for name, build in [
        ("single", lambda: _priced(TileSpMV(a))),
        ("shards4", lambda: _priced(ShardedSpMV(a, shards=4))),
        ("grid22", lambda: _priced(ShardedSpMV(a, grid=(2, 2)))),
        ("recoverable4", lambda: _priced(RecoverableShardedSpMV(a, shards=4))),
    ]:
        engine, live[name] = _live_bytes(build)
        if hasattr(engine, "close"):
            engine.close()
    # Not yet ``grid22 <= shards4``: a grid adds its row-block operands
    # (one more CSR of the matrix) while the cells keep their own.  The
    # bound pins that excess so it cannot grow; no per-entry index map
    # is held.
    csr = canonicalize_csr(a)[0]
    assert live["grid22"] <= live["shards4"] + _csr_bytes(csr) + 64 * 1024, live
    # The recovery ladder adds one checksum pair (two length-n vectors)
    # per output block; nothing else.
    assert live["recoverable4"] <= live["shards4"] + 4 * 2 * 8 * a.shape[1] + 64 * 1024, live


CASES = ref.cases()


@pytest.mark.parametrize("method", ["csr", "adpt", "deferred_coo"])
@pytest.mark.parametrize("name,a,policy", CASES, ids=[c[0] for c in CASES])
def test_lazy_values_equal_an_eager_encode(name, a, policy, method):
    engine = TileSpMV(a, method=method, validation=policy)
    tiled = engine.tiled
    if tiled is None:
        pytest.skip("fully deferred: no tiled half")
    ts = tiled.tileset
    data = engine.halves()[0].data
    # The eager values: the reference tiling's lexsort order of the
    # canonical entries, as the plan build once stored them.
    canonical = canonicalize_csr(a, policy)[0]
    eager_ts = ref.tile_decompose(a, tile=ts.tile, validation=policy)
    if method == "deferred_coo":
        eager_val = data[ts.entry_perm]
    else:
        eager_val = np.asarray(canonical.data, dtype=np.float64)[eager_ts.entry_perm]
    assert ts.view(data).val.tobytes() == eager_val.tobytes()
    eager_view = replace(ts.pattern, val=eager_val)
    hyb = tiled.structure.get(FormatID.HYB)
    eager, _ = encode_payloads(eager_view, tiled.formats,
                               None if hyb is None else hyb.ell.width)
    assert ref.flat(tiled.payloads(data)) == ref.flat(eager)


@pytest.mark.parametrize("name,a,policy", CASES, ids=[c[0] for c in CASES])
def test_value_clone_derives_a_fresh_builds_payloads(name, a, policy):
    """An updated engine's payloads, read from its operand, are a fresh
    build's on the same values (the name predates value clones' removal)."""
    rng = np.random.default_rng(7)
    engine = TileSpMV(a, method="adpt", validation=policy)
    new = rng.standard_normal(engine.nnz)
    engine.update_values(new)
    fresh_a = canonicalize_csr(a, policy)[0].copy()
    fresh_a.data = new.copy()
    fresh = TileSpMV(fresh_a, method="adpt", validation=policy)
    mine, theirs = engine.operand.data, fresh.operand.data
    assert ref.flat(engine.tiled.payloads(mine)) == ref.flat(fresh.tiled.payloads(theirs))
    assert (engine.tiled.tileset.view(mine).val.tobytes()
            == fresh.tiled.tileset.view(theirs).val.tobytes())


def test_tile_index_arrays_are_int32():
    ts = tile_decompose(random_uniform(300, 200, nnz_per_row=4, seed=1))
    for arr in (ts.entry_perm, ts.tile_rowidx, ts.tile_colidx, ts.pattern.offsets):
        assert arr.dtype == np.int32
    # Widened where used: global coordinates come out int64.
    assert ts.global_rows().dtype == np.int64 and ts.global_cols().dtype == np.int64
