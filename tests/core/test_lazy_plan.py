"""A plan is built the first time something prices it.

Construction with a fixed method canonicalizes, fingerprints and adopts
the canonical CSR as the operand; the tile set, format vector, payload
structure, warp schedule and DeferredCOO split are built on the first
read of anything that needs them, once per cached plan.  Products and
value updates never build, and a read after an update sees the updated
values bit for bit.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro import PlanCache, ShardedSpMV, TileSpMV
from repro.apps.solvers import conjugate_gradient
from repro.core import selection, tiling
from repro.core.storage import TileMatrix, same_csr
from repro.matrices import power_law, random_uniform
from tests import build_reference as ref


def _spd(n=600, seed=2):
    a = random_uniform(n, n, nnz_per_row=6, seed=seed)
    s = (a + a.T).tocsr()
    s.data = np.abs(s.data)
    return (s + sp.diags(np.asarray(s.sum(axis=1)).ravel() + 1.0)).tocsr()


def _replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Patch ``fn`` in every loaded module that binds its name."""
    for mod in list(sys.modules.values()):
        if getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, replacement)


@pytest.fixture
def no_build(monkeypatch):
    """Make every build step raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a plan was built")

    for fn in (tiling.tile_decompose, selection.select_formats):
        _replace_everywhere(monkeypatch, fn, refuse)
    monkeypatch.setattr(TileMatrix, "build", classmethod(refuse))


ENGINES = {
    "single": lambda a: TileSpMV(a, plan_cache=PlanCache()),
    "sharded2": lambda a: ShardedSpMV(a, shards=2, backend="thread"),
    "reordered": lambda a: TileSpMV(a, reorder="sell:0"),
}


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_products_and_updates_never_build(kind, no_build):
    a = _spd()
    rng = np.random.default_rng(0)
    engine = ENGINES[kind](a)
    try:
        engine.update_values(a.data * 2.0)
        a2 = (a * 2.0).tocsr()
        x = rng.standard_normal(a.shape[1])
        xk = rng.standard_normal((a.shape[1], 3))
        assert np.allclose(engine.spmv(x), a2 @ x, rtol=1e-12, atol=1e-12)
        assert np.allclose(engine.spmm(xk), a2 @ xk, rtol=1e-12, atol=1e-12)
        assert np.allclose(engine.spmv_transpose(x), a2.T @ x, rtol=1e-12, atol=1e-12)
        res = conjugate_gradient(engine, x, tol=1e-10)
        assert res.converged
        assert np.allclose(a2 @ res.x, x, rtol=1e-8, atol=1e-8)
    finally:
        if hasattr(engine, "close"):
            engine.close()


def test_first_price_builds_once_and_a_second_engine_reuses_it(monkeypatch):
    calls = []
    real = tiling.tile_decompose
    _replace_everywhere(monkeypatch, real,
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    cache = PlanCache()
    a = power_law(800, avg_degree=5, seed=4)
    e1 = TileSpMV(a, plan_cache=cache)
    e2 = TileSpMV(a, plan_cache=cache)
    assert calls == [] and e1._plan is e2._plan and e1._plan.tileset is None
    cost = e1.run_cost()
    assert calls == [1]
    e1.run_cost()
    e1.nbytes_model()
    assert e2.run_cost() == cost  # the second engine adopts, never re-tiles
    assert calls == [1]
    assert e2.tiled is e1.tiled
    assert e1.build_seconds > 0 and e2.build_seconds == 0.0


def _flat_payloads(engine):
    """The tiled half's payloads, read with the engine's own values."""
    tiled, _ = engine.halves()
    return None if tiled is None else ref.flat(engine.tiled.payloads(tiled.data))


def _csr5_values(engine):
    _, deferred = engine.halves()
    return deferred.data.tobytes()


@pytest.mark.parametrize("method", ["csr", "adpt", "deferred_coo"])
def test_update_then_price_equals_a_fresh_build(method):
    a = power_law(700, avg_degree=6, seed=5)
    new = np.random.default_rng(3).standard_normal(a.nnz)
    engine = TileSpMV(a, method=method, plan_cache=PlanCache())
    engine.update_values(new)
    assert engine._plan.tileset is None and engine._plan.methods == {}
    b = a.copy()
    b.data = new.copy()
    fresh = TileSpMV(b, method=method)
    assert engine.run_cost() == fresh.run_cost()
    assert engine.spmm_cost(4) == fresh.spmm_cost(4)
    assert engine.nbytes_model() == fresh.nbytes_model()
    assert engine.format_histogram() == fresh.format_histogram()
    assert _flat_payloads(engine) == _flat_payloads(fresh)
    if engine.deferred_engine is not None:
        assert _csr5_values(engine) == _csr5_values(fresh)
    engine.validate()


@pytest.mark.parametrize("method", ["adpt", "deferred_coo"])
def test_engines_sharing_a_plan_decode_their_own_values(method):
    cache = PlanCache()
    a = random_uniform(700, 700, nnz_per_row=6, seed=6)
    e1 = TileSpMV(a, method=method, plan_cache=cache)
    e2 = TileSpMV(a, method=method, plan_cache=cache)
    new = np.random.default_rng(4).standard_normal(a.nnz)
    e2.update_values(new)
    e1.run_cost()  # e1 builds the shared plan with its own values
    b = a.copy()
    b.data = new.copy()
    for engine, matrix in ((e1, a), (e2, b)):
        fresh = TileSpMV(matrix, method=method)
        assert _flat_payloads(engine) == _flat_payloads(fresh)
        tiled, _ = engine.halves()
        if tiled is not None:
            want = fresh.tiled.to_csr(fresh.halves()[0].data)
            assert same_csr(engine.tiled.to_csr(tiled.data), want)
            assert same_csr(want, tiled)
        if engine.deferred_engine is not None:
            assert _csr5_values(engine) == _csr5_values(fresh)
        engine.validate()
    assert e2._plan.tileset is e1._plan.tileset
    assert e2._mp.schedule is e1._mp.schedule


def test_reordered_update_copies_the_values_once():
    a = power_law(20000, seed=1)
    new = np.random.default_rng(5).standard_normal(a.nnz)

    def update_peak(engine):
        engine.update_values(new)  # warm: any first-call allocation
        tracemalloc.start()
        try:
            engine.update_values(new)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = update_peak(TileSpMV(a))
    reordered = update_peak(TileSpMV(a, reorder="sell:0"))
    assert reordered <= 1.05 * plain, (reordered, plain)


def test_a_wrong_size_formats_override_is_rejected_by_the_first_price():
    a = _spd()
    cache = PlanCache()
    n_tiles = TileSpMV(a).tiled.n_tiles
    bad = np.zeros(n_tiles + 1, dtype=np.uint8)
    # Construction and products need no tile set, so they run ...
    engine = TileSpMV(a, method="adpt", plan_cache=cache, formats_override=bad)
    x = np.ones(a.shape[1])
    assert engine.spmv(x).tobytes() == (engine.operand @ x).tobytes()
    # ... and the first read that builds the plan rejects the vector,
    # as does every later read of the plan cached under that key.
    with pytest.raises(ValueError, match=f"{n_tiles + 1} entries for {n_tiles} tiles"):
        engine.run_cost()
    again = TileSpMV(a, method="adpt", plan_cache=cache, formats_override=bad)
    assert again._plan is engine._plan
    with pytest.raises(ValueError, match="formats_override"):
        again.nbytes_model()
