"""Golden equivalence suite: every zoo matrix x every method.

One place that asserts all execution paths of the engine produce the
same numbers: the lane-accurate warp interpreter, the vectorised spmv,
the batched spmm (k = 1, 4 and 33 — around and past the warp width),
cache-hit re-runs through a shared :class:`PlanCache`, and the
``update_values`` fast path.  Reference is scipy at 1e-12.  Across
methods the contract is exact: every method executes the same
canonical operand, so all four return the same bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.plancache import PlanCache
from repro.core.tilespmv import METHODS, TileSpMV
from repro.baselines.csr5 import Csr5SpMV
from repro.gpu.executor import lane_accurate_spmv

TOL = dict(rtol=1e-12, atol=1e-12)
KS = (1, 4, 33)


def _rng(matrix):
    return np.random.default_rng(matrix.nnz + matrix.shape[0])


@pytest.fixture(params=sorted(METHODS), ids=sorted(METHODS))
def method(request):
    return request.param


class TestGoldenEquivalence:
    def test_spmv_matches_scipy(self, zoo_matrix, method):
        rng = _rng(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        engine = TileSpMV(zoo_matrix, method=method)
        np.testing.assert_allclose(engine.spmv(x), zoo_matrix @ x, **TOL)

    def test_lane_accurate_matches_scipy(self, zoo_matrix, method):
        """The warp interpreter agrees on the tiled half; the deferred
        CSR5 half is added on top so every method covers the full
        matrix."""
        rng = _rng(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        engine = TileSpMV(zoo_matrix, method=method)
        y = np.zeros(zoo_matrix.shape[0])
        tiled, deferred = engine.halves()
        if tiled is not None:
            y = lane_accurate_spmv(engine.tiled, tiled.data, x, schedule=engine._schedule)
        if deferred is not None:
            y = y + Csr5SpMV(deferred, validation="trust").spmv(x)
        np.testing.assert_allclose(y, zoo_matrix @ x, **TOL)

    @pytest.mark.parametrize("k", KS)
    def test_spmm_matches_scipy(self, zoo_matrix, method, k):
        rng = _rng(zoo_matrix)
        block = rng.standard_normal((zoo_matrix.shape[1], k))
        engine = TileSpMV(zoo_matrix, method=method)
        np.testing.assert_allclose(engine.spmm(block), zoo_matrix @ block, **TOL)

    def test_spmm_consistent_with_spmv_columns(self, zoo_matrix, method):
        rng = _rng(zoo_matrix)
        block = rng.standard_normal((zoo_matrix.shape[1], 4))
        engine = TileSpMV(zoo_matrix, method=method)
        out = engine.spmm(block)
        for j in range(4):
            np.testing.assert_allclose(out[:, j], engine.spmv(block[:, j]), **TOL)

    def test_cache_hit_rerun_matches_scipy(self, zoo_matrix, method):
        rng = _rng(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        block = rng.standard_normal((zoo_matrix.shape[1], 4))
        cache = PlanCache()
        TileSpMV(zoo_matrix, method=method, plan_cache=cache)
        engine = TileSpMV(zoo_matrix, method=method, plan_cache=cache)
        assert cache.hits >= 1
        np.testing.assert_allclose(engine.spmv(x), zoo_matrix @ x, **TOL)
        np.testing.assert_allclose(engine.spmm(block), zoo_matrix @ block, **TOL)

    def test_update_values_matches_scipy(self, zoo_matrix, method):
        rng = _rng(zoo_matrix)
        x = rng.standard_normal(zoo_matrix.shape[1])
        block = rng.standard_normal((zoo_matrix.shape[1], 4))
        engine = TileSpMV(zoo_matrix, method=method)
        fresh = zoo_matrix.tocsr().copy()
        fresh.data = rng.standard_normal(fresh.nnz)
        engine.update_values(fresh)
        np.testing.assert_allclose(engine.spmv(x), fresh @ x, **TOL)
        np.testing.assert_allclose(engine.spmm(block), fresh @ block, **TOL)

    def test_methods_return_identical_bits(self, zoo_matrix):
        """csr, adpt, deferred_coo and auto price differently but run
        one canonical operand: spmv, spmm and spmv_transpose agree bit
        for bit, before and after ``update_values``."""
        rng = _rng(zoo_matrix)
        m, n = zoo_matrix.shape
        x, block, w = rng.standard_normal(n), rng.standard_normal((n, 4)), rng.standard_normal(m)
        new = rng.standard_normal(zoo_matrix.nnz)
        engines = [TileSpMV(zoo_matrix, method=meth) for meth in sorted(METHODS)]
        for update in (False, True):
            if update:
                for engine in engines:
                    engine.update_values(new)
            first, *rest = (
                (e.spmv(x), e.spmm(block), e.spmv_transpose(w)) for e in engines
            )
            for outputs in rest:
                for got, want in zip(outputs, first):
                    assert got.tobytes() == want.tobytes()
