"""Plan cache, batched cost model and value-update fast paths."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.csr5 import Csr5SpMV
from repro.core.plancache import (
    PlanCache,
    canonical_csr,
    structural_fingerprint,
    value_digest,
)
from repro.core.tilespmv import METHODS, TileSpMV
from repro.gpu.device import A100
from repro.matrices import power_law, random_uniform


def _matrix(seed=1, m=150, n=150):
    return random_uniform(m, n, nnz_per_row=5, seed=seed)


class TestFingerprint:
    def test_same_pattern_same_fingerprint(self):
        a = _matrix(seed=1)
        b = a.copy()
        b.data = b.data * 3.0  # values differ, pattern identical
        fa = structural_fingerprint(canonical_csr(a), 16, None, 8)
        fb = structural_fingerprint(canonical_csr(b), 16, None, 8)
        assert fa == fb

    def test_different_pattern_different_fingerprint(self):
        fa = structural_fingerprint(canonical_csr(_matrix(seed=1)), 16, None, 8)
        fb = structural_fingerprint(canonical_csr(_matrix(seed=2)), 16, None, 8)
        assert fa != fb

    def test_parameters_enter_fingerprint(self):
        csr = canonical_csr(_matrix())
        base = structural_fingerprint(csr, 16, None, 8)
        assert structural_fingerprint(csr, 32, None, 8) != base
        assert structural_fingerprint(csr, 16, None, 4) != base

    def test_value_digest_tracks_values(self):
        a = _matrix()
        d1 = value_digest(a.data)
        b = a.copy()
        b.data = b.data + 1.0
        assert value_digest(b.data) != d1
        assert value_digest(a.data.copy()) == d1


class TestPlanCacheCounters:
    def test_hit_miss_counting(self):
        cache = PlanCache()
        a = _matrix()
        TileSpMV(a, method="adpt", plan_cache=cache)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        TileSpMV(a, method="adpt", plan_cache=cache)
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["size"] == 1

    def test_second_construction_skips_tiling(self):
        cache = PlanCache()
        a = _matrix()
        e1 = TileSpMV(a, method="adpt", plan_cache=cache)
        e2 = TileSpMV(a, method="adpt", plan_cache=cache)
        # The tileset object is literally shared — no re-decomposition.
        assert e2._plan.tileset is e1._plan.tileset
        assert e2._plan.tilings_saved == 1
        assert e2.tiled is e1.tiled

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        mats = [_matrix(seed=s) for s in (1, 2, 3)]
        for m in mats:
            TileSpMV(m, method="csr", plan_cache=cache)
        s = cache.stats()
        assert s["evictions"] == 1 and s["size"] == 2
        # seed=1 was least recently used -> rebuilt = a miss.
        TileSpMV(mats[0], method="csr", plan_cache=cache)
        assert cache.stats()["misses"] == 4

    def test_lru_order_refreshed_by_get(self):
        cache = PlanCache(capacity=2)
        a, b, c = (_matrix(seed=s) for s in (1, 2, 3))
        TileSpMV(a, method="csr", plan_cache=cache)
        TileSpMV(b, method="csr", plan_cache=cache)
        TileSpMV(a, method="csr", plan_cache=cache)  # a is now most recent
        TileSpMV(c, method="csr", plan_cache=cache)  # evicts b
        TileSpMV(a, method="csr", plan_cache=cache)
        assert cache.stats()["hits"] == 2

    def test_describe_mentions_counts(self):
        cache = PlanCache(capacity=4)
        a = _matrix()
        TileSpMV(a, method="adpt", plan_cache=cache)
        TileSpMV(a, method="adpt", plan_cache=cache)
        text = cache.describe()
        assert "hits=1" in text and "misses=1" in text
        engine = TileSpMV(a, method="adpt", plan_cache=cache)
        assert "PlanCache" in engine.describe()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestValueRefresh:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_same_pattern_new_values_through_cache(self, method):
        cache = PlanCache()
        a = power_law(400, avg_degree=5, seed=3)
        rng = np.random.default_rng(0)
        TileSpMV(a, method=method, plan_cache=cache)
        b = a.copy()
        b.data = rng.standard_normal(b.nnz)
        engine = TileSpMV(b, method=method, plan_cache=cache)
        assert cache.stats()["hits"] == 1  # refresh, not a rebuild
        x = rng.standard_normal(b.shape[1])
        np.testing.assert_allclose(engine.spmv(x), b @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_update_values_array_and_matrix_forms(self, method):
        a = power_law(400, avg_degree=5, seed=3)
        rng = np.random.default_rng(1)
        engine = TileSpMV(a, method=method)
        x = rng.standard_normal(a.shape[1])
        new_data = rng.standard_normal(a.nnz)
        engine.update_values(new_data)  # raw array, canonical CSR order
        expect = a.copy()
        expect.data = new_data
        np.testing.assert_allclose(engine.spmv(x), expect @ x, rtol=1e-12, atol=1e-12)
        engine.update_values(a)  # full matrix form, back to original
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-12, atol=1e-12)

    def test_update_values_rejects_pattern_change(self):
        a = _matrix(seed=1)
        engine = TileSpMV(a, method="adpt")
        with pytest.raises(ValueError):
            engine.update_values(_matrix(seed=2))
        with pytest.raises(ValueError):
            engine.update_values(np.zeros(a.nnz + 1))

    def test_update_values_does_not_disturb_older_engine(self):
        cache = PlanCache()
        a = _matrix(seed=4)
        rng = np.random.default_rng(2)
        e1 = TileSpMV(a, method="adpt", plan_cache=cache)
        x = rng.standard_normal(a.shape[1])
        y1 = e1.spmv(x)
        b = a.copy()
        b.data = rng.standard_normal(b.nnz)
        TileSpMV(b, method="adpt", plan_cache=cache)  # refreshes the shared plan
        np.testing.assert_array_equal(e1.spmv(x), y1)  # e1 keeps its values


    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_refreshed_plan_is_bit_identical_to_cold_build(self, method):
        from dataclasses import fields, is_dataclass

        def values(tiled):
            out = [tiled.tileset.view.val]
            for fmt in sorted(tiled.payloads):
                stack = [tiled.payloads[fmt]]
                while stack:
                    p = stack.pop()
                    for f in fields(p):
                        v = getattr(p, f.name)
                        if is_dataclass(v):
                            stack.append(v)
                        elif isinstance(v, np.ndarray):
                            out.append(v)
            return out

        def products(engine, x, xk, w):
            return [engine.spmv(x), engine.spmm(xk), engine.spmv_transpose(w)]

        cache = PlanCache()
        a = power_law(400, avg_degree=5, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(a.shape[1])
        xk = rng.standard_normal((a.shape[1], 3))
        w = rng.standard_normal(a.shape[0])
        old = TileSpMV(a, method=method, plan_cache=cache)
        b = a.copy()
        b.data = rng.standard_normal(b.nnz)
        new = TileSpMV(b, method=method, plan_cache=cache)
        assert cache.stats()["hits"] == 1  # served by refresh_values
        for engine, cold in ((new, TileSpMV(b, method=method)), (old, TileSpMV(a, method=method))):
            for got, want in zip(products(engine, x, xk, w), products(cold, x, xk, w)):
                assert np.array_equal(got, want)
            if cold.tiled is not None:
                for got, want in zip(values(engine.tiled), values(cold.tiled), strict=True):
                    assert np.array_equal(got, want)


class TestLazyValueDigest:
    """The plan's value digest is computed on the first cache hit, from
    the plan's own values; the hit, miss and refresh decisions stay."""

    def test_build_same_values_new_values_new_pattern(self):
        a = _matrix(seed=3)
        b = a.copy()
        b.data = b.data * 2.0  # same pattern, new values
        c = _matrix(seed=4)  # new pattern
        x = np.random.default_rng(0).standard_normal(a.shape[1])
        cache = PlanCache()
        e1 = TileSpMV(a, plan_cache=cache)
        plan = cache.peek(e1.plan_key)
        assert plan._digest is None  # a miss never hashes the values
        e2 = TileSpMV(a.copy(), plan_cache=cache)
        assert plan._digest == value_digest(a.data)
        # Read before e3 refreshes the plan's values: same values share
        # the built artifacts.
        assert e2.tiled is e1.tiled
        e3 = TileSpMV(b, plan_cache=cache)
        assert plan._digest == value_digest(b.data)
        e4 = TileSpMV(c, plan_cache=cache)
        assert cache.stats() == {
            "hits": 2, "misses": 2, "evictions": 0, "invalidations": 0,
            "size": 2, "capacity": 16, "hit_rate": 0.5,
        }
        assert plan.tilings_saved == 2
        assert cache.peek(e4.plan_key).tilings_saved == 0
        # Same values share every artifact; new values refresh the
        # value-carrying ones and share the structure.
        assert e2.tiled is e1.tiled and e2._op is e1._op
        assert e3.tiled is not e1.tiled and e3._op is not e1._op
        assert e3.tiled.formats is e1.tiled.formats and e3._schedule is e1._schedule
        for engine, matrix in ((e1, a), (e2, a), (e3, b), (e4, c)):
            assert engine.spmv(x).tobytes() == TileSpMV(matrix).spmv(x).tobytes()
        assert e1.spmv(x).tobytes() == (a @ x).tobytes()

    def test_engines_first_read_after_a_refresh_share_their_values(self):
        a = _matrix(seed=3)
        b = a.copy()
        b.data = b.data * 2.0
        cache = PlanCache()
        e1 = TileSpMV(a, plan_cache=cache)
        e2 = TileSpMV(a.copy(), plan_cache=cache)
        e3 = TileSpMV(b, plan_cache=cache)  # refreshes the unbuilt plan
        # e1 and e2 first read the plan built on e3's values: each takes
        # a value clone on the operand they share, over one structure.
        assert e2._op is e1._op
        assert np.shares_memory(e2.tiled.operand.data, e1.tiled.operand.data)
        assert e2.tiled.structure is e1.tiled.structure is e3.tiled.structure
        assert e3.tiled.operand.data is e3._op.data
        x = np.random.default_rng(0).standard_normal(a.shape[1])
        for engine in (e1, e2):
            engine.validate()
            assert engine.spmv(x).tobytes() == (a @ x).tobytes()


class TestAutoTiming:
    def test_build_and_arbitration_reported_separately(self):
        engine = TileSpMV(_matrix(), method="auto", auto_device=A100)
        assert engine.build_seconds > 0
        assert engine.arbitration_seconds > 0
        assert engine.preprocessing_seconds == pytest.approx(
            engine.build_seconds + engine.arbitration_seconds
        )

    def test_non_auto_has_no_arbitration(self):
        engine = TileSpMV(_matrix(), method="adpt")
        assert engine.arbitration_seconds == 0.0
        assert engine.preprocessing_seconds == pytest.approx(engine.build_seconds)

    def test_auto_candidates_share_tileset(self):
        cache = PlanCache()
        engine = TileSpMV(_matrix(), method="auto", auto_device=A100, plan_cache=cache)
        plan = engine._plan
        # Both candidates were built on the one cached tileset/formats.
        assert {"adpt", "deferred_coo"} <= set(plan.methods)
        assert plan.formats is not None
        assert cache.stats()["misses"] == 1


class TestSpmvValidation:
    def test_spmv_rejects_wrong_shape(self):
        engine = TileSpMV(_matrix(m=100, n=130), method="adpt")
        with pytest.raises(ValueError, match=r"\(130,\)"):
            engine.spmv(np.ones(100))
        with pytest.raises(ValueError):
            engine.spmv(np.ones((130, 1)))

    def test_spmm_rejects_wrong_shape(self):
        engine = TileSpMV(_matrix(m=100, n=130), method="adpt")
        with pytest.raises(ValueError):
            engine.spmm(np.ones((100, 4)))


class TestCsr5Batched:
    def test_spmm_matches_scipy(self):
        a = _matrix(seed=5)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((a.shape[1], 7))
        engine = Csr5SpMV(a)
        np.testing.assert_allclose(engine.spmm(block), a @ block, rtol=1e-12, atol=1e-12)

    def test_spmm_rejects_bad_shape(self):
        engine = Csr5SpMV(_matrix())
        with pytest.raises(ValueError):
            engine.spmm(np.ones(150))

    def test_with_values(self):
        a = _matrix(seed=6)
        rng = np.random.default_rng(4)
        engine = Csr5SpMV(a)
        new_data = rng.standard_normal(a.nnz)
        clone = engine.with_values(new_data)
        expect = canonical_csr(a).copy()
        expect.data = new_data
        x = rng.standard_normal(a.shape[1])
        np.testing.assert_allclose(clone.spmv(x), expect @ x, rtol=1e-12, atol=1e-12)
        # Structure shared, values independent of the original.
        assert clone.perm is engine.perm
        np.testing.assert_array_equal(engine.data, a.data)
        with pytest.raises(ValueError):
            engine.with_values(np.ones(a.nnz + 2))


class TestBatchedCost:
    def test_k1_is_identity(self):
        engine = TileSpMV(_matrix(), method="adpt")
        cost = engine.run_cost()
        assert cost.batched(1) is cost

    def test_invalid_k(self):
        engine = TileSpMV(_matrix(), method="adpt")
        with pytest.raises(ValueError):
            engine.run_cost().batched(0)

    def test_amortisation_invariants(self):
        engine = TileSpMV(_matrix(), method="adpt")
        c1 = engine.run_cost()
        c32 = c1.batched(32)
        assert c32.payload_bytes == c1.payload_bytes  # streamed once
        assert c32.x_gather_bytes == pytest.approx(32 * c1.x_gather_bytes)
        assert c32.y_write_bytes == pytest.approx(32 * c1.y_write_bytes)
        assert c32.useful_flops == pytest.approx(32 * c1.useful_flops)
        assert c32.kernel_launches == c1.kernel_launches
        # Control flow amortised: far fewer instructions than 32 runs.
        assert c32.warp_instructions < 32 * c1.warp_instructions

    def test_batched_gflops_beats_sequential(self):
        engine = TileSpMV(_matrix(m=300, n=300), method="adpt")
        g1 = engine.run_cost().gflops(A100)
        g32 = engine.spmm_cost(32).gflops(A100)
        assert g32 > 2.0 * g1  # the acceptance bar

    def test_spmm_cost_label(self):
        engine = TileSpMV(_matrix(), method="adpt")
        assert "k=32" in engine.spmm_cost(32).label
