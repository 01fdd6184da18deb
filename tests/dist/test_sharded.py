"""ShardedSpMV: exactness, lifecycle, costs, integration layers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.plancache import PlanCache
from repro.core.tilespmv import TileSpMV
from repro.dist import (
    ShardedSpMV,
    best_shard_count,
    modelled_shard_sweep,
    sharded_conjugate_gradient,
    sharded_pagerank,
)
from repro.gpu.device import A100
from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import fem_blocks, power_law, random_uniform, stencil_2d


class TestExactness:
    def test_spmv_bit_exact_p4(self, zoo_matrix, rng):
        x = rng.standard_normal(zoo_matrix.shape[1])
        ref = TileSpMV(zoo_matrix, method="adpt").spmv(x)
        with ShardedSpMV(zoo_matrix, shards=4) as eng:
            assert np.array_equal(eng.spmv(x), ref)

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_spmv_bit_exact_other_counts(self, rng, p):
        a = power_law(700, avg_degree=5, seed=21)
        x = rng.standard_normal(700)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=p) as eng:
            assert np.array_equal(eng.spmv(x), ref)

    def test_spmm_bit_exact(self, rng):
        a = fem_blocks(300, block=3, avg_degree=8, seed=22)
        x = rng.standard_normal((a.shape[1], 7))
        ref = TileSpMV(a, method="adpt").spmm(x)
        with ShardedSpMV(a, shards=4) as eng:
            assert np.array_equal(eng.spmm(x), ref)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_transpose_bit_exact(self, rng, p):
        # Regression: this used to be allclose-only because per-shard
        # partials were summed in completion order.  The per-block A.T
        # operands make the transpose bit-for-bit too.
        a = random_uniform(260, 180, nnz_per_row=5, seed=23)
        x = rng.standard_normal(260)
        ref = TileSpMV(a, method="adpt").spmv_transpose(x)
        with ShardedSpMV(a, shards=p) as eng:
            assert np.array_equal(eng.spmv_transpose(x), ref)

    @pytest.mark.parametrize("grid", [None, (2, 2)])
    def test_transpose_is_not_a_fault_site(self, rng, grid):
        # No ABFT check covers a transpose, so an armed GPU-substrate
        # campaign leaves both the single-device and the sharded
        # transpose untouched.
        a = power_law(600, avg_degree=6, seed=27)
        x = rng.standard_normal(600)
        single = TileSpMV(a, method="deferred_coo")
        with ShardedSpMV(a, shards=4, method="deferred_coo", grid=grid) as eng:
            ref = single.spmv_transpose(x)
            with fault_injection(FaultPlan(seed=0, payload_corruptions=1)) as inj:
                assert np.array_equal(single.spmv_transpose(x), ref)
                assert np.array_equal(eng.spmv_transpose(x), ref)
            assert inj.injected == 0

    def test_transpose_with_empty_shard_is_typed_full_extent(self, rng):
        # 10 rows -> one tile strip: at P=3 two shards are empty and the
        # transpose must still return a float64 vector of n columns.
        a = random_uniform(10, 70, nnz_per_row=3, seed=26)
        x = rng.standard_normal(10)
        ref = TileSpMV(a, method="adpt").spmv_transpose(x)
        with ShardedSpMV(a, shards=3) as eng:
            y = eng.spmv_transpose(x)
        assert y.dtype == np.float64 and y.shape == (70,)
        assert np.array_equal(y, ref)

    def test_matmul_operator(self, rng):
        a = stencil_2d(16, seed=24)
        x = rng.standard_normal(a.shape[1])
        with ShardedSpMV(a, shards=2) as eng:
            assert np.array_equal(eng @ x, eng.spmv(x))

    def test_sequential_equals_threaded(self, rng):
        a = power_law(900, avg_degree=6, seed=25)
        x = rng.standard_normal(900)
        with ShardedSpMV(a, shards=4) as threaded, \
                ShardedSpMV(a, shards=4, max_workers=1) as seq:
            assert np.array_equal(threaded.spmv(x), seq.spmv(x))


class TestGrid2D:
    """Column cuts: replayed reductions stay bit-for-bit on tile grids."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_spmv_bit_exact_auto_grid(self, rng, p):
        a = power_law(700, avg_degree=5, seed=90)
        x = rng.standard_normal(700)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=p, grid="auto") as eng:
            assert eng.grid_rows * eng.grid_cols == p
            assert np.array_equal(eng.spmv(x), ref)

    @pytest.mark.parametrize("grid", [(1, 2), (1, 4), (2, 2), (2, 4)])
    def test_spmv_bit_exact_explicit_grids(self, rng, grid):
        a = random_uniform(300, 260, nnz_per_row=5, seed=91)
        x = rng.standard_normal(260)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, grid=grid) as eng:
            assert (eng.grid_rows, eng.grid_cols) == grid
            assert np.array_equal(eng.spmv(x), ref)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_transpose_bit_exact_on_grid(self, rng, p):
        a = random_uniform(280, 190, nnz_per_row=5, seed=92)
        x = rng.standard_normal(280)
        ref = TileSpMV(a, method="adpt").spmv_transpose(x)
        with ShardedSpMV(a, shards=p, grid="auto") as eng:
            assert np.array_equal(eng.spmv_transpose(x), ref)

    def test_spmm_bit_exact_on_grid(self, rng):
        a = fem_blocks(300, block=3, avg_degree=8, seed=93)
        x = rng.standard_normal((a.shape[1], 6))
        ref = TileSpMV(a, method="adpt").spmm(x)
        with ShardedSpMV(a, grid=(2, 2)) as eng:
            assert np.array_equal(eng.spmm(x), ref)

    @pytest.mark.parametrize("method", ["csr", "deferred_coo"])
    def test_fixed_methods_replay_on_grid(self, rng, method):
        a = power_law(500, avg_degree=5, seed=94)
        x = rng.standard_normal(500)
        ref = TileSpMV(a, method=method).spmv(x)
        with ShardedSpMV(a, grid=(2, 2), method=method) as eng:
            assert np.array_equal(eng.spmv(x), ref)
            assert np.array_equal(
                eng.spmv_transpose(x), TileSpMV(a, method=method).spmv_transpose(x)
            )

    def test_auto_on_grid_is_deterministic(self, rng):
        # ``auto`` runs the block operands like every method: the
        # single-device bits, threaded or sequential.
        a = power_law(800, avg_degree=5, seed=95)
        x = rng.standard_normal(800)
        ref = TileSpMV(a, method="auto").spmv(x)
        with ShardedSpMV(a, grid=(2, 2), method="auto") as threaded, \
                ShardedSpMV(a, grid=(2, 2), method="auto",
                            max_workers=1) as seq:
            y1, y2 = threaded.spmv(x), seq.spmv(x)
        assert np.array_equal(y1, ref)
        assert np.array_equal(y2, ref)

    def test_update_values_on_grid(self, rng):
        a = random_uniform(240, 240, nnz_per_row=5, seed=96)
        new = rng.standard_normal(a.nnz)
        csr = a.tocsr()
        fresh = sp.csr_matrix((new, csr.indices, csr.indptr), shape=a.shape)
        x = rng.standard_normal(240)
        ref = TileSpMV(fresh, method="adpt").spmv(x)
        ref_t = TileSpMV(fresh, method="adpt").spmv_transpose(x)
        with ShardedSpMV(a, grid=(2, 2)) as eng:
            eng.update_values(new)
            assert np.array_equal(eng.spmv(x), ref)
            assert np.array_equal(eng.spmv_transpose(x), ref_t)

    def test_grid_shard_count_must_match(self):
        a = random_uniform(100, 100, nnz_per_row=4, seed=97)
        with ShardedSpMV(a, grid=(2, 2)) as eng:
            assert len(eng.engines) == 4
        with ShardedSpMV(a, shards=4, grid="auto") as eng:
            assert (eng.grid_rows, eng.grid_cols) == (2, 2)

    def test_grid_plan_key_distinct_from_1d(self):
        a = random_uniform(300, 300, nnz_per_row=5, seed=98)
        cache = PlanCache()
        with ShardedSpMV(a, shards=4, plan_cache=cache) as flat, \
                ShardedSpMV(a, grid=(2, 2), plan_cache=cache) as grid:
            assert flat.plan_key != grid.plan_key

    def test_cost_model_reduce_terms(self):
        a = power_law(900, avg_degree=6, seed=99)
        with ShardedSpMV(a, grid=(2, 2)) as eng:
            mdc = eng.multi_device_cost(links=2)
            assert mdc.reduce_depth == 1
            assert mdc.contention() == 2.0
            assert mdc.reduce_comm_bytes() > 0.0
            assert mdc.allreduce_time(A100) > 0.0
            b = mdc.breakdown(A100)
            assert b["reduce_depth"] == 1 and b["links"] == 2
            assert "grid=2x2" in mdc.label
        with ShardedSpMV(a, shards=4) as flat:
            legacy = flat.multi_device_cost()
            assert legacy.reduce_depth == 0
            assert legacy.contention() == 1.0
            assert legacy.allreduce_time(A100) == 0.0

    def test_grid_halo_shrinks_vs_1d_in_sweep(self):
        a = power_law(2000, avg_degree=6, seed=100)
        flat = modelled_shard_sweep(a, counts=(4,))
        grid = modelled_shard_sweep(a, counts=(4,), grid="auto")
        assert flat[0]["grid"] is None
        assert grid[0]["grid"] == (2, 2)
        assert grid[0]["halo_bytes"] < flat[0]["halo_bytes"]


class TestUpdateValues:
    def test_array_roundtrip_bit_exact(self, rng):
        a = fem_blocks(240, block=3, avg_degree=8, seed=30)
        new = rng.standard_normal(a.nnz)
        fresh = sp.csr_matrix((new, a.indices, a.indptr), shape=a.shape)
        x = rng.standard_normal(a.shape[1])
        ref = TileSpMV(fresh, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=4) as eng:
            eng.update_values(new)
            assert np.array_equal(eng.spmv(x), ref)

    def test_sparse_same_pattern(self, rng):
        a = random_uniform(200, 200, nnz_per_row=5, seed=31)
        fresh = a.copy()
        fresh.data = rng.standard_normal(fresh.nnz)
        x = rng.standard_normal(200)
        with ShardedSpMV(a, shards=3) as eng:
            eng.update_values(fresh)
            np.testing.assert_allclose(eng.spmv(x), fresh @ x,
                                       rtol=1e-12, atol=1e-12)

    def test_pattern_mismatch_rejected(self):
        a = random_uniform(200, 200, nnz_per_row=5, seed=32)
        with ShardedSpMV(a, shards=2) as eng:
            with pytest.raises(ValueError, match="pattern"):
                eng.update_values(random_uniform(200, 200, nnz_per_row=4, seed=33))
            with pytest.raises(ValueError):
                eng.update_values(np.ones(a.nnz + 1))


class TestUpdateAfterProduct:
    """A product before update_values must leave no stale operand behind.

    The overlapping-output products (column-cut spmv/spmm, every
    transpose) cache per-block operands on their first call; the
    update tests above update before any product, so only these catch
    a cache that survives the new values.
    """

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("grid", [(2, 2), (1, 3), None])
    @pytest.mark.parametrize("method", ["adpt", "deferred_coo"])
    def test_products_after_update_match_fresh_engine(self, rng, method,
                                                      grid, backend):
        a = fem_blocks(150, block=3, avg_degree=8, seed=28)
        x = rng.standard_normal(a.shape[1])
        xk = rng.standard_normal((a.shape[1], 3))
        xt = rng.standard_normal(a.shape[0])
        new = rng.standard_normal(a.nnz)
        fresh = a.tocsr().copy()
        fresh.data = new.copy()
        ref = TileSpMV(fresh, method=method)
        with ShardedSpMV(a, shards=3, grid=grid, method=method,
                         backend=backend) as eng:
            stale = (eng.spmv(x), eng.spmm(xk), eng.spmv_transpose(xt))
            eng.update_values(new)
            fresh_out = (eng.spmv(x), eng.spmm(xk), eng.spmv_transpose(xt))
        expect = (ref.spmv(x), ref.spmm(xk), ref.spmv_transpose(xt))
        for before, got, want in zip(stale, fresh_out, expect):
            assert not np.array_equal(before, want)
            assert got.tobytes() == want.tobytes()


class TestLifecycle:
    def test_invalid_arguments(self):
        a = random_uniform(100, 100, nnz_per_row=4, seed=40)
        with pytest.raises(ValueError):
            ShardedSpMV(a, shards=0)
        with pytest.raises(ValueError):
            ShardedSpMV(a, method="nope")
        with ShardedSpMV(a, shards=2) as eng:
            with pytest.raises(ValueError):
                eng.spmv(np.zeros(101))
            with pytest.raises(ValueError):
                eng.spmm(np.zeros((101, 2)))
            with pytest.raises(ValueError):
                eng.spmv_transpose(np.zeros(99))

    def test_close_is_idempotent(self, rng):
        a = random_uniform(150, 150, nnz_per_row=4, seed=41)
        eng = ShardedSpMV(a, shards=2)
        eng.spmv(rng.standard_normal(150))
        eng.close()
        eng.close()

    def test_plan_keys_with_cache(self):
        a = random_uniform(300, 300, nnz_per_row=5, seed=42)
        cache = PlanCache()
        with ShardedSpMV(a, shards=4, plan_cache=cache) as eng:
            assert len(eng.plan_keys) == 4
            assert eng.plan_key is not None
            # The combined key is not any single shard's key.
            assert eng.plan_key not in eng.plan_keys
            for k in eng.plan_keys:
                assert cache.peek(k) is not None
        with ShardedSpMV(a, shards=2, plan_cache=cache) as other:
            assert other.plan_key != eng.plan_key

    def test_plan_key_none_without_cache(self):
        a = random_uniform(100, 100, nnz_per_row=3, seed=43)
        with ShardedSpMV(a, shards=2) as eng:
            assert eng.plan_keys == []
            assert eng.plan_key is None

    def test_shared_cache_warm_rebuild(self):
        a = random_uniform(400, 400, nnz_per_row=6, seed=44)
        cache = PlanCache()
        with ShardedSpMV(a, shards=4, plan_cache=cache):
            pass
        misses = cache.stats()["misses"]
        with ShardedSpMV(a, shards=4, plan_cache=cache):
            pass
        assert cache.stats()["misses"] == misses  # all hits second time

    def test_resolved_methods_and_describe(self):
        a = random_uniform(200, 200, nnz_per_row=5, seed=45)
        with ShardedSpMV(a, shards=3) as eng:
            assert eng.resolved_methods == ["adpt"] * 3
            text = eng.describe()
            assert "P=3" in text and "shard 0" in text


class TestCosts:
    def test_single_shard_has_zero_comm(self):
        a = random_uniform(300, 300, nnz_per_row=5, seed=50)
        with ShardedSpMV(a, shards=1) as eng:
            mdc = eng.multi_device_cost()
            assert mdc.total_comm_bytes() == 0.0
            base = TileSpMV(a, method="adpt").run_cost()
            assert mdc.time(A100) == pytest.approx(base.time(A100))
            assert mdc.efficiency(base, A100) == pytest.approx(1.0)

    def test_multi_shard_pays_interconnect(self):
        a = random_uniform(600, 600, nnz_per_row=6, seed=51)
        with ShardedSpMV(a, shards=4) as eng:
            mdc = eng.multi_device_cost()
            assert mdc.shards == 4
            assert mdc.total_comm_bytes() > 0.0
            assert eng.predicted_time(A100) == pytest.approx(mdc.time(A100))
            b = mdc.breakdown(A100)
            assert b["makespan_s"] >= max(b["compute_s"])

    def test_run_cost_sums_shards(self):
        a = random_uniform(400, 400, nnz_per_row=5, seed=52)
        with ShardedSpMV(a, shards=4) as eng:
            total = eng.run_cost()
            assert "P=4" in total.label
            assert total.useful_flops == sum(
                e.run_cost().useful_flops for e in eng.engines
            )
            assert eng.spmm_cost(8).time(A100) < total.time(A100) * 8

    def test_modelled_sweep_and_best(self):
        a = random_uniform(500, 500, nnz_per_row=6, seed=53)
        rows = modelled_shard_sweep(a, counts=(1, 2, 4))
        assert [r["shards"] for r in rows] == [1, 2, 4]
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[0]["efficiency"] == pytest.approx(1.0)
        for r in rows:
            assert r["makespan_s"] > 0
        assert best_shard_count(a, counts=(1, 2, 4)) in (1, 2, 4)

    def test_nbytes_and_histogram_merge(self):
        a = fem_blocks(200, block=3, avg_degree=8, seed=54)
        base = TileSpMV(a, method="adpt")
        with ShardedSpMV(a, shards=4) as eng:
            assert eng.nbytes_model() > 0
            merged = eng.format_histogram()
            single = base.format_histogram()
            assert (
                sum(h["nnz"] for h in merged.values())
                == sum(h["nnz"] for h in single.values())
            )


class TestTelemetry:
    def test_spans_and_sequential_fallback(self, rng):
        a = random_uniform(260, 260, nnz_per_row=5, seed=60)
        x = rng.standard_normal(260)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with tele.session() as (tracer, registry):
            with ShardedSpMV(a, shards=3) as eng:
                assert eng._sequential()  # tracer armed -> no threads
                y = eng.spmv(x)
            names = [e.name for e in tracer.events]
            assert "sharded_build" in names
            assert names.count("shard_build") == 3
            assert names.count("shard_execute") == 3
            assert "sharded_spmv" in names
            assert registry.value("sharded_spmv_total", shards=3) == 1.0
            assert registry.value("sharded_builds_total",
                                  method="adpt", shards=3) == 1.0
        assert np.array_equal(y, ref)


class TestSolvers:
    def test_cg_iterates_identically(self):
        # Diagonally-dominant SPD operator from a 2D stencil.
        a = stencil_2d(18, points=5, seed=70)
        a = a + a.T
        diag = np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0
        a = (sp.diags(diag) - 0.5 * a).tocsr()
        b = np.ones(a.shape[0])
        from repro.apps.solvers import conjugate_gradient

        base = conjugate_gradient(TileSpMV(a, method="adpt"), b)
        shard = sharded_conjugate_gradient(a, b, shards=4)
        assert shard.converged
        assert shard.iterations == base.iterations
        np.testing.assert_array_equal(shard.x, base.x)

    def test_pagerank_matches(self):
        a = power_law(400, avg_degree=5, seed=71)
        from repro.apps.graph import make_transition, pagerank

        transition, dangling = make_transition(a)
        base_rank, base_iters = pagerank(
            TileSpMV(transition, method="adpt"), dangling
        )
        rank, iters = sharded_pagerank(a, shards=4)
        assert iters == base_iters
        np.testing.assert_array_equal(rank, base_rank)


class TestReliabilityIntegration:
    def test_reliable_sharded_spmv(self, rng):
        a = random_uniform(300, 300, nnz_per_row=5, seed=80)
        from repro.reliability.reliable import ReliableSpMV

        cache = PlanCache()
        r = ReliableSpMV(a, shards=4, plan_cache=cache)
        x = rng.standard_normal(300)
        np.testing.assert_allclose(r.spmv(x), a @ x, rtol=1e-10, atol=1e-12)
        assert r.counters["verified_ok"] == 1
        assert len(r.plan_keys) == 4

    def test_reliable_rebuild_invalidates_every_shard(self):
        a = random_uniform(300, 300, nnz_per_row=5, seed=81)
        from repro.reliability.reliable import ReliableSpMV

        cache = PlanCache()
        r = ReliableSpMV(a, shards=4, plan_cache=cache)
        keys = r.plan_keys
        r._rebuild_engine()
        # invalidate-then-rebuild: same fingerprints, fresh entries.
        assert r.plan_keys == keys
        assert cache.stats()["invalidations"] >= 4

    def test_reliable_sharded_detects_and_recovers(self, rng):
        a = random_uniform(280, 280, nnz_per_row=5, seed=82)
        from repro.gpu.faults import FaultPlan, fault_injection
        from repro.reliability.reliable import ReliableSpMV

        x = rng.standard_normal(280)
        r = ReliableSpMV(a, shards=3, plan_cache=PlanCache())
        plan = FaultPlan(seed=5, fault_attempts=1)
        with fault_injection(plan):
            y = r.spmv(x)
        np.testing.assert_allclose(y, a @ x, rtol=1e-10, atol=1e-12)
        assert r.counters["detected"] >= 1
        assert r.counters["retries"] + r.counters["fallbacks"] >= 1

    def test_serving_register_with_shards(self):
        from repro.matrices import stencil_2d as stencil
        from repro.serving import Request, RuntimeConfig, ServingRuntime

        rt = ServingRuntime(RuntimeConfig(queue_limit=8, plan_cache_capacity=16))
        a = stencil(20, seed=83)
        rt.register("m0", a, shards=2)
        assert rt.estimate("m0")["plan_ready"] is True
        out = rt.submit(Request(rid=0, arrival=0.0, matrix_id="m0"))
        assert out.status == "served"
        assert out.verified
