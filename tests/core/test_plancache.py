"""Plan cache, batched cost model and value-update fast paths.

A plan is a pattern: engines on one plan share its structure and each
owns its values.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro import ReliableSpMV, ShardedSpMV
from repro.baselines.csr5 import Csr5SpMV
from repro.core.plancache import PlanCache, structural_fingerprint
from repro.core.storage import same_csr
from repro.core.tilespmv import METHODS, TileSpMV
from repro.dist.recovery import RecoverableShardedSpMV
from repro.gpu.device import A100
from repro.matrices import power_law, random_uniform
from repro.reliability.validation import canonicalize_csr


def _matrix(seed=1, m=150, n=150):
    return random_uniform(m, n, nnz_per_row=5, seed=seed)


def canonical_csr(a):
    return canonicalize_csr(a, "trust")[0]


def _float_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every floating-point array reachable from ``obj`` through
    dataclass fields, dicts, lists and object attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    if sp.issparse(obj):
        return [obj.data]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif is_dataclass(obj):
        items = [getattr(obj, f.name) for f in fields(obj)]
    elif hasattr(obj, "__dict__") and type(obj).__module__.startswith("repro"):
        items = list(vars(obj).values())
    else:
        return []
    return [a for item in items for a in _float_arrays(item, seen)]


def _own_values(engine) -> None:
    """The engine's payloads decode to its own operand's entries, it
    validates, and its products are its operand's."""
    op = engine.operand
    tiled, deferred = engine.halves()
    if tiled is not None:
        assert same_csr(engine.tiled.to_csr(tiled.data), tiled)
    if deferred is not None:
        assert np.array_equal(engine.deferred_engine.indices, deferred.indices)
    engine.validate()
    x = np.random.default_rng(9).standard_normal(op.shape[1])
    assert engine.spmv(x).tobytes() == (op @ x).tobytes()


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

    def test_index_dtype_never_aliases_another_pattern(self):
        """The int32 and int64 copies of one pattern key apart, and no
        pattern keys like the bytes of another read in the other index
        dtype (which an untagged in-place hash would give)."""
        csr = canonical_csr(_matrix())
        wide = SimpleNamespace(shape=csr.shape, dtype=csr.dtype,
                               indptr=csr.indptr.astype(np.int64),
                               indices=csr.indices.astype(np.int64))
        # The bytes of ``wide``, reread as int32 arrays of another
        # pattern on the same shape: indptr takes the first m + 1 words.
        words = np.concatenate([wide.indptr, wide.indices]).view(np.int32)
        m1 = csr.shape[0] + 1
        other = SimpleNamespace(shape=csr.shape, dtype=csr.dtype,
                                indptr=words[:m1], indices=words[m1:])
        assert csr.indices.dtype == np.int32

        def untagged(p):
            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(p.indptr))
            h.update(np.ascontiguousarray(p.indices))
            return h.hexdigest()

        assert untagged(wide) == untagged(other)  # the alias exists
        keys = {structural_fingerprint(p, 16, None, 8) for p in (csr, wide, other)}
        assert len(keys) == 3
        # Same pattern, same dtype: one key, however it is stored.
        again = SimpleNamespace(shape=csr.shape, dtype=csr.dtype,
                                indptr=wide.indptr.copy(), indices=wide.indices.copy())
        assert structural_fingerprint(again, 16, None, 8) == structural_fingerprint(wide, 16, None, 8)


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
        assert cache.stats()["hits"] == 1  # the same plan, not a rebuild
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

    @pytest.mark.parametrize("kind", [
        "single", "reordered", "sharded", "grid", "process", "recoverable",
        "reliable_sharded",
    ])
    def test_every_engine_rejects_a_moved_entry(self, kind):
        """Same shape and nnz, entry (0, 2) moved to (0, 1): a different
        pattern that every engine kind refuses to take as new values."""
        a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]))
        b = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]))
        engine = {
            "single": lambda: TileSpMV(a),
            "reordered": lambda: TileSpMV(a, reorder="rcm"),
            "sharded": lambda: ShardedSpMV(a, shards=2),
            "grid": lambda: ShardedSpMV(a, grid=(2, 2)),
            "process": lambda: ShardedSpMV(a, shards=2, backend="process"),
            "recoverable": lambda: RecoverableShardedSpMV(a, shards=2),
            "reliable_sharded": lambda: ReliableSpMV(a, shards=2),
        }[kind]()
        try:
            x = np.array([1.0, 2.0, 3.0])
            with pytest.raises(ValueError, match="sparsity pattern differs"):
                engine.update_values(b)
            assert np.array_equal(engine.spmv(x), a @ x)  # untouched
            engine.update_values(a * 2.0)  # the same pattern is taken
            assert np.array_equal(engine.spmv(x), (a * 2.0) @ x)
        finally:
            if hasattr(engine, "close"):
                engine.close()

    def test_update_values_does_not_disturb_older_engine(self):
        cache = PlanCache()
        a = _matrix(seed=4)
        rng = np.random.default_rng(2)
        e1 = TileSpMV(a, method="adpt", plan_cache=cache)
        x = rng.standard_normal(a.shape[1])
        y1 = e1.spmv(x)
        b = a.copy()
        b.data = rng.standard_normal(b.nnz)
        e2 = TileSpMV(b, method="adpt", plan_cache=cache)  # shares e1's plan
        e2.update_values(rng.standard_normal(b.nnz))
        np.testing.assert_array_equal(e1.spmv(x), y1)  # e1 keeps its values

    @pytest.mark.parametrize(
        "method,scenario",
        [pytest.param(m, "hit", id=m) for m in sorted(METHODS)]
        + [
            pytest.param(m, s, id=f"{m}-{s}")
            for s in ("two_engines", "update_before_price")
            for m in sorted(METHODS)
        ],
    )
    def test_refreshed_plan_is_bit_identical_to_cold_build(self, method, scenario):
        """Engines on a shared plan, each with its own values, equal cold
        builds on those values bit for bit: a hit with new values, two
        engines on one plan with different values (the second updated),
        and an update before the first price."""

        def values(engine):
            tiled, _ = engine.halves()
            out = [engine.tiled.tileset.view(tiled.data).val]
            payloads = engine.tiled.payloads(tiled.data)
            for fmt in sorted(payloads):
                stack = [payloads[fmt]]
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
        b = a.copy()
        b.data = rng.standard_normal(b.nnz)
        old = TileSpMV(a, method=method, plan_cache=cache)
        if scenario == "hit":
            new = TileSpMV(b, method=method, plan_cache=cache)
        else:
            new = TileSpMV(a, method=method, plan_cache=cache)
            new.update_values(b)
        if scenario == "two_engines":
            old.run_cost()  # the plan is built by the engine not updated
        assert cache.stats()["hits"] == 1  # never re-tiled
        for engine, cold in ((new, TileSpMV(b, method=method)), (old, TileSpMV(a, method=method))):
            assert engine._plan is old._plan
            for got, want in zip(products(engine, x, xk, w), products(cold, x, xk, w)):
                assert np.array_equal(got, want)
            assert engine.run_cost() == cold.run_cost()
            if cold.tiled is not None:
                for got, want in zip(values(engine), values(cold), strict=True):
                    assert np.array_equal(got, want)
            _own_values(engine)


class TestPatternSharing:
    """A cache hit shares the plan whatever the values; each engine's
    operand shares the plan's index arrays and owns its values."""

    def test_hits_share_one_pattern_whatever_the_values(self):
        a = _matrix(seed=3)
        b = a.copy()
        b.data = b.data * 2.0  # same pattern, new values
        c = _matrix(seed=4)  # new pattern
        x = np.random.default_rng(0).standard_normal(a.shape[1])
        cache = PlanCache()
        e1 = TileSpMV(a, plan_cache=cache)
        e2 = TileSpMV(a.copy(), plan_cache=cache)
        e3 = TileSpMV(b, plan_cache=cache)
        e4 = TileSpMV(c, plan_cache=cache)
        assert cache.stats() == {
            "hits": 2, "misses": 2, "evictions": 0, "invalidations": 0,
            "size": 2, "capacity": 16, "hit_rate": 0.5,
        }
        plan = cache.peek(e1.plan_key)
        assert plan.tilings_saved == 2
        assert cache.peek(e4.plan_key).tilings_saved == 0
        assert e1._plan is e2._plan is e3._plan is plan
        # One pattern: every operand on the plan reads its index arrays;
        # the values are each engine's own.
        for engine in (e1, e2, e3):
            assert np.shares_memory(engine.operand.indices, plan.indices)
            assert np.shares_memory(engine.operand.indptr, plan.indptr)
        assert not np.shares_memory(e1.operand.data, e2.operand.data)
        assert e3.tiled is e1.tiled and e3._schedule is e1._schedule
        for engine, matrix in ((e1, a), (e2, a), (e3, b), (e4, c)):
            assert engine.spmv(x).tobytes() == TileSpMV(matrix).spmv(x).tobytes()
        assert e1.spmv(x).tobytes() == (a @ x).tobytes()

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_a_built_plan_holds_no_values(self, method):
        a = _matrix(seed=3)
        b = a.copy()
        b.data = b.data * 2.0
        cache = PlanCache()
        e1 = TileSpMV(a, method=method, plan_cache=cache)
        e2 = TileSpMV(b, method=method, plan_cache=cache)
        e1.validate()
        e2.validate()
        assert _float_arrays(e1._plan) == []
        for engine in (e1, e2):
            _own_values(engine)


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

    def test_layout_prices_like_the_engine(self):
        """A pattern's CSR5 layout holds no values and prices exactly as
        an engine on any values of that pattern."""
        a = canonical_csr(_matrix(seed=6))
        engine = Csr5SpMV(a)
        layout = Csr5SpMV.layout(a.indptr, a.indices, a.shape)
        assert layout.data is None and layout.stored_val is None
        assert layout.nnz == engine.nnz == a.nnz
        assert layout.run_cost() == engine.run_cost()
        assert layout.nbytes_model() == engine.nbytes_model()
        for name in ("perm", "stored_col", "stored_valid", "bit_flag", "tile_ptr", "entry_rows"):
            assert np.array_equal(getattr(layout, name), getattr(engine, name))


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
