"""update_values fast path and single-half kernel dispatch regressions.

Pins the two hot-loop guarantees added for the sharded engine:

* :meth:`TileMatrix.with_values` refills payload value slots and the
  CSR operands' data through precomputed slot maps — it must never
  call a format *encoder* again (the whole point of the fast path), and
  the refilled engine must be bit-for-bit a freshly built one.  An
  armed fault campaign corrupts only a throwaway copy of the operand.
* :meth:`TileSpMV.spmv`/:meth:`spmm` return the single half's output
  array directly when the other half is absent — no zero-fill + add
  pass — and :meth:`spmv_transpose` is instrumented like its siblings.
"""

import numpy as np
import pytest

from repro import telemetry as tele
from repro.core import storage
from repro.core.tilespmv import TileSpMV
from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import fem_blocks, hypersparse, power_law, random_uniform


@pytest.fixture
def encode_counter(monkeypatch):
    """Count every format-encoder invocation."""
    calls = {"n": 0}

    def wrap(fn):
        def inner(view):
            calls["n"] += 1
            return fn(view)
        return inner

    for fmt, fn in list(storage._ENCODERS.items()):
        monkeypatch.setitem(storage._ENCODERS, fmt, wrap(fn))
    return calls


class TestWithValuesNoReencode:
    @pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo", "auto"])
    def test_update_values_never_reencodes(self, encode_counter, method, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method=method)
        built = encode_counter["n"]
        assert built > 0 or engine.tiled is None  # build went through encoders
        new = rng.standard_normal(a.nnz)
        engine.update_values(new)
        assert encode_counter["n"] == built, "with_values re-ran an encoder"

    def test_refilled_engine_is_bit_exact(self, zoo_matrix, rng):
        m, n = zoo_matrix.shape
        x = rng.standard_normal(n)
        xk = rng.standard_normal((n, 3))
        w = rng.standard_normal(m)
        new = rng.standard_normal(zoo_matrix.nnz)
        csr = zoo_matrix.tocsr()
        fresh = csr.copy()
        fresh.data = new.copy()
        for reorder in (None, "sell:32"):
            engine = TileSpMV(zoo_matrix, method="adpt", reorder=reorder)
            # Build the transposed operands (the engine's per-half ones
            # and the tiled half's own) so the update must refill them.
            engine.spmv_transpose(w)
            if engine.tiled is not None:
                engine.tiled.spmv_transpose(np.zeros(engine.tiled.shape[0]))
            engine.update_values(new)
            rebuilt = TileSpMV(fresh, method="adpt", reorder=reorder)
            assert np.array_equal(engine.spmv(x), rebuilt.spmv(x))
            assert np.array_equal(engine.spmm(xk), rebuilt.spmm(xk))
            assert np.array_equal(engine.spmv_transpose(w), rebuilt.spmv_transpose(w))
            if engine.tiled is not None:
                wt = rng.standard_normal(engine.tiled.shape[0])
                assert np.array_equal(
                    engine.tiled.spmv_transpose(wt), rebuilt.tiled.spmv_transpose(wt)
                )

    def test_spmm_cache_invalidated_by_update(self, rng):
        a = random_uniform(150, 150, nnz_per_row=5, seed=2)
        engine = TileSpMV(a, method="adpt")
        block = rng.standard_normal((150, 3))
        engine.spmm(block)  # a product before the update
        new = rng.standard_normal(a.nnz)
        engine.update_values(new)
        fresh = a.copy()
        fresh.data = new.copy()
        np.testing.assert_allclose(engine.spmm(block), fresh @ block,
                                   rtol=1e-12, atol=1e-12)


class TestFaultsStayOffTheOperand:
    @pytest.mark.parametrize("k", [None, 3])
    def test_armed_call_leaves_next_call_clean(self, rng, k):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method="adpt")
        n = a.shape[1]
        x = rng.standard_normal(n) if k is None else rng.standard_normal((n, k))
        run = engine.spmv if k is None else engine.spmm
        before = run(x)
        with fault_injection(FaultPlan(seed=0, payload_corruptions=1)) as inj:
            faulted = run(x)
        assert inj.injected == 1
        assert not np.array_equal(faulted, before)
        assert np.array_equal(run(x), before)


class TestSingleHalfDispatch:
    def test_spmv_returns_tiled_output_directly(self, rng):
        a = random_uniform(180, 180, nnz_per_row=5, seed=3)
        engine = TileSpMV(a, method="adpt")
        assert engine.deferred_engine is None
        sentinel = np.arange(180, dtype=np.float64)
        engine.tiled.spmv = lambda x: sentinel
        assert engine.spmv(np.zeros(180)) is sentinel

    def test_spmm_returns_tiled_output_directly(self, rng):
        a = random_uniform(180, 180, nnz_per_row=5, seed=4)
        engine = TileSpMV(a, method="adpt")
        sentinel = np.zeros((180, 2))
        engine.tiled.spmm = lambda x: sentinel
        assert engine.spmm(np.zeros((180, 2))) is sentinel

    def test_fully_deferred_split_still_correct(self, rng):
        # Hypersparse: DeferredCOO extracts everything; the tiled half
        # is empty and the deferred kernel's output is returned as-is.
        a = hypersparse(640, nnz=80, seed=5)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal(640)
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-12, atol=1e-12)
        if engine.tiled is None:  # the extraction took the whole matrix
            sentinel = np.zeros(640)
            engine.deferred_engine.spmv = lambda x: sentinel
            assert engine.spmv(x) is sentinel

    def test_mixed_split_still_adds_both_halves(self, rng):
        a = power_law(900, avg_degree=5, seed=6)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal(900)
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-10, atol=1e-12)


class TestTransposeTelemetry:
    def test_spmv_transpose_records_span_and_counter(self, rng):
        a = random_uniform(200, 160, nnz_per_row=4, seed=7)
        x = rng.standard_normal(200)
        with tele.session() as (tracer, registry):
            engine = TileSpMV(a, method="adpt")
            engine.spmv_transpose(x)
            spans = [e for e in tracer.events
                     if e.name == "kernel_execute" and e.args.get("transpose")]
            assert len(spans) == 1
            assert spans[0].args["method"] == "adpt"
            assert registry.value("tilespmv_spmv_total", method="adpt") == 1.0

    def test_transpose_counts_like_spmv(self, rng):
        a = random_uniform(120, 120, nnz_per_row=4, seed=8)
        x = rng.standard_normal(120)
        with tele.session() as (_, registry):
            engine = TileSpMV(a, method="adpt")
            engine.spmv(x)
            engine.spmv_transpose(x)
            assert registry.value("tilespmv_spmv_total", method="adpt") == 2.0
