"""update_values fast path and one-operand kernel dispatch regressions.

Pins the two hot-loop guarantees added for the sharded engine:

* :meth:`TileSpMV.update_values` refills the CSR operands' data without
  a sort — it must never call a format *encoder* again (the whole point
  of the fast path), and the refilled engine must be bit-for-bit a
  freshly built one.  Payload and view values are read from the
  operand only when a reader asks, never by a product, and equal a
  fresh build's; repeated updates keep no earlier generation alive.  An armed
  fault campaign corrupts only a throwaway copy of the operand.
* :meth:`TileSpMV.spmv`/:meth:`spmm` return the one operand's product
  array directly, for every method — no zero-fill + add pass — and
  :meth:`spmv_transpose` is instrumented like its siblings.
"""

import gc
import weakref
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro import telemetry as tele
from repro.core import storage
from repro.core import tilespmv as tilespmv_module
from repro.core.serialize import load_tile_matrix, save_tile_matrix
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
        tiled = engine.tiled  # the first read builds the plan
        built = encode_counter["n"]
        assert built > 0 or tiled is None  # build went through encoders
        new = rng.standard_normal(a.nnz)
        engine.update_values(new)
        assert encode_counter["n"] == built, "update_values re-ran an encoder"

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
            # Build the transposed operand so the update must refill it.
            engine.spmv_transpose(w)
            engine.update_values(new)
            rebuilt = TileSpMV(fresh, method="adpt", reorder=reorder)
            assert np.array_equal(engine.spmv(x), rebuilt.spmv(x))
            assert np.array_equal(engine.spmm(xk), rebuilt.spmm(xk))
            assert np.array_equal(engine.spmv_transpose(w), rebuilt.spmv_transpose(w))

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


def _payload_arrays(payload, prefix=""):
    """``{field path: array}`` of every array in a (nested) payload."""
    out = {}
    for f in fields(payload):
        value = getattr(payload, f.name)
        if is_dataclass(value):
            out.update(_payload_arrays(value, f"{prefix}{f.name}."))
        elif isinstance(value, np.ndarray):
            out[prefix + f.name] = value
    return out


def assert_same_values(engine, fresh):
    """The tiled halves' payload arrays, view values and ``to_csr()``,
    each read with its engine's values, equal bit for bit."""
    tiled, data = engine.tiled, engine.halves()[0].data
    ftiled, fdata = fresh.tiled, fresh.halves()[0].data
    payloads, fresh_payloads = tiled.payloads(data), ftiled.payloads(fdata)
    assert sorted(payloads) == sorted(fresh_payloads)
    for fmt, payload in fresh_payloads.items():
        got = _payload_arrays(payloads[fmt])
        want = _payload_arrays(payload)
        assert got.keys() == want.keys()
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype, (fmt, name)
            assert np.array_equal(got[name], arr), (fmt, name)
    assert np.array_equal(tiled.tileset.view(data).val, ftiled.tileset.view(fdata).val)
    got, want = tiled.to_csr(data), ftiled.to_csr(fdata)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestValuesLiveInTheOperand:
    """Only the operand is refilled; payload and view values are read
    from it."""

    def test_products_do_not_rebuild_payloads(self, monkeypatch, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method="adpt")
        calls = {"n": 0}
        payloads = storage.TileMatrix.payloads

        def counted(self, data):
            calls["n"] += 1
            return payloads(self, data)

        monkeypatch.setattr(storage.TileMatrix, "payloads", counted)
        x = rng.standard_normal(a.shape[1])
        for _ in range(3):
            engine.update_values(rng.standard_normal(a.nnz))
            engine.spmv(x)
            engine.spmm(rng.standard_normal((a.shape[1], 3)))
            engine.spmv_transpose(rng.standard_normal(a.shape[0]))
            assert engine.tiled.shape == a.shape and engine.tiled.nnz == a.nnz
        assert calls["n"] == 0, "a product rebuilt the payloads"
        engine.validate()  # a payload reader encodes them once
        engine.tiled.run_cost()
        assert calls["n"] == 1

    @pytest.mark.parametrize("reorder", [None, "sell:32"])
    @pytest.mark.parametrize("method", ["csr", "adpt", "deferred_coo", "auto"])
    def test_derived_values_equal_a_fresh_build(self, method, reorder, rng, tmp_path):
        a = power_law(600, avg_degree=6, seed=11).tocsr()
        x = rng.standard_normal(a.shape[1])
        engine = TileSpMV(a, method=method, reorder=reorder)
        for _ in range(3):
            new = rng.standard_normal(a.nnz)
            engine.update_values(new)
        fresh_a = a.copy()
        fresh_a.data = new.copy()
        fresh = TileSpMV(fresh_a, method=method, reorder=reorder)
        assert engine.method == fresh.method
        assert np.array_equal(engine.spmv(x), fresh.spmv(x))
        assert (engine.tiled is None) == (fresh.tiled is None)
        if fresh.tiled is None:
            return
        assert_same_values(engine, fresh)
        engine.validate()
        save_tile_matrix(tmp_path / "tm.npz", engine.tiled, engine.halves()[0].data)
        _, loaded = load_tile_matrix(tmp_path / "tm.npz")
        xt = rng.standard_normal(fresh.tiled.shape[1])
        assert np.array_equal(loaded @ xt, fresh.halves()[0] @ xt)

    def test_updates_keep_no_earlier_generation_alive(self, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method="adpt")
        x = rng.standard_normal(a.shape[1])
        engine.update_values(rng.standard_normal(a.nnz))
        engine.validate()  # read payloads: they must not pin the values
        previous = weakref.ref(engine.operand.data)
        engine.update_values(rng.standard_normal(a.nnz))
        engine.spmv(x)
        gc.collect()
        assert previous() is None, "an earlier value array is still alive"


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


class _Product:
    """Stands in for the operand: ``@`` returns a fixed array."""

    def __init__(self, out):
        self.out = out

    def __matmul__(self, x):
        return self.out


class TestSingleHalfDispatch:
    """Every method multiplies one operand and returns its product."""

    def test_spmv_returns_tiled_output_directly(self, rng, monkeypatch):
        a = random_uniform(180, 180, nnz_per_row=5, seed=3)
        engine = TileSpMV(a, method="adpt")
        assert engine.deferred_engine is None
        sentinel = np.arange(180, dtype=np.float64)
        monkeypatch.setattr(tilespmv_module, "faulted_operand",
                            lambda op: _Product(sentinel))
        assert engine.spmv(np.zeros(180)) is sentinel

    def test_spmm_returns_tiled_output_directly(self, rng, monkeypatch):
        a = random_uniform(180, 180, nnz_per_row=5, seed=4)
        engine = TileSpMV(a, method="adpt")
        sentinel = np.zeros((180, 2))
        monkeypatch.setattr(tilespmv_module, "faulted_operand",
                            lambda op: _Product(sentinel))
        assert engine.spmm(np.zeros((180, 2))) is sentinel

    def test_fully_deferred_split_still_correct(self, rng, monkeypatch):
        # Hypersparse: DeferredCOO extracts everything; the tiled half
        # is empty and the one operand's output is returned as-is.
        a = hypersparse(640, nnz=80, seed=5)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal(640)
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-12, atol=1e-12)
        sentinel = np.zeros(640)
        monkeypatch.setattr(tilespmv_module, "faulted_operand",
                            lambda op: _Product(sentinel))
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
