"""Lifecycle teardown across the stack: every layer closes its engine.

The process backend made teardown load-bearing — a leaked engine is a
leaked worker process and a leaked ``/dev/shm`` segment — so the
``close()`` chain is tested at every layer that owns an engine:
``ShardedSpMV`` (pool), ``ReliableSpMV`` (wrapper + rebuild), and
``ServingRuntime`` (fleet).
"""

import numpy as np
import pytest

from repro.dist import ShardedSpMV
from repro.dist.procpool import scan_owned_segments
from repro.matrices import fem_blocks, random_uniform
from repro.reliability import FaultPlan, fault_injection
from repro.reliability.reliable import ReliableSpMV
from repro.serving import RuntimeConfig, ServingRuntime


def _matrix():
    return fem_blocks(60, block=3, avg_degree=8, seed=5)


class TestShardedClose:
    def test_close_shuts_executor(self):
        eng = ShardedSpMV(_matrix(), shards=2)
        eng.spmv(np.ones(eng.shape[1]))
        assert eng._executor is not None
        eng.close()
        assert eng._executor is None
        eng.close()  # idempotent

    def test_context_manager(self):
        with ShardedSpMV(_matrix(), shards=2) as eng:
            eng.spmv(np.ones(eng.shape[1]))
        assert eng._executor is None


class TestReliableClose:
    def test_close_reaches_sharded_engine(self):
        r = ReliableSpMV(_matrix(), shards=2)
        r.spmv(np.ones(r.shape[1]))
        assert r.engine._executor is not None
        r.close()
        assert r.engine._executor is None

    def test_context_manager(self):
        with ReliableSpMV(_matrix(), shards=2) as r:
            r.spmv(np.ones(r.shape[1]))
        assert r.engine._executor is None

    def test_close_noop_on_plain_engine(self):
        r = ReliableSpMV(_matrix())
        r.spmv(np.ones(r.shape[1]))
        r.close()  # TileSpMV holds nothing releasable

    def test_rebuild_closes_old_engine(self):
        r = ReliableSpMV(_matrix(), shards=2)
        r.spmv(np.ones(r.shape[1]))
        old = r.engine
        r._rebuild_engine()
        assert r.engine is not old
        assert old._executor is None

    def test_rebuild_closes_process_engine_segments(self):
        r = ReliableSpMV(_matrix(), shards=2, backend="process")
        r.spmv(np.ones(r.shape[1]))
        old = r.engine
        before = scan_owned_segments()
        assert before != []
        r._rebuild_engine()
        assert r.engine is not old
        # The old engine's segments are gone, the new engine's exist.
        after = scan_owned_segments()
        assert not (set(before) & set(after))
        r.close()
        assert scan_owned_segments() == []

    def test_detection_retry_does_not_leak(self):
        # A fault-triggered rebuild mid-flight closes the old engine.
        # The campaign faults each device's first execution (attempt 0),
        # so it is armed before the engine runs anything.
        r = ReliableSpMV(_matrix(), shards=2, backend="process")
        x = np.ones(r.shape[1])
        with fault_injection(FaultPlan(seed=7)):
            y = r.spmv(x)
        assert r.counters["retries"] >= 1
        assert np.allclose(y, r.spmv(x), rtol=1e-10, atol=1e-12)
        r.close()
        assert scan_owned_segments() == []


class TestServingClose:
    def _runtime(self):
        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        rt.register("a", _matrix(), shards=2)
        rt.register("b", random_uniform(80, 80, nnz_per_row=4, seed=2))
        return rt

    def test_close_reaches_every_engine(self):
        rt = self._runtime()
        engines = [sm.engine for sm in rt._matrices.values()]
        rt.close()
        for e in engines:
            inner = getattr(e, "engine", None)
            if inner is not None and hasattr(inner, "_executor"):
                assert inner._executor is None

    def test_context_manager(self):
        with self._runtime() as rt:
            assert rt._matrices
        for sm in rt._matrices.values():
            inner = getattr(sm.engine, "engine", None)
            if inner is not None and hasattr(inner, "_executor"):
                assert inner._executor is None

    def test_close_keeps_matrices_queryable(self):
        rt = self._runtime()
        rt.close()
        assert set(rt._matrices) == {"a", "b"}

    def test_process_backend_fleet_closes_segments(self):
        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        rt.register("p", _matrix(), shards=2, backend="process")
        assert scan_owned_segments() != []
        rt.close()
        assert scan_owned_segments() == []
