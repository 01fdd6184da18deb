"""Process-pool backend: wire format, exactness, supervision, janitor.

The exactness contract is the same one the thread backend carries —
bit-for-bit equality with the single-device product for fixed methods —
now across a process boundary: plans ship once over the npz wire
format, payloads move through ``multiprocessing.shared_memory``, and
crashed/hung workers are respawned and their shard reported lost, so
the recovery ladder retries only that shard.  Campaign-grade tests run
under ``FAULT_SEED`` (same convention as ``tests/dist/test_faults.py``).
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import telemetry as tele
from repro.core.serialize import pack_shard_plan, unpack_shard_plan
from repro.core.tilespmv import TileSpMV
from repro.dist import (
    DeviceLostError,
    ProcessConfig,
    ProcessShardedSpMV,
    RecoverableShardedSpMV,
    ShardedSpMV,
    ShardFaultPlan,
    shard_fault_injection,
    sweep_orphans,
)
from repro.dist.procpool import _SHM_PREFIX, force_unlink, scan_owned_segments
from repro.matrices import fem_blocks, power_law, random_uniform
from repro.reliability.reliable import ReliableSpMV

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def _matrix():
    return fem_blocks(80, block=3, avg_degree=8, seed=5)


# -- wire format -----------------------------------------------------------


class TestWireFormat:
    def test_round_trip_preserves_plan(self):
        a = random_uniform(120, 90, nnz_per_row=5, seed=3)
        blob = pack_shard_plan(a)
        assert isinstance(blob, bytes)
        block = unpack_shard_plan(blob)
        assert block.shape == a.shape
        assert (block != a).nnz == 0

    def test_rebuilt_engine_matches_original(self):
        # The worker multiplies the unpacked operand itself: bit for bit
        # the parent's plan.
        a = _matrix()
        block = unpack_shard_plan(pack_shard_plan(TileSpMV(a).operand))
        x = np.linspace(-1.0, 2.0, a.shape[1])
        y0 = TileSpMV(a, method="adpt").spmv(x)
        assert y0.tobytes() == (block @ x).tobytes()

    def test_unknown_version_rejected(self):
        blob = pack_shard_plan(_matrix())
        import io
        import zipfile

        # Surgically bump the version entry inside the npz container.
        src = zipfile.ZipFile(io.BytesIO(blob))
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as dst:
            for name in src.namelist():
                data = src.read(name)
                if name.startswith("wire.version"):
                    import numpy as _np

                    buf = io.BytesIO()
                    _np.save(buf, _np.int64(999))
                    data = buf.getvalue()
                dst.writestr(name, data)
        with pytest.raises(ValueError, match="wire version"):
            unpack_shard_plan(out.getvalue())


# -- dispatch and guards ---------------------------------------------------


class TestDispatch:
    def test_backend_process_dispatches_subclass(self):
        with ShardedSpMV(_matrix(), shards=2, backend="process") as eng:
            assert isinstance(eng, ProcessShardedSpMV)
            assert eng.backend == "process"

    def test_backend_thread_stays_base(self):
        with ShardedSpMV(_matrix(), shards=2) as eng:
            assert not isinstance(eng, ProcessShardedSpMV)
            assert eng.backend == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ShardedSpMV(_matrix(), shards=2, backend="mpi")

    def test_reliable_accepts_recovery_plus_process(self):
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        with ReliableSpMV(a, shards=2, recovery=True, backend="process") as r:
            assert isinstance(r.engine, RecoverableShardedSpMV)
            assert isinstance(r.engine.inner, ProcessShardedSpMV)
            assert r.spmv(x).tobytes() == TileSpMV(a).spmv(x).tobytes()

    def test_serving_registers_recovery_plus_process(self):
        from repro.serving import RuntimeConfig, ServingRuntime
        from repro.serving.trace import Request

        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        try:
            rt.register("m", _matrix(), shards=2, recovery=True,
                        backend="process")
            out = rt.submit(Request(rid=0, arrival=0.0, matrix_id="m"))
            assert out.status == "served"
            engine = rt._served("m").engine.engine
            assert isinstance(engine.inner, ProcessShardedSpMV)
        finally:
            rt.close()

    def test_reliable_process_engine(self):
        with ReliableSpMV(_matrix(), shards=2, backend="process") as r:
            assert isinstance(r.engine, ProcessShardedSpMV)


# -- exactness -------------------------------------------------------------


class TestBitForBit:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_spmv_matches_single_device(self, shards):
        a = _matrix()
        x = np.linspace(-1.0, 1.5, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=shards, method="adpt",
                         backend="process") as eng:
            assert eng.spmv(x).tobytes() == ref.tobytes()
            assert scan_owned_segments() != [] or shards == 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_spmv_transpose_matches(self, shards):
        a = _matrix()
        x = np.linspace(0.5, 2.0, a.shape[0])
        ref = TileSpMV(a, method="adpt").spmv_transpose(x)
        with ShardedSpMV(a, shards=shards, method="adpt",
                         backend="process") as eng:
            assert eng.spmv_transpose(x).tobytes() == ref.tobytes()

    def test_spmm_matches(self):
        a = _matrix()
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((a.shape[1], 3))
        ref = TileSpMV(a, method="adpt").spmm(xs)
        with ShardedSpMV(a, shards=2, method="adpt",
                         backend="process") as eng:
            assert eng.spmm(xs).tobytes() == ref.tobytes()

    def test_grid_partition_matches(self):
        a = power_law(300, avg_degree=5, seed=6)
        x = np.linspace(-2.0, 2.0, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=4, grid=(2, 2), method="adpt",
                         backend="process") as eng:
            assert eng.spmv(x).tobytes() == ref.tobytes()
            xt = np.linspace(0.0, 1.0, a.shape[0])
            reft = TileSpMV(a, method="adpt").spmv_transpose(xt)
            assert eng.spmv_transpose(xt).tobytes() == reft.tobytes()

    def test_auto_matches_thread_backend_bytes(self):
        # `auto` is bit-for-bit the single device on both backends.
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        ref = TileSpMV(a, method="auto").spmv(x)
        with ShardedSpMV(a, shards=2, method="auto") as thread_eng:
            assert thread_eng.spmv(x).tobytes() == ref.tobytes()
        with ShardedSpMV(a, shards=2, method="auto",
                         backend="process") as eng:
            assert eng.spmv(x).tobytes() == ref.tobytes()

    def test_update_values_exact(self):
        a = _matrix()
        x = np.linspace(0.0, 1.0, a.shape[1])
        rng = np.random.default_rng(7)
        new_vals = rng.uniform(0.5, 1.5, a.nnz)
        b = a.copy()
        b.data[:] = new_vals
        ref = TileSpMV(b, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=2, method="adpt",
                         backend="process") as eng:
            eng.update_values(new_vals)
            assert eng.spmv(x).tobytes() == ref.tobytes()

    def test_matmul_operator(self):
        a = _matrix()
        x = np.ones(a.shape[1])
        with ShardedSpMV(a, shards=2, method="adpt",
                         backend="process") as eng:
            assert np.array_equal(eng @ x, eng.spmv(x))


# -- supervision campaigns -------------------------------------------------


@pytest.mark.faults
class TestWorkerKill:
    def test_kill_respawns_and_replays_only_lost_shard(self):
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        with RecoverableShardedSpMV(a, shards=4, method="adpt",
                                    backend="process") as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, kill_workers=(1,))
            ) as inj:
                y = eng.spmv(x)
            st = eng.inner.supervisor.stats()
            assert inj.injected == 1
            assert st["crashes"] == 1
            assert st["respawns"] == 1
            assert eng.counters["shard_retry"] == 1
            assert eng.retry_log[0]["reason"] == "device_loss"
            # Only the killed shard ran twice; the others ran once.
            counts = list(eng.shard_exec_counts)
            assert counts[1] == 2
            assert counts[:1] + counts[2:] == [1, 1, 1]
            assert y.tobytes() == ref.tobytes()
            assert st["healthy"] == 4

    def test_kill_campaign_result_deterministic(self):
        a = _matrix()
        x = np.linspace(0.0, 2.0, a.shape[1])
        outs = []
        for _ in range(2):
            with RecoverableShardedSpMV(a, shards=2, method="adpt",
                                        backend="process") as eng:
                with shard_fault_injection(
                    ShardFaultPlan(seed=FAULT_SEED, worker_kill_prob=0.6)
                ):
                    outs.append((eng.spmv(x).tobytes(), eng.retry_log))
        assert outs[0] == outs[1]

    def test_backoff_charged_to_virtual_clock(self):
        a = _matrix()
        x = np.ones(a.shape[1])
        with RecoverableShardedSpMV(a, shards=2, method="adpt",
                                    backend="process") as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, kill_workers=(0,))
            ):
                eng.spmv(x)
            assert eng.clock > 0.0
            entry = eng.retry_log[0]
            assert entry["delay_s"] > 0.0
            assert entry["shard"] == 0

    def test_plain_engine_raises_then_runs_on_respawned_worker(self):
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=2, method="adpt",
                         backend="process") as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, kill_workers=(1,))
            ):
                with pytest.raises(DeviceLostError) as exc:
                    eng.spmv(x)
            assert exc.value.device == 1
            assert eng.supervisor.stats()["respawns"] == 1
            assert eng.spmv(x).tobytes() == ref.tobytes()


@pytest.mark.faults
class TestWorkerHang:
    def test_hang_detected_as_deadline_miss(self):
        a = _matrix()
        x = np.linspace(-0.5, 0.5, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        cfg = ProcessConfig(op_timeout_s=0.25)
        with RecoverableShardedSpMV(a, shards=2, method="adpt",
                                    backend="process",
                                    process_config=cfg) as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, hang_workers=(0,),
                               hang_seconds=5.0)
            ):
                y = eng.spmv(x)
            st = eng.inner.supervisor.stats()
            assert st["hangs"] == 1
            assert st["respawns"] == 1
            assert eng.shard_exec_counts == [2, 1]
            assert eng.clock > 0.0
            assert y.tobytes() == ref.tobytes()

    def test_heartbeat_flags_hung_worker(self):
        a = _matrix()
        cfg = ProcessConfig(heartbeat_timeout_s=5.0)
        with ProcessShardedSpMV(a, shards=2, method="adpt",
                                process_config=cfg) as eng:
            alive = eng.supervisor.heartbeat()
            assert alive == {0: True, 1: True}
            st = eng.supervisor.stats()
            # One startup probe per worker plus the explicit round.
            assert st["heartbeats"] == 4


@pytest.mark.faults
class TestSegmentCorruption:
    def test_corrupted_segment_caught_by_abft(self):
        # A worker's corrupted result is exactly what the engine-level
        # ABFT ladder exists for: detect, retry (clean on attempt 1).
        a = _matrix()
        x = np.linspace(0.0, 1.0, a.shape[1])
        ref = np.asarray(a @ x)
        with ReliableSpMV(a, shards=2, backend="process") as r:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0,))
            ):
                y = r.spmv(x)
            assert r.counters["detected"] >= 1
            assert np.allclose(y, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.faults
class TestWorkerFaultBookkeeping:
    @pytest.mark.parametrize("target", ["corrupt_devices", "halo_devices"])
    def test_parent_records_worker_faults(self, target):
        # The worker applies partial and halo corruption with its own
        # injector copy; the parent must count them as the thread
        # backend does, and the corrupted bytes must agree.
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        plan = ShardFaultPlan(seed=FAULT_SEED, **{target: (0,)})
        seen = {}
        for backend in ("thread", "process"):
            with ShardedSpMV(a, shards=2, backend=backend) as eng:
                with shard_fault_injection(plan) as inj:
                    y = eng.spmv(x)
            seen[backend] = (inj.injected, dict(inj.by_kind), y.tobytes())
        kind = "partial" if target == "corrupt_devices" else "halo"
        assert seen["thread"][:2] == (1, {kind: 1})
        assert seen["process"] == seen["thread"]


@pytest.mark.faults
class TestQuarantine:
    def test_persistent_kill_quarantines_and_repartitions(self):
        a = _matrix()
        x = np.linspace(-1.0, 1.0, a.shape[1])
        ref = TileSpMV(a, method="adpt").spmv(x)
        with RecoverableShardedSpMV(a, shards=3, method="adpt",
                                    backend="process") as eng:
            plan = ShardFaultPlan(
                seed=FAULT_SEED, kill_workers=(1,), fault_attempts=None
            )
            with shard_fault_injection(plan):
                y = eng.spmv(x)
            assert y.tobytes() == ref.tobytes()
            assert eng.quarantined == [1]
            assert eng.counters["repartitions"] == 1
            # The survivors run in two fresh worker processes; the old
            # pool's segments are gone (one x + one output per worker).
            assert isinstance(eng.inner, ProcessShardedSpMV)
            assert eng.inner.device_ranks == [0, 2]
            assert eng.inner.supervisor.stats()["healthy"] == 2
            assert len(scan_owned_segments()) == 3
            assert eng.spmv(x).tobytes() == ref.tobytes()
        assert scan_owned_segments() == []


# -- lifecycle and the shm janitor -----------------------------------------


class TestJanitor:
    def test_close_releases_all_segments(self):
        eng = ShardedSpMV(_matrix(), shards=2, backend="process")
        assert scan_owned_segments() != []
        eng.close()
        assert scan_owned_segments() == []

    def test_close_idempotent(self):
        eng = ShardedSpMV(_matrix(), shards=2, backend="process")
        eng.close()
        eng.close()
        assert scan_owned_segments() == []

    def test_context_manager_cleans_up(self):
        with ShardedSpMV(_matrix(), shards=2, backend="process") as eng:
            eng.spmv(np.ones(eng.shape[1]))
        assert scan_owned_segments() == []

    def test_atexit_cleans_on_normal_interpreter_exit(self, tmp_path):
        code = textwrap.dedent("""
            import numpy as np
            from repro.dist import ShardedSpMV
            from repro.matrices import fem_blocks
            a = fem_blocks(40, block=3, seed=5)
            eng = ShardedSpMV(a, shards=2, backend="process")
            eng.spmv(np.ones(a.shape[1]))
            print("PID", __import__("os").getpid())
            # no close(): the atexit janitor must sweep
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.split()[-1])
        assert scan_owned_segments(pid) == []

    def test_hard_kill_leaves_orphan_then_sweep_reclaims(self, tmp_path):
        code = textwrap.dedent("""
            import os
            import numpy as np
            from repro.dist import ShardedSpMV
            from repro.matrices import fem_blocks
            a = fem_blocks(40, block=3, seed=5)
            eng = ShardedSpMV(a, shards=2, backend="process")
            eng.spmv(np.ones(a.shape[1]))
            print(os.getpid(), flush=True)
            # Kill the workers so they don't hold our stdout pipe open
            # (they own no segments), then die without running atexit:
            # the parent's segments are orphaned.
            for w in eng.supervisor.workers:
                w.proc.kill()
            os._exit(0)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"}, cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.split()[0])
        orphans = scan_owned_segments(pid)
        assert orphans != []  # the leak sweep_orphans exists for
        removed = sweep_orphans()
        assert set(orphans) <= set(removed)
        assert scan_owned_segments(pid) == []

    def test_sweep_ignores_live_owners(self):
        with ShardedSpMV(_matrix(), shards=2, backend="process"):
            before = scan_owned_segments()
            assert before != []
            removed = sweep_orphans()
            assert not (set(before) & set(removed))
            assert scan_owned_segments() == before

    def test_sweep_reclaims_fake_dead_pid(self):
        from multiprocessing import shared_memory

        # A segment named for a pid that cannot be alive.
        name = f"{_SHM_PREFIX}999999999_0_dead"
        seg = shared_memory.SharedMemory(name=name, create=True, size=64)
        seg.close()
        try:
            removed = sweep_orphans()
            assert name in removed
            assert name not in os.listdir("/dev/shm")
        finally:
            force_unlink(name)


# -- cost model ------------------------------------------------------------


class TestCostModel:
    def test_process_cost_has_spawn_and_shm_terms(self):
        from repro.gpu import A100

        a = _matrix()
        with ShardedSpMV(a, shards=2, method="adpt",
                         backend="process") as eng:
            eng.spmv(np.ones(a.shape[1]))
            cost = eng.multi_device_cost()
            assert cost.spawn_s > 0.0
            assert cost.shm_bytes > 0.0
            assert cost.shm_gbps > 0.0
            assert cost.shm_time() > 0.0
            assert cost.label.endswith("@process")
            bd = cost.breakdown(A100)
            assert bd["spawn_s"] == cost.spawn_s
            assert bd["shm_s"] == cost.shm_time()
            # The process terms strictly increase the modelled time.
            thread_cost = super(ProcessShardedSpMV, eng).multi_device_cost()
            assert cost.time(A100) > thread_cost.time(A100)

    def test_thread_cost_unchanged_by_new_fields(self):
        from repro.gpu import A100

        a = _matrix()
        with ShardedSpMV(a, shards=2, method="adpt") as eng:
            cost = eng.multi_device_cost()
            assert cost.spawn_s == 0.0
            assert cost.shm_bytes == 0.0
            assert cost.shm_time() == 0.0
            assert "spawn_s" in cost.breakdown(A100)

    def test_negative_terms_rejected(self):
        from repro.gpu.costmodel import MultiDeviceRunCost

        with pytest.raises(ValueError):
            MultiDeviceRunCost(shard_costs=[], halo_bytes=[], y_bytes=[],
                               spawn_s=-1.0)
        with pytest.raises(ValueError):
            MultiDeviceRunCost(shard_costs=[], halo_bytes=[], y_bytes=[],
                               shm_bytes=-8.0)


# -- telemetry -------------------------------------------------------------


class TestTelemetry:
    def test_spawn_and_shm_counters(self):
        a = _matrix()
        with tele.session() as (tracer, registry):
            with ShardedSpMV(a, shards=2, method="adpt",
                             backend="process") as eng:
                eng.spmv(np.ones(a.shape[1]))
            names = [e.name for e in tracer.events]
            assert names.count("worker_spawn") == 2
            counters = registry.snapshot()["counters"]
            assert any(k.startswith("worker_spawn_total") for k in counters)
            assert any(k.startswith("shm_bytes_total") for k in counters)

    @pytest.mark.faults
    def test_respawn_span_emitted_on_kill(self):
        a = _matrix()
        with tele.session() as (tracer, _):
            with ShardedSpMV(a, shards=2, method="adpt",
                             backend="process") as eng:
                with shard_fault_injection(
                    ShardFaultPlan(seed=FAULT_SEED, kill_workers=(0,))
                ):
                    with pytest.raises(DeviceLostError):
                        eng.spmv(np.ones(a.shape[1]))
            names = [e.name for e in tracer.events]
            assert "worker_respawn" in names
