"""The shard-level recovery ladder: localize → retry → reconstruct →
quarantine → repartition.

The acceptance bar: under a seeded single-shard fault, the recovered
product is ``np.array_equal`` to the fault-free single-device product,
and the per-shard execution counters prove only the faulty shard
re-executed.  The full-engine rebuild happens *only* on the
quarantine + repartition rung.  Campaigns run under three seeds via the
``FAULT_SEED`` environment variable.  The ladder is the same on both
execution backends, so the core localization and quarantine cases run
on each (``-k process`` selects the worker-process half).
"""

import os

import numpy as np
import pytest

from repro import telemetry as tele
from repro.core.tilespmv import TileSpMV
from repro.dist import (
    RecoverableShardedSpMV,
    RecoveryConfig,
    ShardedSpMV,
    ShardFaultPlan,
    ShardRecoveryError,
    shard_fault_injection,
)
from repro.gpu.device import A100
from repro.matrices import fem_blocks, power_law, random_uniform
from repro.serving import BreakerConfig

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))
BACKENDS = pytest.mark.parametrize("backend", ["thread", "process"])


@pytest.fixture()
def matrix():
    return random_uniform(320, 320, nnz_per_row=6, seed=80)


@pytest.fixture()
def reference(matrix):
    return TileSpMV(matrix, method="adpt")


class TestShardChecks:
    """The per-shard checks: each output block's ``AbftChecksum``,
    restricted to a cell's column window."""

    def test_clean_shards_verify(self, matrix, rng):
        eng = RecoverableShardedSpMV(matrix, shards=4)
        x = rng.standard_normal(320)
        for i, e in enumerate(eng.inner.engines):
            y_blk = e.spmv(x)
            assert eng._cell_check(i).verify_sums(x, np.sum(y_blk))
            assert eng._checks[i].verify(x, y_blk)
        eng.close()

    def test_corrupted_block_detected(self, matrix, rng):
        eng = RecoverableShardedSpMV(matrix, shards=4)
        x = rng.standard_normal(320)
        y_blk = eng.inner.engines[1].spmv(x)
        y_blk[3] += 1e4
        assert not eng._cell_check(1).verify_sums(x, np.sum(y_blk))
        eng.close()

    def test_nonfinite_block_detected(self, matrix):
        eng = RecoverableShardedSpMV(matrix, shards=2)
        assert not eng._cell_check(0).verify_sums(np.ones(320), np.nan)
        eng.close()

    def test_grid_checks_use_local_windows(self, rng):
        a = random_uniform(256, 256, nnz_per_row=6, seed=81)
        eng = RecoverableShardedSpMV(a, grid=(2, 2))
        x = rng.standard_normal(256)
        for i, s in enumerate(eng.inner.partition.shards):
            check = eng._cell_check(i)
            assert (check.n, check.nnz, check.m) == (s.block_cols, s.nnz, s.rows)
            y_blk = eng.inner.engines[i].spmv(x[s.col_lo:s.col_hi])
            assert check.verify_sums(x[s.col_lo:s.col_hi], np.sum(y_blk))
            y_blk[0] += 1e4
            assert not check.verify_sums(x[s.col_lo:s.col_hi], np.sum(y_blk))
        eng.close()


class TestFaultFree:
    def test_bit_exact_and_no_ladder_activity(self, matrix, reference, rng):
        x = rng.standard_normal(320)
        xm = rng.standard_normal((320, 5))
        with RecoverableShardedSpMV(matrix, shards=4) as eng:
            assert np.array_equal(eng.spmv(x), reference.spmv(x))
            assert np.array_equal(eng.spmm(xm), reference.spmm(xm))
            assert eng.counters["shard_detected"] == 0
            assert eng.counters["shard_retry"] == 0
            assert eng.counters["verified_ok"] == 2
            assert eng.last_exact

    @pytest.mark.parametrize("grid", [(2, 2), (1, 4), (4, 1)])
    def test_bit_exact_on_grids(self, reference, matrix, rng, grid):
        x = rng.standard_normal(320)
        with RecoverableShardedSpMV(matrix, grid=grid) as eng:
            assert np.array_equal(eng.spmv(x), reference.spmv(x))

    def test_auto_grid_matches_plain_sharded(self, rng):
        # `auto` runs the block operands like every method: the
        # recoverable, the plain sharded and the single-device engine
        # agree byte-for-byte.
        a = power_law(500, avg_degree=5, seed=82)
        x = rng.standard_normal(500)
        ref = TileSpMV(a, method="auto").spmv(x)
        with ShardedSpMV(a, grid=(2, 2), method="auto") as plain:
            assert np.array_equal(plain.spmv(x), ref)
        with RecoverableShardedSpMV(a, grid=(2, 2), method="auto") as eng:
            assert np.array_equal(eng.spmv(x), ref)

    def test_transpose_delegates(self, matrix, reference, rng):
        x = rng.standard_normal(320)
        with RecoverableShardedSpMV(matrix, shards=4) as eng:
            assert np.array_equal(
                eng.spmv_transpose(x), reference.spmv_transpose(x)
            )


@pytest.mark.faults
class TestLocalizedRecovery:
    @BACKENDS
    def test_corruption_retries_only_faulty_shard(self, matrix, reference,
                                                  rng, backend):
        x = rng.standard_normal(320)
        y_ref = reference.spmv(x)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(1,))
        ):
            with RecoverableShardedSpMV(matrix, shards=4,
                                        backend=backend) as eng:
                y = eng.spmv(x)
                # The acceptance criterion: bit-for-bit recovery, and
                # the counters prove only shard 1 re-executed.
                assert np.array_equal(y, y_ref)
                assert eng.shard_exec_counts == [1, 2, 1, 1]
                assert eng.counters["shard_detected"] == 1
                assert eng.counters["shard_retry"] == 1
                assert eng.counters["repartitions"] == 0
                assert eng.last_exact

    @BACKENDS
    def test_device_loss_retries_only_lost_shard(self, matrix, reference,
                                                 rng, backend):
        x = rng.standard_normal(320)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(2,))
        ):
            with RecoverableShardedSpMV(matrix, shards=4,
                                        backend=backend) as eng:
                y = eng.spmv(x)
                assert np.array_equal(y, reference.spmv(x))
                assert eng.shard_exec_counts == [1, 1, 2, 1]
                assert eng.counters["shard_retry"] == 1

    def test_halo_corruption_recovered(self, rng):
        a = random_uniform(256, 256, nnz_per_row=6, seed=83)
        x = rng.standard_normal(256)
        y_ref = TileSpMV(a, method="adpt").spmv(x)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, halo_devices=(0,))
        ):
            with RecoverableShardedSpMV(a, grid=(2, 2)) as eng:
                y = eng.spmv(x)
                assert np.array_equal(y, y_ref)
                # The retry re-runs device 0's whole row block: cells 0, 1.
                assert eng.shard_exec_counts == [2, 2, 1, 1]
                assert eng.counters["shard_detected"] == 1

    @BACKENDS
    def test_spmm_recovery_bit_exact(self, matrix, reference, rng, backend):
        xm = rng.standard_normal((320, 4))
        y_ref = reference.spmm(xm)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(3,))
        ):
            with RecoverableShardedSpMV(matrix, shards=4,
                                        backend=backend) as eng:
                y = eng.spmm(xm)
                assert np.array_equal(y, y_ref)
                assert eng.shard_exec_counts == [1, 1, 1, 2]

    def test_grid_spmm_recovery_bit_exact(self, rng):
        a = fem_blocks(300, block=3, avg_degree=8, seed=84)
        xm = rng.standard_normal((a.shape[1], 3))
        y_ref = TileSpMV(a, method="adpt").spmm(xm)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,))
        ):
            with RecoverableShardedSpMV(a, grid=(2, 2)) as eng:
                y = eng.spmm(xm)
                assert np.array_equal(y, y_ref)
                assert eng.shard_exec_counts == [1, 1, 2, 2]

    def test_straggler_charges_clock_but_stays_exact(self, matrix, reference, rng):
        x = rng.standard_normal(320)
        with shard_fault_injection(
            ShardFaultPlan(
                seed=FAULT_SEED, straggle_devices=(1,), straggler_delay_s=3e-4
            )
        ):
            with RecoverableShardedSpMV(matrix, shards=4) as eng:
                y = eng.spmv(x)
                assert np.array_equal(y, reference.spmv(x))
                assert eng.clock == pytest.approx(3e-4)
                assert eng.counters["shard_retry"] == 0


@pytest.mark.faults
class TestParityReconstruction:
    def test_lost_shard_reconstructed_without_recompute(self, matrix, reference, rng):
        x = rng.standard_normal(320)
        cfg = RecoveryConfig(
            parity=True,
            max_shard_retries=0,  # straight to rung 3: no re-execution
            breaker=BreakerConfig(
                failure_threshold=10, cooldown_seconds=float("inf"),
                probe_successes=1,
            ),
        )
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(2,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(matrix, shards=4, config=cfg) as eng:
                y = eng.spmv(x)
                # The lost shard executed exactly once (the failed
                # attempt) — its contribution came from the parity
                # device, not recompute.
                assert eng.shard_exec_counts == [1, 1, 1, 1]
                assert eng.counters["shard_reconstruct"] == 1
                assert eng.counters["repartitions"] == 0
                assert not eng.last_exact  # roundoff-grade, flagged
                np.testing.assert_allclose(
                    y, reference.spmv(x), rtol=1e-9, atol=1e-9
                )

    def test_parity_spmm(self, matrix, reference, rng):
        xm = rng.standard_normal((320, 3))
        cfg = RecoveryConfig(
            parity=True, max_shard_retries=0,
            breaker=BreakerConfig(
                failure_threshold=10, cooldown_seconds=float("inf"),
                probe_successes=1,
            ),
        )
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(0,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(matrix, shards=4, config=cfg) as eng:
                y = eng.spmm(xm)
                assert eng.counters["shard_reconstruct"] == 1
                np.testing.assert_allclose(
                    y, reference.spmm(xm), rtol=1e-9, atol=1e-9
                )

    @BACKENDS
    def test_parity_reconstructs_lost_grid_block(self, rng, backend):
        # Every grid runs row blocks, so rung 3 covers column cuts too:
        # device 3's block (cells 2, 3) is rebuilt from the parity
        # product, then the device is quarantined for later calls.
        a = random_uniform(256, 256, nnz_per_row=5, seed=85)
        x = rng.standard_normal(256)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(3,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(
                a, grid=(2, 2), config=RecoveryConfig(parity=True),
                backend=backend,
            ) as eng:
                y = eng.spmv(x)
                assert eng.counters["shard_reconstruct"] == 1
                assert not eng.last_exact
                assert eng.quarantined == [3]
                np.testing.assert_allclose(
                    y, TileSpMV(a, method="adpt").spmv(x), rtol=1e-9, atol=1e-9
                )

    def test_parity_priced_in_cost(self, matrix):
        with RecoverableShardedSpMV(
            matrix, shards=4, config=RecoveryConfig(parity=True)
        ) as eng:
            mdc = eng.multi_device_cost()
            assert mdc.parity_cost is not None
            assert mdc.parity_bytes > 0
            plain = ShardedSpMV(matrix, shards=4).multi_device_cost()
            assert mdc.time(A100) >= plain.time(A100)
            assert mdc.total_comm_bytes() > plain.total_comm_bytes()


@pytest.mark.faults
class TestQuarantine:
    @BACKENDS
    def test_persistent_fault_quarantines_and_repartitions(
        self, matrix, reference, rng, backend
    ):
        x = rng.standard_normal(320)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(1,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(matrix, shards=4,
                                        backend=backend) as eng:
                y = eng.spmv(x)
                # The full-engine rebuild happened exactly on this rung.
                assert np.array_equal(y, reference.spmv(x))
                assert eng.counters["device_quarantine"] == 1
                assert eng.counters["repartitions"] == 1
                assert eng.quarantined == [1]
                assert eng.inner.device_ranks == [0, 2, 3]
                assert eng.inner.shards == 3
                assert eng.inner.backend == backend  # P-1 workers on "process"
                assert eng.last_exact  # survivors recompute bit-for-bit

    def test_quarantined_device_stays_out(self, matrix, reference, rng):
        x = rng.standard_normal(320)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(1,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(matrix, shards=4) as eng:
                eng.spmv(x)
                y2 = eng.spmv(x)  # second product: survivors only, clean
                assert np.array_equal(y2, reference.spmv(x))
                assert eng.counters["repartitions"] == 1  # no further rebuilds

    def test_grid_degrades_to_rows_on_repartition(self, rng):
        a = random_uniform(256, 256, nnz_per_row=6, seed=86)
        x = rng.standard_normal(256)
        y_ref = TileSpMV(a, method="adpt").spmv(x)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(3,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(a, grid=(2, 2)) as eng:
                y = eng.spmv(x)
                assert np.array_equal(y, y_ref)
                assert eng.counters["repartitions"] == 1
                assert eng.inner.grid is None  # canonical 1D fallback
                assert eng.inner.shards == 3

    def test_all_devices_lost_raises(self, matrix):
        with shard_fault_injection(
            ShardFaultPlan(
                seed=FAULT_SEED, lose_devices=(0, 1), fault_attempts=None
            )
        ):
            with RecoverableShardedSpMV(matrix, shards=2) as eng:
                with pytest.raises(ShardRecoveryError, match="quarantined"):
                    eng.spmv(np.ones(320))

    def test_rebuild_cost_recorded(self, matrix, rng):
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, lose_devices=(2,), fault_attempts=None)
        ):
            with RecoverableShardedSpMV(matrix, shards=4) as eng:
                eng.spmv(rng.standard_normal(320))
                mdc = eng.multi_device_cost()
                assert mdc.rebuild_cost is not None
                assert mdc.recovery_time(A100) > 0


@pytest.mark.faults
class TestBackoffDeterminism:
    """Satellite: identical seeds → identical retry schedules and bytes."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_identical_schedule_and_bytes_1d(self, shards, rng):
        a = power_law(640, avg_degree=5, seed=87)
        x = rng.standard_normal(640)
        plan = ShardFaultPlan(
            seed=FAULT_SEED, corrupt_devices=(0,), lose_devices=(shards - 1,)
        )
        runs = []
        for _ in range(2):
            with shard_fault_injection(plan):
                with RecoverableShardedSpMV(
                    a, shards=shards,
                    config=RecoveryConfig(backoff_seed=FAULT_SEED),
                ) as eng:
                    y = eng.spmv(x)
                    runs.append((eng.retry_log, y.tobytes(), eng.clock))
        assert runs[0][0] == runs[1][0]  # same devices, delays, reasons
        assert runs[0][1] == runs[1][1]  # recovered y byte-identical
        assert runs[0][2] == runs[1][2]  # same virtual-clock charge
        assert len(runs[0][0]) >= 2  # both faulty shards actually retried

    @pytest.mark.parametrize("grid", [(2, 2), (2, 4)])
    def test_identical_schedule_and_bytes_grid(self, grid, rng):
        a = random_uniform(512, 512, nnz_per_row=6, seed=88)
        x = rng.standard_normal(512)
        plan = ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(1,))
        runs = []
        for _ in range(2):
            with shard_fault_injection(plan):
                with RecoverableShardedSpMV(
                    a, grid=grid, config=RecoveryConfig(backoff_seed=FAULT_SEED),
                ) as eng:
                    y = eng.spmv(x)
                    runs.append((eng.retry_log, y.tobytes()))
        assert runs[0] == runs[1]

    def test_different_backoff_seeds_change_delays(self, matrix, rng):
        x = rng.standard_normal(320)
        delays = []
        for bseed in (0, 1):
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0,))
            ):
                with RecoverableShardedSpMV(
                    matrix, shards=4,
                    config=RecoveryConfig(backoff_seed=bseed),
                ) as eng:
                    eng.spmv(x)
                    delays.append([ev["delay_s"] for ev in eng.retry_log])
        assert delays[0] != delays[1]

    def test_worker_count_does_not_change_schedule(self, rng):
        a = power_law(640, avg_degree=5, seed=89)
        x = rng.standard_normal(640)
        runs = []
        for workers in (1, 4):
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,))
            ):
                with RecoverableShardedSpMV(
                    a, shards=4, max_workers=workers,
                    config=RecoveryConfig(backoff_seed=FAULT_SEED),
                ) as eng:
                    y = eng.spmv(x)
                    runs.append((eng.retry_log, y.tobytes()))
        assert runs[0] == runs[1]


@pytest.mark.faults
class TestDeadline:
    def test_exhausted_deadline_skips_retries_and_escalates(
        self, matrix, reference, rng
    ):
        x = rng.standard_normal(320)
        cfg = RecoveryConfig(deadline_s=1e-12)  # no retry fits the budget
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(1,))
        ):
            with RecoverableShardedSpMV(matrix, shards=4, config=cfg) as eng:
                y = eng.spmv(x)
                assert eng.counters["shard_retry"] == 0
                assert any(
                    ev["reason"] == "deadline_exhausted" for ev in eng.retry_log
                )
                # Escalation path still recovers (quarantine + rebuild).
                assert eng.counters["repartitions"] == 1
                assert np.array_equal(y, reference.spmv(x))

    def test_straggler_delay_counts_against_deadline(self, matrix, rng):
        x = rng.standard_normal(320)
        cfg = RecoveryConfig(deadline_s=1.0)
        with shard_fault_injection(
            ShardFaultPlan(
                seed=FAULT_SEED, straggle_devices=(0,), straggler_delay_s=0.25
            )
        ):
            with RecoverableShardedSpMV(matrix, shards=4, config=cfg) as eng:
                eng.spmv(x)
                assert eng.clock == pytest.approx(0.25)


@pytest.mark.faults
class TestTelemetryAndCosts:
    def test_spans_and_counters(self, matrix, rng):
        x = rng.standard_normal(320)
        with tele.session() as (tracer, registry):
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(1,))
            ):
                with RecoverableShardedSpMV(matrix, shards=4) as eng:
                    eng.spmv(x)
            names = [e.name for e in tracer.events]
            assert "recoverable_spmv" in names
            assert "shard_retry" in names
            assert registry.value("shard_retries_total") == 1.0
            assert (
                registry.value("shard_faults_injected_total", kind="partial")
                == 1.0
            )
            assert (
                registry.value("shard_detections_total", reason="abft") == 1.0
            )

    def test_quarantine_span_and_counter(self, matrix, rng):
        x = rng.standard_normal(320)
        with tele.session() as (tracer, registry):
            with shard_fault_injection(
                ShardFaultPlan(
                    seed=FAULT_SEED, lose_devices=(1,), fault_attempts=None
                )
            ):
                with RecoverableShardedSpMV(matrix, shards=4) as eng:
                    eng.spmv(x)
            names = [e.name for e in tracer.events]
            assert "device_quarantine" in names
            assert registry.value("device_quarantines_total") == 1.0

    def test_fault_free_cost_equals_plain_sharded(self, matrix):
        with RecoverableShardedSpMV(matrix, shards=4) as eng:
            with ShardedSpMV(matrix, shards=4) as plain:
                assert eng.multi_device_cost().time(A100) == pytest.approx(
                    plain.multi_device_cost().time(A100)
                )
                assert eng.multi_device_cost().total_comm_bytes() == (
                    plain.multi_device_cost().total_comm_bytes()
                )

    def test_retry_terms_appear_after_recovery(self, matrix, rng):
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0,))
        ):
            with RecoverableShardedSpMV(matrix, shards=4) as eng:
                eng.spmv(rng.standard_normal(320))
                mdc = eng.multi_device_cost()
                assert mdc.retry_backoff_s > 0
                assert mdc.retry_costs and len(mdc.retry_costs) == 1
                b = mdc.breakdown(A100)
                assert b["retries"] == 1
                assert b["recovery_s"] > 0
                plain = ShardedSpMV(matrix, shards=4).multi_device_cost()
                assert mdc.time(A100) > plain.time(A100)


class TestLifecycleAndUpdate:
    def test_update_values_rearms_checks(self, matrix, rng):
        x = rng.standard_normal(320)
        with RecoverableShardedSpMV(matrix, shards=4) as eng:
            scaled = matrix.copy()
            scaled.data = scaled.data * 2.0
            eng.update_values(scaled)
            ref = TileSpMV(scaled, method="adpt").spmv(x)
            assert np.array_equal(eng.spmv(x), ref)
            assert eng.counters["shard_detected"] == 0  # checks follow values

    def test_describe_and_plan_keys(self, matrix):
        from repro.core.plancache import PlanCache

        cache = PlanCache()
        with RecoverableShardedSpMV(
            matrix, shards=4, plan_cache=cache,
            config=RecoveryConfig(parity=True),
        ) as eng:
            assert "recovery:" in eng.describe()
            assert len(eng.plan_keys) == 5  # 4 shards + parity
            assert eng.plan_key is not None

    def test_context_manager_closes(self, matrix):
        eng = RecoverableShardedSpMV(matrix, shards=2)
        with eng:
            pass
        assert eng.inner._executor is None


@pytest.mark.faults
class TestIntegration:
    def test_reliable_spmv_contains_fault_below_engine_ladder(self, rng):
        from repro.reliability.reliable import ReliableSpMV

        a = random_uniform(300, 300, nnz_per_row=6, seed=90)
        x = rng.standard_normal(300)
        ref = TileSpMV(a, method="adpt").spmv(x)
        wrapper = ReliableSpMV(a, shards=4, recovery=True)
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,))
        ):
            y = wrapper.spmv(x)
        assert np.array_equal(y, ref)
        # Contained below: the engine-level ABFT never saw a detection.
        assert wrapper.counters["detected"] == 0
        assert wrapper.shard_recovery_counters["shard_retry"] == 1

    def test_reliable_spmv_without_recovery_detects_at_top(self, rng):
        from repro.reliability.reliable import ReliableSpMV

        a = random_uniform(300, 300, nnz_per_row=6, seed=90)
        x = rng.standard_normal(300)
        wrapper = ReliableSpMV(a, shards=4)  # recovery off: legacy ladder
        with shard_fault_injection(
            ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,))
        ):
            y = wrapper.spmv(x)
        assert wrapper.counters["detected"] >= 1
        assert wrapper.shard_recovery_counters is None
        np.testing.assert_allclose(
            y, TileSpMV(a, method="adpt").spmv(x), rtol=1e-10, atol=1e-12
        )

    def test_serving_runtime_registers_recoverable_engine(self):
        from repro.serving import RuntimeConfig, ServingRuntime
        from repro.serving.trace import Request

        a = random_uniform(200, 200, nnz_per_row=5, seed=91)
        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        rt.register("m", a, shards=2, recovery=True)
        out = rt.submit(Request(rid=0, arrival=0.0, matrix_id="m"))
        assert out.status == "served"
        sm = rt._served("m")
        assert sm.engine.shard_recovery_counters is not None
