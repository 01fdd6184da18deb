"""Shard-level fault model: determinism, targeting, hooks, concurrency.

Campaign-grade tests run under three seeds via ``FAULT_SEED`` (same
convention as ``tests/test_reliability.py``).  The load-bearing property
throughout: every fault decision is a pure function of
``(seed, kind, device, attempt)``, so campaigns are byte-identical at
any worker count — which is what lets :class:`ShardedSpMV` keep the
real concurrent path while a shard campaign is armed.
"""

import os

import numpy as np
import pytest

from repro.core.tilespmv import TileSpMV
from repro.dist import (
    DeviceLostError,
    ShardedSpMV,
    ShardFaultInjector,
    ShardFaultPlan,
    shard_fault_injection,
)
from repro.dist import faults as shard_faults
from repro.matrices import power_law, random_uniform

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


class TestDecisionDeterminism:
    def test_same_key_same_decision(self):
        a = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corruption_prob=0.5))
        b = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corruption_prob=0.5))
        for dev in range(8):
            for att in range(4):
                assert a._fires("partial", dev, att, (), 0.5) == b._fires(
                    "partial", dev, att, (), 0.5
                )

    def test_decisions_independent_of_query_order(self):
        # Reversed query order must not change any outcome — there is
        # no consumed stream, unlike the GPU-substrate injector.
        plan = ShardFaultPlan(seed=FAULT_SEED + 1, device_loss_prob=0.4)
        keys = [(d, t) for d in range(6) for t in range(3)]
        inj = ShardFaultInjector(plan)
        forward = {k: inj._fires("loss", *k, (), 0.4) for k in keys}
        inj2 = ShardFaultInjector(plan)
        backward = {k: inj2._fires("loss", *k, (), 0.4) for k in reversed(keys)}
        assert forward == backward

    def test_different_seeds_differ_somewhere(self):
        a = ShardFaultInjector(ShardFaultPlan(seed=0))
        b = ShardFaultInjector(ShardFaultPlan(seed=1))
        draws_a = [a._rng("partial", d, 0).random() for d in range(16)]
        draws_b = [b._rng("partial", d, 0).random() for d in range(16)]
        assert draws_a != draws_b

    def test_corruption_is_reproducible_bytes(self):
        vals = np.linspace(-2.0, 3.0, 50)
        a = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,)))
        b = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(2,)))
        out_a = a.corrupt_partial(2, 0, vals)
        out_b = b.corrupt_partial(2, 0, vals)
        assert out_a.tobytes() == out_b.tobytes()


class TestTargetingAndAttempts:
    def test_targeted_device_always_fires(self):
        inj = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, lose_devices=(3,)))
        with pytest.raises(DeviceLostError) as exc:
            inj.raise_if_lost(3, 0)
        assert exc.value.device == 3 and exc.value.attempt == 0
        inj.raise_if_lost(0, 0)  # untargeted rank: clean

    def test_transient_window_clears_after_fault_attempts(self):
        inj = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, lose_devices=(1,)))
        with pytest.raises(DeviceLostError):
            inj.raise_if_lost(1, 0)
        inj.raise_if_lost(1, 1)  # attempt 1 is outside the default window

    def test_persistent_faults_hit_every_attempt(self):
        plan = ShardFaultPlan(seed=FAULT_SEED, lose_devices=(1,), fault_attempts=None)
        inj = ShardFaultInjector(plan)
        for attempt in range(5):
            with pytest.raises(DeviceLostError):
                inj.raise_if_lost(1, attempt)

    def test_corruption_magnitude_is_detectable(self):
        vals = np.full(40, 1e-9)
        inj = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0,)))
        out = inj.corrupt_partial(0, 0, vals)
        assert np.max(np.abs(out - vals)) >= inj.plan.min_magnitude
        assert vals[0] == 1e-9  # input never mutated

    def test_corrupt_partial_2d(self):
        vals = np.ones((6, 4))
        inj = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0,)))
        a = inj.corrupt_partial(0, 0, vals)
        assert a.shape == (6, 4)
        assert not np.array_equal(a, vals)
        assert np.array_equal(inj.corrupt_partial(0, 0, vals), a)  # a pure function

    def test_straggler_delay_and_stats(self):
        plan = ShardFaultPlan(
            seed=FAULT_SEED, straggle_devices=(2,), straggler_delay_s=1e-3
        )
        inj = ShardFaultInjector(plan)
        assert inj.straggler_delay(2, 0) == 1e-3
        assert inj.straggler_delay(0, 0) == 0.0
        assert inj.stats() == {"injected": 1, "by_kind": {"straggler": 1}}

    def test_empty_window_is_noop(self):
        inj = ShardFaultInjector(ShardFaultPlan(seed=FAULT_SEED, halo_devices=(0,)))
        out = inj.corrupt_halo(0, 0, np.zeros(0))
        assert out.size == 0 and inj.injected == 0


class TestContextManager:
    def test_arming_and_disarming(self):
        assert shard_faults.active_injector() is None
        with shard_fault_injection(ShardFaultPlan(seed=FAULT_SEED)) as inj:
            assert shard_faults.active_injector() is inj
        assert shard_faults.active_injector() is None

    def test_nesting_rejected(self):
        with shard_fault_injection(ShardFaultPlan(seed=FAULT_SEED)):
            with pytest.raises(RuntimeError, match="already active"):
                with shard_fault_injection(ShardFaultPlan(seed=FAULT_SEED + 1)):
                    pass

    def test_disarmed_on_exception(self):
        with pytest.raises(ValueError):
            with shard_fault_injection(ShardFaultPlan(seed=FAULT_SEED)):
                raise ValueError("boom")
        assert shard_faults.active_injector() is None


@pytest.mark.faults
class TestEngineIntegration:
    """The engine's hooks fire, and the concurrent path stays concurrent."""

    def test_shard_campaign_does_not_force_sequential(self):
        # Only telemetry forces the sequential loop; a shard campaign
        # runs on the real thread pool.
        a = power_law(400, avg_degree=5, seed=31)
        with ShardedSpMV(a, shards=4) as eng:
            assert not eng._sequential()
            with shard_fault_injection(ShardFaultPlan(seed=FAULT_SEED)):
                assert not eng._sequential()

    def test_gpu_campaign_is_schedule_independent(self, rng):
        # One GPU-substrate campaign, three schedules: a sequential loop,
        # the thread pool and the worker processes.  Every fault is a
        # pure function of (seed, kind, device rank, attempt), so the
        # answers, the injector's counters and the ladder's counters
        # are byte-identical, and the concurrent paths stay concurrent.
        from repro.reliability import FaultPlan, ReliableSpMV, fault_injection

        a = power_law(400, avg_degree=5, seed=31)
        x = rng.standard_normal(400)
        xs = rng.standard_normal((400, 3))
        schedules = {
            "sequential": dict(max_workers=1),
            "threads": {},
            "process": dict(backend="process"),
        }
        round_trips = 0
        for grid in (None, (2, 2)):
            runs = {}
            for name, kw in schedules.items():
                with ReliableSpMV(a, shards=4, grid=grid, **kw) as r:
                    with fault_injection(FaultPlan(seed=FAULT_SEED)) as inj:
                        if name == "threads":
                            assert not r.engine._sequential()
                        ys = [r.spmv(x), r.spmv(x), r.spmm(xs)]
                    if name == "process":
                        round_trips += r.engine.supervisor.counters["round_trips"]
                    runs[name] = (b"".join(y.tobytes() for y in ys),
                                  inj.stats(), dict(r.counters))
            assert inj.stats()["injected"] > 0
            assert runs["threads"] == runs["sequential"] == runs["process"], grid
        # The (2, 2) grid is column-cut: its products multiply the
        # parent's block operands, so only the 1D engine reaches workers.
        assert round_trips > 0

    def test_device_loss_raises_from_plain_engine(self):
        a = random_uniform(200, 200, nnz_per_row=5, seed=32)
        x = np.ones(200)
        with ShardedSpMV(a, shards=4) as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, lose_devices=(2,))
            ):
                with pytest.raises(DeviceLostError):
                    eng.spmv(x)

    def test_corrupted_partial_changes_output_once(self):
        # Attempt 0 is corrupted; the same engine's second product is
        # clean (transient window) and bit-equal to the reference.
        a = random_uniform(240, 240, nnz_per_row=6, seed=33)
        x = np.ones(240)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, shards=4) as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(1,))
            ) as inj:
                y_bad = eng.spmv(x)
                y_clean = eng.spmv(x)
            assert inj.injected >= 1
            assert not np.array_equal(y_bad, ref)
            assert np.array_equal(y_clean, ref)

    def test_campaign_identical_bytes_across_worker_counts(self):
        # Schedule independence made observable: 1 worker vs P workers
        # under the same campaign seed produce byte-identical faulty
        # output.
        a = power_law(500, avg_degree=5, seed=34)
        x = np.linspace(-1, 1, 500)
        outs = []
        for workers in (1, 4):
            with ShardedSpMV(a, shards=4, max_workers=workers) as eng:
                with shard_fault_injection(
                    ShardFaultPlan(seed=FAULT_SEED, corrupt_devices=(0, 2))
                ):
                    outs.append(eng.spmv(x).tobytes())
        assert outs[0] == outs[1]

    def test_halo_corruption_hits_grid_window(self):
        a = random_uniform(256, 256, nnz_per_row=6, seed=35)
        x = np.ones(256)
        ref = TileSpMV(a, method="adpt").spmv(x)
        with ShardedSpMV(a, grid=(2, 2)) as eng:
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, halo_devices=(0,))
            ) as inj:
                y = eng.spmv(x)
            assert inj.by_kind.get("halo", 0) >= 1
            assert not np.array_equal(y, ref)

    def test_straggler_accumulates_on_virtual_clock(self):
        a = random_uniform(200, 200, nnz_per_row=5, seed=36)
        with ShardedSpMV(a, shards=4) as eng:
            with shard_fault_injection(
                ShardFaultPlan(
                    seed=FAULT_SEED, straggle_devices=(3,), straggler_delay_s=2e-4
                )
            ):
                eng.spmv(np.ones(200))
            assert eng.shard_delay_s[3] == pytest.approx(2e-4)
            assert sum(eng.shard_delay_s[:3]) == 0.0

    def test_exec_counts_track_attempts(self):
        a = random_uniform(200, 200, nnz_per_row=5, seed=37)
        with ShardedSpMV(a, shards=4) as eng:
            assert eng.shard_exec_counts == [0, 0, 0, 0]
            eng.spmv(np.ones(200))
            assert eng.shard_exec_counts == [1, 1, 1, 1]
            eng.spmm(np.ones((200, 3)))
            assert eng.shard_exec_counts == [2, 2, 2, 2]

    def test_device_ranks_validation(self):
        a = random_uniform(100, 100, nnz_per_row=4, seed=38)
        with pytest.raises(ValueError, match="device_ranks"):
            ShardedSpMV(a, shards=4, device_ranks=[0, 1])
        with ShardedSpMV(a, shards=2, device_ranks=[5, 9]) as eng:
            assert eng.device_ranks == [5, 9]
            # Faults key on the rank, not the shard index.
            with shard_fault_injection(
                ShardFaultPlan(seed=FAULT_SEED, lose_devices=(9,))
            ):
                with pytest.raises(DeviceLostError) as exc:
                    eng.spmv(np.ones(100))
            assert exc.value.device == 9
