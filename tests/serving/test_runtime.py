"""Serving runtime: admission, deadlines, the two-rung ladder, breakers.

Everything runs on the virtual clock, so every scenario is scripted
with explicit arrivals and deadlines and asserts exact counters.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import random_uniform, stencil_2d
from repro.serving import (
    BreakerConfig,
    BreakerState,
    CoalesceConfig,
    Request,
    RuntimeConfig,
    ServingRuntime,
    synthetic_trace,
)

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def make_runtime(**kwargs) -> ServingRuntime:
    defaults = dict(queue_limit=8, plan_cache_capacity=4)
    defaults.update(kwargs)
    return ServingRuntime(RuntimeConfig(**defaults))


def register_default(rt: ServingRuntime, n: int = 2) -> list[str]:
    ids = []
    for i in range(n):
        rt.register(f"m{i}", stencil_2d(14 + 2 * i, seed=i))
        ids.append(f"m{i}")
    return ids


class TestRegistration:
    def test_register_and_estimate(self):
        rt = make_runtime()
        register_default(rt, 1)
        est = rt.estimate("m0")
        assert set(est) == {"plan_ready", "fast", "scalar"}
        assert est["plan_ready"] is True
        # warm: the fast rung is the product alone, nothing to build
        assert est["fast"] == rt._matrices["m0"].t_fast
        assert est["scalar"] > 0

    def test_duplicate_id_rejected(self):
        rt = make_runtime()
        register_default(rt, 1)
        with pytest.raises(ValueError, match="already registered"):
            rt.register("m0", stencil_2d(10))

    def test_unknown_id_rejected(self):
        rt = make_runtime()
        with pytest.raises(KeyError, match="not registered"):
            rt.submit(Request(0, 0.0, "nope"))

    def test_structural_twins_share_plan_and_breaker(self):
        a = random_uniform(200, 200, 4.0, seed=3)
        b = a.copy()
        b.data = b.data * 2.0 + 1.0  # same pattern, different values
        rt = make_runtime()
        rt.register("a", a)
        rt.register("b", b)
        assert len(rt._breakers) == 1


class TestHappyPath:
    def test_loose_deadlines_all_full_quality(self):
        rt = make_runtime()
        ids = register_default(rt)
        trace = synthetic_trace(ids, n_requests=25, seed=2, mean_interarrival=1e-3)
        outs = rt.run_trace(trace)
        assert all(o.status == "served" for o in outs)
        assert all(o.level == 0 and o.level_name == "fast" for o in outs)
        assert all(o.verified and o.deadline_met for o in outs)
        s = rt.stats()
        assert s["served"] == 25
        assert s["shed"] == 0 and s["downgrades"] == 0
        assert s["levels"] == {"fast": 25, "scalar": 0}

    def test_virtual_clock_is_monotone_and_latency_positive(self):
        rt = make_runtime()
        ids = register_default(rt)
        outs = rt.run_trace(synthetic_trace(ids, n_requests=20, seed=5,
                                            mean_interarrival=1e-5))
        served = [o for o in outs if o.status == "served"]
        assert served
        for o in served:
            assert o.completion >= o.start >= o.arrival
            assert o.latency > 0
        comps = [o.completion for o in served]
        assert comps == sorted(comps), "single server completes in service order"


class TestAdmission:
    def test_queue_full_sheds(self):
        rt = make_runtime(queue_limit=4)
        register_default(rt, 1)
        reqs = [Request(i, 0.0, "m0", deadline=math.inf, x_seed=i) for i in range(10)]
        outs = rt.run_trace(reqs)
        shed = [o for o in outs if o.shed_reason == "queue_full"]
        assert rt.counters["shed_queue_full"] == len(shed) == 6
        assert rt.counters["served"] == 4
        assert all(o.status == "shed" and o.level == -1 for o in shed)

    def test_unreachable_deadline_sheds_instead_of_serving_late(self):
        rt = make_runtime()
        register_default(rt, 1)
        est = rt.estimate("m0")
        tiny = min(est["fast"], est["scalar"]) * 0.5
        out = rt.submit(Request(0, 0.0, "m0", deadline=tiny))
        assert out.status == "shed"
        assert out.shed_reason == "deadline"
        assert rt.counters["shed_deadline"] == 1
        assert rt.counters["served"] == 0


class TestDegradationLadder:
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_solo_service_equals_fast_estimate(self, warm):
        # capacity 1 with two registrations evicts m0's plan
        rt = make_runtime(plan_cache_capacity=4 if warm else 1)
        register_default(rt, 1 if warm else 2)
        sm = rt._matrices["m0"]
        est = rt.estimate("m0")
        assert est["plan_ready"] is warm
        # plan readiness alone prices the fast rung: one build when cold
        assert est["fast"] == (sm.t_fast if warm else sm.build_surcharge + sm.t_fast)
        # a budget of exactly the estimate fits: nothing else is charged
        out = rt.submit(Request(0, 0.0, "m0", deadline=est["fast"]))
        assert out.status == "served"
        assert out.level_name == "fast" and out.deadline_met
        assert out.completion - out.start == est["fast"]
        assert rt.counters["downgrades"] == 0

    def test_cold_plan_tight_budget_falls_to_scalar(self):
        rt = make_runtime(plan_cache_capacity=1)
        register_default(rt, 2)
        est = rt.estimate("m0")
        assert est["scalar"] < est["fast"], (
            "scenario needs the scalar rung cheaper than a plan build"
        )
        budget = (est["scalar"] + est["fast"]) / 2
        out = rt.submit(Request(0, 0.0, "m0", deadline=budget))
        assert out.status == "served"
        assert out.level_name == "scalar"
        assert out.verified and not out.breaker_forced
        assert rt.counters["downgrades"] == 1

    def test_downgrades_equal_weighted_level_counts(self):
        rt = make_runtime(plan_cache_capacity=1)
        ids = register_default(rt, 3)
        trace = synthetic_trace(ids, n_requests=40, seed=9, mean_interarrival=2e-4,
                                deadline_range=(1e-6, 3e-4))
        rt.run_trace(trace)
        s = rt.stats()
        assert s["downgrades"] == s["levels"]["scalar"]
        assert s["served"] == s["levels"]["fast"] + s["levels"]["scalar"]
        assert s["served"] + s["shed"] == s["submitted"]


@pytest.mark.faults
class TestBreakerIntegration:
    def breaker_of(self, rt, mid="m0"):
        return rt._breakers[rt._matrices[mid].plan_key]

    def test_fault_storm_trips_then_probes_then_closes(self):
        rt = make_runtime(
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=5e-3,
                                  probe_successes=2),
        )
        register_default(rt, 1)
        gap = 1e-3  # < cooldown: some requests arrive while the breaker is open
        reqs = [Request(i, (i + 1) * gap, "m0", x_seed=FAULT_SEED + i)
                for i in range(16)]
        plan = FaultPlan(seed=FAULT_SEED, payload_corruptions=2, max_faults=100)
        with fault_injection(plan) as injector:
            # exhaust the budget only after the breaker trips: the
            # unbounded campaign keeps corrupting the fast path, so
            # every fast attempt fails until the breaker gives up on it.
            outs = rt.run_trace(reqs[:6])
        assert injector.injected > 0
        b = self.breaker_of(rt)
        assert b.counters["trips"] == 1
        assert rt.counters["faults_detected"] > 0
        forced = [o for o in outs if o.breaker_forced]
        assert forced, "open breaker must route requests to the scalar rung"
        assert all(o.level_name == "scalar" and o.verified for o in forced)

        # campaign over: probes run clean and the breaker closes again
        outs2 = rt.run_trace(
            [Request(100 + i, rt.now + (i + 1) * 6e-3, "m0", x_seed=i) for i in range(4)]
        )
        assert b.state is BreakerState.CLOSED
        assert b.counters["closes"] == 1
        assert all(o.status == "served" and o.verified for o in outs2)
        assert outs2[-1].level_name == "fast"

    def test_every_served_result_is_verified_under_faults(self):
        rt = make_runtime()
        ids = register_default(rt, 2)
        trace = synthetic_trace(ids, n_requests=30, seed=FAULT_SEED + 1,
                                mean_interarrival=1e-4,
                                deadline_range=(5e-6, 5e-4))
        plan = FaultPlan(seed=FAULT_SEED, payload_corruptions=1, max_faults=6)
        with fault_injection(plan):
            outs = rt.run_trace(trace)
        served = [o for o in outs if o.status == "served"]
        assert served
        assert all(o.verified for o in served)
        s = rt.stats()
        assert s["recoveries"] >= s["faults_detected"] > 0

    def test_recovery_work_is_charged_to_the_clock(self):
        rt = make_runtime()
        register_default(rt, 1)
        clean = rt.submit(Request(0, 0.0, "m0", x_seed=1))
        with fault_injection(FaultPlan(seed=FAULT_SEED, payload_corruptions=1,
                                       max_faults=1)):
            faulty = rt.submit(Request(1, rt.now + 1.0, "m0", x_seed=1))
        assert faulty.detected >= 1
        assert faulty.recovered >= 1
        assert (faulty.completion - faulty.start) > (clean.completion - clean.start), (
            "retry/fallback time must show up in the modelled service time"
        )


class TestBreakerAccounting:
    """The breaker is asked once per fast-path decision."""

    def coalescing_runtime(self, cooldown: float) -> ServingRuntime:
        rt = make_runtime(
            breaker=BreakerConfig(failure_threshold=1, cooldown_seconds=cooldown),
            coalesce=CoalesceConfig(window_s=1.0, max_batch=8),
        )
        register_default(rt, 1)
        return rt

    def test_open_breaker_denies_each_batch_member_once(self):
        rt = self.coalescing_runtime(cooldown=1.0)
        b = rt._breakers[rt._matrices["m0"].plan_key]
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN
        outs = []
        for i in range(4):
            outs += rt.offer(Request(i, 1e-6 * (i + 1), "m0", x_seed=i))
        outs += rt.flush()
        assert len(outs) == 4
        assert all(o.status == "served" and o.breaker_forced for o in outs)
        assert all(o.level_name == "scalar" and o.verified for o in outs)
        assert b.counters["fast_denied"] == 4
        assert rt.stats()["breaker_fast_denied"] == 4

    def test_half_open_batch_without_riders_counts_no_probe(self):
        rt = self.coalescing_runtime(cooldown=1e-3)
        sm = rt._matrices["m0"]
        b = rt._breakers[sm.plan_key]
        b.record_failure(0.0)
        assert sm.t_fast < sm.t_fast_batched(2)
        # m0 fits a solo fast run but not the 2-wide fused one, so the
        # batch keeps fewer than two riders and both members go solo.
        tight = (sm.t_fast + sm.t_fast_batched(2)) / 2
        outs = rt.offer(Request(0, 1.0, "m0", deadline=tight, x_seed=0))
        outs += rt.offer(Request(1, 1.0, "m0", deadline=1.0, x_seed=1))
        outs += rt.flush()
        assert sorted(o.rid for o in outs) == [0, 1]
        assert all(o.status == "served" and o.level_name == "fast" for o in outs)
        assert all(o.batch_size == 1 for o in outs)
        assert rt.counters["coalesced"] == 0
        assert b.counters["probes"] == 2
        assert b.state is BreakerState.CLOSED


class TestStats:
    def test_stats_and_describe_cover_all_counters(self):
        rt = make_runtime()
        ids = register_default(rt)
        rt.run_trace(synthetic_trace(ids, n_requests=10, seed=3,
                                     mean_interarrival=1e-4))
        s = rt.stats()
        for key in ("submitted", "served", "shed", "shed_rate", "deadline_misses",
                    "downgrades", "faults_detected", "recoveries", "levels",
                    "breaker_trips", "breaker_fast_denied", "plan_cache",
                    "virtual_time"):
            assert key in s
        text = rt.describe()
        assert "ladder:" in text and "breakers:" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(queue_limit=0)
        with pytest.raises(ValueError):
            RuntimeConfig(device="H100")
