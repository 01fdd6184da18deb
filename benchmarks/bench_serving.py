"""Serving-runtime + checkpointed-solver benchmark.

Two halves, all on the deterministic virtual clock so the numbers are
reproducible byte-for-byte:

* **Serving scenarios** — the same matrix fleet replayed under three
  traces: steady (loose deadlines, light load), overload (bursty
  arrivals past capacity, tight deadlines), and a fault storm (armed
  injection campaign).  Reported per scenario: shed rate, p50/p99
  modelled latency, degradation-ladder mix, deadline misses, breaker
  activity — and the invariant that no served result was unverified.
* **Solver recovery overhead** — checkpointed CG / BiCGSTAB / PageRank
  clean vs under a seeded fault campaign: rollbacks, iterations lost,
  the extra verified products recovery cost, and the modelled
  checkpoint overhead fraction.  The faulty solve must converge to the
  clean answer or the run fails.

Results land in JSON (default ``BENCH_serving.json``) for CI to
archive.  Exits non-zero if any served result is unverified, the
overload scenario fails to shed (it must — that is the point), or any
fault campaign fails to recover the clean answer.

    PYTHONPATH=src python benchmarks/bench_serving.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.apps.graph import make_transition
from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import generators as g
from repro.serving import (
    BreakerConfig,
    CheckpointConfig,
    RuntimeConfig,
    ServingRuntime,
    VerifiedOperator,
    checkpointed_bicgstab,
    checkpointed_cg,
    checkpointed_pagerank,
    modelled_checkpoint_overhead,
    synthetic_trace,
)

FAULT_SEED = 0


def _fleet(quick: bool):
    if quick:
        return {
            "stencil": g.stencil_2d(16, seed=1),
            "powerlaw": g.power_law(800, avg_degree=6, seed=2),
            "banded": g.banded(600, 8, seed=3),
        }
    return {
        "stencil": g.stencil_2d(48, seed=1),
        "powerlaw": g.power_law(5000, avg_degree=8, seed=2),
        "banded": g.banded(4000, 16, seed=3),
        "fem": g.fem_blocks(900, block=3, seed=4),
        "rmat": g.rmat(4096, avg_degree=8, seed=5),
    }


def _percentile(sorted_vals: list[float], q: float) -> float | None:
    if not sorted_vals:
        return None
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def run_scenario(name: str, fleet: dict, n_requests: int, *, overload: bool,
                 fault_attempts: int) -> dict:
    rt = ServingRuntime(
        RuntimeConfig(
            queue_limit=16,
            plan_cache_capacity=max(2, len(fleet) - 1),  # force some evictions
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=1e-4),
        )
    )
    for mid, m in fleet.items():
        rt.register(mid, m)
    base = rt.estimate(next(iter(fleet)))["fast"]
    trace = synthetic_trace(
        list(fleet),
        n_requests=n_requests,
        seed=11,
        mean_interarrival=base * (0.15 if overload else 3.0),
        burst_prob=0.25 if overload else 0.05,
        deadline_range=(0.6 * base, 6.0 * base),
    )
    if fault_attempts:
        plan = FaultPlan(seed=FAULT_SEED, payload_corruptions=2,
                         fault_attempts=fault_attempts)
        with fault_injection(plan) as inj:
            outcomes = rt.run_trace(trace)
        injected = inj.injected
    else:
        outcomes = rt.run_trace(trace)
        injected = 0

    served = [o for o in outcomes if o.status == "served"]
    lat = sorted(o.latency for o in served)
    s = rt.stats()
    return {
        "scenario": name,
        "requests": n_requests,
        "injected_faults": injected,
        "served": s["served"],
        "shed": s["shed"],
        "shed_rate": s["shed_rate"],
        "shed_queue_full": s["shed_queue_full"],
        "shed_deadline": s["shed_deadline"],
        "deadline_misses": s["deadline_misses"],
        "levels": s["levels"],
        "downgrades": s["downgrades"],
        "faults_detected": s["faults_detected"],
        "recoveries": s["recoveries"],
        "breaker_trips": s["breaker_trips"],
        "breaker_fast_denied": s["breaker_fast_denied"],
        "p50_latency": _percentile(lat, 0.50),
        "p99_latency": _percentile(lat, 0.99),
        "unverified": sum(1 for o in served if not o.verified),
    }


def run_solver_campaigns(quick: bool) -> list[dict]:
    n = 300 if quick else 1200
    grid = 16 if quick else 32
    stencil = g.stencil_2d(grid, seed=1)
    spd = abs(stencil) + abs(stencil).T
    import scipy.sparse as sp

    spd = sp.csr_matrix(spd + sp.eye(spd.shape[0]) * (abs(spd).sum(axis=1).max() + 1.0))
    gen = g.random_uniform(n, n, 5.0, seed=2)
    gen = sp.csr_matrix(gen + sp.eye(n) * (abs(gen).sum(axis=1).max() + 1.0))
    trans, dangling = make_transition(g.power_law(n, avg_degree=5, seed=3))
    rng = np.random.default_rng(0)

    # Each kind faults its first 3 attempts, back to back at the first
    # checkpoint; more solver-state faults than replay_limit after safe
    # mode is the designed give-up, not a recovery to measure.
    plan = FaultPlan(seed=FAULT_SEED, payload_corruptions=2,
                     solver_state_corruptions=1, fault_attempts=3)
    cfg = CheckpointConfig(interval=10)
    rows = []

    def campaign(solver_name, make_op, solve):
        clean = solve(make_op())
        with fault_injection(plan) as inj:
            faulty = solve(make_op())
        c_ans, c_conv, c_prod, _ = clean
        f_ans, f_conv, f_prod, log = faulty
        matches = bool(np.allclose(f_ans, c_ans, atol=1e-6))
        rows.append({
            "solver": solver_name,
            "injected": inj.injected,
            "converged": bool(f_conv),
            "matches_clean": matches,
            "rollbacks": log.rollbacks,
            "iterations_lost": log.iterations_lost,
            "product_faults": log.product_faults,
            "watchdog_events": dict(log.watchdog_events),
            "checkpoints": log.checkpoints,
            "recovery_product_overhead": f_prod / c_prod - 1.0 if c_prod else 0.0,
            "modelled_checkpoint_overhead": modelled_checkpoint_overhead(
                make_op(), cfg
            ),
        })

    b_spd = rng.standard_normal(spd.shape[0])
    campaign(
        "cg",
        lambda: VerifiedOperator(spd),
        lambda op: (lambda r: (r.result.x, r.result.converged, op.products, r.recovery))(
            checkpointed_cg(op, b_spd, tol=1e-11, config=cfg)
        ),
    )
    b_gen = rng.standard_normal(gen.shape[0])
    campaign(
        "bicgstab",
        lambda: VerifiedOperator(gen),
        lambda op: (lambda r: (r.result.x, r.result.converged, op.products, r.recovery))(
            checkpointed_bicgstab(op, b_gen, tol=1e-11, config=cfg)
        ),
    )
    campaign(
        "pagerank",
        lambda: VerifiedOperator(trans),
        lambda op: (lambda r: (r.rank, r.converged, op.products, r.recovery))(
            checkpointed_pagerank(op, dangling, tol=1e-12, config=cfg)
        ),
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small fleet (CI smoke)")
    parser.add_argument("--out", default="BENCH_serving.json", help="JSON output path")
    args = parser.parse_args(argv)

    fleet = _fleet(args.quick)
    n_req = 80 if args.quick else 400
    scenarios = [
        run_scenario("steady", fleet, n_req, overload=False, fault_attempts=0),
        run_scenario("overload", fleet, n_req, overload=True, fault_attempts=0),
        run_scenario("fault_storm", fleet, n_req, overload=False, fault_attempts=8),
    ]
    for s in scenarios:
        p99 = s["p99_latency"]
        print(
            f"{s['scenario']:12s} served={s['served']:4d} shed={s['shed']:4d} "
            f"({s['shed_rate']:5.1%}) misses={s['deadline_misses']:3d} "
            f"downgrades={s['downgrades']:4d} detected={s['faults_detected']:2d} "
            f"trips={s['breaker_trips']} "
            f"p99={p99 * 1e6:8.2f}us" if p99 is not None else f"{s['scenario']}: no served requests"
        )

    solver_rows = run_solver_campaigns(args.quick)
    for r in solver_rows:
        print(
            f"{r['solver']:10s} injected={r['injected']} rollbacks={r['rollbacks']} "
            f"iters_lost={r['iterations_lost']} "
            f"recovery_overhead={r['recovery_product_overhead'] * 100:6.1f}% "
            f"ckpt_overhead={r['modelled_checkpoint_overhead'] * 100:5.2f}% "
            f"recovered={'yes' if r['matches_clean'] else 'NO'}"
        )

    never_unverified = all(s["unverified"] == 0 for s in scenarios)
    overload_sheds = scenarios[1]["shed"] > 0
    storm_detects = scenarios[2]["faults_detected"] > 0
    solvers_recover = all(r["converged"] and r["matches_clean"] for r in solver_rows)
    solvers_hit = all(r["injected"] > 0 and r["rollbacks"] > 0 for r in solver_rows)
    ok = never_unverified and overload_sheds and storm_detects and solvers_recover and solvers_hit

    payload = {
        "quick": args.quick,
        "fault_seed": FAULT_SEED,
        "scenarios": scenarios,
        "solver_campaigns": solver_rows,
        "never_unverified": never_unverified,
        "overload_sheds": overload_sheds,
        "storm_detects": storm_detects,
        "solvers_recover": solvers_recover,
        "pass": ok,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nunverified-results invariant {'holds' if never_unverified else 'BROKEN'}; "
        f"overload shedding {'observed' if overload_sheds else 'MISSING'}; "
        f"solver recovery {'complete' if solvers_recover and solvers_hit else 'INCOMPLETE'} "
        f"-> {'PASS' if ok else 'FAIL'}"
    )
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
