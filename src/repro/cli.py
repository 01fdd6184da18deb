"""Command-line interface.

Experiment regeneration (the paper's tables and figures):

    python -m repro table1|table2|fig6|...|fig11|all [--scale tiny|small|medium]

Working with your own matrices (Matrix Market files):

    python -m repro spmv matrix.mtx [--method auto] [--device a100]
    python -m repro batch matrix.mtx [--k 32] [--device a100]
    python -m repro shard matrix.mtx [--shards 1,2,4,8] [--grid 2x2|auto] [--device a100]
    python -m repro inspect matrix.mtx
    python -m repro check matrix.mtx [--policy strict] [--faults --seed 7]
    python -m repro tune matrix.mtx [--reorders sell:0,rcm+sell:0]

Serving simulation (synthetic trace through the self-healing runtime):

    python -m repro serve-sim [--requests 120] [--overload] [--faults 6]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.experiments import EXPERIMENTS

__all__ = ["main"]

_DEVICES = {"a100": "A100", "titanrtx": "TITAN_RTX"}


def _get_device(name: str):
    from repro.gpu import device as dev_mod

    return getattr(dev_mod, _DEVICES[name])


class _UsageError(Exception):
    """A malformed argument that ``main`` reports as exit code 2.

    argparse passes any exception a ``type=`` raises through, except
    ``ArgumentTypeError``/``TypeError``/``ValueError``, which it turns
    into its own ``SystemExit``.
    """


def _grid(text: str):
    """``--grid``: ``auto`` or an ``RxC`` shape with both axes >= 1."""
    if text == "auto":
        return text
    try:
        r, c = text.lower().split("x")
        grid = (int(r), int(c))
    except ValueError:
        raise _UsageError(
            f"--grid must be RxC (e.g. 2x2) or 'auto', got {text!r}"
        ) from None
    if grid[0] < 1 or grid[1] < 1:
        raise _UsageError(f"grid axes must be >= 1, got {text!r}")
    return grid


_CSV_COLLECTORS = {
    # experiment name -> callable(scale) returning dataclass rows
    "fig6": lambda scale: __import__("repro.experiments.fig6", fromlist=["collect"]).collect(scale),
    "fig8": lambda scale: __import__("repro.experiments.fig8", fromlist=["collect"]).collect(scale),
    "fig9": lambda scale: __import__("repro.experiments.fig9", fromlist=["collect"]).collect(),
    "fig10": lambda scale: __import__("repro.experiments.fig10", fromlist=["collect"]).collect(scale),
}


def _cmd_experiment(args) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"\n===== {name} (scale={args.scale}) =====\n")
        print(EXPERIMENTS[name](scale=args.scale))
        if getattr(args, "csv", None) and name in _CSV_COLLECTORS:
            from pathlib import Path

            from repro.analysis.export import write_csv

            rows = _CSV_COLLECTORS[name](args.scale)
            path = write_csv(Path(args.csv) / f"{name}_{args.scale}.csv", rows)
            print(f"\n[csv written to {path}]")
    return 0


def _cmd_spmv(args) -> int:
    from repro.baselines import BsrSpMV, Csr5SpMV, MergeSpMV
    from repro.core.tilespmv import TileSpMV
    from repro.matrices.io import read_matrix_market

    device = _get_device(args.device)
    matrix = read_matrix_market(args.matrix)
    x = np.ones(matrix.shape[1])
    ref = matrix @ x
    engine = TileSpMV(matrix, method=args.method, auto_device=device)
    y = engine.spmv(x)
    ok = np.allclose(y, ref, rtol=1e-10, atol=1e-12)
    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    print(f"TileSpMV method resolved: {engine.method}; result matches scipy: {ok}")
    print(f"preprocessing: {engine.preprocessing_seconds * 1e3:.1f} ms")
    rows = [("TileSpMV", engine.predicted_time(device), engine.gflops(device))]
    for cls in (MergeSpMV, Csr5SpMV, BsrSpMV):
        b = cls(matrix)
        cost = b.run_cost()
        rows.append((b.name, cost.time(device), cost.gflops(device)))
    print(f"\nmodelled performance on {device.name}:")
    for name, t, gf in rows:
        print(f"  {name:10s} {t * 1e6:10.2f} us   {gf:8.2f} GFlops")
    return 0 if ok else 1


def _cmd_batch(args) -> int:
    """Batched SpMM + plan cache demo on one matrix."""
    import time

    from repro.core.plancache import PlanCache
    from repro.core.tilespmv import TileSpMV
    from repro.matrices.io import read_matrix_market

    device = _get_device(args.device)
    k = args.k
    if k < 1:
        print(f"error: --k must be >= 1, got {k}", file=sys.stderr)
        return 2
    matrix = read_matrix_market(args.matrix)
    rng = np.random.default_rng(0)
    block = rng.standard_normal((matrix.shape[1], k))

    cache = PlanCache()
    t0 = time.perf_counter()
    engine = TileSpMV(matrix, method=args.method, auto_device=device, plan_cache=cache)
    engine.run_cost()  # the first price builds the plan
    cold = time.perf_counter() - t0
    ok = np.allclose(engine.spmm(block), matrix @ block, rtol=1e-10, atol=1e-12)
    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    print(f"TileSpMV method resolved: {engine.method}; spmm(k={k}) matches scipy: {ok}")
    print(
        f"preprocessing: {engine.preprocessing_seconds * 1e3:.1f} ms "
        f"(build {engine.build_seconds * 1e3:.1f} ms, "
        f"arbitration {engine.arbitration_seconds * 1e3:.1f} ms)"
    )

    spmv_cost = engine.run_cost()
    spmm_cost = engine.spmm_cost(k)
    t_seq = spmv_cost.time(device) * k
    t_bat = spmm_cost.time(device)
    print(f"\nmodelled on {device.name}:")
    print(f"  {k} sequential spmv: {t_seq * 1e6:10.2f} us   {spmv_cost.gflops(device):8.2f} GFlops")
    print(f"  one spmm (k={k}):    {t_bat * 1e6:10.2f} us   {spmm_cost.gflops(device):8.2f} GFlops")
    print(f"  batching speedup:    {t_seq / t_bat:.2f}x")

    t0 = time.perf_counter()
    TileSpMV(matrix, method=args.method, auto_device=device, plan_cache=cache).run_cost()
    warm = time.perf_counter() - t0
    print(f"\nsecond construction (cache hit): {warm * 1e3:.2f} ms vs {cold * 1e3:.2f} ms cold")
    print(cache.describe())
    return 0 if ok else 1


def _cmd_shard(args) -> int:
    """Sharded multi-device demo: partition, verify exactness, scale table."""
    from repro.core.tilespmv import TileSpMV
    from repro.dist import (
        ShardedSpMV,
        best_shard_count,
        default_grid,
        modelled_shard_sweep,
    )
    from repro.matrices.io import read_matrix_market

    device = _get_device(args.device)
    counts = []
    for tok in args.shards.split(","):
        tok = tok.strip()
        if not tok:
            continue
        p = int(tok)
        if p < 1:
            print(f"error: shard counts must be >= 1, got {p}", file=sys.stderr)
            return 2
        counts.append(p)
    if not counts:
        print("error: --shards must name at least one shard count", file=sys.stderr)
        return 2

    grid = args.grid
    matrix = read_matrix_market(args.matrix)
    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    if args.backend == "process":
        print("execution backend: process (supervised shared-memory workers)")

    baseline = TileSpMV(matrix, method=args.method, auto_device=device)
    x = np.ones(matrix.shape[1])
    y_ref = baseline.spmv(x)
    yt_ref = baseline.spmv_transpose(np.ones(matrix.shape[0]))

    ok = True
    for p in counts:
        # An explicit RxC grid fixes the shape; "auto" factors each count.
        eng_grid = grid if grid != "auto" else default_grid(p)
        with ShardedSpMV(matrix, shards=p, method=args.method,
                         grid=eng_grid, auto_device=device,
                         backend=args.backend) as eng:
            y = eng.spmv(x)
            yt = eng.spmv_transpose(np.ones(matrix.shape[0]))
            # Every method promises bit-for-bit equality with the P=1
            # product (spmv AND spmv_transpose, 1D and 2D partitions).
            exact = bool(np.array_equal(y, y_ref) and np.array_equal(yt, yt_ref))
            ok = ok and exact
            tag = "bit-exact" if exact else "MISMATCH"
            shape = (
                f"grid={eng.grid[0]}x{eng.grid[1]}" if eng.grid is not None
                else f"P={p}"
            )
            extra = ""
            if args.backend == "process":
                st = eng.supervisor.stats()
                extra = f", workers={st['healthy']}/{st['workers']}"
            print(
                f"  {shape}: {tag} vs single-device (spmv + transpose), "
                f"imbalance={eng.partition.imbalance():.2f}, "
                f"methods={','.join(eng.resolved_methods)}{extra}"
            )
        if grid is not None and grid != "auto":
            break  # one explicit shape, not a sweep

    rows = modelled_shard_sweep(matrix, counts=tuple(counts), device=device,
                                method=args.method, auto_device=device,
                                grid="auto" if grid is not None else None,
                                links=args.links)
    print(f"\nmodelled strong scaling on {device.name} (interconnect "
          f"{device.link_bandwidth_gbps:.0f} GB/s, {device.link_latency_us:.0f} us/link):")
    print(f"  {'P':>3s} {'makespan':>12s} {'compute':>12s} {'comm':>10s} "
          f"{'speedup':>8s} {'eff':>6s} {'imbal':>6s}")
    for r in rows:
        print(
            f"  {r['shards']:3d} {r['makespan_s'] * 1e6:10.2f} us "
            f"{r['compute_s'] * 1e6:10.2f} us {r['comm_bytes'] / 1e3:8.1f} KB "
            f"{r['speedup']:7.2f}x {r['efficiency']:6.2f} {r['imbalance']:6.2f}"
        )
    best = best_shard_count(matrix, counts=tuple(counts), device=device,
                            method=args.method, auto_device=device,
                            grid="auto" if grid is not None else None,
                            links=args.links)
    print(f"\nbest modelled shard count: P={best}")
    print("verification:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_check(args) -> int:
    """Reliability check: canonicalize, ABFT-verify, optional fault drill."""
    from repro.baselines.csr_scalar import reference_spmv
    from repro.core.plancache import PlanCache
    from repro.matrices.io import read_matrix_market
    from repro.reliability import FaultPlan, MatrixValidationError, fault_injection
    from repro.reliability.reliable import ReliableSpMV

    device = _get_device(args.device)
    grid = args.grid
    sharded = args.shards > 1 or grid is not None
    matrix = read_matrix_market(args.matrix)

    def reliable(**kw) -> ReliableSpMV:
        # A fresh engine per drill keeps each drill's counters apart;
        # every campaign numbers its attempts from 0 on any engine.
        return ReliableSpMV(
            matrix, method=args.method, policy=args.policy,
            plan_cache=PlanCache(), auto_device=device, shards=args.shards,
            grid=grid, recovery=True if sharded else None,
            backend=args.backend, **kw,
        )

    try:
        engine = reliable()
    except MatrixValidationError as exc:
        print(f"REJECTED ({exc.reason}): {exc}", file=sys.stderr)
        return 2
    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    print(engine.validation_report.describe())

    x = np.ones(engine.shape[1])
    ref = reference_spmv(engine.canonical_csr(), x)
    y = engine.spmv(x)
    ok = np.allclose(y, ref, rtol=1e-10, atol=1e-12)
    print(f"verified spmv matches reference: {ok}")

    if args.faults:
        with reliable() as drill, fault_injection(FaultPlan(seed=args.seed)) as injector:
            y_f = drill.spmv(x)
        recovered = np.allclose(y_f, ref, rtol=1e-10, atol=1e-12)
        # With the shard-level ladder armed, a substrate fault may be
        # caught and repaired below the engine-level ABFT — both count.
        shard_detected = (drill.shard_recovery_counters or {}).get(
            "shard_detected", 0
        )
        caught = injector.injected > 0 and (
            drill.counters["detected"] > 0 or shard_detected > 0
        )
        print(
            f"fault drill (seed={args.seed}): injected={injector.injected}, "
            f"caught={caught}, recovered result correct: {recovered}"
        )
        ok = ok and caught and recovered

    if args.faults and sharded:
        # Shard-level drills on either backend: corrupt one device's
        # first partial (and, on the process backend, SIGKILL one
        # worker mid-operation) and require the recovery ladder to
        # retry only that shard — the engine-level ladder above must
        # never see it.
        from repro.dist import ShardFaultPlan, shard_fault_injection

        drills = [("shard drill", ShardFaultPlan(seed=args.seed,
                                                  corrupt_devices=(0,)))]
        if args.backend == "process":
            drills.append(("worker-kill drill",
                           ShardFaultPlan(seed=args.seed, kill_workers=(0,))))
        for name, plan in drills:
            with reliable() as drill:
                with shard_fault_injection(plan) as sinj:
                    y_s = drill.spmv(x)
                sc = drill.shard_recovery_counters or {}
                localized = (
                    sinj.injected > 0
                    and sc.get("shard_retry", 0) > 0
                    and drill.counters["detected"] == 0
                )
                recovered_s = np.allclose(y_s, ref, rtol=1e-10, atol=1e-12)
                sup = getattr(drill.engine.inner, "supervisor", None)
                respawns = "" if sup is None else (
                    f"respawns={sup.counters['respawns']}, "
                )
                print(
                    f"{name} (seed={args.seed}): injected={sinj.injected}, "
                    f"{respawns}localized retries={sc.get('shard_retry', 0)}, "
                    f"reconstructs={sc.get('shard_reconstruct', 0)}, "
                    f"quarantines={sc.get('device_quarantine', 0)}, "
                    f"contained below engine ladder: {localized}, "
                    f"recovered result correct: {recovered_s}"
                )
            ok = ok and localized and recovered_s

    if getattr(args, "drill_persistent", False):
        # Persistent-failure drill: every device corrupts on every
        # attempt, so the recovery ladder must run out of rungs.  The
        # expected outcome is a *structured failure*: exit code 3 and a
        # machine-readable report of how far the ladder got.
        if not sharded:
            print(
                "error: --drill-persistent needs --shards/--grid "
                "(the recovery ladder)",
                file=sys.stderr,
            )
            engine.close()
            return 2
        import json as _json

        from repro.dist import ShardFaultPlan, ShardRecoveryError, shard_fault_injection

        with reliable(abft=False) as drill:
            ranks = tuple(range(drill.engine.shards))
            plan = ShardFaultPlan(
                seed=args.seed, corrupt_devices=ranks, fault_attempts=None
            )
            try:
                with shard_fault_injection(plan) as pinj:
                    drill.spmv(x)
            except ShardRecoveryError as exc:
                sc = drill.shard_recovery_counters or {}
                report = {
                    "outcome": "recovery_impossible",
                    "error": str(exc),
                    "seed": args.seed,
                    "devices": list(ranks),
                    "injected": pinj.injected,
                    "quarantined": list(
                        getattr(drill.engine, "quarantined", [])
                    ),
                    "counters": sc,
                }
                print(f"RECOVERY IMPOSSIBLE: {exc}")
                print(_json.dumps(report, indent=2, sort_keys=True))
                engine.close()
                return 3
        print(
            "persistent drill unexpectedly recovered — the ladder should "
            "have run out of rungs",
            file=sys.stderr,
        )
        return 1

    plain = engine.engine.run_cost()
    protected = engine.run_cost()
    t_plain, t_prot = plain.time(device), protected.time(device)
    print(f"\nmodelled on {device.name}:")
    print(f"  unprotected spmv: {t_plain * 1e6:10.2f} us")
    print(
        f"  verified spmv:    {t_prot * 1e6:10.2f} us "
        f"(+{100 * (t_prot - t_plain) / t_plain:.1f}% ABFT overhead)"
    )
    print()
    print(engine.describe())
    engine.close()
    return 0 if ok else 1


def _build_serving_fleet(matrices: int, seed: int, queue_limit: int, device: str,
                         method: str = "adpt", coalesce_window: float | None = None,
                         max_batch: int = 16):
    """The deterministic serve-sim fleet: runtime + registered matrix ids."""
    from repro.matrices import banded, power_law, random_uniform, stencil_2d
    from repro.serving import (
        BreakerConfig,
        CoalesceConfig,
        RuntimeConfig,
        ServingRuntime,
    )

    rt = ServingRuntime(
        RuntimeConfig(
            queue_limit=queue_limit,
            device=_DEVICES[device],
            plan_cache_capacity=max(2, matrices // 2),
            breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=1e-4),
            coalesce=(
                CoalesceConfig(window_s=coalesce_window, max_batch=max_batch)
                if coalesce_window is not None
                else None
            ),
        )
    )
    gens = [stencil_2d, power_law, banded, random_uniform]
    n = 96 + 32 * (seed % 3)
    for i in range(matrices):
        gen = gens[i % len(gens)]
        if gen is stencil_2d:
            m = gen(12 + 2 * i, seed=seed + i)
        elif gen is banded:
            m = gen(n + 16 * i, 6, seed=seed + i)
        elif gen is random_uniform:
            m = gen(n + 16 * i, n + 16 * i, 5.0, seed=seed + i)
        else:
            m = gen(n + 16 * i, seed=seed + i)
        rt.register(f"m{i}", m, method=method)
    return rt, [f"m{i}" for i in range(matrices)]


def _cmd_serve_sim(args) -> int:
    """Replay a synthetic request trace through the serving runtime."""
    from repro.gpu.faults import FaultPlan, fault_injection
    from repro.serving import synthetic_trace

    rt, ids = _build_serving_fleet(
        args.matrices, args.seed, args.queue_limit, args.device,
        coalesce_window=args.coalesce, max_batch=args.max_batch,
    )
    base = rt.estimate(ids[0])["fast"]
    mean_gap = base * (0.2 if args.overload else 2.0)
    trace = synthetic_trace(
        ids,
        n_requests=args.requests,
        seed=args.seed,
        mean_interarrival=mean_gap,
        burst_prob=0.25 if args.overload else 0.1,
        deadline_range=(0.8 * base, 8.0 * base),
    )
    if args.faults:
        plan = FaultPlan(
            seed=args.fault_seed, payload_corruptions=2, fault_attempts=args.faults
        )
        with fault_injection(plan) as injector:
            outcomes = rt.run_trace(trace)
        print(f"fault campaign: injected={injector.injected} "
              f"(fault_attempts {args.faults})")
    else:
        outcomes = rt.run_trace(trace)

    print(rt.describe())
    cs = rt.stats()["coalesce"]
    if cs["enabled"]:
        print(
            f"coalesce: batches={rt.counters['batches_flushed']} "
            f"fused_requests={rt.counters['coalesced']} "
            f"sizes={cs['batch_sizes']} reasons={cs['flush_reasons']}"
        )
    served = [o for o in outcomes if o.status == "served"]
    unverified = [o for o in served if not o.verified]
    lat = sorted(o.latency for o in served)
    if lat:
        p50 = lat[len(lat) // 2]
        p99 = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
        print(f"latency (modelled): p50={p50 * 1e6:.2f} us  p99={p99 * 1e6:.2f} us")
    print(f"unverified results returned: {len(unverified)}")

    if args.json:
        import json
        from pathlib import Path

        stats = rt.stats()
        stats.pop("breakers", None)
        payload = {
            "requests": args.requests,
            "seed": args.seed,
            "overload": args.overload,
            "faults": args.faults,
            "stats": stats,
            "p50_latency": lat[len(lat) // 2] if lat else None,
            "p99_latency": lat[min(len(lat) - 1, int(0.99 * len(lat)))] if lat else None,
            "unverified": len(unverified),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {args.json}]")
    return 0 if not unverified else 1


def _cmd_trace(args) -> int:
    """Record a deterministic telemetry trace of a serving workload.

    Runs the serve-sim fleet with telemetry armed, then one
    lane-accurate pass over the first matrix for per-warp profile
    records.  Every timestamp comes from the virtual clock, so the same
    seed always writes byte-identical trace and metrics JSON.
    """
    from pathlib import Path

    from repro import telemetry
    from repro.gpu.faults import FaultPlan, fault_injection
    from repro.serving import synthetic_trace

    with telemetry.session(profile=True) as (tracer, registry):
        rt, ids = _build_serving_fleet(
            args.matrices, args.seed, args.queue_limit, args.device, method="auto"
        )
        base = rt.estimate(ids[0])["fast"]
        trace = synthetic_trace(
            ids,
            n_requests=args.requests,
            seed=args.seed,
            mean_interarrival=base * (0.2 if args.overload else 2.0),
            burst_prob=0.25 if args.overload else 0.1,
            deadline_range=(0.8 * base, 8.0 * base),
        )
        if args.faults:
            plan = FaultPlan(
                seed=args.fault_seed, payload_corruptions=2, fault_attempts=args.faults
            )
            with fault_injection(plan) as injector:
                rt.run_trace(trace)
            print(f"fault campaign: injected={injector.injected} "
                  f"(fault_attempts {args.faults})")
        else:
            rt.run_trace(trace)

        # One lane-accurate pass: per-warp records + a kernel_execute span.
        from repro.gpu.executor import lane_accurate_spmv

        sm = rt._served(ids[0])
        first = sm.engine.engine
        tiled, _ = first.halves()
        if tiled is not None:
            lane_accurate_spmv(first.tiled, tiled.data, np.ones(first.shape[1]))

        # One warm rebuild through the runtime's plan cache (the hit
        # path), priced: it reads the plan already built and builds
        # nothing, so it adds a canonicalize span and no tile_build.
        from repro.core.tilespmv import TileSpMV

        TileSpMV(sm.engine.canonical_csr(), plan_cache=rt.plan_cache,
                 validation="trust").run_cost()

        out = Path(args.out)
        tracer.export(out)
        metrics_out = out.with_suffix(".metrics.json")
        registry.export(metrics_out)

        print(f"trace: {len(tracer.events)} events -> {out}")
        print(f"metrics: {metrics_out}")
        print("\nper-stage span totals (virtual us):")
        totals = tracer.span_totals()
        for name in sorted(totals, key=lambda n: -totals[n]["total_us"]):
            agg = totals[name]
            print(f"  {name:16s} count={agg['count']:5d} total={agg['total_us']:12.3f}")
        if args.hotspots:
            device = _get_device(args.device)
            print()
            print(first.profile(device=device))
            prof = telemetry.profiler()
            if prof is not None and prof.warps:
                bal = prof.warp_balance()
                print(
                    f"warp balance: {bal['warps']} warps, "
                    f"max {bal['max_entries']} / mean {bal['mean_entries']:.1f} "
                    f"entries (imbalance {bal['imbalance']:.2f}x)"
                )
    print("\nopen the trace in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_tune(args) -> int:
    """Online-tune one matrix: residuals, proposal, exactness check."""
    from repro.core.tilespmv import TileSpMV
    from repro.matrices.io import read_matrix_market
    from repro.tuning import OnlineTuner, TuningConfig

    device = _get_device(args.device)
    matrix = read_matrix_market(args.matrix)
    engine = TileSpMV(matrix, method=args.method)
    config = TuningConfig()
    if args.reorders:
        specs = tuple(s.strip() for s in args.reorders.split(",") if s.strip())
        config = TuningConfig(
            residual_threshold=args.threshold, reorders=specs
        )
    elif args.threshold != 0.05:
        config = TuningConfig(residual_threshold=args.threshold)
    tuner = OnlineTuner(device=device, config=config)

    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    report = tuner.residuals(engine)
    print(report.describe())
    proposal = tuner.propose(matrix, engine=engine)
    print(proposal.describe())

    ok = True
    if not proposal.is_incumbent:
        # The tuned plan must answer in the original index order,
        # bit-for-bit against the incumbent for the single-half methods.
        tuned = TileSpMV(matrix, method=engine.method, **proposal.engine_kwargs())
        x = np.ones(matrix.shape[1])
        y0, y1 = engine.spmv(x), tuned.spmv(x)
        exact = bool(np.array_equal(y0, y1))
        close = bool(np.allclose(y0, y1, rtol=1e-10, atol=1e-12))
        ok = exact if engine.method != "deferred_coo" else close
        tag = "bit-exact" if exact else ("allclose" if close else "MISMATCH")
        print(f"tuned plan vs incumbent result: {tag}")

    if args.json:
        import json
        from pathlib import Path

        payload = {
            "matrix": args.matrix,
            "method": engine.method,
            "device": device.name,
            "total_residual": report.total_residual(),
            "tiles": len(report.residuals),
            "proposal": {
                "label": proposal.label,
                "reorder": proposal.reorder,
                "retiled": proposal.retiled,
                "modelled_time": proposal.modelled_time,
                "incumbent_time": proposal.incumbent_time,
                "gain": proposal.gain,
            },
            "worst": [r.as_dict() for r in report.worst(config.residual_threshold, 8)],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[json written to {args.json}]")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    from repro.experiments.verify import run_verification
    from repro.analysis.tables import format_table

    rows, ok = run_verification()
    print(format_table(["Matrix", "Check", "Result"], rows, title="Verification sweep"))
    passed = sum(1 for r in rows if r[2] == "PASS")
    print(f"\n{passed}/{len(rows)} checks passed — {'ALL GOOD' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(scale=args.scale, output=args.output)
    if args.output:
        print(f"report written to {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def _cmd_inspect(args) -> int:
    from repro.core.tilespmv import TileSpMV
    from repro.formats import FormatID
    from repro.matrices.io import read_matrix_market

    matrix = read_matrix_market(args.matrix)
    engine = TileSpMV(matrix, method="adpt")
    hist = engine.format_histogram()
    total_tiles = sum(h["tiles"] for h in hist.values()) or 1
    total_nnz = sum(h["nnz"] for h in hist.values()) or 1
    print(f"matrix {args.matrix}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    print(f"occupied 16x16 tiles: {total_tiles}")
    print(f"modelled footprint: {engine.nbytes_model()} bytes\n")
    attribution = engine.tiled.cost_attribution() if engine.tiled is not None else {}
    print(f"{'format':8s} {'tiles':>8s} {'tile %':>7s} {'nnz':>10s} {'nnz %':>7s} {'cycle %':>8s}")
    for fmt in FormatID:
        h = hist[fmt]
        if h["tiles"]:
            cyc = 100 * attribution.get(fmt, {}).get("cycle_share", 0.0)
            print(
                f"{fmt.name:8s} {h['tiles']:8d} {100 * h['tiles'] / total_tiles:6.1f}% "
                f"{h['nnz']:10d} {100 * h['nnz'] / total_nnz:6.1f}% {cyc:7.1f}%"
            )
    if args.features:
        from repro.matrices.features import extract_features

        print("\nstructural features:")
        for key, value in extract_features(matrix).as_dict().items():
            print(f"  {key:22s} {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TileSpMV reproduction: regenerate paper experiments or run on your matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in sorted(EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name, help=f"regenerate {name}" if name != "all" else "regenerate everything")
        p.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
        p.add_argument("--csv", default=None, metavar="DIR",
                       help="also write the raw rows as CSV into DIR (fig6/8/9/10)")
        p.set_defaults(func=_cmd_experiment, experiment=name)

    p_spmv = sub.add_parser("spmv", help="run TileSpMV + baselines on a Matrix Market file")
    p_spmv.add_argument("matrix", help="path to a .mtx file")
    p_spmv.add_argument("--method", default="auto", choices=("csr", "adpt", "deferred_coo", "auto"))
    p_spmv.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_spmv.set_defaults(func=_cmd_spmv)

    p_batch = sub.add_parser("batch", help="batched SpMM + plan cache demo on a .mtx file")
    p_batch.add_argument("matrix", help="path to a .mtx file")
    p_batch.add_argument("--k", type=int, default=32, help="number of right-hand-side vectors")
    p_batch.add_argument("--method", default="auto", choices=("csr", "adpt", "deferred_coo", "auto"))
    p_batch.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_batch.set_defaults(func=_cmd_batch)

    p_shard = sub.add_parser(
        "shard", help="sharded multi-device SpMV: verify exactness + strong-scaling table"
    )
    p_shard.add_argument("matrix", help="path to a .mtx file")
    p_shard.add_argument("--shards", default="1,2,4,8", metavar="P,P,...",
                         help="comma-separated shard counts to sweep (default 1,2,4,8)")
    p_shard.add_argument("--grid", type=_grid, default=None, metavar="RxC",
                         help="2D tile-grid partition: explicit shape like 2x2, "
                              "or 'auto' to factor each shard count (default: 1D rows)")
    p_shard.add_argument("--links", type=int, default=0,
                         help="shared interconnect links for the cost model "
                              "(0 = dedicated link per shard)")
    p_shard.add_argument("--method", default="adpt",
                         choices=("csr", "adpt", "deferred_coo", "auto"))
    p_shard.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_shard.add_argument("--backend", default="thread", choices=("thread", "process"),
                         help="shard execution backend: in-process threads or "
                              "supervised shared-memory worker processes")
    p_shard.set_defaults(func=_cmd_shard)

    p_check = sub.add_parser(
        "check", help="reliability check a .mtx file (canonicalize + ABFT verify)"
    )
    p_check.add_argument("matrix", help="path to a .mtx file")
    p_check.add_argument("--policy", default="repair", choices=("strict", "repair", "trust"))
    p_check.add_argument("--method", default="adpt", choices=("csr", "adpt", "deferred_coo", "auto"))
    p_check.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_check.add_argument("--faults", action="store_true",
                         help="also run one fault-injected product and show the recovery")
    p_check.add_argument("--seed", type=int, default=7, help="fault-injection seed")
    p_check.add_argument("--shards", type=int, default=1, metavar="N",
                         help="check the sharded engine with the shard-level "
                              "recovery ladder armed (default 1 = single device)")
    p_check.add_argument("--grid", type=_grid, default=None, metavar="RxC",
                         help="2D tile-grid partition for the sharded check: "
                              "explicit shape like 2x2, or 'auto' (implies sharding)")
    p_check.add_argument("--backend", default="thread", choices=("thread", "process"),
                         help="shard execution backend; with --faults the process "
                              "backend adds a worker-kill drill to the shard drill")
    p_check.add_argument("--drill-persistent", action="store_true",
                         help="inject an unrecoverable all-device persistent fault "
                              "and verify the structured failure path (exit 3)")
    p_check.set_defaults(func=_cmd_check)

    p_serve = sub.add_parser(
        "serve-sim",
        help="replay a synthetic request trace through the self-healing serving runtime",
    )
    p_serve.add_argument("--requests", type=int, default=120, help="trace length")
    p_serve.add_argument("--matrices", type=int, default=4, help="fleet size")
    p_serve.add_argument("--seed", type=int, default=0, help="trace/matrix seed")
    p_serve.add_argument("--queue-limit", type=int, default=16)
    p_serve.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_serve.add_argument("--overload", action="store_true",
                         help="push arrivals past capacity to exercise shedding")
    p_serve.add_argument("--faults", type=int, default=0, metavar="N",
                         help="arm a fault campaign during the trace whose first N "
                              "attempts of each fault kind fault")
    p_serve.add_argument("--fault-seed", type=int, default=7)
    p_serve.add_argument("--coalesce", type=float, default=None, metavar="SECONDS",
                         help="fuse same-plan requests into batched spmm inside "
                              "this modelled batching window")
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="widest fused batch when --coalesce is set")
    p_serve.add_argument("--json", default=None, metavar="PATH",
                         help="also write the summary as JSON")
    p_serve.set_defaults(func=_cmd_serve_sim)

    p_trace = sub.add_parser(
        "trace",
        help="record a deterministic telemetry trace (Chrome trace-event JSON)",
    )
    p_trace.add_argument("--requests", type=int, default=24, help="trace length")
    p_trace.add_argument("--matrices", type=int, default=3, help="fleet size")
    p_trace.add_argument("--seed", type=int, default=0, help="trace/matrix seed")
    p_trace.add_argument("--queue-limit", type=int, default=16)
    p_trace.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_trace.add_argument("--overload", action="store_true",
                         help="push arrivals past capacity to exercise shedding")
    p_trace.add_argument("--faults", type=int, default=0, metavar="N",
                         help="arm a fault campaign during the trace whose first N "
                              "attempts of each fault kind fault")
    p_trace.add_argument("--fault-seed", type=int, default=7)
    p_trace.add_argument("--out", default="trace.json", metavar="PATH",
                         help="trace output (metrics land next to it as *.metrics.json)")
    p_trace.add_argument("--hotspots", action="store_true",
                         help="also print the roofline-annotated hotspot report")
    p_trace.set_defaults(func=_cmd_trace)

    p_tune = sub.add_parser(
        "tune",
        help="online-tune a .mtx file: per-tile residuals + the best candidate plan",
    )
    p_tune.add_argument("matrix", help="path to a .mtx file")
    p_tune.add_argument("--method", default="adpt",
                        choices=("csr", "adpt", "deferred_coo", "auto"))
    p_tune.add_argument("--device", default="a100", choices=sorted(_DEVICES))
    p_tune.add_argument("--reorders", default=None, metavar="SPEC,SPEC",
                        help="candidate reorder specs (e.g. 'sell:0,rcm+sell:0,"
                             "cmrs:16/64'); default sell:0,sell:512,cmrs:16/64")
    p_tune.add_argument("--threshold", type=float, default=0.05,
                        help="re-arbitration residual threshold (default 0.05)")
    p_tune.add_argument("--json", default=None, metavar="PATH",
                        help="also write the residuals + proposal as JSON")
    p_tune.set_defaults(func=_cmd_tune)

    p_verify = sub.add_parser("verify", help="run the end-to-end cross-validation sweep")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="regenerate everything into one markdown report")
    p_report.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    p_report.add_argument("-o", "--output", default=None, help="write the report to this file")
    p_report.set_defaults(func=_cmd_report)

    p_inspect = sub.add_parser("inspect", help="show the per-tile format mix of a .mtx file")
    p_inspect.add_argument("matrix", help="path to a .mtx file")
    p_inspect.add_argument("--features", action="store_true", help="also print structural features")
    p_inspect.set_defaults(func=_cmd_inspect)

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
