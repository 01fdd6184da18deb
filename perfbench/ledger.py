"""The traced run: per-layer metrics from spans and the program's counters.

A traced run alternates untraced and traced steps for its time, so the
tracing overhead is measured rather than assumed.  Layers the workload's
own operations never cross are measured by short probes on the
workload's primary matrix, in the same process; their spans carry
operation ids starting with ``probe.`` and are never mixed with the
workload's own (``op.``) or set-up (``setup``) spans.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import A100, ShardedSpMV, TileSpMV
from repro.reliability.reliable import ReliableSpMV

from harness import Phase
from spans import instrument, self_times
from workloads import Serve

PROBE_REPS = 30
PROBE_K = 4
STALL_FACTOR = 10.0

# name -> unit, in the order the traced run prints them.
PER_LAYER = {
    "canonicalize.ms": "ms",
    "plan.build_ms": "ms",
    "plan.build_ms_per_mnnz": "ms/Mnnz",
    "plancache.hit_share": "ratio",
    "kernel.spmv_us": "us",
    "kernel.spmm_us_per_col": "us",
    "kernel.vs_scipy": "ratio",
    "kernel.model_us": "us_modelled",
    "kernel.flops_per_byte": "flop/B_computed",
    "kernel.share": "ratio",
    "update.ms": "ms",
    "solver.iterations": "count",
    "solver.vector_share": "ratio",
    "abft.verify_us": "us",
    "abft.overhead_ratio": "ratio",
    "abft.stall_share": "ratio",
    "abft.detected": "count",
    "serving.served_share": "ratio",
    "serving.shed_share": "ratio",
    "serving.deadline_miss_share": "ratio",
    "serving.downgrades_mean": "count",
    "serving.self_us": "us",
    "coalesce.coalesced_share": "ratio",
    "coalesce.batch_mean": "count",
    "coalesce.fused_us_per_col": "us",
    "dist.partition_ms": "ms",
    "dist.imbalance": "ratio",
    "dist.spmm_ms": "ms",
    "dist.vs_single": "ratio",
    "procpool.vs_thread": "ratio",
    "procpool.spawn_s": "s",
    "procpool.round_trips_per_call": "count",
    "procpool.respawns": "count",
    "trace.overhead_share": "ratio",
}


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Spans:
    """Query helpers over one recorder's spans."""

    def __init__(self, rec) -> None:
        self.all = rec.spans
        self.by_id = {s.id: s for s in self.all}
        self.self_s = self_times(self.all)
        self._kids: dict = {}
        for s in self.all:
            self._kids.setdefault(s.parent, []).append(s)

    def get(self, name: str, *prefixes: str) -> list:
        """Spans called ``name`` from the first op-id prefix that has any."""
        for p in prefixes:
            found = [s for s in self.all if s.name == name and s.op.startswith(p)]
            if found:
                return found
        return []

    def outermost(self, spans) -> list:
        """Drop spans nested inside a span of the same name."""
        out = []
        for s in spans:
            p = s.parent
            while p is not None and self.by_id[p].name != s.name:
                p = self.by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def children(self, s) -> list:
        return self._kids.get(s.id, [])


def run_probes(wl, rec, sp_op: Spans, seed: int) -> dict:
    """Measure the layers the workload's operations did not cross."""
    a = wl.matrix
    rng = np.random.default_rng(seed + 101)
    x = rng.standard_normal(a.shape[1])
    xk = rng.standard_normal((a.shape[1], PROBE_K))
    out = {}

    with rec.operation("probe.kernel"):
        eng = TileSpMV(a)
        for _ in range(PROBE_REPS):
            eng.spmv(x)
            with rec.span("scipy.spmv"):
                a @ x
            eng.spmm(xk)
            eng.update_values(a.data)
    out["run_cost"] = eng.run_cost()

    if not sp_op.get("abft.spmv", "op."):
        with rec.operation("probe.abft"):
            rel = ReliableSpMV(a)
            for _ in range(3 * PROBE_REPS):
                rel.spmv(x)
        out["abft_detected"] = rel.counters["detected"]

    if not sp_op.get("serving.offer", "op."):
        srv = Serve(seed, fleet={"probe": a}, requests=200)
        srv.op_prefix = "probe.serving."
        with rec.operation("probe.warm"):
            rt = srv.build()
            srv.step(rt, None)
        before = srv.counters(rt)
        srv.step(rt, rec)
        out["serving"] = (_delta(before, srv.counters(rt)), srv.op_prefix)
        srv.close(rt)

    with rec.operation("probe.thread"):
        th = ShardedSpMV(a, grid=(1, 2))
        with rec.operation("probe.warm"):
            th.spmm(xk)
        for _ in range(PROBE_REPS):
            th.spmm(xk)
        th.close()

    if not sp_op.get("dist.spmm", "op."):
        with rec.operation("probe.dist"):
            pe = ShardedSpMV(a, grid=(1, 2), backend="process")
            with rec.operation("probe.warm"):
                pe.spmm(xk)
            before = dict(pe.supervisor.counters)
            for _ in range(PROBE_REPS):
                pe.spmm(xk)
            d = _delta(before, pe.supervisor.counters)
            d["imbalance"] = pe.partition.imbalance()
            out["dist"] = (d, "probe.dist")
            pe.close()
    return out


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def traced_run(wl, engine, rec, seconds: float, seed: int):
    """Alternate untraced and traced steps, then probe; returns (metrics, phase).

    Alternating step by step exposes both halves to the same host load,
    so ``trace.overhead_share`` compares like with like.  Counter deltas
    are summed over the traced steps only.
    """
    plain, traced = Phase(), Phase()
    delta: dict = {}
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        plain.add(*wl.step(engine, None))
        before = wl.counters(engine)
        with instrument(rec):
            traced.add(*wl.step(engine, rec))
        for k, v in _delta(before, wl.counters(engine)).items():
            delta[k] = delta.get(k, 0) + v
    final = wl.counters(engine)
    with instrument(rec):
        probes = run_probes(wl, rec, Spans(rec), seed)
    metrics = layer_metrics(wl, Spans(rec), delta, final, probes)
    per_op = [p.busy_s / len(p.latencies) for p in (plain, traced)]
    metrics["trace.overhead_share"] = per_op[1] / per_op[0] - 1.0
    return {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}, traced


def layer_metrics(wl, sp: Spans, delta: dict, final: dict, probes: dict) -> dict:
    """Per-layer metrics; ``delta`` holds counter changes over traced steps."""
    m = {}
    ms = lambda spans: [s.duration * 1e3 for s in spans]  # noqa: E731
    us = lambda spans: [s.duration * 1e6 for s in spans]  # noqa: E731

    # canonicalize / plan: the timed set-up builds.
    setups = sorted({s.op for s in sp.all if s.op.startswith("setup")})
    canon = sp.outermost(sp.get("canonicalize", "setup"))
    m["canonicalize.ms"] = _median(
        sum(s.duration for s in canon if s.op == op) * 1e3 / wl.MATRICES
        for op in setups
    )
    builds = sp.outermost(sp.get("plan.build", "setup"))
    m["plan.build_ms"] = _median(ms(builds))
    m["plan.build_ms_per_mnnz"] = _median(
        s.duration * 1e3 / (s.attrs["nnz"] / 1e6) for s in builds if s.attrs["nnz"]
    )
    m["plancache.hit_share"] = _share(
        final["plan_hits"], final["plan_hits"] + final["plan_misses"]
    )

    # kernel: the workload's own calls, else the kernel probe.
    m["kernel.spmv_us"] = _median(us(sp.get("kernel.spmv", "op.", "probe.kernel")))
    spmm = [s for s in sp.get("kernel.spmm", "op.", "probe.kernel") if s.attrs["k"] > 1]
    m["kernel.spmm_us_per_col"] = _median(s.duration * 1e6 / s.attrs["k"] for s in spmm)
    m["kernel.vs_scipy"] = _share(
        _median(ms(sp.get("kernel.spmv", "probe.kernel"))),
        _median(ms(sp.get("scipy.spmv", "probe.kernel"))),
    )
    cost = probes["run_cost"]
    m["kernel.model_us"] = cost.time(A100) * 1e6
    m["kernel.flops_per_byte"] = _share(cost.useful_flops, cost.stats(A100).total_bytes)
    op_wall = sum(s.duration for s in sp.get("op", "op."))
    kernel_self = sum(
        sp.self_s[s.id] for s in sp.all
        if s.op.startswith("op.") and s.name.startswith("kernel.")
    )
    m["kernel.share"] = _share(kernel_self, op_wall)
    m["update.ms"] = _median(ms(sp.get("kernel.update", "op.", "probe.kernel")))

    # solver
    solves = sp.get("solver.cg", "op.") or sp.get("solver.block_cg", "op.")
    m["solver.iterations"] = _median(s.attrs["iterations"] for s in solves)
    m["solver.vector_share"] = _share(
        sum(sp.self_s[s.id] for s in solves), sum(s.duration for s in solves)
    )

    # abft
    m["abft.verify_us"] = _median(us(sp.get("abft.verify", "op.", "probe.abft")))
    calls = sp.get("abft.spmv", "op.", "probe.abft")
    inner = [c for s in calls for c in sp.children(s) if c.name == "kernel.spmv"]
    m["abft.overhead_ratio"] = _share(
        sum(s.duration for s in calls), sum(c.duration for c in inner)
    )
    verified = calls + sp.get("abft.spmm", "op.", "probe.abft")
    groups: dict = {}
    for s in verified:
        groups.setdefault((s.name, s.attrs["nnz"], s.attrs["k"]), []).append(s.duration)
    stalls = sum(
        sum(d > STALL_FACTOR * statistics.median(ds) for d in ds)
        for ds in groups.values()
    )
    m["abft.stall_share"] = _share(stalls, len(verified))

    # serving / coalesce: exact virtual-clock counters over the traced phase
    d, prefix = probes.get("serving", (delta, "op."))
    m["abft.detected"] = probes.get("abft_detected", d["faults_detected"])
    m["serving.served_share"] = _share(d["served"], d["submitted"])
    m["serving.shed_share"] = _share(d["shed"], d["submitted"])
    m["serving.deadline_miss_share"] = _share(d["deadline_misses"], d["submitted"])
    m["serving.downgrades_mean"] = _share(d["downgrades"], d["served"])
    calls = sp.get("serving.offer", prefix) + sp.get("serving.flush", prefix)
    m["serving.self_us"] = _share(sum(sp.self_s[s.id] for s in calls) * 1e6, len(calls))
    m["coalesce.coalesced_share"] = _share(d["coalesced"], d["submitted"])
    m["coalesce.batch_mean"] = _share(d["flushed_members"], d["flushes"])
    fused = [s for s in sp.get("abft.spmm", prefix) if s.attrs["k"] > 1]
    m["coalesce.fused_us_per_col"] = _median(s.duration * 1e6 / s.attrs["k"] for s in fused)

    # dist / procpool
    m["dist.partition_ms"] = _median(ms(sp.get("dist.partition", "setup", "probe.dist")))
    d, prefix = probes.get("dist", (delta, "op."))
    m["dist.imbalance"] = d["imbalance"] if "dist" in probes else final["imbalance"]
    proc = sp.outermost(sp.get("dist.spmm", prefix))
    m["dist.spmm_ms"] = _median(ms(proc))
    single = [s for s in sp.get("kernel.spmm", "probe.kernel") if s.attrs["k"] == PROBE_K]
    m["dist.vs_single"] = _share(
        _median(s.duration / s.attrs["k"] for s in proc),
        _median(s.duration / s.attrs["k"] for s in single),
    )
    thread = sp.outermost(sp.get("dist.spmm", "probe.thread"))
    m["procpool.vs_thread"] = _share(_median(ms(proc)), _median(ms(thread)))
    m["procpool.spawn_s"] = _median(
        s.duration for s in sp.get("procpool.spawn", "setup", "probe.dist")
    )
    m["procpool.round_trips_per_call"] = _share(d["round_trips"], len(proc))
    m["procpool.respawns"] = d["respawns"]
    return m
