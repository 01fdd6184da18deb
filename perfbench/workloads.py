"""The three workloads: inputs from a seed, a build to time, a timed step.

Each workload generates its inputs and reference answers in
``__init__`` (untimed), builds what it serves from in :meth:`build`
(timed as ``setup_s``), and runs operations in :meth:`step`, which
times only the program's calls and checks each result afterwards.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy.sparse as sp

from repro import PlanCache, ShardedSpMV, TileSpMV
from repro.apps.solvers import (
    ScipyOperator,
    block_conjugate_gradient,
    conjugate_gradient,
)
from repro.matrices import banded, fem_blocks, power_law
from repro.reliability import canonicalize_csr
from repro.reliability.abft import AbftChecksum
from repro.serving import (
    CoalesceConfig,
    RuntimeConfig,
    ServingRuntime,
    synthetic_trace,
)

from harness import FAILED, OK, REFUSED, WRONG, Op

RTOL = 1e-8
# Solutions of the solver and of the scipy reference run agree to this
# relative distance; both stop at RTOL on a matrix of condition <= 5.
SOLUTION_RTOL = 1e-6


@contextmanager
def timed_call(rec, op: str, clock: list):
    """Time one program call into ``clock[0]``; traced as span ``op``."""
    ctx = nullcontext() if rec is None else rec.operation(op)
    with ctx, (nullcontext() if rec is None else rec.span("op")):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            clock[0] = time.perf_counter() - t0


def plan_counters(cache) -> dict:
    stats = cache.stats() if cache is not None else {"hits": 0, "misses": 0}
    return {"plan_hits": stats["hits"], "plan_misses": stats["misses"]}


class SpdFamily:
    """A symmetrized ``fem_blocks`` pattern with seeded SPD value sets.

    Every value set keeps the pattern and symmetry; off-diagonals are
    the base values scaled by a symmetric random factor, and the
    diagonal is a constant ``dominance`` times the largest off-diagonal
    row sum, so every set is SPD with condition number at most
    ``(dominance + 1) / (dominance - 1)``.
    """

    def __init__(self, n_nodes: int, seed: int, dominance: float = 1.5):
        a = fem_blocks(n_nodes, block=3, seed=seed)
        self.pattern, _ = canonicalize_csr((a + a.T) * 0.5)
        p = self.pattern
        rows = np.repeat(np.arange(p.shape[0]), np.diff(p.indptr))
        self.diag = rows == p.indices
        ids = sp.csr_matrix((np.arange(p.nnz, dtype=np.float64), p.indices, p.indptr),
                            shape=p.shape)
        self.tperm = ids.T.tocsr().data.astype(np.int64)  # entry of (j, i)
        self.rows = rows
        self.dominance = dominance
        self.rng = np.random.default_rng(seed + 7919)

    def values(self) -> np.ndarray:
        w = self.rng.uniform(-1.0, 1.0, self.pattern.nnz)
        sym = 0.5 * (w + w[self.tperm])
        v = self.pattern.data * (1.0 + 0.5 * sym)
        v[self.diag] = 0.0
        row_sums = np.bincount(self.rows, weights=np.abs(v), minlength=self.pattern.shape[0])
        v[self.diag] = self.dominance * row_sums.max()
        return v

    def matrix(self, values: np.ndarray) -> sp.csr_matrix:
        p = self.pattern
        return sp.csr_matrix((values, p.indices, p.indptr), shape=p.shape)


class Solve:
    """Time stepping: fresh values on one pattern, then CG (closed loop)."""

    name = "solve"
    op_prefix = "op."
    MATRICES = 1
    N_NODES = 6000  # n = 18000, about 0.48 M nnz
    VALUE_SETS = 8
    WARMUP_STEPS = 2 * VALUE_SETS

    def __init__(self, seed: int) -> None:
        fam = SpdFamily(self.N_NODES, seed)
        rng = np.random.default_rng(seed)
        self.matrix = fam.matrix(fam.values())
        self.steps = []
        for _ in range(self.VALUE_SETS):
            v = fam.values()
            b = rng.standard_normal(fam.pattern.shape[0])
            ref = conjugate_gradient(ScipyOperator(fam.matrix(v)), b, tol=RTOL)
            if not ref.converged:
                raise RuntimeError("reference CG did not converge")
            self.steps.append((v, b, ref.iterations, ref.x))
        self.nnz = fam.pattern.nnz
        self.i = 0

    def build(self):
        return TileSpMV(self.matrix, plan_cache=PlanCache())

    def close(self, engine) -> None:
        pass

    def step(self, engine, rec):
        v, b, iters, x_ref = self.steps[self.i % self.VALUE_SETS]
        clock = [0.0]
        with timed_call(rec, f"{self.op_prefix}{self.i}", clock):
            engine.update_values(v)
            res = conjugate_gradient(engine, b, tol=RTOL)
        self.i += 1
        if not res.converged:
            status = FAILED
        elif res.iterations != iters or (
            np.linalg.norm(res.x - x_ref) > SOLUTION_RTOL * np.linalg.norm(x_ref)
        ):
            status = WRONG
        else:
            status = OK
        return clock[0], [Op(clock[0], 2.0 * self.nnz * res.spmv_calls, status)]

    def counters(self, engine) -> dict:
        return plan_counters(engine.plan_cache)


class Serve:
    """A seeded bursty trace replayed through the coalescing runtime.

    The trace is open-loop in virtual time; the replay is a closed loop
    with one caller.  Each pass replays the whole trace shifted by
    ``PASS_GAP`` virtual seconds, long enough for every queue to drain,
    so every pass makes the same virtual-clock decisions.
    """

    name = "serve"
    op_prefix = "op."
    REQUESTS = 5000
    WARMUP_STEPS = 1  # one pass
    PASS_GAP = 1.0
    CONFIG = RuntimeConfig(
        queue_limit=16, coalesce=CoalesceConfig(window_s=5e-5, max_batch=8)
    )

    def __init__(self, seed: int, fleet: dict | None = None,
                 requests: int = REQUESTS) -> None:
        self.fleet = fleet or {
            "power_law": canonicalize_csr(power_law(20000, avg_degree=6, seed=seed))[0],
            "fem": canonicalize_csr(fem_blocks(3000, seed=seed + 1))[0],
            "banded": canonicalize_csr(banded(12000, 8, seed=seed + 2))[0],
        }
        self.trace = synthetic_trace(
            list(self.fleet), n_requests=requests, seed=seed,
            mean_interarrival=2e-5, burst_prob=0.15, burst_len=8,
            deadline_range=(5e-5, 2e-4),
        )
        self.x_seeds = {r.rid: r.x_seed for r in self.trace}
        self.checksums = {m: AbftChecksum.from_csr(a) for m, a in self.fleet.items()}
        self.MATRICES = len(self.fleet)
        self.passes = 0

    @property
    def matrix(self):
        return self.fleet["power_law"]

    def build(self):
        rt = ServingRuntime(self.CONFIG)
        for mid, a in self.fleet.items():
            rt.register(mid, a)
        return rt

    def close(self, rt) -> None:
        rt.close()

    def step(self, rt, rec):
        """Replay one pass; a request's latency runs on the program clock."""
        offset = self.passes * self.PASS_GAP
        self.passes += 1
        prog = 0.0  # wall seconds spent inside offer/flush this pass
        admitted: dict[int, float] = {}
        clock = [0.0]
        ops: list[Op] = []
        for n, req in enumerate(self.trace + [None]):
            with timed_call(rec, f"{self.op_prefix}p{self.passes}c{n}", clock):
                if req is None:
                    outs = rt.flush()
                else:
                    outs = rt.offer(dataclasses.replace(req, arrival=req.arrival + offset))
            if req is not None:
                admitted[req.rid] = prog
            prog += clock[0]
            for o in outs:
                ops.append(Op(prog - admitted.pop(o.rid), self._flops(o), self._check(o)))
        return prog, ops

    def _flops(self, o) -> float:
        return 2.0 * self.fleet[o.matrix_id].nnz if o.status == "served" else 0.0

    def _check(self, o) -> str:
        if o.status != "served":
            return REFUSED
        if not o.verified:
            return FAILED
        a = self.fleet[o.matrix_id]
        x = np.random.default_rng(self.x_seeds[o.rid]).standard_normal(a.shape[1])
        if np.max(np.abs(o.y - a @ x)) > self.checksums[o.matrix_id].tolerance(x):
            return WRONG
        return OK if o.deadline_met else REFUSED

    def counters(self, rt) -> dict:
        """Virtual-clock counters: exact, and equal for equal seeds."""
        s = rt.stats()
        sizes = s["coalesce"]["batch_sizes"]
        return {
            **{k: s[k] for k in ("submitted", "served", "shed", "deadline_misses",
                                 "downgrades", "coalesced", "faults_detected")},
            "flushes": sum(sizes.values()),
            "flushed_members": sum(k * n for k, n in sizes.items()),
            **plan_counters(rt.plan_cache),
        }


class Shard:
    """Repeated 4-column block CG on a (1, 2) process grid (closed loop)."""

    name = "shard"
    op_prefix = "op."
    MATRICES = 1
    N_NODES = 700
    K = 4
    WARMUP_STEPS = 5

    def __init__(self, seed: int) -> None:
        fam = SpdFamily(self.N_NODES, seed)
        self.matrix = fam.matrix(fam.values())
        self.nnz = self.matrix.nnz
        self.b = np.random.default_rng(seed).standard_normal((self.matrix.shape[0], self.K))
        ref = block_conjugate_gradient(TileSpMV(self.matrix), self.b, tol=RTOL)
        if not ref.converged.all():
            raise RuntimeError("reference block CG did not converge")
        self.x_ref = ref.x
        self.i = 0

    def build(self):
        return ShardedSpMV(self.matrix, grid=(1, 2), backend="process")

    def close(self, engine) -> None:
        engine.close()

    def step(self, engine, rec):
        clock = [0.0]
        with timed_call(rec, f"{self.op_prefix}{self.i}", clock):
            res = block_conjugate_gradient(engine, self.b, tol=RTOL)
        self.i += 1
        if not res.converged.all():
            status = FAILED
        elif not np.array_equal(res.x, self.x_ref):
            status = WRONG
        else:
            status = OK
        flops = 2.0 * self.nnz * self.K * res.spmm_calls
        return clock[0], [Op(clock[0], flops, status, degraded=engine.backend != "process")]

    def counters(self, engine) -> dict:
        sup = engine.supervisor.counters
        return {
            "round_trips": sup["round_trips"],
            "respawns": sup["respawns"],
            "imbalance": engine.partition.imbalance(),
            **plan_counters(engine.plan_cache),
        }


WORKLOADS = {w.name: w for w in (Solve, Serve, Shard)}
