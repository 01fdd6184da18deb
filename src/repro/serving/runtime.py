"""Self-healing serving runtime: deadlines, admission control, degradation.

:class:`ServingRuntime` turns the per-product reliability ladder of
:class:`~repro.reliability.reliable.ReliableSpMV` into a *service*: a
single-server queue on a *virtual clock* whose time comes from the cost
model (:meth:`RunCost.time` on the configured device) plus deterministic
plan-build surcharges — never wall time, so every trace replays
byte-identically.

Per request, in order:

1. **Admission** — arrivals find the queue; ``queue_limit`` waiting
   requests is a hard bound, beyond it the request is shed
   (``queue_full``) rather than accepted into a queue it cannot clear.
2. **Circuit breaker** — one :class:`~repro.serving.breaker.CircuitBreaker`
   per *plan* (structural fingerprint).  An open breaker denies the
   tiled fast path and routes to the verified scalar fallback; after a
   cooldown, half-open probes earn the fast path back.
3. **Degradation ladder** — two rungs; the fast rung wins whenever
   the breaker admits it and it fits the remaining deadline budget:

   ====  ======  =========================================================
   lvl   name    modelled service time
   ====  ======  =========================================================
   0     fast    ABFT-verified tiled product (+ one plan build when a
                 probe key misses the plan cache)
   1     scalar  verified scalar reference (no plan needed)
   ====  ======  =========================================================

   Formats and the kernel method are arbitrated once, when the plan is
   built, never per request — so plan readiness alone prices the fast
   rung.  The scalar rung is *slower* than the fast path but needs no
   plan and lives outside the simulated fault domain — it is the trust
   rung, not the speed rung.  If neither fits the budget the request
   is shed (``deadline``): the runtime never serves a request it
   already knows will blow its deadline, and it **never returns an
   unverified result** at any rung.
4. **Execution + accounting** — the fast rung runs through
   ``ReliableSpMV`` (every product ABFT-verified; detections retried
   against a fresh plan, then referenced).  Detections and recovery
   work are read off the wrapper's counters and charged to the virtual
   clock, so a fault storm shows up as deadline misses — which is
   exactly what trips the breaker.

**Live plan migration** (:meth:`ServingRuntime.retune`): a registered
matrix can be re-tuned without pausing traffic.  The candidate plan is
built *warm* — encoded and cached entirely off the request path, the
virtual clock never advances — then atomically swapped in (one dict
assignment; ``submit`` captures its registration record once at entry,
so no request ever observes a half-swapped plan).  The old record moves
to a drain list and is released — engine closed, cached plan
invalidated unless another registration shares it — only once the
virtual work queued against it has completed.  A candidate whose
modelled fast path regresses the incumbent's is rolled back instead:
closed, its cache entries dropped, the incumbent untouched.  See
``docs/TUNING.md`` for the full state machine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry as tele
from repro.core.plancache import PlanCache
from repro.gpu.device import A100, TITAN_RTX, DeviceSpec
from repro.reliability.reliable import ReliableSpMV, verified_reference
from repro.reliability.validation import ValidationPolicy
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.serving.coalesce import BatchQueue, CoalesceConfig, OpenBatch
from repro.serving.trace import Request

__all__ = [
    "RuntimeConfig",
    "RequestOutcome",
    "MigrationOutcome",
    "ServingRuntime",
    "LEVEL_NAMES",
]

LEVEL_NAMES = ("fast", "scalar")

_DEVICES: dict[str, DeviceSpec] = {"A100": A100, "TITAN_RTX": TITAN_RTX}


@dataclass(frozen=True)
class RuntimeConfig:
    """Serving knobs (all times in modelled seconds).

    ``build_base_seconds`` / ``build_seconds_per_nnz`` price a plan
    build deterministically (wall time would break replay).
    """

    queue_limit: int = 32
    device: str = "A100"
    build_base_seconds: float = 2e-5
    build_seconds_per_nnz: float = 2e-9
    plan_cache_capacity: int = 16
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    # Request coalescing (None = every request served solo, the
    # pre-coalescing behaviour, byte-for-byte).
    coalesce: CoalesceConfig | None = None

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.device not in _DEVICES:
            raise ValueError(f"unknown device {self.device!r}; choose from {sorted(_DEVICES)}")


@dataclass
class RequestOutcome:
    """What happened to one request, on the virtual clock."""

    rid: int
    matrix_id: str
    status: str                # "served" | "shed"
    level: int = -1            # ladder rung served at; -1 when shed
    level_name: str = ""
    shed_reason: str = ""      # "queue_full" | "deadline"
    arrival: float = 0.0
    start: float = 0.0
    completion: float = 0.0
    deadline: float = math.inf
    deadline_met: bool = False
    queue_depth: int = 0
    detected: int = 0          # ABFT detections during service
    recovered: int = 0         # retries + reference fallbacks that fixed them
    breaker_forced: bool = False  # scalar because the breaker denied fast
    verified: bool = False
    plan_generation: int = 0   # generation of the plan that served it (0 = shed)
    batch_size: int = 1        # members of the fused spmm that served it
    batch_wait: float = 0.0    # queueing delay inside the batching window
    service_share: float = 0.0  # this request's share of the (batched) service
    y: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


@dataclass
class MigrationOutcome:
    """What one :meth:`ServingRuntime.retune` call did."""

    matrix_id: str
    status: str               # "migrated" | "rolled_back" | "no_improvement"
    from_generation: int
    to_generation: int        # == from_generation unless migrated
    incumbent_time: float     # modelled fast-path seconds (ABFT included)
    candidate_time: float     # same for the candidate (== incumbent when none built)
    label: str = ""           # tuner proposal label, or "explicit"
    reorder: str | None = None
    plan_key_old: str = ""
    plan_key_new: str = ""

    @property
    def gain(self) -> float:
        if self.candidate_time == 0.0:
            return 1.0 if self.incumbent_time == 0.0 else math.inf
        return self.incumbent_time / self.candidate_time

    def describe(self) -> str:
        return (
            f"retune[{self.matrix_id}] {self.status}: "
            f"gen {self.from_generation} -> {self.to_generation}, "
            f"modelled {self.candidate_time * 1e6:.1f} us vs "
            f"{self.incumbent_time * 1e6:.1f} us (gain {self.gain:.2f}x"
            + (f", reorder {self.reorder}" if self.reorder else "")
            + ")"
        )


class _Served:
    """Registration record: engine, costs, breaker key."""

    def __init__(self, matrix_id: str, engine: ReliableSpMV, device: DeviceSpec,
                 config: RuntimeConfig, generation: int = 1) -> None:
        self.matrix_id = matrix_id
        self.engine = engine
        self.device = device
        self.generation = generation
        self.plan_key = engine.plan_key or matrix_id
        # Cache-warm probes: per-shard fingerprints for a sharded engine,
        # [plan_key] otherwise — the fast path is warm iff all are cached.
        self.probe_keys = engine.plan_keys or [self.plan_key]
        self.t_fast = engine.run_cost().time(device)
        scalar_cost = engine.reference.run_cost() + engine.checksum.verify_cost(1)
        self.t_scalar = scalar_cost.time(device)
        self.build_surcharge = (
            config.build_base_seconds + config.build_seconds_per_nnz * engine.nnz
        )
        self._t_fast_batched: dict[int, float] = {}

    def t_fast_batched(self, k: int) -> float:
        """Modelled seconds of one ABFT-verified ``spmm`` over k columns.

        The batched fast path: payload traffic once, per-column gather
        and verification k times (:meth:`RunCost.batched` pricing).
        ``k == 1`` is exactly :attr:`t_fast`.
        """
        if k <= 1:
            return self.t_fast
        t = self._t_fast_batched.get(k)
        if t is None:
            t = self.engine.spmm_cost(k).time(self.device)
            self._t_fast_batched[k] = t
        return t


class ServingRuntime:
    """Single-server virtual-clock SpMV service over registered matrices."""

    def __init__(self, config: RuntimeConfig | None = None,
                 plan_cache: PlanCache | None = None) -> None:
        self.config = config or RuntimeConfig()
        self.device = _DEVICES[self.config.device]
        self.plan_cache = plan_cache or PlanCache(self.config.plan_cache_capacity)
        self._matrices: dict[str, _Served] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        # Superseded registrations waiting for their queued virtual work
        # to complete before release: (release_at, record).
        self._draining: list[tuple[float, _Served]] = []
        self.now = 0.0
        self.busy_until = 0.0
        self._in_flight: deque[float] = deque()  # completion times of queued work
        self.counters = {
            "submitted": 0,
            "served": 0,
            "shed_queue_full": 0,
            "shed_deadline": 0,
            "deadline_misses": 0,   # served, but late (recovery work blew the budget)
            "downgrades": 0,        # requests served on the scalar rung
            "faults_detected": 0,
            "recoveries": 0,
            "migrations_started": 0,
            "migrations_completed": 0,
            "migrations_rolled_back": 0,
            "plans_drained": 0,     # superseded plans fully released
            "coalesced": 0,         # requests served as members of a fused spmm
            "batches_flushed": 0,
            "flush_window": 0,      # batching window expired
            "flush_deadline": 0,    # tightest member deadline forced the flush
            "flush_capacity": 0,    # max_batch reached
            "flush_migration": 0,   # retune flushed before the generation swap
            "flush_drain": 0,       # explicit flush()
        }
        self.level_counts = [0, 0]
        self._batches: BatchQueue | None = (
            BatchQueue(self.config.coalesce)
            if self.config.coalesce is not None
            else None
        )
        # Outcomes finalized by flushes that happen inside retune();
        # delivered by the next offer()/flush() call.
        self._backlog: list[RequestOutcome] = []
        self.batch_sizes: dict[int, int] = {}  # flushed size -> count

    # -- registration ------------------------------------------------------

    def register(
        self,
        matrix_id: str,
        matrix,
        method: str = "adpt",
        policy: ValidationPolicy | str = ValidationPolicy.REPAIR,
        shards: int = 1,
        grid: tuple[int, int] | str | int | None = None,
        recovery=None,
        backend: str = "thread",
        **tile_kwargs,
    ) -> None:
        """Admit a matrix: canonicalize, build its plan, price its rungs.

        Matrices sharing a structural fingerprint share a plan *and* a
        breaker — a poisoned plan is quarantined for exactly the
        requests that would hit it.  With ``shards > 1`` (or a ``grid``)
        the fast path is the sharded engine (one cached plan per shard,
        all in this runtime's plan cache); its rungs are priced by the
        sequential single-device cost, the honest figure for a
        one-device runtime.  ``grid=(R, C)``/``"auto"`` serves the 2D
        tile-grid partition; served results stay bit-for-bit equal to
        the single-device plan for the fixed methods.  ``recovery``
        (a :class:`~repro.dist.recovery.RecoveryConfig` or ``True``)
        arms the shard-level recovery ladder under the served engine,
        so a single faulty device retries locally instead of failing
        the whole request up to this runtime's breaker.
        ``backend="process"`` serves from supervised worker processes
        (:class:`~repro.dist.procpool.ProcessShardedSpMV`), with or
        without ``recovery``: the same ladder retries a shard whose
        worker was killed or hung.
        """
        if matrix_id in self._matrices:
            raise ValueError(f"matrix id {matrix_id!r} already registered")
        engine = ReliableSpMV(
            matrix, method=method, policy=policy, abft=True,
            plan_cache=self.plan_cache, shards=shards, grid=grid,
            recovery=recovery, backend=backend, **tile_kwargs,
        )
        sm = _Served(matrix_id, engine, self.device, self.config)
        self._matrices[matrix_id] = sm
        self._breakers.setdefault(
            sm.plan_key, CircuitBreaker(self.config.breaker, sm.plan_key)
        )

    def estimate(self, matrix_id: str) -> dict:
        """Modelled service times per rung (for deadline calibration)."""
        sm = self._served(matrix_id)
        return {
            "plan_ready": self._plan_ready(sm),
            "fast": self._fast_price(sm, 1),
            "scalar": sm.t_scalar,
        }

    def _plan_ready(self, sm: _Served) -> bool:
        return all(self.plan_cache.peek(k) is not None for k in sm.probe_keys)

    def _fast_price(self, sm: _Served, k: int) -> float:
        """Modelled fast-rung service for a k-wide product.

        The one pricing rule for solo requests, fused batches and the
        coalescer's flush schedule: the batched product, plus one plan
        build when any probe key misses the plan cache.
        """
        t = sm.t_fast_batched(k)
        return t if self._plan_ready(sm) else sm.build_surcharge + t

    def _served(self, matrix_id: str) -> _Served:
        try:
            return self._matrices[matrix_id]
        except KeyError:
            raise KeyError(
                f"matrix id {matrix_id!r} is not registered with this runtime"
            ) from None

    # -- live migration ----------------------------------------------------

    def retune(
        self,
        matrix_id: str,
        tuner=None,
        reorder: str | None = None,
        collector=None,
    ) -> MigrationOutcome:
        """Re-tune one registration and migrate live traffic onto it.

        Without an explicit ``reorder`` an
        :class:`~repro.tuning.online.OnlineTuner` (``tuner``, or a
        default on this runtime's device) proposes the candidate from
        the incumbent's residuals (scaled by ``collector`` measurements
        when given).  Only a proposal's reorder is applied: a per-tile
        format vector changes the modelled price, never the operand a
        product executes, so a proposal without a new reorder returns
        ``no_improvement``.  The candidate is built with the
        registration's own shards, grid, backend and recovery, and
        cached *warm* — the virtual clock never advances, no request is
        paused or shed — then swapped in atomically; requests already
        priced against the old plan complete on it, and the old record
        is only released (engine closed, cached plans dropped unless
        shared) once the virtual work queued at swap time has
        completed.  A candidate whose modelled fast path is no better
        than the incumbent's is rolled back instead, leaving the
        incumbent serving.
        """
        sm = self._served(matrix_id)
        eng = sm.engine
        if self._batches is not None:
            # A batch never forms across a migration boundary: the open
            # batch (admitted against the incumbent generation) flushes
            # on the incumbent *before* any swap can happen.
            b = self._batches.pop(matrix_id)
            if b is not None:
                self._backlog += self._flush_batch(b, "migration", self.now)
        self.counters["migrations_started"] += 1
        out = MigrationOutcome(
            matrix_id=matrix_id, status="no_improvement",
            from_generation=sm.generation, to_generation=sm.generation,
            incumbent_time=sm.t_fast, candidate_time=sm.t_fast,
            plan_key_old=sm.plan_key, plan_key_new=sm.plan_key,
        )
        csr = eng.canonical_csr()
        if reorder is not None:
            out.label = "explicit"
        else:
            from repro.tuning import OnlineTuner

            tuner = tuner or OnlineTuner(device=self.device)
            # A sharded incumbent is priced on one device, tiled as its
            # shards are.
            pricing = {k: v for k, v in eng._tile_kwargs.items()
                       if k in ("tile", "selection", "tbalance", "params")}
            proposal = tuner.propose(csr, engine=eng.engine,
                                     collector=collector, **pricing)
            if not proposal.is_incumbent:
                out.label = proposal.label
            serving = getattr(eng.engine, "reorder", None)
            if proposal.reorder in (None, getattr(serving, "tag", None)):
                self._publish_migration(out)
                return out
            reorder = proposal.reorder
        out.reorder = reorder

        # Build the candidate warm, off the request path (the virtual
        # clock does not advance): the plan lands in this runtime's
        # cache before any request can route to it.  A format override
        # is bound to the incumbent's tiling, so it does not carry over.
        tile_kwargs = dict(eng._tile_kwargs, reorder=reorder)
        tile_kwargs.pop("formats_override", None)
        candidate = ReliableSpMV(
            csr, method=eng._method, policy=eng.policy,
            abft=eng.checksum is not None, max_retries=eng.max_retries,
            plan_cache=self.plan_cache, shards=eng._shards, grid=eng._grid,
            recovery=eng._recovery, backend=eng._backend, **tile_kwargs,
        )
        del csr
        cand = _Served(
            matrix_id, candidate, self.device, self.config,
            generation=sm.generation + 1,
        )
        out.candidate_time = cand.t_fast
        out.plan_key_new = cand.plan_key
        if cand.t_fast >= sm.t_fast:
            # Regression gate: the incumbent keeps serving, the candidate
            # is closed and its cache entries dropped.
            candidate.close()
            self._release_plan(cand)
            out.status = "rolled_back"
            out.to_generation = sm.generation
            out.plan_key_new = sm.plan_key
            self.counters["migrations_rolled_back"] += 1
            self._publish_migration(out)
            return out

        # The atomic swap: one dict assignment.  submit() reads the
        # record once at entry, so every request serves end-to-end on
        # the plan it was admitted against.
        self._breakers.setdefault(
            cand.plan_key, CircuitBreaker(self.config.breaker, cand.plan_key)
        )
        self._draining.append((max(self.now, self.busy_until), sm))
        self._matrices[matrix_id] = cand
        out.status = "migrated"
        out.to_generation = cand.generation
        self.counters["migrations_completed"] += 1
        self._publish_migration(out)
        self._drain(self.now)
        return out

    def _drain(self, now: float) -> None:
        """Release superseded records whose queued work has completed."""
        if not self._draining:
            return
        keep = []
        for release_at, old in self._draining:
            if release_at <= now:
                old.engine.close()
                self._release_plan(old)
                self.counters["plans_drained"] += 1
                if tele.ENABLED:
                    tele.count("serving_plans_drained_total")
            else:
                keep.append((release_at, old))
        self._draining = keep

    def _release_plan(self, served: _Served) -> None:
        """Drop a record's cached plans unless another record shares them."""
        live = list(self._matrices.values()) + [s for _, s in self._draining]
        shared = {
            k for s in live if s is not served for k in s.probe_keys
        }
        for key in served.probe_keys:
            if key not in shared:
                self.plan_cache.invalidate(key)

    def _publish_migration(self, out: MigrationOutcome) -> None:
        """One retune attempt: counter plus an instant trace marker."""
        if not tele.ENABLED:
            return
        tele.count("serving_migrations_total", status=out.status)
        tracer = tele.tracer()
        if tracer is not None:
            tracer.clock.set_at_least(self.now)
            tracer.instant(
                "retune", cat="tune",
                matrix=out.matrix_id, status=out.status,
                generation=out.to_generation, label=out.label,
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every registered engine's resources (idempotent).

        Sharded engines shut their thread pools down; process-backend
        engines terminate their workers and unlink their shared-memory
        segments.  Registered matrices stay queryable — only execution
        resources are released.
        """
        for sm in self._matrices.values():
            close = getattr(sm.engine, "close", None)
            if close is not None:
                close()
        for _, old in self._draining:
            old.engine.close()
        self._draining = []

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request path --------------------------------------------------

    def submit(self, req: Request) -> RequestOutcome:
        """Admit, place on the ladder, execute, and account one request."""
        sm = self._served(req.matrix_id)
        t = max(self.now, req.arrival)
        depth, shed = self._admit(req, t)
        if shed is not None:
            return shed
        return self._serve_one(sm, req, t, depth)

    def _admit(self, req: Request,
               t: float) -> tuple[int, RequestOutcome | None]:
        """Queue-bound admission at virtual time ``t``.

        Returns the queue depth the request found and, when that depth
        is at ``queue_limit``, its ``queue_full`` shed outcome.
        """
        self.counters["submitted"] += 1
        self.now = t
        self._retire(t)
        depth = len(self._in_flight)
        if self._batches is not None:
            depth += self._batches.pending()
        if tele.ENABLED:
            tele.set_gauge("serving_queue_depth", depth)
        if depth < self.config.queue_limit:
            return depth, None
        out = RequestOutcome(
            rid=req.rid, matrix_id=req.matrix_id, status="shed",
            shed_reason="queue_full", arrival=req.arrival,
            deadline=req.deadline, queue_depth=depth,
        )
        self.counters["shed_queue_full"] += 1
        if tele.ENABLED:
            self._publish_shed(out, t)
        return depth, out

    def _retire(self, t: float) -> None:
        """Release drained plans and drop work completed by ``t``."""
        self._drain(t)
        while self._in_flight and self._in_flight[0] <= t:
            self._in_flight.popleft()

    def _serve_one(self, sm: _Served, req: Request, t: float,
                   depth: int) -> RequestOutcome:
        """Ladder placement, execution and accounting for one request.

        The post-admission core of :meth:`submit`, shared with the
        coalescer (batch members that cannot ride a fused flush are
        routed here individually, so shedding, the degradation ladder
        and the breakers stay per-request correct).
        """
        out = RequestOutcome(
            rid=req.rid, matrix_id=req.matrix_id, status="shed",
            arrival=req.arrival, deadline=req.deadline, queue_depth=depth,
        )
        start = max(t, self.busy_until)
        budget = req.deadline - (start - req.arrival)
        breaker = self._breakers[sm.plan_key]
        fast_ok = breaker.allow_fast(start)
        price = self._fast_price(sm, 1)
        if fast_ok and price <= budget:
            return self._run_fast(sm, breaker, [req], [depth], start, price)[0]
        if sm.t_scalar > budget:
            self.counters["shed_deadline"] += 1
            out.shed_reason = "deadline"
            out.start = start
            if tele.ENABLED:
                self._publish_shed(out, start)
            return out

        out.breaker_forced = not fast_ok
        x = np.random.default_rng(req.x_seed).standard_normal(sm.engine.shape[1])
        y = self._scalar_verified(sm, x)
        completion = start + sm.t_scalar
        self.busy_until = completion
        self._in_flight.append(completion)
        out.status = "served"
        out.level = 1
        out.level_name = LEVEL_NAMES[1]
        out.start = start
        out.completion = completion
        out.deadline_met = completion <= req.arrival + req.deadline
        out.verified = True
        out.plan_generation = sm.generation
        out.service_share = sm.t_scalar
        out.y = y
        self._account(out)
        return out

    def _run_fast(self, sm: _Served, breaker: CircuitBreaker,
                  reqs: list[Request], depths: list[int], start: float,
                  price: float) -> list[RequestOutcome]:
        """Serve ``reqs`` on the fast rung: one ``spmv``, or one fused ``spmm``.

        Detections and recoveries are the engine-counter deltas; the
        service is ``price`` plus the modelled recovery work — each
        retry rebuilds and reruns the product, each reference fallback
        runs the scalar path once per column.  The breaker observes one
        event, matching one fast-path run.
        """
        eng = sm.engine
        k = len(reqs)
        xs = [np.random.default_rng(m.x_seed).standard_normal(eng.shape[1])
              for m in reqs]
        before = dict(eng.counters)
        if k == 1:
            y = eng.spmv(xs[0])
        else:
            with tele.span("serving_batch", cat="serve", matrix=sm.matrix_id,
                           k=k, level=LEVEL_NAMES[0]):
                y = eng.spmm(np.column_stack(xs))
        detected = eng.counters["detected"] - before["detected"]
        retries = eng.counters["retries"] - before["retries"]
        fallbacks = eng.counters["fallbacks"] - before["fallbacks"]
        recovered = retries + fallbacks
        service = (
            price
            + retries * (sm.build_surcharge + sm.t_fast_batched(k))
            + fallbacks * k * sm.t_scalar
        )
        completion = start + service
        self.busy_until = completion
        outs = []
        for j, (m, depth) in enumerate(zip(reqs, depths)):
            self._in_flight.append(completion)
            out = RequestOutcome(
                rid=m.rid, matrix_id=m.matrix_id, status="served",
                level=0, level_name=LEVEL_NAMES[0],
                arrival=m.arrival, start=start, completion=completion,
                deadline=m.deadline,
                deadline_met=completion <= m.arrival + m.deadline,
                queue_depth=depth, detected=detected, recovered=recovered,
                verified=True, plan_generation=sm.generation, batch_size=k,
                batch_wait=start - m.arrival if k > 1 else 0.0,
                service_share=service / k,
                y=y if k == 1 else np.ascontiguousarray(y[:, j]),
            )
            self._account(out)
            outs.append(out)
        if k > 1:
            self.counters["coalesced"] += k
        self.counters["faults_detected"] += detected
        self.counters["recoveries"] += recovered
        if detected:
            breaker.record_failure(completion, "abft")
        elif not all(o.deadline_met for o in outs):
            breaker.record_failure(completion, "deadline")
        else:
            breaker.record_success(completion)
        return outs

    def _account(self, out: RequestOutcome) -> None:
        """Count one served request and publish it."""
        self.counters["served"] += 1
        self.counters["downgrades"] += out.level
        self.counters["deadline_misses"] += 0 if out.deadline_met else 1
        self.level_counts[out.level] += 1
        if tele.ENABLED:
            self._publish_served(out)

    # -- the coalescing path -----------------------------------------------

    def offer(self, req: Request) -> list[RequestOutcome]:
        """Admit one request through the coalescer.

        With coalescing disabled this is exactly one :meth:`submit`.
        Otherwise the request joins (or opens) its matrix's batch and
        the call returns every outcome that became *final* — batches
        whose schedule expired at or before this arrival, a capacity
        or deadline flush this enqueue triggered, and any backlog from
        flushes inside :meth:`retune` — usually none for the request
        itself, whose outcome arrives with a later call.
        """
        if self._batches is None:
            return [self.submit(req)]
        sm = self._served(req.matrix_id)
        t = max(self.now, req.arrival)
        done = self._take_backlog()
        done += self._flush_due(t)
        t = max(self.now, t)
        depth, shed = self._admit(req, t)
        if shed is not None:
            done.append(shed)
            return done
        b = self._batches.enqueue(req, depth, sm.plan_key, sm.generation, t)
        # Re-price the schedule for the new size: the batch must start
        # early enough that the fused service fits every member's
        # deadline (the window only ever moves the flush *earlier*).
        est = self._fast_price(sm, b.size)
        latest = min(m.arrival + m.deadline - est for m in b.members)
        # Shave a relative sliver so (deadline - est) + est cannot round
        # above the deadline and shed a member the schedule promised.
        latest -= 1e-12 * max(1.0, abs(latest))
        self._batches.reschedule(b, latest)
        if b.size >= self.config.coalesce.max_batch:
            self._batches.pop(b.matrix_id)
            done += self._flush_batch(b, "capacity", t)
        elif b.flush_at <= t:
            self._batches.pop(b.matrix_id)
            done += self._flush_batch(b, b.bound, t)
        return done

    def flush(self) -> list[RequestOutcome]:
        """Flush every open batch at the current virtual time.

        An early flush is always deadline-safe (waiting never helps a
        deadline); call at end-of-trace so no member is left pending.
        """
        done = self._take_backlog()
        if self._batches is None:
            return done
        for b in self._batches.batches():
            self._batches.pop(b.matrix_id)
            done += self._flush_batch(b, "drain", self.now)
        return done

    def _take_backlog(self) -> list[RequestOutcome]:
        done, self._backlog = self._backlog, []
        return done

    def _flush_due(self, t: float) -> list[RequestOutcome]:
        """Flush every batch whose schedule expires at or before ``t``.

        Batches flush in ``flush_at`` order — the deadline-ordered
        drain — each at its own scheduled time on the virtual clock.
        """
        done: list[RequestOutcome] = []
        if self._batches is None:
            return done
        while True:
            due = self._batches.due(t)
            if not due:
                return done
            b = due[0]
            self._batches.pop(b.matrix_id)
            tf = max(self.now, b.flush_at)
            self.now = tf
            done += self._flush_batch(b, b.bound, tf)

    def _flush_batch(self, b: OpenBatch, why: str,
                     t: float) -> list[RequestOutcome]:
        """Execute one batch: fused spmm for the riders, solo for the rest.

        Members are considered in deadline order.  A fixed point shrinks
        the rider set until the fused service fits every remaining
        member's deadline — a member that cannot ride **never blocks the
        batch**; it is routed through the ordinary single-request ladder
        (where it may still be served solo, on either rung, or shed).  The
        breaker is asked, and observes one event, once per fused
        execution, matching one fast-path run; a batch that ends up with
        fewer than two riders leaves every decision to its members.
        """
        self.counters["batches_flushed"] += 1
        self.counters[f"flush_{why}"] += 1
        self.batch_sizes[b.size] = self.batch_sizes.get(b.size, 0) + 1
        if tele.ENABLED:
            tele.observe("serving_batch_size", float(b.size))
            tele.count("serving_batches_flushed_total", reason=why)
        self._retire(t)
        sm = self._matrices.get(b.matrix_id)
        order = sorted(
            range(b.size),
            key=lambda i: (
                b.members[i].arrival + b.members[i].deadline,
                b.members[i].rid,
            ),
        )
        members = [b.members[i] for i in order]
        depths = [b.depths[i] for i in order]

        riders: list[int] = []
        out_batch: list[RequestOutcome] = []
        if sm is not None and sm.generation == b.generation:
            start = max(t, self.busy_until)
            breaker = self._breakers[b.plan_key]
            if breaker.admits_fast(start):
                sel = list(range(len(members)))
                while sel:
                    price = self._fast_price(sm, len(sel))
                    completion = start + price
                    keep = [
                        i for i in sel
                        if completion <= members[i].arrival + members[i].deadline
                    ]
                    if len(keep) == len(sel):
                        break
                    sel = keep
                if len(sel) >= 2:
                    riders = sel
                    breaker.allow_fast(start)
                    out_batch = self._run_fast(
                        sm, breaker, [members[i] for i in riders],
                        [depths[i] for i in riders], start, price,
                    )

        rider_set = set(riders)
        for i, m in enumerate(members):
            if i not in rider_set:
                smc = self._matrices.get(m.matrix_id) or sm
                out_batch.append(self._serve_one(smc, m, t, depths[i]))
        return out_batch

    # -- telemetry ---------------------------------------------------------

    def _publish_shed(self, out: RequestOutcome, now: float) -> None:
        """One shed request: counter plus an instant trace marker."""
        tele.count("serving_requests_total", status=f"shed_{out.shed_reason}")
        tracer = tele.tracer()
        if tracer is not None:
            tracer.clock.set_at_least(now)
            tracer.instant(
                "shed", cat="serve",
                rid=out.rid, matrix=out.matrix_id, reason=out.shed_reason,
            )

    def _publish_served(self, out: RequestOutcome) -> None:
        """One served request: ladder counters plus a ``serve`` span."""
        tele.count("serving_requests_total", status="served")
        tele.count("serving_level_total", level=out.level_name)
        if not out.deadline_met:
            tele.count("serving_deadline_misses_total")
        if out.detected:
            tele.count("serving_faults_detected_total", n=out.detected)
        if out.recovered:
            tele.count("serving_recoveries_total", n=out.recovered)
        tele.observe("serving_latency_seconds", out.latency)
        tracer = tele.tracer()
        if tracer is not None:
            tracer.add_complete(
                "serve", start=out.start, duration=out.service_share, cat="serve",
                rid=out.rid, matrix=out.matrix_id, level=out.level_name,
                deadline_met=out.deadline_met, detected=out.detected,
                queue_depth=out.queue_depth,
            )

    def _scalar_verified(self, sm: _Served, x: np.ndarray) -> np.ndarray:
        """The trust rung: the engine's scalar reference, outside the
        fault domain (:func:`~repro.reliability.reliable.verified_reference`)."""
        return verified_reference(sm.engine.reference, x, sm.engine.checksum.verify)

    def run_trace(self, requests: list[Request]) -> list[RequestOutcome]:
        """Replay a trace in arrival order; returns per-request outcomes.

        With coalescing enabled, requests route through :meth:`offer`
        and every batch still open at end-of-trace is flushed; outcomes
        come back in ``(arrival, rid)`` order either way.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival, r.rid))
        if self._batches is None:
            return [self.submit(r) for r in ordered]
        out: list[RequestOutcome] = []
        for r in ordered:
            out += self.offer(r)
        out += self.flush()
        out.sort(key=lambda o: (o.arrival, o.rid))
        return out

    # -- accounting --------------------------------------------------------

    def stats(self) -> dict:
        c = dict(self.counters)
        shed = c["shed_queue_full"] + c["shed_deadline"]
        breakers = {k: b.stats() for k, b in self._breakers.items()}
        return {
            **c,
            "shed": shed,
            "shed_rate": shed / c["submitted"] if c["submitted"] else 0.0,
            "levels": dict(zip(LEVEL_NAMES, self.level_counts)),
            "coalesce": {
                "enabled": self._batches is not None,
                "pending": self._batches.pending() if self._batches else 0,
                "batch_sizes": dict(sorted(self.batch_sizes.items())),
                "flush_reasons": {
                    why: c[f"flush_{why}"]
                    for why in ("window", "deadline", "capacity",
                                "migration", "drain")
                },
            },
            "breaker_trips": sum(b["trips"] for b in breakers.values()),
            "breaker_reopens": sum(b["reopens"] for b in breakers.values()),
            "breaker_closes": sum(b["closes"] for b in breakers.values()),
            "breaker_fast_denied": sum(b["fast_denied"] for b in breakers.values()),
            "breakers": breakers,
            "plan_cache": self.plan_cache.stats(),
            "draining": len(self._draining),
            "generations": {
                mid: sm.generation for mid, sm in self._matrices.items()
            },
            "virtual_time": self.now,
        }

    def describe(self) -> str:
        s = self.stats()
        lines = [
            f"ServingRuntime[{self.config.device}] matrices={len(self._matrices)} "
            f"queue_limit={self.config.queue_limit}",
            f"requests: submitted={s['submitted']} served={s['served']} "
            f"shed={s['shed']} ({s['shed_rate']:.0%}: "
            f"queue_full={s['shed_queue_full']} deadline={s['shed_deadline']}) "
            f"deadline_misses={s['deadline_misses']}",
            "ladder: "
            + " ".join(f"{name}={n}" for name, n in s["levels"].items())
            + f" downgrades={s['downgrades']}",
            f"faults: detected={s['faults_detected']} recoveries={s['recoveries']}; "
            f"breakers: trips={s['breaker_trips']} reopens={s['breaker_reopens']} "
            f"closes={s['breaker_closes']} fast_denied={s['breaker_fast_denied']}",
            f"migrations: started={s['migrations_started']} "
            f"completed={s['migrations_completed']} "
            f"rolled_back={s['migrations_rolled_back']} "
            f"plans_drained={s['plans_drained']} draining={s['draining']}",
            self.plan_cache.describe(),
        ]
        for b in self._breakers.values():
            if b.counters["failures"] or b.state is not BreakerState.CLOSED:
                lines.append(b.describe())
        return "\n".join(lines)
