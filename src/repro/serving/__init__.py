"""Self-healing serving layer over the reliability stack.

PR 2 made one product trustworthy; this package makes a *service* and a
*solve* trustworthy:

* :mod:`repro.serving.runtime` — deadline-aware admission control with
  load shedding and a two-rung ladder (the tiled fast path, priced by
  plan readiness, then the verified scalar trust rung), on a
  deterministic virtual clock priced by the cost model;
* :mod:`repro.serving.breaker` — per-plan circuit breakers that trade
  the fast tiled path for the verified scalar fallback while a plan is
  misbehaving, and probe their way back;
* :mod:`repro.serving.checkpoint` — checkpoint/rollback fault tolerance
  for the iterative solvers (CG, BiCGSTAB, PageRank): verified
  products, consistency-proved checkpoints, divergence watchdog, and
  rollback-and-replay with full recovery accounting;
* :mod:`repro.serving.trace` — seeded synthetic request traces for
  tests, benchmarks, and the ``repro serve-sim`` CLI.
"""

from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.serving.coalesce import BatchQueue, CoalesceConfig
from repro.serving.checkpoint import (
    CheckpointConfig,
    FtPageRankResult,
    FtSolveResult,
    RecoveryLog,
    SpmvFault,
    VerifiedOperator,
    checkpointed_bicgstab,
    checkpointed_cg,
    checkpointed_pagerank,
    modelled_checkpoint_overhead,
)
from repro.serving.runtime import (
    LEVEL_NAMES,
    RequestOutcome,
    RuntimeConfig,
    ServingRuntime,
)
from repro.serving.trace import Request, synthetic_trace

__all__ = [
    "BatchQueue",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CoalesceConfig",
    "CheckpointConfig",
    "FtPageRankResult",
    "FtSolveResult",
    "RecoveryLog",
    "SpmvFault",
    "VerifiedOperator",
    "checkpointed_bicgstab",
    "checkpointed_cg",
    "checkpointed_pagerank",
    "modelled_checkpoint_overhead",
    "LEVEL_NAMES",
    "RequestOutcome",
    "RuntimeConfig",
    "ServingRuntime",
    "Request",
    "synthetic_trace",
]
