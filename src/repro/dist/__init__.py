"""Sharded multi-device execution layer.

Partitions a matrix into nnz-balanced, tile-snapped shards — 1D row
blocks or a 2D row x column tile grid (:mod:`repro.dist.partition`) —
runs one TileSpMV plan per shard with thread-concurrent kernels
(:mod:`repro.dist.sharded`), combines overlapping outputs through
per-block CSR operands assembled from the shards' decode streams
(bit-for-bit equality) or the fixed-shape binary tree of
:mod:`repro.dist.reduce` (``auto`` partials), and prices the result on P modelled
devices through the interconnect-aware
:class:`~repro.gpu.costmodel.MultiDeviceRunCost`.  See
``docs/SHARDING.md`` for the design and the exactness argument.

Fault tolerance lives in two sibling modules: :mod:`repro.dist.faults`
is the deterministic shard-level fault model (device loss, corrupted
partials, stragglers, halo corruption, worker kill/hang, segment
corruption — injected without forcing the engine sequential), and
:mod:`repro.dist.recovery` is the localized recovery ladder (per-shard
ABFT → retry/backoff → parity reconstruction → quarantine +
repartition).  See the "Distributed fault tolerance" section of
``docs/RELIABILITY.md``.

:mod:`repro.dist.procpool` is the true-parallel execution backend:
:class:`~repro.dist.procpool.ProcessShardedSpMV` runs each shard in a
supervised worker process over shared memory
(``ShardedSpMV(matrix, backend="process")`` dispatches to it), with
crashed/hung workers respawned deterministically and quarantined
through a per-worker circuit breaker.  See the "Process backend &
worker supervision" section of ``docs/SHARDING.md``.
"""

from repro.dist.faults import (
    DeviceLostError,
    ShardFaultInjector,
    ShardFaultPlan,
    shard_fault_injection,
)
from repro.dist.partition import (
    GridPartition,
    GridShard,
    RowPartition,
    RowShard,
    default_grid,
    partition_grid,
    partition_rows,
)
from repro.dist.procpool import (
    ProcessConfig,
    ProcessShardedSpMV,
    WorkerCrash,
    WorkerSupervisor,
    sweep_orphans,
)
from repro.dist.recovery import (
    RecoverableShardedSpMV,
    RecoveryConfig,
    ShardCheck,
    ShardRecoveryError,
)
from repro.dist.reduce import tree_reduce, tree_schedule
from repro.dist.sharded import ShardedSpMV, best_shard_count, modelled_shard_sweep
from repro.dist.solvers import sharded_conjugate_gradient, sharded_pagerank

__all__ = [
    "RowShard",
    "RowPartition",
    "partition_rows",
    "GridShard",
    "GridPartition",
    "partition_grid",
    "default_grid",
    "tree_schedule",
    "tree_reduce",
    "ShardedSpMV",
    "modelled_shard_sweep",
    "best_shard_count",
    "sharded_conjugate_gradient",
    "sharded_pagerank",
    "DeviceLostError",
    "ShardFaultPlan",
    "ShardFaultInjector",
    "shard_fault_injection",
    "ShardCheck",
    "RecoveryConfig",
    "ShardRecoveryError",
    "RecoverableShardedSpMV",
    "ProcessConfig",
    "ProcessShardedSpMV",
    "WorkerSupervisor",
    "WorkerCrash",
    "sweep_orphans",
]
