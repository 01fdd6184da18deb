"""Sharded multi-device execution layer.

Partitions a matrix into nnz-balanced, tile-snapped shards — 1D row
blocks or a 2D row x column tile grid (:mod:`repro.dist.partition`) —
prepares one TileSpMV plan per shard, executes every product as row
blocks of the canonical operand on thread-concurrent kernels
(:mod:`repro.dist.sharded`; bit-for-bit equality for every method, no
sort), and prices the result on P modelled devices through the
interconnect-aware
:class:`~repro.gpu.costmodel.MultiDeviceRunCost`.  See
``docs/SHARDING.md`` for the design and the exactness argument.

Fault tolerance lives in two sibling modules: :mod:`repro.dist.faults`
is the deterministic shard-level fault model (device loss, corrupted
partials, stragglers, halo corruption, worker kill/hang — injected
without forcing the engine sequential), and :mod:`repro.dist.recovery`
is the localized recovery ladder (per-shard ABFT → retry/backoff →
parity reconstruction → quarantine + repartition), the only one, on
either backend.  See the "Distributed fault tolerance" section of
``docs/RELIABILITY.md``.

:mod:`repro.dist.procpool` is the true-parallel execution backend:
:class:`~repro.dist.procpool.ProcessShardedSpMV` runs each row block
in a supervised worker process over shared memory
(``ShardedSpMV(matrix, backend="process")`` dispatches to it).  Its
supervisor respawns a crashed or hung worker and reports the block's
device lost, which the recovery ladder handles like any other loss.
See the "Process backend & worker supervision" section of
``docs/SHARDING.md``.
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
    ShardRecoveryError,
)
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
    "ShardedSpMV",
    "modelled_shard_sweep",
    "best_shard_count",
    "sharded_conjugate_gradient",
    "sharded_pagerank",
    "DeviceLostError",
    "ShardFaultPlan",
    "ShardFaultInjector",
    "shard_fault_injection",
    "RecoveryConfig",
    "ShardRecoveryError",
    "RecoverableShardedSpMV",
    "ProcessConfig",
    "ProcessShardedSpMV",
    "WorkerSupervisor",
    "WorkerCrash",
    "sweep_orphans",
]
