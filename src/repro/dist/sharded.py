"""Sharded multi-device SpMV engine.

:class:`ShardedSpMV` partitions a matrix into P tile-snapped shards —
1D row blocks (:func:`~repro.dist.partition.partition_rows`) or a 2D
R x C tile grid (:func:`~repro.dist.partition.partition_grid`) — and
prepares one :class:`~repro.core.tilespmv.TileSpMV` plan per shard.
The plans are what the cost model prices: :meth:`run_cost`, and
:meth:`multi_device_cost`, whose
:class:`~repro.gpu.costmodel.MultiDeviceRunCost` makespan combines each
shard's kernel time with the interconnect traffic the partitioner
measured (x window in, y block out, partial-y tree reduction for column
cuts).  All shards may share one
:class:`~repro.core.plancache.PlanCache`, which is lock-protected for
exactly this.

The execution unit is the **output block**: a forward product runs R
row blocks (P on a 1D partition), each a row slice of the canonical
CSR operand over all n columns, concurrently through a
:class:`~concurrent.futures.ThreadPoolExecutor` or, on the process
backend, in worker processes.  On 1D and single-column grids a block
*is* its shard's operand; on a grid with C > 1 one block operand holds
the rows of its C cells, as Kreutzer et al. split a distributed row
block into a local and a remote-x part.  The cells stay the unit that
is priced and the unit that faults: a block task opens every member
cell's attempt and applies each cell's fault hooks to that cell's own
entries and x window (:func:`run_block`).  A transpose multiplies one
A.T operand; it is not a fault site.

Execution degrades to a sequential loop whenever the telemetry tracer
is armed: it is deliberately process-global and order-dependent
(byte-deterministic traces), so threading it would corrupt exactly the
determinism it exists to provide.  Fault campaigns of both domains
(:mod:`repro.gpu.faults`, :mod:`repro.dist.faults`) derive every fault
from ``(seed, kind, site, attempt)`` instead of a consumed stream, so
they run on the real concurrent path.

Exactness: every product is **bit-for-bit** the single-engine product,
for every method and on every grid shape, with no sort anywhere.  A
block holds exactly rows ``[r0, r1)`` of the single-device operand, in
its order, so each output entry sums its contributions in the
single-device sequence, and blocks concatenate.  The A.T operand is
the single device's (``c.T.tocsr()`` of the same canonical matrix).
Summing rounded per-cell partials could never do this — float addition
is not associative.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.plancache import PlanCache
from repro.core.storage import faulted_operand, refill_operand
from repro.core.tilespmv import METHODS, TileSpMV
from repro.dist import faults as shard_faults
from repro.dist.faults import DeviceLostError
from repro.dist.partition import (
    GridPartition,
    RowPartition,
    default_grid,
    partition_grid,
    partition_rows,
)
from repro.formats import FormatID
from repro.gpu import faults
from repro.gpu.costmodel import MultiDeviceRunCost, RunCost
from repro.gpu.device import A100, DeviceSpec
from repro.matrices.reorder import Reorderable
from repro.reliability.validation import ValidationPolicy, canonicalize_csr, pattern_values
from repro.util.segments import lengths_to_offsets, repeat_offsets
from repro.util.vecops import weighted_sum

__all__ = ["ShardedSpMV", "modelled_shard_sweep", "best_shard_count"]


def _coerce_grid(grid, shards: int) -> tuple[int, int] | None:
    """Normalise the ``grid`` argument: None, "auto", int, or (R, C)."""
    if grid is None:
        return None
    if grid == "auto":
        return default_grid(shards)
    if isinstance(grid, int):
        return default_grid(grid)
    r, c = int(grid[0]), int(grid[1])
    if r < 1 or c < 1:
        raise ValueError(f"grid must be >= 1 on both axes, got {grid!r}")
    return (r, c)


def cell_positions(op: sp.csr_matrix, bounds) -> list[np.ndarray]:
    """Indices into ``op``'s entries of each ``[lo, hi)`` column window."""
    idx = op.indices
    return [np.flatnonzero((idx >= lo) & (idx < hi)) for lo, hi in bounds]


def _matmul(op: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``op @ x``; one column takes the vector path, as ``TileSpMV.spmm`` does."""
    if x.ndim == 2 and x.shape[1] == 1:
        return (op @ x[:, 0]).reshape(-1, 1)
    return op @ x


def run_block(op: sp.csr_matrix, x: np.ndarray, cells, positions,
              cell_sums: bool = False):
    """One output block's product under the armed fault hooks.

    The block task of both backends: the thread pool and the worker
    processes run exactly this.  ``cells`` lists the block's cells in
    column order as ``(rank, attempt, lo, hi)``: the device, the
    attempt its engine opened and the ``[lo, hi)`` x window it reads.
    A block of one cell is a shard's own operand, faulted like a
    single-device product: payload under the device's
    :func:`~repro.gpu.faults.fault_site`, halo on its x window, partial
    on its y block.  In a block of several cells each cell's hooks hit
    only its own entries and its own x window, in a private copy; its
    partial is its entries' values, since only their sum is the cell's.
    ``positions()`` returns each cell's entries (:func:`cell_positions`);
    it is called only when a hook is armed or ``cell_sums`` is asked
    for, so an unhooked product never builds them.

    Returns ``y``, or with ``cell_sums`` ``(y, sums)``: each cell's
    contribution sum over its entries as executed, which is what the
    recovery ladder checks per device.
    """
    inj = shard_faults.active_injector()
    if len(cells) == 1:
        rank, attempt, lo, hi = cells[0]
        with faults.fault_site(rank, attempt):
            window = x[lo:hi]
            if inj is not None:
                window = inj.corrupt_halo(rank, attempt, window)
            y = _matmul(faulted_operand(op), window)
        if inj is not None:
            y = inj.corrupt_partial(rank, attempt, y)
        return (y, [np.sum(y, axis=0)]) if cell_sums else y
    ginj = faults.active_injector()
    if ginj is None and inj is None and not cell_sums:
        return _matmul(op, x)
    data, x_run, sums = None, x, []
    for (rank, attempt, lo, hi), pos in zip(cells, positions()):
        vals = clean = op.data[pos]
        window = received = x[lo:hi]
        with faults.fault_site(rank, attempt):
            if ginj is not None:
                vals = ginj.corrupt_payload(vals, kind="tile_payload")
            if inj is not None:
                vals = inj.corrupt_partial(rank, attempt, vals)
                window = inj.corrupt_halo(rank, attempt, window)
        if vals is not clean:
            data = op.data.copy() if data is None else data
            data[pos] = vals
        if window is not received:
            x_run = x.copy() if x_run is x else x_run
            x_run[lo:hi] = window
        if cell_sums:
            sums.append(weighted_sum(vals, window[op.indices[pos] - lo]))
    y = _matmul(op if data is None else refill_operand(op, data), x_run)
    return (y, sums) if cell_sums else y


class ShardedSpMV(Reorderable):
    """A sparse matrix partitioned into P shards, one plan each.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; canonicalized once, then sliced into
        shards by cheap ``indptr`` arithmetic (no per-shard sort).
    shards:
        Shard count P.  ``shards=1`` is a working single-device engine
        with zero modelled interconnect traffic.  Ignored when ``grid``
        names an explicit shape.
    method:
        TileSpMV strategy per shard (default ``adpt``).  ``auto`` may
        keep different strategies per shard; the products stay
        bit-for-bit the single-device ones either way.
    grid:
        2D partition shape: an explicit ``(R, C)``, ``"auto"`` (the
        most-square factorization of ``shards``), or an integer to
        factor.  ``None`` (default) keeps the 1D row partition.  With
        ``C > 1`` each shard's x window is bounded by its column block
        — the scattered-graph broadcast fix — at the price of a
        partial-y reduction per row block.
    plan_cache:
        Optional shared :class:`~repro.core.plancache.PlanCache`; each
        shard's structural fingerprint is looked up/stored individually.
    max_workers:
        Thread count for concurrent execution (default: one per shard).
    validation:
        Canonicalization policy for the input gate (applied once, before
        partitioning; shards are built with ``trust``).
    backend:
        ``"thread"`` (default) executes row blocks on the inherited
        thread-pool path; ``"process"`` dispatches construction to
        :class:`~repro.dist.procpool.ProcessShardedSpMV`, whose blocks
        run in worker processes over shared memory.  Both implement
        :meth:`run_shards`, the interface the recovery ladder drives.
    reorder:
        Optional plan-time reorder (a spec or
        :class:`~repro.matrices.reorder.ReorderPlan`, as
        :class:`TileSpMV` takes it).  Construction then returns a
        :class:`~repro.matrices.reorder.ReorderedSpMV` over a plain
        sharded engine of the permuted matrix, on either backend: the
        partition cuts the permuted rows, and products come back in the
        original order, bit-for-bit the single-device reordered plan's.
    **tile_kwargs:
        Forwarded to every shard's :class:`TileSpMV` (``tile``,
        ``selection``, ``tbalance``, ``params``, ``auto_device``).
    """

    def __new__(cls, *args, backend: str = "thread", **kwargs):
        if (backend == "process" and cls is ShardedSpMV
                and kwargs.get("reorder") is None):
            from repro.dist.procpool import ProcessShardedSpMV

            cls = ProcessShardedSpMV
        return super().__new__(cls, *args, backend=backend, **kwargs)

    def __init__(
        self,
        matrix: sp.spmatrix,
        shards: int = 2,
        method: str = "adpt",
        tile: int = 16,
        plan_cache: PlanCache | None = None,
        max_workers: int | None = None,
        validation: ValidationPolicy | str = ValidationPolicy.REPAIR,
        grid: tuple[int, int] | str | int | None = None,
        device_ranks: list[int] | None = None,
        backend: str = "thread",
        **tile_kwargs,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        self.backend = backend
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.method = method
        self.plan_cache = plan_cache
        self.grid = _coerce_grid(grid, shards)
        if self.grid is not None:
            shards = self.grid[0] * self.grid[1]
        with tele.span("canonicalize", cat="build", policy=str(validation)):
            csr, self.validation_report = canonicalize_csr(matrix, validation)
        self._m, self._n = csr.shape
        self._nnz = int(csr.nnz)
        self.partition: RowPartition | GridPartition
        if self.grid is None:
            self.partition = partition_rows(csr, shards, tile)
        else:
            self.partition = partition_grid(csr, self.grid, tile)
        self.engines: list[TileSpMV] = []
        # Per output block: its rows and its entries' canonical range.
        # Blocks of several cells also hold their own operand (rows
        # r0:r1 over all n columns) and, once a fault hook, a per-cell
        # check or a value update needs them, each cell's entries in it.
        self.row_blocks: list[tuple[int, int]] = []
        self._block_nnz: list[tuple[int, int]] = []
        self._row_ops: list[sp.csr_matrix] = []
        self._cell_pos: list = []
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        with tele.span("sharded_build", cat="build", shards=shards, nnz=self._nnz):
            if self.grid is None:
                for s in self.partition.shards:
                    block = sp.csr_matrix(
                        (
                            csr.data[s.nnz_lo:s.nnz_hi],
                            csr.indices[s.nnz_lo:s.nnz_hi],
                            csr.indptr[s.row_lo:s.row_hi + 1] - csr.indptr[s.row_lo],
                        ),
                        shape=(s.rows, self._n),
                    )
                    self.row_blocks.append((s.row_lo, s.row_hi))
                    self._block_nnz.append((s.nnz_lo, s.nnz_hi))
                    self._build_engine(s, block, tile, **tile_kwargs)
            else:
                part = self.partition
                for r in range(part.grid_rows):
                    r0, r1 = int(part.row_bounds[r]), int(part.row_bounds[r + 1])
                    lo, hi = int(indptr[r0]), int(indptr[r1])
                    rows = sp.csr_matrix(
                        (csr.data[lo:hi], csr.indices[lo:hi], indptr[r0:r1 + 1] - lo),
                        shape=(r1 - r0, self._n),
                    )
                    cells = part.row_block(r)
                    pos = cell_positions(rows, [(s.col_lo, s.col_hi) for s in cells])
                    local_rows = repeat_offsets(rows.indptr)
                    for s, p in zip(cells, pos):
                        block = sp.csr_matrix(
                            (
                                rows.data[p],
                                rows.indices[p] - s.col_lo,
                                lengths_to_offsets(
                                    np.bincount(local_rows[p], minlength=s.rows)
                                ),
                            ),
                            shape=(s.rows, s.block_cols),
                        )
                        self._build_engine(s, block, tile, **tile_kwargs)
                    self.row_blocks.append((r0, r1))
                    self._block_nnz.append((lo, hi))
                    if len(cells) > 1:
                        self._row_ops.append(rows.copy())
                        self._cell_pos.append(None)
        self._executor: ThreadPoolExecutor | None = None
        self._max_workers = max_workers or len(self.row_blocks)
        # The A.T operand, built on the first transpose.
        self._t_op: sp.csr_matrix | None = None
        # Model-device identity per shard: the shard-level fault model
        # and the recovery ladder's quarantine bookkeeping key on the
        # *device rank*, which survives a repartition (the recovery
        # engine rebuilds over the P-1 survivor ranks), while shard
        # indices are renumbered.
        if device_ranks is not None and len(device_ranks) != len(self.engines):
            raise ValueError(
                f"device_ranks must name one device per shard, got "
                f"{len(device_ranks)}/{len(self.engines)}"
            )
        self.device_ranks = (
            list(device_ranks)
            if device_ranks is not None
            else list(range(len(self.engines)))
        )
        # Per-shard execution counter: incremented each time a block
        # task opens the shard; the recovery suite's proof that a
        # localized retry re-executed *only* the faulty block.  The
        # fault model's attempt numbers belong to the armed campaigns.
        self.shard_exec_counts = [0] * len(self.engines)
        # Modelled straggler seconds accumulated per shard (virtual
        # clock; the recovery ladder charges them to its deadline).
        self.shard_delay_s = [0.0] * len(self.engines)
        if tele.ENABLED:
            tele.count("sharded_builds_total", shards=shards, method=method)
            tele.set_gauge("sharded_imbalance", self.partition.imbalance())

    def _build_engine(self, s, block: sp.csr_matrix, tile: int, **tile_kwargs) -> None:
        with tele.span("shard_build", cat="build", shard=s.index,
                       rows=s.rows, nnz=s.nnz):
            self.engines.append(
                TileSpMV(
                    block, method=self.method, tile=tile,
                    plan_cache=self.plan_cache, validation="trust",
                    **tile_kwargs,
                )
            )

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._m, self._n)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def shards(self) -> int:
        return self.partition.p

    @property
    def grid_cols(self) -> int:
        """Column blocks of the partition (1 for 1D row sharding)."""
        return self.grid[1] if self.grid is not None else 1

    @property
    def grid_rows(self) -> int:
        """Row blocks of the partition (= shards for 1D row sharding)."""
        return self.grid[0] if self.grid is not None else self.partition.p

    @property
    def build_seconds(self) -> float:
        """Every shard's :attr:`TileSpMV.build_seconds` (a read builds
        the shards' plans)."""
        return sum(e.build_seconds for e in self.engines)

    @property
    def arbitration_seconds(self) -> float:
        return sum(e.arbitration_seconds for e in self.engines)

    @property
    def preprocessing_seconds(self) -> float:
        return self.build_seconds + self.arbitration_seconds

    @property
    def plan_keys(self) -> list[str]:
        """Every shard's structural fingerprint (empty without a cache)."""
        return [e.plan_key for e in self.engines if e.plan_key is not None]

    @property
    def plan_key(self) -> str | None:
        """One fingerprint for the whole sharded plan.

        A digest over the per-shard fingerprints plus the shard count
        and grid shape — the serving layer keys circuit breakers and
        cache-warm probes on this.  ``None`` without a plan cache, like
        ``TileSpMV``.
        """
        keys = self.plan_keys
        if not keys:
            return None
        h = hashlib.blake2b(digest_size=16)
        if self.grid is None:
            h.update(f"sharded:{self.shards}".encode())
        else:
            h.update(f"sharded:{self.shards}:{self.grid[0]}x{self.grid[1]}".encode())
        for k in keys:
            h.update(k.encode())
        return h.hexdigest()

    @property
    def resolved_methods(self) -> list[str]:
        """Per-shard strategy after ``auto`` arbitration."""
        return [e.method for e in self.engines]

    # -- execution ---------------------------------------------------------

    def block_cells(self, b: int) -> range:
        """The shards (cells) whose rows make up output block ``b``."""
        c = self.grid_cols
        return range(b * c, (b + 1) * c)

    def _row_op(self, b: int) -> sp.csr_matrix:
        """Block ``b``'s operand: its shard's own on a single-column
        partition, else the block's rows of the canonical operand."""
        return self._row_ops[b] if self._row_ops else self.engines[b].operand

    def canonical_csr(self) -> sp.csr_matrix:
        """The canonical CSR matrix, current values: the row-block
        operands stacked.  Unless there is one block this is a new
        O(nnz) copy per call (the blocks are what execute), so a caller
        reads it once."""
        blocks = [self._row_op(b) for b in range(len(self.row_blocks))]
        return blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")

    def _positions(self, b: int) -> list[np.ndarray]:
        """Each cell's entries in several-cell block ``b``'s operand,
        found on first use (as a worker finds them) and kept."""
        if self._cell_pos[b] is None:
            self._cell_pos[b] = cell_positions(
                self._row_ops[b], [self._x_bounds(i) for i in self.block_cells(b)]
            )
        return self._cell_pos[b]

    def _x_bounds(self, i: int) -> tuple[int, int]:
        """The x window shard ``i`` consumes: its column block (all of
        x on a 1D partition)."""
        if self.grid is not None:
            s = self.partition.shards[i]
            return s.col_lo, s.col_hi
        return 0, self._n

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self._max_workers, len(self.row_blocks)),
                thread_name_prefix="shard",
            )
        return self._executor

    def _sequential(self) -> bool:
        """Thread only when process-global state cannot be corrupted.

        The telemetry tracer (virtual clock, ordered span stack) is
        process-global by design; running blocks concurrently under it
        would destroy the byte-determinism it guarantees.  Fault
        campaigns of either domain do **not** force the sequential
        loop: every fault is a pure function of
        ``(seed, kind, site, attempt)`` (:mod:`repro.gpu.faults`),
        schedule-independent by construction, so campaigns exercise the
        real concurrent path.
        """
        return len(self.row_blocks) == 1 or self._max_workers == 1 or tele.ENABLED

    def _open_attempt(self, i: int) -> int:
        """Open one execution of shard ``i``; returns its attempt number.

        Counts the execution, then asks the armed campaigns for the next
        attempt at the shard's device rank
        (:func:`~repro.gpu.faults.open_attempt`) and consults the armed
        :class:`~repro.dist.faults.ShardFaultInjector`, if any: the
        device may be lost (raises
        :class:`~repro.dist.faults.DeviceLostError`) or straggle
        (modelled delay recorded in :attr:`shard_delay_s`).
        """
        self.shard_exec_counts[i] += 1
        rank = self.device_ranks[i]
        attempt = faults.open_attempt(rank)
        inj = shard_faults.active_injector()
        if inj is not None:
            inj.raise_if_lost(rank, attempt)
            delay = inj.straggler_delay(rank, attempt)
            if delay:
                self.shard_delay_s[i] += delay
        return attempt

    def _open_block(self, b: int) -> list[tuple[int, int, int, int]]:
        """Open every cell of block ``b``; its cells as :func:`run_block`
        takes them.  Both backends open every block execution here.  A
        lost device fails the block, after every member has been opened.
        """
        cells, lost = [], None
        for i in self.block_cells(b):
            try:
                attempt = self._open_attempt(i)
            except DeviceLostError as exc:
                lost = lost or exc
                continue
            cells.append((self.device_ranks[i], attempt, *self._x_bounds(i)))
        if lost is not None:
            raise lost
        return cells

    def run_shards(self, x: np.ndarray, indices=None,
                   cell_sums: bool = False) -> list:
        """Run the listed output blocks (default: all); per block, its
        :func:`run_block` result or its
        :class:`~repro.dist.faults.DeviceLostError`.

        The one block-execution interface: plain products and the
        recovery ladder (first pass and block retries, with
        ``cell_sums``) both call it, on both backends.  A lost device
        fills its block's slot instead of raising, so one loss never
        hides the other blocks' results.  Results come back in listed
        order regardless of completion order.  Here every block runs
        in-process, concurrently when :meth:`_sequential` allows.
        """
        indices = list(range(len(self.row_blocks)) if indices is None else indices)

        def one(b: int):
            try:
                cells = self._open_block(b)
            except DeviceLostError as exc:
                return exc
            return run_block(self._row_op(b), x, cells,
                             lambda: self._positions(b), cell_sums)

        if len(indices) > 1 and not self._sequential():
            return list(self._pool().map(one, indices))
        parts = []
        for b in indices:
            r0, r1 = self.row_blocks[b]
            lo, hi = self._block_nnz[b]
            with tele.span("shard_execute", cat="kernel", block=b,
                           rows=r1 - r0, nnz=hi - lo):
                parts.append(one(b))
        return parts

    def _product(self, x: np.ndarray) -> np.ndarray:
        """The combine behind :meth:`spmv` and :meth:`spmm`: the row
        blocks' results, concatenated.  A lost device raises."""
        parts = self.run_shards(x)
        for part in parts:
            if isinstance(part, DeviceLostError):
                raise part
        return np.concatenate(parts, axis=0)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, combined as :meth:`_product` describes."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"x must have shape ({self._n},)")
        with tele.span("sharded_spmv", cat="kernel", shards=self.shards,
                       nnz=self._nnz):
            y = self._product(x)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X, each block running one batched product.

        Same combine contract as :meth:`spmv`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._n:
            raise ValueError(f"X must have shape ({self._n}, k)")
        if x.shape[1] == 0:
            return np.zeros((self._m, 0))
        if x.shape[1] == 1:
            # Degenerate batch: the exact spmv combine, bit-for-bit a
            # standalone product.
            return self.spmv(x[:, 0]).reshape(self._m, 1)
        with tele.span("sharded_spmm", cat="kernel", shards=self.shards,
                       nnz=self._nnz, k=x.shape[1]):
            out = self._product(x)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return out

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x — bit-for-bit with the single device, at every P.

        One A.T operand, built on the first call as the single device
        builds its own: ``c.T.tocsr()`` of the canonical matrix ``c``,
        here the row blocks stacked.  It runs in the calling thread and,
        like the single-device transpose, is not a fault site: no
        checksum covers it.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._m,):
            raise ValueError(f"x must have shape ({self._m},)")
        with tele.span("sharded_spmv_transpose", cat="kernel",
                       shards=self.shards, nnz=self._nnz):
            if self._t_op is None:
                self._t_op = self.canonical_csr().T.tocsr()
            y = self._t_op @ x
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    def _values(self, values) -> np.ndarray:
        """The canonical-order value array of an update_values argument
        (a sparse one is checked against :meth:`canonical_csr`)."""

        def pattern():
            csr = self.canonical_csr()
            return csr.indptr, csr.indices

        return pattern_values(values, self.shape, self._nnz, pattern)

    def update_values(self, values) -> "ShardedSpMV":
        """Stream new values through every shard's prepared plan.

        Accepts a same-pattern sparse matrix or the length-``nnz`` value
        array in canonical CSR order.  The values route through the
        output blocks: each takes its rows' contiguous slice.  A block
        of one cell passes it to its shard; a block of several cells
        refills its own operand and each cell gathers its entries of
        that slice.  Every shard takes the
        :meth:`TileSpMV.update_values` fast path, and the A.T operand is
        rebuilt on the next transpose.
        """
        # The copy keeps the operands independent of the caller's array.
        return self._adopt_values(self._values(values).copy())

    def _adopt_values(self, data: np.ndarray) -> "ShardedSpMV":
        """:meth:`update_values` of a checked array the engine owns from
        now on: the blocks and shards take slices and gathers of it
        with no further copy."""
        with tele.span("sharded_update_values", cat="build", shards=self.shards):
            for b, (lo, hi) in enumerate(self._block_nnz):
                block = data[lo:hi]
                if not self._row_ops:
                    self.engines[b]._adopt_values(block)
                    continue
                self._row_ops[b] = refill_operand(self._row_ops[b], block)
                for i, pos in zip(self.block_cells(b), self._positions(b)):
                    self.engines[i]._adopt_values(block[pos])
        self._t_op = None
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception:
            pass

    # -- accounting --------------------------------------------------------

    def run_cost(self) -> RunCost:
        """Single-device pricing: the shard kernels run back-to-back.

        This is what one device executing all shards sequentially would
        pay — the honest admission price for the serving runtime, which
        models one device.  The multi-device story is
        :meth:`multi_device_cost`.
        """
        parts = [e.run_cost() for e in self.engines]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        total.label = f"ShardedSpMV_{self.method}[P={self.shards}]"
        return total

    def spmm_cost(self, k: int) -> RunCost:
        """Single-device cost of one k-vector :meth:`spmm`."""
        cost = self.run_cost().batched(k)
        cost.label = f"ShardedSpMV_{self.method}[P={self.shards},k={k}]"
        return cost

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """P-device pricing: per-shard compute plus interconnect traffic.

        ``shards=1`` carries zero communication — a single device owns
        ``x`` and ``y`` outright, so its makespan equals the plain
        engine's time and modelled efficiency is 1 by construction.
        Column-cut grids additionally price the per-row-block partial-y
        tree reduction: ``ceil(log2 C)`` rounds, each a block-sized
        exchange, after which only each row block's tree root gathers
        ``y`` back.  ``links > 0`` models a shared interconnect with
        that many physical links (bandwidth contention); 0 keeps the
        legacy dedicated-link assumption.
        """
        costs = [e.run_cost() for e in self.engines]
        reduce_bytes = None
        reduce_depth = 0
        if self.shards == 1:
            halo = [0.0]
            ybytes = [0.0]
        else:
            halo = [s.halo_bytes for s in self.partition.shards]
            if self.grid_cols > 1:
                ybytes = [
                    s.y_bytes if s.c == 0 else 0.0 for s in self.partition.shards
                ]
                reduce_bytes = [s.y_bytes for s in self.partition.shards]
                reduce_depth = self.partition.reduce_depth
            else:
                ybytes = [s.y_bytes for s in self.partition.shards]
        label = f"ShardedSpMV_{self.method}[P={self.shards}"
        if self.grid is not None:
            label += f",grid={self.grid[0]}x{self.grid[1]}"
        label += "]"
        return MultiDeviceRunCost(
            shard_costs=costs,
            halo_bytes=halo,
            y_bytes=ybytes,
            label=label,
            links=links,
            reduce_bytes=reduce_bytes,
            reduce_depth=reduce_depth,
        )

    def predicted_time(self, device: DeviceSpec) -> float:
        """Modelled multi-device makespan seconds on P ``device``s."""
        return self.multi_device_cost().time(device)

    def nbytes_model(self) -> int:
        """Modelled footprint summed over all shard representations."""
        return sum(e.nbytes_model() for e in self.engines)

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Tile/nnz counts per format, merged across shards."""
        out = {f: {"tiles": 0, "nnz": 0} for f in FormatID}
        for e in self.engines:
            for fmt, h in e.format_histogram().items():
                out[fmt]["tiles"] += h["tiles"]
                out[fmt]["nnz"] += h["nnz"]
        return out

    def describe(self) -> str:
        """Human-readable summary: partition, methods, modelled scaling."""
        shape = (
            f"P={self.shards}"
            if self.grid is None
            else f"grid={self.grid[0]}x{self.grid[1]}"
        )
        lines = [
            f"ShardedSpMV[{self.method}, {shape}] "
            f"{self._m}x{self._n}, nnz={self._nnz}, "
            f"imbalance={self.partition.imbalance():.2f}",
        ]
        mdc = self.multi_device_cost()
        lines.append(
            f"modelled makespan on A100s: {mdc.time(A100) * 1e6:.1f} us "
            f"(compute {mdc.compute_time(A100) * 1e6:.1f} us, "
            f"comm {mdc.total_comm_bytes() / 1e3:.1f} KB total)"
        )
        for s, e in zip(self.partition.shards, self.engines):
            cols = (
                f" cols [{s.col_lo}, {s.col_hi})" if self.grid is not None else ""
            )
            lines.append(
                f"  shard {s.index}: rows [{s.row_lo}, {s.row_hi}){cols} "
                f"nnz={s.nnz} method={e.method} "
                f"x_window={s.x_window_cols}"
            )
        if self.plan_cache is not None:
            lines.append(self.plan_cache.describe())
        return "\n".join(lines)


def modelled_shard_sweep(
    matrix: sp.spmatrix,
    counts: tuple[int, ...] = (1, 2, 4, 8),
    device: DeviceSpec = A100,
    method: str = "adpt",
    grid: str | None = None,
    links: int = 0,
    **kwargs,
) -> list[dict]:
    """Strong-scaling table: modelled makespan/speedup/efficiency per P.

    The baseline is the P=1 engine's single-device :class:`RunCost`; each
    row prices the same matrix at one shard count, exactly how ``auto``
    prices ADPT vs DeferredCOO — build the candidates, believe the model.
    ``grid="auto"`` prices each count's most-square 2D factorization
    instead of the 1D row partition; ``links`` passes shared-link
    contention into the cost.
    """
    baseline_engine = TileSpMV(matrix, method=method, **kwargs)
    baseline = baseline_engine.run_cost()
    rows = []
    for p in counts:
        engine = ShardedSpMV(matrix, shards=p, method=method, grid=grid, **kwargs)
        mdc = engine.multi_device_cost(links=links)
        rows.append(
            {
                "shards": p,
                "grid": engine.grid,
                "makespan_s": mdc.time(device),
                "compute_s": mdc.compute_time(device),
                "comm_bytes": mdc.total_comm_bytes(),
                "halo_bytes": float(sum(mdc.halo_bytes)),
                "speedup": mdc.speedup(baseline, device),
                "efficiency": mdc.efficiency(baseline, device),
                "imbalance": engine.partition.imbalance(),
            }
        )
        engine.close()
    return rows


def best_shard_count(
    matrix: sp.spmatrix,
    counts: tuple[int, ...] = (1, 2, 4, 8),
    device: DeviceSpec = A100,
    method: str = "adpt",
    grid: str | None = None,
    links: int = 0,
    **kwargs,
) -> int:
    """The shard count with the smallest modelled makespan on ``device``."""
    rows = modelled_shard_sweep(matrix, counts, device, method, grid=grid,
                                links=links, **kwargs)
    return int(min(rows, key=lambda r: r["makespan_s"])["shards"])
