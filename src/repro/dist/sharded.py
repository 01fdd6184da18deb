"""Sharded multi-device SpMV engine.

:class:`ShardedSpMV` partitions a matrix into P tile-snapped shards —
1D row blocks (:func:`~repro.dist.partition.partition_rows`) or a 2D
R x C tile grid (:func:`~repro.dist.partition.partition_grid`) — and
prepares one :class:`~repro.core.tilespmv.TileSpMV` plan per shard.
All shards may share one :class:`~repro.core.plancache.PlanCache`,
which is lock-protected for exactly this, and row-disjoint products
execute concurrently through a
:class:`~concurrent.futures.ThreadPoolExecutor`.  The shard kernels are
scipy CSR products that release the GIL, so on a multi-core host the
shards can overlap; the modelled multi-GPU story comes from
:meth:`multi_device_cost`, whose
:class:`~repro.gpu.costmodel.MultiDeviceRunCost` makespan combines each
shard's kernel time with the interconnect traffic the partitioner
measured (x window in, y block out, partial-y tree reduction for column
cuts).

Execution degrades to a sequential loop whenever the telemetry tracer
is armed: it is deliberately process-global and order-dependent
(byte-deterministic traces), so threading it would corrupt exactly the
determinism it exists to provide.  Fault campaigns of both domains
(:mod:`repro.gpu.faults`, :mod:`repro.dist.faults`) derive every fault
from ``(seed, kind, site, attempt)`` instead of a consumed stream, so
they run on the real concurrent path — the recovery ladder in
:mod:`repro.dist.recovery` is exercised under the same threading it
must survive in production.  Results are identical either way —
concurrency never decides a combine order (see below).

Exactness: shard boundaries never split a 16 x 16 tile, so each shard's
plan is the unsharded plan restricted to its block — same tile
decomposition, same per-tile format selection, same decode order.
Every strategy executes one canonical (row, ascending column) CSR
operand, so every product is **bit-for-bit** the single-engine product,
for every method (``auto`` too, whichever strategy each shard's
arbitration keeps) and on every grid shape:

* Row-disjoint outputs (:meth:`spmv`/:meth:`spmm` on 1D partitions or
  single-column grids) concatenate shard blocks — trivially exact.
* Overlapping outputs (column-cut :meth:`spmv`/:meth:`spmm`, every
  :meth:`spmv_transpose`) multiply **per-block CSR operands**: one per
  row block for forward products, one A.T operand per column block for
  transposes, each assembled once from the shards' operand-order
  decode streams (:meth:`~repro.core.tilespmv.TileSpMV.decode_streams`)
  by the single engine's own builder
  (:func:`~repro.core.storage.csr_operand`).  Each block holds exactly
  the rows of the single-device operand, so every output entry sums
  its contributions in the single-device sequence.  Summing rounded
  per-shard partials could never do this — float addition is not
  associative.  Only the x window crosses a shard boundary, as in
  Kreutzer et al.'s split of distributed SpMV.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.plancache import PlanCache
from repro.core.storage import csr_operand
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
from repro.reliability.validation import ValidationPolicy, canonicalize_csr

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


class ShardedSpMV:
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
        ``"thread"`` (default) executes shards on the inherited
        thread-pool path; ``"process"`` dispatches construction to
        :class:`~repro.dist.procpool.ProcessShardedSpMV`, whose shards
        run in worker processes over shared memory.  Both implement
        :meth:`run_shards`, the interface the recovery ladder drives.
    **tile_kwargs:
        Forwarded to every shard's :class:`TileSpMV` (``tile``,
        ``selection``, ``tbalance``, ``params``, ``auto_device``).
    """

    def __new__(cls, *args, backend: str = "thread", **kwargs):
        if backend == "process" and cls is ShardedSpMV:
            from repro.dist.procpool import ProcessShardedSpMV

            return super().__new__(ProcessShardedSpMV)
        return super().__new__(cls)

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
        # Per-shard gather into the canonical CSR value array, for the
        # update_values routing.  1D shards own contiguous slices; grid
        # cells own a scattered subset of their row block's entries.
        self._nnz_idx: list[np.ndarray] | None = None
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
                    self._build_engine(s, block, tile, **tile_kwargs)
            else:
                self._nnz_idx = []
                for s in self.partition.shards:
                    lo, hi = int(indptr[s.row_lo]), int(indptr[s.row_hi])
                    cols = csr.indices[lo:hi]
                    sel = np.arange(lo, hi, dtype=np.int64)[
                        (cols >= s.col_lo) & (cols < s.col_hi)
                    ]
                    self._nnz_idx.append(sel)
                    local_rows = np.searchsorted(indptr, sel, side="right") - 1 - s.row_lo
                    block_indptr = np.concatenate(
                        [[0], np.cumsum(np.bincount(local_rows, minlength=s.rows))]
                    ).astype(np.int64)
                    block = sp.csr_matrix(
                        (
                            csr.data[sel],
                            csr.indices[sel] - s.col_lo,
                            block_indptr,
                        ),
                        shape=(s.rows, s.block_cols),
                    )
                    self._build_engine(s, block, tile, **tile_kwargs)
        self.build_seconds = sum(e.build_seconds for e in self.engines)
        self.arbitration_seconds = sum(e.arbitration_seconds for e in self.engines)
        self.preprocessing_seconds = self.build_seconds + self.arbitration_seconds
        self._executor: ThreadPoolExecutor | None = None
        self._max_workers = max_workers or len(self.engines)
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
        # Per-shard execution counter: incremented on every shard task
        # (product, stream collection).  Doubles as the fault model's
        # attempt number and as the recovery suite's proof that a
        # localized retry re-executed *only* the faulty shard.
        self.shard_exec_counts = [0] * len(self.engines)
        # Modelled straggler seconds accumulated per shard (virtual
        # clock; the recovery ladder charges them to its deadline).
        self.shard_delay_s = [0.0] * len(self.engines)
        # Per-block CSR operands of the overlapping-output products,
        # keyed by ``transpose``: built on first use on the fault-free
        # path, dropped by update_values (values live inside them).
        self._block_ops: dict[bool, list] = {}
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

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self._max_workers, len(self.engines)),
                thread_name_prefix="shard",
            )
        return self._executor

    def _sequential(self) -> bool:
        """Thread only when process-global state cannot be corrupted.

        The telemetry tracer (virtual clock, ordered span stack) is
        process-global by design; running shards concurrently under it
        would destroy the byte-determinism it guarantees.  Fault
        campaigns of either domain do **not** force the sequential
        loop: every fault is a pure function of
        ``(seed, kind, site, attempt)`` (:mod:`repro.gpu.faults`),
        schedule-independent by construction, so campaigns exercise the
        real concurrent path.
        """
        return len(self.engines) == 1 or self._max_workers == 1 or tele.ENABLED

    def _open_attempt(self, i: int) -> int:
        """Open one execution of shard ``i``; returns its attempt number.

        Increments the shard's execution counter (= the fault model's
        attempt number), then consults the armed
        :class:`~repro.dist.faults.ShardFaultInjector`, if any: the
        device may be lost (raises
        :class:`~repro.dist.faults.DeviceLostError`) or straggle
        (modelled delay recorded in :attr:`shard_delay_s`).  Both
        backends open every shard execution here.
        """
        attempt = self.shard_exec_counts[i]
        self.shard_exec_counts[i] = attempt + 1
        inj = shard_faults.active_injector()
        if inj is not None:
            rank = self.device_ranks[i]
            inj.raise_if_lost(rank, attempt)
            delay = inj.straggler_delay(rank, attempt)
            if delay:
                self.shard_delay_s[i] += delay
        return attempt

    def shard_call(self, op: str, s, engine, fn):
        """One in-process shard execution through the fault hooks.

        Opens the attempt (:meth:`_open_attempt`), runs ``fn`` as that
        device's attempt (:func:`~repro.gpu.faults.fault_site`, the
        site every substrate hook inside derives its faults from) and
        lets the armed shard campaign, if any, hand back a corrupted
        partial.
        Halo corruption hits inside :meth:`_x_block`, where the x
        window is actually sliced.
        """
        attempt = self._open_attempt(s.index)
        with faults.fault_site(self.device_ranks[s.index], attempt):
            out = fn(s, engine)
        inj = shard_faults.active_injector()
        if inj is not None and isinstance(out, np.ndarray):
            out = inj.corrupt_partial(self.device_ranks[s.index], attempt, out)
        return out

    def _x_bounds(self, s, transpose: bool) -> tuple[int, int]:
        """The x window shard ``s`` consumes: its rows for a transpose,
        else its column block (all of x on a 1D partition)."""
        if transpose:
            return s.row_lo, s.row_hi
        if self.grid is not None:
            return s.col_lo, s.col_hi
        return 0, self._n

    def _x_block(self, s, x: np.ndarray, transpose: bool) -> np.ndarray:
        """The slice of x a shard's engine consumes.

        An armed shard-level campaign corrupts the window here — the
        modelled halo exchange is exactly this slice crossing the
        interconnect.  The corrupted copy is private to the shard; the
        caller's ``x`` is never mutated.  Called inside
        :meth:`shard_call`, so the attempt is the count just opened.
        """
        lo, hi = self._x_bounds(s, transpose)
        blk = x[lo:hi]
        inj = shard_faults.active_injector()
        if inj is not None:
            attempt = self.shard_exec_counts[s.index] - 1
            blk = inj.corrupt_halo(self.device_ranks[s.index], attempt, blk)
        return blk

    def _shard_op(self, op: str, s, engine, x: np.ndarray):
        """One shard task: its own row block (``spmv``/``spmm``), or for
        ``stream_collect`` the decode stream and x window of a
        column-cut shard."""
        if op == "stream_collect":
            def fn(s_, e_):
                return self._shard_streams(s_, e_, x, False)
        else:
            def fn(s_, e_):
                return getattr(e_, op)(self._x_block(s_, x, False))
        return self.shard_call(op, s, engine, fn)

    def run_shards(self, op: str, x: np.ndarray, indices=None) -> list:
        """Run the listed shards' tasks (default: all); per shard, its
        result or its :class:`~repro.dist.faults.DeviceLostError`.

        The one shard-execution interface: plain products and the
        recovery ladder (first pass and single-shard retries) both call
        it, on both backends.  A lost device fills its slot instead of
        raising, so one loss never hides the other shards' results.
        Results come back in listed order regardless of completion
        order, so every combine downstream sees a schedule-independent
        input.  Here every task runs in-process through
        :meth:`shard_call`, concurrently when :meth:`_sequential`
        allows.
        """
        indices = list(range(len(self.engines)) if indices is None else indices)
        shards = self.partition.shards

        def one(i: int):
            try:
                return self._shard_op(op, shards[i], self.engines[i], x)
            except DeviceLostError as exc:
                return exc

        if len(indices) > 1 and not self._sequential():
            return list(self._pool().map(one, indices))
        parts = []
        for i in indices:
            s = shards[i]
            with tele.span("shard_execute", cat="kernel", op=op,
                           shard=s.index, rows=s.rows, nnz=s.nnz):
                parts.append(one(i))
        return parts

    def _run_shards(self, op: str, x: np.ndarray) -> list[np.ndarray]:
        """Every shard's result for a plain product; a lost shard raises."""
        parts = self.run_shards(op, x)
        for part in parts:
            if isinstance(part, DeviceLostError):
                raise part
        return parts

    # -- overlapping outputs: per-block CSR operands -----------------------

    def _output_blocks(self, transpose: bool) -> list[list[int]]:
        """Shard indices feeding each output block, in grid order.

        Forward products write row blocks (one per grid row); a
        transpose writes column blocks (one per grid column — a single
        block spanning every shard on a 1D partition).
        """
        rows, cols = self.grid_rows, self.grid_cols
        if transpose:
            return [[r * cols + c for r in range(rows)] for c in range(cols)]
        return [[r * cols + c for c in range(cols)] for r in range(rows)]

    def _shard_streams(self, s, e, x: np.ndarray, transpose: bool):
        """One shard task of an overlapping-output product.

        Returns ``(stream, window)``: the shard's operand-order decode
        stream (``None`` or local ``(rows, cols, vals)``) and the x
        window it consumes.  The shard's contribution *is* its partial
        here, so an armed campaign corrupts the values — a GPU-substrate
        one like the kernel payload, on forward products only, and a
        shard-level one like a partial — and the window (the halo).
        Called inside :meth:`shard_call`.
        """
        stream = e.decode_streams()
        if stream is not None:
            vals = stream[2]
            ginj = faults.active_injector()
            if ginj is not None and not transpose:
                vals = ginj.corrupt_payload(vals, kind="tile_payload")
            inj = shard_faults.active_injector()
            if inj is not None:
                attempt = self.shard_exec_counts[s.index] - 1
                vals = inj.corrupt_partial(self.device_ranks[s.index], attempt, vals)
            stream = stream[:2] + (vals,)
        return stream, self._x_block(s, x, transpose)

    def _assemble(self, streams, transpose: bool) -> list:
        """One CSR operand per output block.

        Forward blocks hold A's rows over all n columns; transposed
        blocks hold A.T's rows (A's columns) over all m rows.  Either
        way :func:`~repro.core.storage.csr_operand` puts each block in
        canonical order — exactly the rows of the single-device operand
        (or of its A.T operand), so each row sums its entries in the
        single engine's sequence; a block without entries gets an empty
        operand.
        """
        shards = self.partition.shards
        length = self._m if transpose else self._n
        empty = np.zeros(0, dtype=np.int64)
        blocks = []
        for members in self._output_blocks(transpose):
            lo, hi = self._x_bounds(shards[members[0]], not transpose)
            out_idx, in_idx, vals = [empty], [empty], [np.zeros(0)]
            for i in members:
                if streams[i] is None:
                    continue
                rows, cols, v = streams[i]
                o, j = (cols, rows) if transpose else (rows, cols)
                out_idx.append(o)
                in_idx.append(self._x_bounds(shards[i], transpose)[0] + j)
                vals.append(v)
            blocks.append(csr_operand(np.concatenate(out_idx),
                                      np.concatenate(in_idx), np.concatenate(vals),
                                      (hi - lo, length))[0])
        return blocks

    def _overlap_product(self, x: np.ndarray, transpose: bool,
                         tasks=None) -> np.ndarray:
        """Product whose output blocks span several shards.

        Column-cut ``spmv``/``spmm`` and every ``spmv_transpose``: each
        output block multiplies its operand by the concatenation of its
        shards' x windows (x itself without a campaign, since the
        grid's bounds are shared) — bit-for-bit the single device for
        1-D and 2-D x alike.  Fault-free, the operands are built once
        from the engines' streams and cached until
        :meth:`update_values`, and no shard task runs.  While a campaign
        of either domain is armed every call runs one
        :meth:`shard_call`-guarded :meth:`_shard_streams` task per shard
        and assembles fresh operands; the recovery ladder passes its
        verified ``tasks``.
        """
        if not faults.any_armed():
            blocks = self._block_ops.get(transpose)
            if blocks is None:
                blocks = self._assemble(
                    [e.decode_streams() for e in self.engines], transpose
                )
                self._block_ops[transpose] = blocks
            xs = [x] * len(blocks)
        else:
            if tasks is None:
                tasks = [
                    self.shard_call(
                        "stream_collect", s, e,
                        lambda s_, e_: self._shard_streams(s_, e_, x, transpose),
                    )
                    for s, e in zip(self.partition.shards, self.engines)
                ]
            blocks = self._assemble([t[0] for t in tasks], transpose)
            xs = [
                np.concatenate([tasks[i][1] for i in members])
                for members in self._output_blocks(transpose)
            ]
        return np.concatenate([op @ xb for op, xb in zip(blocks, xs)], axis=0)

    def _product(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """The combine behind :meth:`spmv`, :meth:`spmm` and
        :meth:`spmv_transpose`.

        Row-disjoint forward products (1D, or C=1 grids) concatenate the
        shard blocks, computed concurrently.  Overlapping outputs go
        through the block operands.  Both are bit-for-bit.
        """
        if not transpose and self.grid_cols == 1:
            op = "spmv" if x.ndim == 1 else "spmm"
            return np.concatenate(self._run_shards(op, x), axis=0)
        return self._overlap_product(x, transpose)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, combined as :meth:`_product` describes."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"x must have shape ({self._n},)")
        with tele.span("sharded_spmv", cat="kernel", shards=self.shards,
                       nnz=self._nnz):
            y = self._product(x, transpose=False)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X, each shard running its native batched product.

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
            out = self._product(x, transpose=False)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return out

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x — bit-for-bit with the single device, at every P.

        Every shard contributes to overlapping output ranges, so this is
        always a cross-shard combine through the per-column-block A.T
        operands.  An empty partition contributes nothing and the result
        is a typed float64 zero vector of the full column extent.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._m,):
            raise ValueError(f"x must have shape ({self._m},)")
        with tele.span("sharded_spmv_transpose", cat="kernel",
                       shards=self.shards, nnz=self._nnz):
            y = self._product(x, transpose=True)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    def update_values(self, values) -> "ShardedSpMV":
        """Stream new values through every shard's prepared plan.

        Accepts a same-pattern sparse matrix or the length-``nnz`` value
        array in canonical CSR order.  1D shards take their contiguous
        slice (``nnz_lo:nnz_hi``); grid cells gather their scattered
        subset of the row block's entries (the per-cell index map built
        at partition time).  Either way each shard takes the
        :meth:`TileSpMV.update_values` fast path.
        """
        if sp.issparse(values):
            csr = canonicalize_csr(values, ValidationPolicy.TRUST)[0]
            if csr.shape != self.shape or int(csr.nnz) != self._nnz:
                raise ValueError(
                    "sparsity pattern differs from the prepared matrix; "
                    "build a new ShardedSpMV instead of update_values"
                )
            data = np.asarray(csr.data, dtype=np.float64)
        else:
            data = np.asarray(values, dtype=np.float64)
            if data.shape != (self._nnz,):
                raise ValueError(f"expected {self._nnz} values, got {data.shape}")
        with tele.span("sharded_update_values", cat="build", shards=self.shards):
            if self._nnz_idx is not None:
                for sel, engine in zip(self._nnz_idx, self.engines):
                    engine.update_values(data[sel])
            else:
                for s, engine in zip(self.partition.shards, self.engines):
                    engine.update_values(data[s.nnz_lo:s.nnz_hi])
        # The cached block operands hold the old values.
        self._block_ops = {}
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
