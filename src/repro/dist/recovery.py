"""Shard-level recovery ladder for the multi-device engine.

:class:`RecoverableShardedSpMV` wraps a
:class:`~repro.dist.sharded.ShardedSpMV` with the fault-containment
ladder a multi-device deployment needs — each rung strictly cheaper
than the one below it:

1. **Localize** — every shard's contribution is verified independently
   against the Huang-Abraham column checksum of its block
   (:class:`~repro.reliability.abft.AbftChecksum`):
   ``sum(y_p) = c_p . x_p`` where ``c_p`` is the column-sum vector of
   shard ``p``'s entries.  A corrupted partial, a
   corrupted halo window or a lost device is attributed to exactly one
   shard; the clean blocks are never re-executed.
2. **Retry** — only the faulty shard's output block re-executes, behind
   deterministic exponential backoff (seed-derived jitter, virtual
   clock, optional deadline budget).  A transient fault costs one
   block's work, not all of them.
3. **Reconstruct** — with an optional parity shard armed
   (``RecoveryConfig(parity=True)``), a single persistently-lost
   output block is rebuilt *without recompute*:
   the parity device holds ``A_par = sum_p shift(A_p)`` (every block
   translated to local row 0 — the Huang-Abraham checksum row extended
   to a full checksum *device*), so ``y_q = y_par - sum_{p != q}
   shift(y_p)``.  The subtraction re-rounds, so reconstruction is
   verified against a cross-device roundoff tolerance and the result is
   flagged inexact (:attr:`last_exact`) rather than silently blessed.
4. **Quarantine + repartition** — a device whose per-shard circuit
   breaker trips (``failure_threshold`` consecutive failures) is
   quarantined for good and the matrix is repartitioned over the P-1
   survivor ranks.  Only this rung rebuilds the full engine; the
   rebuilt product is again bit-for-bit the single-device one.

The ladder runs on either execution backend.  It drives the inner
engine only through :meth:`~repro.dist.sharded.ShardedSpMV.run_shards`
— the first pass over every block, then each single-block retry — and
reads a lost device from the slot that call returns.  On the process
backend a worker that crashed or hung has already been respawned by
its supervisor and shows up here as a lost device, so one set of
breakers, one backoff schedule and one quarantine cover both backends;
a quarantine repartitions onto P-1 worker processes.

The retry unit is the output block the engine executes: a shard on a
1D or single-column partition, a grid row of C cells otherwise.  A
block returns its y rows and each cell's contribution sum over its
entries as executed (``cell_sums``); the checker holds each sum against
that cell's checksum — its block's checksum over the cell's column
window — so a detection still names the device, and a retry re-runs
the whole block.  Every checksum reduction is an
``einsum`` loop, never threaded BLAS.

Exactness: rungs 1, 2 and 4 keep the sharded engine's bit-for-bit
guarantee — a recovered run equals the single-device product
*exactly*, because retried blocks re-run the same operand rows and the
combine (concatenation) is unchanged.  Only parity reconstruction
(rung 3) is roundoff-grade, and it says so.

The modelled price of all of this — parity compute, parity traffic,
retry makespan, rebuild cost — lands in
:meth:`RecoverableShardedSpMV.multi_device_cost` via the recovery terms
of :class:`~repro.gpu.costmodel.MultiDeviceRunCost`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.tilespmv import TileSpMV
from repro.dist.faults import DeviceLostError
from repro.dist.sharded import ShardedSpMV
from repro.gpu.costmodel import MultiDeviceRunCost, RunCost
from repro.matrices.reorder import Reorderable
from repro.reliability.abft import AbftChecksum
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker

__all__ = [
    "RecoveryConfig",
    "ShardRecoveryError",
    "RecoverableShardedSpMV",
]


class ShardRecoveryError(RuntimeError):
    """The ladder ran out of rungs: no survivors left to repartition."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs of the recovery ladder.

    Attributes
    ----------
    max_shard_retries:
        Localized re-executions of one faulty shard before escalating.
    backoff_base_s / backoff_factor / backoff_jitter / backoff_seed:
        Retry ``r`` waits ``base * factor**r * (1 + jitter * u)``
        modelled seconds, where ``u`` in [0, 1) is derived from
        ``(backoff_seed, device, r)`` — deterministic, so identical
        seeds give byte-identical retry schedules at any worker count.
    deadline_s:
        Total virtual-clock budget for recovery (backoff waits plus
        straggler delays).  ``None`` is unbounded; an exhausted budget
        skips remaining retries and escalates.
    parity:
        Build the sum-of-blocks parity engine enabling rung 3.
    breaker:
        Per-device circuit breaker config; ``failure_threshold``
        consecutive failures quarantine the device.  The default never
        half-opens (infinite cooldown): quarantine is permanent for the
        engine's lifetime, matching the repartition semantics.
    """

    max_shard_retries: int = 2
    backoff_base_s: float = 1e-4
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    deadline_s: float | None = None
    parity: bool = False
    breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(
            failure_threshold=3, cooldown_seconds=float("inf"), probe_successes=1
        )
    )


class RecoverableShardedSpMV(Reorderable):
    """A :class:`ShardedSpMV` behind the shard-level recovery ladder.

    Construction mirrors ``ShardedSpMV`` (same partitioning, same
    per-shard plans, same plan cache, same ``backend``/
    ``process_config``) plus a :class:`RecoveryConfig`.
    ``spmv``/``spmm`` run all output blocks — concurrently whenever the
    inner engine would — then verify each shard's contribution
    independently and walk the ladder for the failures.
    ``spmv_transpose`` delegates: a transpose is not a fault site on any
    engine (see docs/RELIABILITY.md).

    Counters (:attr:`counters`): ``shard_detected``, ``shard_retry``,
    ``shard_reconstruct``, ``device_quarantine``, ``repartitions``,
    ``verified_ok``.  :attr:`retry_log` records every localized retry —
    ``(device, shard, retry, delay_s, reason, op)`` — which is what the
    backoff-determinism suite snapshots.  :attr:`last_exact` reports
    whether the most recent product is bit-for-bit (False only after a
    parity reconstruction).  ``reorder=spec`` returns a
    :class:`~repro.matrices.reorder.ReorderedSpMV` over a recoverable
    engine of the permuted matrix, as ``ShardedSpMV`` does.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        shards: int = 2,
        method: str = "adpt",
        tile: int = 16,
        plan_cache=None,
        max_workers: int | None = None,
        validation: ValidationPolicy | str = ValidationPolicy.REPAIR,
        grid: tuple[int, int] | str | int | None = None,
        config: RecoveryConfig | None = None,
        **tile_kwargs,
    ) -> None:
        # Execution-backend options go to every inner engine (including
        # the one a quarantine rebuilds), never to the parity TileSpMV.
        self._engine_kwargs = {
            k: tile_kwargs.pop(k)
            for k in ("backend", "process_config")
            if k in tile_kwargs
        }
        self.config = config or RecoveryConfig()
        csr, self.validation_report = canonicalize_csr(matrix, validation)
        self._tile = tile
        self._method = method
        self._plan_cache = plan_cache
        self._max_workers = max_workers
        self._grid_arg = grid
        self._tile_kwargs = dict(tile_kwargs)
        self.counters = {
            "shard_detected": 0,
            "shard_retry": 0,
            "shard_reconstruct": 0,
            "device_quarantine": 0,
            "repartitions": 0,
            "verified_ok": 0,
        }
        self.retry_log: list[dict] = []
        self.quarantined: list[int] = []
        self.clock = 0.0  # virtual recovery clock (backoff + stragglers)
        self.last_exact = True
        self._breakers: dict[int, CircuitBreaker] = {}
        self._rebuild_costs: list[RunCost] = []
        self.inner = ShardedSpMV(
            csr, shards=shards, method=method, tile=tile,
            plan_cache=plan_cache, max_workers=max_workers,
            validation="trust", grid=grid, **self._engine_kwargs,
            **self._tile_kwargs,
        )
        self._parity_engine = None
        self._parity_rows = 0
        self._rearm()

    # -- per-shard checksums ----------------------------------------------

    def _breaker(self, rank: int) -> CircuitBreaker:
        """The device's breaker (created on first use, survives repartition)."""
        br = self._breakers.get(rank)
        if br is None:
            br = CircuitBreaker(self.config.breaker, key=f"device:{rank}")
            self._breakers[rank] = br
        return br

    def _rearm(self) -> None:
        """Checksums, and the parity device if armed, for the inner
        engine's current partition and values: one
        :class:`AbftChecksum` per output block, of its operand."""
        self._checks = [AbftChecksum.from_csr(self.inner._row_op(b))
                        for b in range(len(self.inner.row_blocks))]
        if self.config.parity:
            self._build_parity()

    def _cell_check(self, i: int) -> AbftChecksum:
        """Cell ``i``'s checksum: its block's over the cell's column
        window, with the cell's own entries and rows as the term count."""
        return self._checks[i // self.inner.grid_cols].window(
            *self.inner._x_bounds(i), self.inner.partition.shards[i].nnz
        )

    def _build_parity(self) -> None:
        """The parity device's matrix: every output block shifted to row 0."""
        self._parity_engine = None
        self._parity_rows = 0
        blocks = self.inner.row_blocks
        if len(blocks) < 2:
            return
        csr = self.inner.canonical_csr()
        m, n = csr.shape
        rows = np.repeat(
            np.arange(m, dtype=np.int64), np.diff(csr.indptr).astype(np.int64)
        )
        # Translate each global row to its block-local index.
        row_lo = np.zeros(m, dtype=np.int64)
        for r0, r1 in blocks:
            row_lo[r0:r1] = r0
        self._parity_rows = max(r1 - r0 for r0, r1 in blocks)
        if self._parity_rows == 0:
            return
        local = rows - row_lo[rows] if rows.size else rows
        parity = sp.csr_matrix(
            (csr.data.astype(np.float64), (local, csr.indices)),
            shape=(self._parity_rows, n),
        )
        self._parity_engine = TileSpMV(
            parity, method=self._method, tile=self._tile,
            plan_cache=self._plan_cache, validation="trust",
            **self._tile_kwargs,
        )

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape

    def canonical_csr(self) -> sp.csr_matrix:
        """The canonical CSR matrix, stacked from the inner engine's row
        blocks (see :meth:`ShardedSpMV.canonical_csr`: a copy per call)."""
        return self.inner.canonical_csr()

    @property
    def nnz(self) -> int:
        return self.inner.nnz

    @property
    def method(self) -> str:
        return self.inner.method

    @property
    def shards(self) -> int:
        return self.inner.shards

    @property
    def grid(self):
        return self.inner.grid

    @property
    def shard_exec_counts(self) -> list[int]:
        """Per-shard execution counters of the current inner engine."""
        return self.inner.shard_exec_counts

    @property
    def plan_keys(self) -> list[str]:
        keys = list(self.inner.plan_keys)
        if self._parity_engine is not None and self._parity_engine.plan_key:
            keys.append(self._parity_engine.plan_key)
        return keys

    @property
    def plan_key(self) -> str | None:
        key = self.inner.plan_key
        if key is None:
            return None
        if self._parity_engine is None:
            return key
        h = hashlib.blake2b(digest_size=16)
        h.update(f"recoverable:{key}:parity".encode())
        return h.hexdigest()

    # -- the ladder --------------------------------------------------------

    def _backoff_delay(self, rank: int, retry: int) -> float:
        """Deterministic exponential backoff with seed-derived jitter."""
        cfg = self.config
        h = hashlib.blake2b(
            f"{cfg.backoff_seed}:backoff:{rank}:{retry}".encode(), digest_size=8
        )
        u = int.from_bytes(h.digest(), "little") / 2.0 ** 64
        return cfg.backoff_base_s * cfg.backoff_factor ** retry * (
            1.0 + cfg.backoff_jitter * u
        )

    def _charge_stragglers(self, before: list[float]) -> None:
        """Add this pass's modelled straggler makespan to the clock."""
        after = self.inner.shard_delay_s
        delta = max(
            (a - b for a, b in zip(after, before)), default=0.0
        )
        if delta > 0:
            self.clock += delta

    def _check_block(self, b: int, x, outcome):
        """Verify one block execution cell by cell.

        Returns ``(y, faulty, verified)``: the block's rows (``None``
        unless every cell verified), the faulty cells as
        ``(cell, reason)`` and the cells that verified.
        """
        if isinstance(outcome, DeviceLostError):
            lost = self.inner.device_ranks.index(outcome.device)
            return None, [(lost, "device_loss")], []
        y, sums = outcome
        faulty, verified = [], []
        for i, total in zip(self.inner.block_cells(b), sums):
            if self._cell_check(i).verify_sums(self._x_local(i, x), total):
                verified.append(i)
            else:
                faulty.append((i, "abft"))
        return (None if faulty else y), faulty, verified

    def _recover_block(self, op: str, b: int, x, faulty):
        """Rung 2: re-run block ``b`` behind deadline-budgeted backoff.

        Every faulty cell's device records each failure; the backoff
        and the retry log follow the first faulty cell's device.
        Returns ``(y, [])`` once every cell verifies, else ``(None,
        faulty)`` with the cells that failed last (escalation: parity,
        then quarantine).
        """
        cfg = self.config
        ranks = self.inner.device_ranks
        for i, reason in faulty:
            self.counters["shard_detected"] += 1
            if tele.ENABLED:
                tele.count("shard_detections_total", reason=reason)
            self._breaker(ranks[i]).record_failure(self.clock, reason)
        for r in range(cfg.max_shard_retries):
            if any(self._breaker(ranks[i]).state is BreakerState.OPEN
                   for i, _ in faulty):
                break  # persistently failing: stop burning retries
            lead, reason = faulty[0]
            rank = ranks[lead]
            delay = self._backoff_delay(rank, r)
            if cfg.deadline_s is not None and self.clock + delay > cfg.deadline_s:
                self.retry_log.append(
                    {"device": rank, "shard": lead, "retry": r, "delay_s": delay,
                     "reason": "deadline_exhausted", "op": op}
                )
                break
            self.clock += delay
            self.counters["shard_retry"] += 1
            self.retry_log.append(
                {"device": rank, "shard": lead, "retry": r, "delay_s": delay,
                 "reason": reason, "op": op}
            )
            if tele.ENABLED:
                tele.count("shard_retries_total")
            with tele.span("shard_retry", cat="dist", shard=lead, device=rank,
                           retry=r, op=op):
                outcome = self.inner.run_shards(x, [b], cell_sums=True)[0]
            y, failed, _ = self._check_block(b, x, outcome)
            if not failed:
                for i, _ in faulty:
                    self._breaker(ranks[i]).record_success(self.clock)
                return y, []
            faulty = failed
            for i, reason in faulty:
                self._breaker(ranks[i]).record_failure(self.clock, reason)
        return None, faulty

    def _reconstruct(self, x, k: int | None, failed: int, blocks: list):
        """Rung 3: rebuild one lost output block from the parity product.

        ``blocks`` holds the verified block results (``None`` at
        ``failed``).  No recompute: the parity product was part of the
        normal pass, and the survivors' blocks are already in hand.
        Verified against the cross-device roundoff tolerance; the
        result is roundoff-grade, so :attr:`last_exact` drops.
        """
        if self._parity_engine is None:
            return None
        with tele.span("shard_reconstruct", cat="dist", shard=failed):
            y_par = (
                self._parity_engine.spmv(x)
                if k is None
                else self._parity_engine.spmm(x)
            )
            acc = y_par.astype(np.float64, copy=True)
            for j, blk in enumerate(blocks):
                if j == failed or blk is None:
                    continue
                acc[:blk.shape[0]] -= blk
            r0, r1 = self.inner.row_blocks[failed]
            y_q = acc[:r1 - r0]
        # Cross-device tolerance: the reconstruction sums every block's
        # roundoff, so the summand count is the whole matrix's.
        check = replace(self._checks[failed], m=self.shape[0], nnz=self.nnz)
        if not check.verify(x, y_q):
            return None
        self.counters["shard_reconstruct"] += 1
        self.last_exact = False
        if tele.ENABLED:
            tele.count("shard_reconstructs_total")
        return y_q

    def _quarantine(self, ranks: list[int]) -> None:
        """Rung 4a: retire the devices; repartition over the survivors."""
        for rank in ranks:
            if rank not in self.quarantined:
                self.quarantined.append(rank)
                self.counters["device_quarantine"] += 1
                if tele.ENABLED:
                    tele.count("device_quarantines_total")
                with tele.span("device_quarantine", cat="dist", device=rank):
                    pass
        survivors = [r for r in self.inner.device_ranks if r not in self.quarantined]
        if not survivors:
            raise ShardRecoveryError(
                "every device is quarantined; no survivors to repartition over"
            )
        old = self.inner
        # Repartition 1D over the survivor count: a grid whose factor
        # no longer matches P-1 degrades canonically to row blocks.
        # The rebuilt engine keeps the backend (P-1 worker processes).
        self.inner = ShardedSpMV(
            old.canonical_csr(), shards=len(survivors), method=self._method,
            tile=self._tile, plan_cache=self._plan_cache,
            max_workers=self._max_workers, validation="trust",
            device_ranks=survivors, **self._engine_kwargs,
            **self._tile_kwargs,
        )
        old.close()
        self.counters["repartitions"] += 1
        self._rebuild_costs.append(self.inner.run_cost())
        self._rearm()

    def _ladder(self, op: str, x, k: int | None, depth: int):
        """Run every block, verify each cell, recover failures.

        ``op`` is the product (``spmv``/``spmm``, as logged) and
        ``depth`` the repartitions this product has already caused.
        Returns the verified block results, or ``None`` after a
        quarantine (the caller recomputes on the repartitioned engine).
        """
        ranks = self.inner.device_ranks
        before = list(self.inner.shard_delay_s)
        outcomes = self.inner.run_shards(x, cell_sums=True)
        self._charge_stragglers(before)
        blocks: list = [None] * len(outcomes)
        failures = []
        for b, outcome in enumerate(outcomes):
            blocks[b], faulty, verified = self._check_block(b, x, outcome)
            for i in verified:
                self._breaker(ranks[i]).record_success(self.clock)
            if faulty:
                failures.append((b, faulty))
        if not failures:
            self.counters["verified_ok"] += 1
            return blocks
        bad = []
        for b, faulty in failures:
            blocks[b], faulty = self._recover_block(op, b, x, faulty)
            bad += [i for i, _ in faulty]
        unrecovered = [b for b, blk in enumerate(blocks) if blk is None]
        if not unrecovered:
            self.counters["verified_ok"] += 1
            return blocks
        # Rung 3: one lost block, everything else verified (only
        # reachable with the parity engine armed).
        if len(unrecovered) == 1:
            y_q = self._reconstruct(x, k, unrecovered[0], blocks)
            if y_q is not None:
                blocks[unrecovered[0]] = y_q
                # The devices are still bad: quarantine them for *future*
                # calls, but this product is already complete.
                tripped = [ranks[i] for i in bad
                           if self._breaker(ranks[i]).state is BreakerState.OPEN]
                if tripped:
                    self._quarantine(tripped)
                self.counters["verified_ok"] += 1
                return blocks
        # Rung 4: quarantine + repartition + full recompute on survivors.
        if depth >= len(self._breakers) + self.inner.shards + 1:
            raise ShardRecoveryError(
                "recovery ladder failed to converge; matrix or substrate "
                "is persistently corrupting every repartition"
            )
        self._quarantine([ranks[i] for i in bad])
        return None

    # -- products ----------------------------------------------------------

    def _x_local(self, i: int, x):
        """The clean x window shard ``i``'s checksum is taken against."""
        lo, hi = self.inner._x_bounds(i)
        return x[lo:hi]

    def _product(self, x, k: int | None):
        """spmv/spmm through the ladder; the verified blocks concatenate
        (after a quarantine, recomputed over the survivors)."""
        op = "spmv" if k is None else "spmm"
        depth = 0
        while (blocks := self._ladder(op, x, k, depth)) is None:
            depth += 1
        return np.concatenate(blocks, axis=0)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x with per-shard verification and localized recovery."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},)")
        self.last_exact = True
        with tele.span("recoverable_spmv", cat="dist", shards=self.shards):
            return self._product(x, None)

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X with per-shard verification and localized recovery."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"X must have shape ({self.shape[1]}, k)")
        self.last_exact = True
        with tele.span("recoverable_spmm", cat="dist", shards=self.shards,
                       k=x.shape[1]):
            return self._product(x, x.shape[1])

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x — delegated to the inner engine: not a fault site."""
        return self.inner.spmv_transpose(x)

    def update_values(self, values) -> "RecoverableShardedSpMV":
        """Stream new values through every shard, re-arming the checks."""
        # The copy keeps the operands independent of the caller's array.
        return self._adopt_values(self.inner._values(values).copy())

    def _adopt_values(self, data: np.ndarray) -> "RecoverableShardedSpMV":
        """:meth:`update_values` of an array the engine owns (no copy)."""
        self.inner._adopt_values(data)
        self._rearm()
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "RecoverableShardedSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting --------------------------------------------------------

    def run_cost(self) -> RunCost:
        """Single-device pricing of the protected engine (parity included)."""
        cost = self.inner.run_cost()
        if self._parity_engine is not None:
            cost = cost + self._parity_engine.run_cost()
        cost.label = f"RecoverableShardedSpMV_{self._method}[P={self.shards}]"
        return cost

    def spmm_cost(self, k: int) -> RunCost:
        cost = self.run_cost().batched(k)
        cost.label = (
            f"RecoverableShardedSpMV_{self._method}[P={self.shards},k={k}]"
        )
        return cost

    def nbytes_model(self) -> int:
        total = self.inner.nbytes_model()
        if self._parity_engine is not None:
            total += self._parity_engine.nbytes_model()
        return total

    def format_histogram(self):
        return self.inner.format_histogram()

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """P-device pricing including the recovery and parity terms.

        Parity adds the checksum device's compute plus the pairwise
        parity traffic (every output block, padded, crossing one link);
        the retry terms replay this engine's actual recovery history
        (recorded backoff waits + each retried block's kernel costs,
        every cell of it), and
        the rebuild term prices each repartition's full re-execution.
        A fresh engine with no faults prices identically to the plain
        :meth:`ShardedSpMV.multi_device_cost` plus parity (if armed).
        """
        mdc = self.inner.multi_device_cost(links=links)
        itemsize = getattr(self.inner.partition, "itemsize", 8)
        parity_cost = None
        parity_bytes = 0.0
        if self._parity_engine is not None:
            parity_cost = self._parity_engine.run_cost()
            parity_bytes = float(
                len(self.inner.row_blocks) * self._parity_rows * itemsize
            )
        retry_costs = []
        shard_costs = mdc.shard_costs
        for ev in self.retry_log:
            if ev["reason"] == "deadline_exhausted":
                continue
            # A retry re-runs the logged shard's whole output block.
            i = min(ev["shard"], len(shard_costs) - 1)
            cells = self.inner.block_cells(i // self.inner.grid_cols)
            cost = shard_costs[cells[0]]
            for j in cells[1:]:
                cost = cost + shard_costs[j]
            retry_costs.append(cost)
        rebuild = None
        for rc in self._rebuild_costs:
            rebuild = rc if rebuild is None else rebuild + rc
        return MultiDeviceRunCost(
            shard_costs=mdc.shard_costs,
            halo_bytes=mdc.halo_bytes,
            y_bytes=mdc.y_bytes,
            label=mdc.label.replace("ShardedSpMV", "RecoverableShardedSpMV"),
            links=links,
            reduce_bytes=mdc.reduce_bytes,
            reduce_depth=mdc.reduce_depth,
            parity_cost=parity_cost,
            parity_bytes=parity_bytes,
            retry_backoff_s=float(
                sum(ev["delay_s"] for ev in self.retry_log
                    if ev["reason"] != "deadline_exhausted")
            ),
            retry_costs=retry_costs or None,
            rebuild_cost=rebuild,
        )

    def describe(self) -> str:
        c = self.counters
        lines = [self.inner.describe()]
        lines.append(
            "recovery: "
            + ("parity armed" if self._parity_engine is not None else "no parity")
            + f", quarantined={self.quarantined}; "
            f"verified_ok={c['verified_ok']} detected={c['shard_detected']} "
            f"retries={c['shard_retry']} reconstructs={c['shard_reconstruct']} "
            f"quarantines={c['device_quarantine']} "
            f"repartitions={c['repartitions']}"
        )
        return "\n".join(lines)
