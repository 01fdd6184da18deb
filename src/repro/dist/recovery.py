"""Shard-level recovery ladder for the multi-device engine.

:class:`RecoverableShardedSpMV` wraps a
:class:`~repro.dist.sharded.ShardedSpMV` with the fault-containment
ladder a multi-device deployment needs — each rung strictly cheaper
than the one below it:

1. **Localize** — every shard's contribution is verified independently
   with a per-shard Huang-Abraham column checksum
   (:class:`ShardCheck`): ``sum(y_p) = c_p . x_p`` where ``c_p`` is the
   column-sum vector of shard ``p``'s block.  A corrupted partial, a
   corrupted halo window or a lost device is attributed to exactly one
   shard; the P-1 clean shards are never re-executed.
2. **Retry** — only the faulty shard re-executes, behind deterministic
   exponential backoff (seed-derived jitter, virtual clock, optional
   deadline budget).  A transient fault costs one shard's work, not P
   shards'.
3. **Reconstruct** — with an optional parity shard armed
   (``RecoveryConfig(parity=True)``), a single persistently-lost
   row-block shard's contribution is rebuilt *without recompute*:
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

Two shapes of shard work go up the ladder.  Shards that return their
own block (row-disjoint partitions, column-cut ``auto``) are checked
on that block.  Column-cut fixed-method shards return their decode
streams and x window instead: the checker recomputes
``sum(vals * window[cols])`` against the shard's checksum, and the
verified list feeds the inner engine's per-block operand assembly —
the same combine the unprotected engine runs.

Exactness: rungs 1, 2 and 4 keep the sharded engine's bit-for-bit
guarantee — a recovered run equals the single-device product
*exactly*, because retried shards re-emit the same canonical
streams/blocks and the combine (concatenation or the block operands)
is unchanged.  Only parity reconstruction (rung 3) is roundoff-grade,
and it says so.

The modelled price of all of this — parity compute, parity traffic,
retry makespan, rebuild cost — lands in
:meth:`RecoverableShardedSpMV.multi_device_cost` via the recovery terms
of :class:`~repro.gpu.costmodel.MultiDeviceRunCost`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.tilespmv import TileSpMV
from repro.dist.faults import DeviceLostError
from repro.dist.reduce import tree_reduce
from repro.dist.sharded import ShardedSpMV
from repro.gpu.costmodel import MultiDeviceRunCost, RunCost
from repro.reliability.abft import CHECK_SLACK
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker

__all__ = [
    "ShardCheck",
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
        Build the sum-of-blocks parity engine (row-disjoint partitions
        only) enabling rung 3.
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


@dataclass
class ShardCheck:
    """Per-shard Huang-Abraham column checksum, in local coordinates.

    ``col_sum``/``col_abs_sum`` span the shard block's local column
    extent (the full ``n`` for 1D shards, ``block_cols`` for grid
    cells), so verification is ``sum(contribution) = col_sum . x_local``
    against the roundoff tolerance built from ``col_abs_sum`` — the
    global ABFT invariant restricted to one shard's block, which is
    what lets a detection *localize*.
    """

    col_sum: np.ndarray
    col_abs_sum: np.ndarray
    rows: int
    nnz: int

    def expected(self, x_local: np.ndarray) -> np.ndarray:
        """``c_p . x_p``: scalar for spmv, (k,) for spmm."""
        return self.col_sum @ x_local

    def tolerance(self, x_local: np.ndarray, terms: int | None = None) -> np.ndarray:
        """Roundoff bound; ``terms`` overrides the summand count (used
        with the cross-device total for parity reconstruction)."""
        scale = np.abs(x_local).T @ self.col_abs_sum
        n_terms = max(terms if terms is not None else self.nnz + self.rows, 1)
        eps = np.finfo(np.float64).eps
        return CHECK_SLACK * n_terms * eps * np.maximum(scale, 1e-300)

    def verify_sum(self, x_local: np.ndarray, observed,
                   terms: int | None = None) -> bool:
        """Does the observed contribution sum satisfy the invariant?"""
        observed = np.asarray(observed, dtype=np.float64)
        if not np.isfinite(observed).all():
            return False
        resid = np.abs(observed - self.expected(x_local))
        return bool(np.all(resid <= self.tolerance(x_local, terms)))


class RecoverableShardedSpMV:
    """A :class:`ShardedSpMV` behind the shard-level recovery ladder.

    Construction mirrors ``ShardedSpMV`` (same partitioning, same
    per-shard plans, same plan cache) plus a :class:`RecoveryConfig`.
    ``spmv``/``spmm`` run all shards — concurrently whenever the inner
    engine would — then verify each shard's contribution independently
    and walk the ladder for the failures.  ``spmv_transpose`` delegates
    unprotected (every shard contributes to overlapping output ranges;
    protecting it per-shard is future work, see docs/RELIABILITY.md).

    Counters (:attr:`counters`): ``shard_detected``, ``shard_retry``,
    ``shard_reconstruct``, ``device_quarantine``, ``repartitions``,
    ``verified_ok``.  :attr:`retry_log` records every localized retry —
    ``(device, shard, retry, delay_s, reason, op)`` — which is what the
    backoff-determinism suite snapshots.  :attr:`last_exact` reports
    whether the most recent product is bit-for-bit (False only after a
    parity reconstruction).
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
        if tile_kwargs.pop("backend", "thread") == "process":
            raise ValueError(
                "RecoverableShardedSpMV runs on the thread backend; the "
                "process backend (ProcessShardedSpMV) carries its own "
                "supervisor ladder instead of the recovery ladder"
            )
        self.config = config or RecoveryConfig()
        csr, self.validation_report = canonicalize_csr(matrix, validation)
        self._csr = csr
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
            validation="trust", grid=grid, **self._tile_kwargs,
        )
        self._init_checks()
        self._parity_engine = None
        self._parity_rows = 0
        if self.config.parity:
            self._build_parity()

    # -- per-shard checksums ----------------------------------------------

    def _breaker(self, rank: int) -> CircuitBreaker:
        """The device's breaker (created on first use, survives repartition)."""
        br = self._breakers.get(rank)
        if br is None:
            br = CircuitBreaker(self.config.breaker, key=f"device:{rank}")
            self._breakers[rank] = br
        return br

    def _init_checks(self) -> None:
        """One :class:`ShardCheck` per shard of the current partition."""
        indices = np.asarray(self._csr.indices, dtype=np.int64)
        data = np.asarray(self._csr.data, dtype=np.float64)
        checks = []
        for i, s in enumerate(self.inner.partition.shards):
            if self.inner._nnz_idx is not None:
                sel = self.inner._nnz_idx[i]
                cols = indices[sel] - s.col_lo
                vals = data[sel]
                width = s.block_cols
            else:
                sel = slice(s.nnz_lo, s.nnz_hi)
                cols = indices[sel]
                vals = data[sel]
                width = self._csr.shape[1]
            checks.append(
                ShardCheck(
                    col_sum=np.bincount(cols, weights=vals, minlength=width)[:width],
                    col_abs_sum=np.bincount(
                        cols, weights=np.abs(vals), minlength=width
                    )[:width],
                    rows=s.rows,
                    nnz=int(vals.size),
                )
            )
        self._checks = checks

    def _build_parity(self) -> None:
        """The parity device's matrix: every row block shifted to row 0.

        Only meaningful for row-disjoint partitions (1D or C=1 grids);
        a column-cut grid silently skips parity — rung 3 is documented
        as row-block-only.
        """
        self._parity_engine = None
        self._parity_rows = 0
        if self.inner.grid_cols > 1 or self.inner.shards < 2:
            return
        csr = self._csr
        m, n = csr.shape
        rows = np.repeat(
            np.arange(m, dtype=np.int64), np.diff(csr.indptr).astype(np.int64)
        )
        # Translate each global row to its shard-local index.
        row_lo = np.zeros(m, dtype=np.int64)
        heights = []
        for s in self.inner.partition.shards:
            row_lo[s.row_lo:s.row_hi] = s.row_lo
            heights.append(s.rows)
        self._parity_rows = max(heights) if heights else 0
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

    def _attempt_all(self, indices: list[int], runner) -> list:
        """First pass: run the listed shards, capturing device losses.

        Threads through the inner engine's pool exactly when the inner
        engine itself would thread, so campaigns exercise the real
        concurrent path.
        """
        def one(i: int):
            try:
                return ("ok", runner(i))
            except DeviceLostError as exc:
                return ("lost", exc)

        if self.inner._sequential() or len(indices) == 1:
            return [one(i) for i in indices]
        return list(self.inner._pool().map(one, indices))

    def _charge_stragglers(self, before: list[float]) -> None:
        """Add this pass's modelled straggler makespan to the clock."""
        after = self.inner.shard_delay_s
        delta = max(
            (a - b for a, b in zip(after, before)), default=0.0
        )
        if delta > 0:
            self.clock += delta

    def _recover_shard(self, op: str, i: int, runner, checker, reason: str):
        """Rung 2: localized retry with deadline-budgeted backoff.

        Returns the verified result, or ``None`` if the shard stayed
        faulty (escalation: parity, then quarantine).
        """
        cfg = self.config
        rank = self.inner.device_ranks[i]
        breaker = self._breaker(rank)
        self.counters["shard_detected"] += 1
        if tele.ENABLED:
            tele.count("shard_detections_total", reason=reason)
        breaker.record_failure(self.clock, reason)
        for r in range(cfg.max_shard_retries):
            if breaker.state is BreakerState.OPEN:
                break  # persistently failing: stop burning retries
            delay = self._backoff_delay(rank, r)
            if cfg.deadline_s is not None and self.clock + delay > cfg.deadline_s:
                self.retry_log.append(
                    {"device": rank, "shard": i, "retry": r, "delay_s": delay,
                     "reason": "deadline_exhausted", "op": op}
                )
                break
            self.clock += delay
            self.counters["shard_retry"] += 1
            self.retry_log.append(
                {"device": rank, "shard": i, "retry": r, "delay_s": delay,
                 "reason": reason, "op": op}
            )
            if tele.ENABLED:
                tele.count("shard_retries_total")
            with tele.span("shard_retry", cat="dist", shard=i, device=rank,
                           retry=r, op=op):
                try:
                    result = runner(i)
                except DeviceLostError:
                    reason = "device_loss"
                    breaker.record_failure(self.clock, reason)
                    continue
            if checker(i, result):
                breaker.record_success(self.clock)
                return result
            reason = "abft"
            breaker.record_failure(self.clock, reason)
        return None

    def _reconstruct(self, x, k: int | None, failed: int, blocks: list):
        """Rung 3: rebuild one lost row block from the parity product.

        ``blocks`` holds the P verified shard blocks (``None`` at
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
                rows_j = self.inner.partition.shards[j].rows
                if k is None:
                    acc[:rows_j] -= blk
                else:
                    acc[:rows_j, :] -= blk
            rows_q = self.inner.partition.shards[failed].rows
            y_q = acc[:rows_q] if k is None else acc[:rows_q, :]
        observed = np.sum(y_q, axis=0)
        # Cross-device tolerance: the reconstruction sums every block's
        # roundoff, so the summand count is the whole matrix's.
        ok = self._checks[failed].verify_sum(
            self._x_local(failed, x), observed, terms=self.nnz + self.shape[0]
        )
        if not ok:
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
        self.inner = ShardedSpMV(
            self._csr, shards=len(survivors), method=self._method,
            tile=self._tile, plan_cache=self._plan_cache,
            max_workers=self._max_workers, validation="trust",
            device_ranks=survivors, **self._tile_kwargs,
        )
        old.close()
        self._init_checks()
        self.counters["repartitions"] += 1
        self._rebuild_costs.append(self.inner.run_cost())
        if self.config.parity:
            # The parity block layout depends on the partition heights.
            self._build_parity()

    def _ladder(self, op: str, x, k: int | None, runner, checker, depth: int = 0):
        """Run shards, verify each, recover failures, return the blocks.

        Returns ``(blocks, failed_after_parity)`` where ``blocks`` is
        the per-shard verified result list and the second element names
        devices that must be quarantined (the caller then repartitions
        and recomputes).  ``None`` entries only survive when parity
        reconstructed them is impossible — the caller escalates.
        """
        before = list(self.inner.shard_delay_s)
        outcomes = self._attempt_all(list(range(self.inner.shards)), runner)
        self._charge_stragglers(before)
        blocks: list = [None] * self.inner.shards
        failures: list[tuple[int, str]] = []
        for i, (status, payload) in enumerate(outcomes):
            if status == "lost":
                failures.append((i, "device_loss"))
            elif checker(i, payload):
                blocks[i] = payload
                self._breaker(self.inner.device_ranks[i]).record_success(self.clock)
            else:
                failures.append((i, "abft"))
        if not failures:
            self.counters["verified_ok"] += 1
            return blocks
        for i, reason in failures:
            blocks[i] = self._recover_shard(op, i, runner, checker, reason)
        unrecovered = [i for i in range(self.inner.shards) if blocks[i] is None]
        if not unrecovered:
            self.counters["verified_ok"] += 1
            return blocks
        # Rung 3: one lost row block, everything else verified (only
        # reachable with the parity engine armed, i.e. row-disjoint).
        if len(unrecovered) == 1 and op in ("spmv", "spmm"):
            y_q = self._reconstruct(x, k, unrecovered[0], blocks)
            if y_q is not None:
                blocks[unrecovered[0]] = y_q
                # The device is still bad: quarantine it for *future*
                # calls, but this product is already complete.
                rank = self.inner.device_ranks[unrecovered[0]]
                if self._breaker(rank).state is BreakerState.OPEN:
                    self._quarantine([rank])
                self.counters["verified_ok"] += 1
                return blocks
        # Rung 4: quarantine + repartition + full recompute on survivors.
        if depth >= len(self._breakers) + self.inner.shards + 1:
            raise ShardRecoveryError(
                "recovery ladder failed to converge; matrix or substrate "
                "is persistently corrupting every repartition"
            )
        bad = [self.inner.device_ranks[i] for i in unrecovered]
        self._quarantine(bad)
        return None  # signal: recompute on the rebuilt engine

    # -- products ----------------------------------------------------------

    def _x_local(self, i: int, x):
        """The clean x window shard ``i``'s checksum is taken against."""
        lo, hi = self.inner._x_bounds(self.inner.partition.shards[i], False)
        return x[lo:hi]

    def _block_ladder(self, x, k: int | None, depth: int = 0):
        """spmv/spmm whose shards each return their own block.

        Row-disjoint partitions (1D, C=1 grids) concatenate the verified
        blocks; column-cut ``auto`` combines them through the
        fixed-shape tree per row block.
        """
        op = "spmv" if k is None else "spmm"
        inner = self.inner

        def runner(i: int):
            return inner._shard_op(
                op, inner.partition.shards[i], inner.engines[i], x
            )

        def checker(i: int, y_blk) -> bool:
            return self._checks[i].verify_sum(
                self._x_local(i, x), np.sum(y_blk, axis=0)
            )

        blocks = self._ladder(op, x, k, runner, checker, depth)
        if blocks is None:  # repartitioned: recompute over the survivors
            return self._dispatch(x, k, depth + 1)
        return np.concatenate(
            [
                tree_reduce([blocks[i] for i in members])
                for members in inner._output_blocks(False)
            ],
            axis=0,
        )

    def _grid_fixed_product(self, x, k: int | None, depth: int = 0):
        """Column-cut fixed-method spmv/spmm: verified shard streams and
        windows, multiplied through the inner engine's block operands."""
        inner = self.inner

        def runner(i: int):
            return inner.shard_call(
                "stream_collect", inner.partition.shards[i], inner.engines[i],
                lambda s_, e_: inner._shard_streams(s_, e_, x, False),
            )

        def checker(i: int, task) -> bool:
            streams, window = task
            observed = 0.0
            for half in streams:
                if half is not None:
                    _, cols, vals = half
                    observed = observed + vals @ window[cols]
            return self._checks[i].verify_sum(self._x_local(i, x), observed)

        tasks = self._ladder("spmv" if k is None else "spmm", x, k, runner,
                             checker, depth)
        if tasks is None:
            return self._dispatch(x, k, depth + 1)
        return inner._overlap_product(x, False, tasks)

    def _dispatch(self, x, k: int | None, depth: int = 0):
        if self.inner.grid_cols > 1 and self.inner.method != "auto":
            return self._grid_fixed_product(x, k, depth)
        return self._block_ladder(x, k, depth)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x with per-shard verification and localized recovery."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},)")
        self.last_exact = True
        with tele.span("recoverable_spmv", cat="dist", shards=self.shards):
            return self._dispatch(x, None)

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X with per-shard verification and localized recovery."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"X must have shape ({self.shape[1]}, k)")
        self.last_exact = True
        with tele.span("recoverable_spmm", cat="dist", shards=self.shards,
                       k=x.shape[1]):
            return self._dispatch(x, x.shape[1])

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x — delegated to the inner engine, unprotected."""
        return self.inner.spmv_transpose(x)

    def update_values(self, values) -> "RecoverableShardedSpMV":
        """Stream new values through every shard, re-arming the checks."""
        self.inner.update_values(values)
        if sp.issparse(values):
            self._csr = canonicalize_csr(values, ValidationPolicy.TRUST)[0]
        else:
            data = np.asarray(values, dtype=np.float64)
            self._csr = sp.csr_matrix(
                (data, self._csr.indices, self._csr.indptr), shape=self._csr.shape
            )
        self._init_checks()
        if self.config.parity:
            self._build_parity()
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
        parity traffic (every shard's padded block crossing one link);
        the retry terms replay this engine's actual recovery history
        (recorded backoff waits + the retried shards' kernel costs), and
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
                self.shards * self._parity_rows * itemsize
            )
        retry_costs = []
        shard_costs = mdc.shard_costs
        for ev in self.retry_log:
            if ev["reason"] == "deadline_exhausted":
                continue
            i = min(ev["shard"], len(shard_costs) - 1)
            retry_costs.append(shard_costs[i])
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
