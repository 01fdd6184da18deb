"""Verified fallback execution: detect → retry → reference.

:class:`ReliableSpMV` wraps the tiled engine with the full reliability
ladder a serving deployment needs:

1. **Canonicalize** the input matrix through
   :func:`~repro.reliability.validation.canonicalize_csr` (policy-
   controlled; repairs are counted).  The engine's executing operand
   is then the one canonical copy: the checksum and the scalar
   reference read it.
2. **Verify** every product with the ABFT column checksum
   (:class:`~repro.reliability.abft.AbftChecksum`).
3. On a checksum violation, **retry** with a fresh plan — the suspect
   :class:`~repro.core.plancache.PlanCache` entry is invalidated first,
   so a corrupted cached payload cannot poison the retry.
4. If the retry still fails, **fall back** to the scalar CSR reference
   engine — the trusted host-side path, outside the simulated GPU fault
   domain — and verify *that* before returning.

Per-stage counters (``verified_ok``, ``detected``, ``retries``,
``fallbacks``, ``repairs``) expose the ladder's behaviour through
:meth:`ReliableSpMV.describe` and the ``repro check`` CLI subcommand.
The checksum overhead is charged in :meth:`ReliableSpMV.run_cost`, so
the cost model prices the protection instead of pretending it is free.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.core.tilespmv import TileSpMV
from repro.gpu.costmodel import RunCost
from repro.reliability.abft import AbftChecksum
from repro.reliability.validation import (
    MatrixValidationError,
    ValidationPolicy,
    canonicalize_csr,
)

__all__ = ["ReliableSpMV", "ReliabilityError", "verified_reference"]


class ReliabilityError(RuntimeError):
    """Even the reference fallback failed checksum verification.

    This cannot happen for finite inputs — it indicates the protected
    matrix or the verifier itself was corrupted in host memory.
    """


def verified_reference(ref: CsrScalarSpMV, x: np.ndarray, verify) -> np.ndarray:
    """``ref``'s product of ``x`` (a vector, or a block column by
    column), checked by ``verify(x, y)``.

    The trusted host-side path of every verified engine: the scalar
    reference runs no fault hook, so it is outside the fault domain by
    construction, and a failed check can only mean the matrix or the
    checksum state is corrupted in host memory.
    """
    if x.ndim == 1:
        y = ref.spmv(x)
    else:
        y = np.stack([ref.spmv(x[:, j]) for j in range(x.shape[1])], axis=1)
    if not verify(x, y):
        raise ReliabilityError(
            "reference product failed ABFT verification; "
            "the matrix or checksum state is corrupted in host memory"
        )
    return y


class ReliableSpMV:
    """A :class:`~repro.core.tilespmv.TileSpMV` with the reliability ladder.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; canonicalized per ``policy`` first.
    policy:
        :class:`~repro.reliability.validation.ValidationPolicy` for the
        canonicalization gate (default ``repair``).
    abft:
        Enable checksum verification of every product.  With ``False``
        the wrapper degrades to canonicalization + pass-through (no
        verification, no retries).
    max_retries:
        Fresh-plan re-executions attempted after a detection before
        falling back to the reference engine.
    shards:
        With ``shards > 1`` the protected engine is a
        :class:`~repro.dist.sharded.ShardedSpMV` (one plan per row
        shard, concurrent kernels); the whole reliability ladder —
        checksum, retry with plan invalidation, scalar fallback —
        wraps the sharded product unchanged, because ABFT verifies the
        assembled ``y``, not any one shard.
    grid:
        Optional 2D shard grid — ``(R, C)``, ``"auto"`` or an integer —
        forwarded to :class:`~repro.dist.sharded.ShardedSpMV`.  A
        non-``None`` grid implies a sharded engine even when ``shards``
        is 1; the fault-injection hooks run inside the grid's block-operand
        products, so detection coverage is unchanged.
    recovery:
        Opt into the shard-level recovery ladder
        (:class:`~repro.dist.recovery.RecoverableShardedSpMV`): a
        :class:`~repro.dist.recovery.RecoveryConfig`, or ``True`` for
        the defaults.  Only meaningful with a sharded engine.  With
        recovery on, a single corrupted or lost shard is localized by
        per-shard checksums and only that shard retries; this wrapper's
        assembled-``y`` ladder stays armed above it as the last line of
        defence.  ``None``/``False`` (default) keeps the engine-level
        ladder only.  Works on either ``backend``.
    backend:
        ``"thread"`` (default) or ``"process"``.  With ``"process"``
        the protected engine is a
        :class:`~repro.dist.procpool.ProcessShardedSpMV` (supervised
        worker processes over shared memory) — even at ``shards=1``,
        where it exercises the supervisor at P=1.  A killed or hung
        worker is respawned and its shard reported lost; with
        ``recovery`` the shard-level ladder retries it, without it the
        loss propagates.  This wrapper's assembled-``y`` ABFT ladder
        stays armed above either way (a worker's corrupted result is
        detected exactly like a corrupted partial).
    method, plan_cache, **tile_kwargs:
        Forwarded to :class:`~repro.core.tilespmv.TileSpMV` (or the
        sharded engine).  A ``reorder`` spec applies to whichever engine
        is built — single device, 1D or 2D sharded, either backend, with
        or without ``recovery``: the engine is built on the permuted
        matrix behind one
        :class:`~repro.matrices.reorder.ReorderedSpMV`, and the checksum,
        the retries and the scalar fallback all work in the original
        order.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        method: str = "adpt",
        policy: ValidationPolicy | str = ValidationPolicy.REPAIR,
        abft: bool = True,
        max_retries: int = 1,
        plan_cache=None,
        shards: int = 1,
        grid: tuple[int, int] | str | int | None = None,
        recovery=None,
        backend: str = "thread",
        **tile_kwargs,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        self.policy = ValidationPolicy.coerce(policy)
        self.max_retries = int(max_retries)
        self._method = method
        self._shards = int(shards)
        self._grid = grid
        self._recovery = recovery
        self._backend = backend
        self._tile_kwargs = dict(tile_kwargs)
        self.plan_cache = plan_cache
        self.counters = {
            "verified_ok": 0,
            "detected": 0,
            "retries": 0,
            "fallbacks": 0,
            "repairs": 0,
        }
        csr, self.validation_report = canonicalize_csr(matrix, self.policy)
        self.counters["repairs"] += self.validation_report.n_repairs
        if tele.ENABLED and self.validation_report.n_repairs:
            tele.count("reliability_repairs_total", n=self.validation_report.n_repairs)
        # The engine takes its own copy; this one is dropped with it.
        self.engine = self._make_engine(csr)
        del csr
        self.checksum = AbftChecksum.from_csr(self.canonical_csr()) if abft else None
        self._reference: CsrScalarSpMV | None = None

    # -- basic properties --------------------------------------------------

    def canonical_csr(self) -> sp.csr_matrix:
        """The canonical matrix, read from the engine: a single device's
        operand itself, not a copy; a sharded or reordered engine's a new
        O(nnz) matrix per call.  A caller reads it once."""
        return self.engine.canonical_csr()

    @property
    def shape(self) -> tuple[int, int]:
        return self.engine.shape

    @property
    def nnz(self) -> int:
        return self.engine.nnz

    @property
    def method(self) -> str:
        return self.engine.method

    @property
    def plan_key(self) -> str | None:
        """The engine's structural fingerprint (``None`` without a cache).

        The serving layer keys its circuit breakers on this, so repeated
        failures against one cached plan trip the breaker for exactly
        the matrices sharing that plan and no others.
        """
        return self.engine.plan_key

    @property
    def plan_keys(self) -> list[str]:
        """Every cached-plan key behind the engine (one per shard).

        For the single-device engine this is just ``[plan_key]``; the
        serving layer probes these to decide whether the fast path is
        warm, and the retry ladder invalidates all of them.
        """
        keys = getattr(self.engine, "plan_keys", None)
        if keys is not None:
            return list(keys)
        return [self.engine.plan_key] if self.engine.plan_key else []

    @property
    def shard_recovery_counters(self) -> dict | None:
        """The shard-level ladder's counters, or ``None`` without one.

        Distinct from :attr:`counters` (this wrapper's assembled-``y``
        ladder): these count the localized events — per-shard
        detections, single-shard retries, parity reconstructions,
        quarantines — that never surfaced to the engine-level ladder.
        """
        counters = getattr(self.engine, "counters", None)
        return dict(counters) if counters is not None else None

    # -- the ladder --------------------------------------------------------

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.policy is ValidationPolicy.TRUST:
            return x
        # A finite sum proves every entry finite; only a non-finite one
        # (a NaN/Inf entry, or finite entries overflowing) pays the scan.
        # einsum's plain sum is one pass with no boolean temporary and no
        # overflow warning; on a 20000 x 3 block it took 15 µs against
        # 22 µs for ``np.sum`` or ``isfinite().all()`` (2-vCPU host).
        if not math.isfinite(np.einsum("i->", x.reshape(-1))):
            bad = np.flatnonzero(~np.isfinite(x).reshape(x.shape[0], -1).all(axis=1))
            if bad.size:
                raise MatrixValidationError(
                    "nonfinite",
                    f"input vector contains NaN/Inf at {bad.size} positions",
                    rows=bad,
                )
        return x

    def _make_engine(self, csr: sp.csr_matrix):
        """Build the protected engine over the canonical ``csr``: sharded
        when ``shards > 1``, a 2D grid was requested, or the process
        backend was picked; recoverable when ``recovery`` opts in.  Each
        engine's constructor returns the reorder wrapper when
        ``tile_kwargs`` name a reorder."""
        kwargs = dict(method=self._method, plan_cache=self.plan_cache,
                      validation="trust", **self._tile_kwargs)
        if self._shards == 1 and self._grid is None and self._backend == "thread":
            return TileSpMV(csr, **kwargs)
        kwargs.update(shards=self._shards, grid=self._grid, backend=self._backend)
        if not self._recovery:
            from repro.dist.sharded import ShardedSpMV

            return ShardedSpMV(csr, **kwargs)
        from repro.dist.recovery import RecoverableShardedSpMV, RecoveryConfig

        if isinstance(self._recovery, RecoveryConfig):
            kwargs["config"] = self._recovery
        return RecoverableShardedSpMV(csr, **kwargs)

    def _rebuild_engine(self) -> None:
        """Fresh plan: drop every (suspect) cached entry, re-prepare.

        A sharded engine holds one cached plan per shard; all of them
        are implicated by a detection, so all are invalidated.
        """
        if self.plan_cache is not None:
            for key in self.plan_keys:
                self.plan_cache.invalidate(key)
        old = self.engine
        self.engine = self._make_engine(self.canonical_csr())
        self._reference = None  # it read the old engine's operand
        # The suspect engine's executor/workers/segments must not leak
        # behind the fresh one.
        close = getattr(old, "close", None)
        if close is not None:
            close()

    @property
    def reference(self) -> CsrScalarSpMV:
        """The scalar reference engine over the current canonical matrix
        (:func:`verified_reference` runs it), built on first use."""
        if self._reference is None:
            self._reference = CsrScalarSpMV(self.canonical_csr(), validation="trust")
        return self._reference

    def _verify(self, x: np.ndarray, y: np.ndarray) -> bool:
        """One checksum check, traced as an ``abft_verify`` span."""
        if not tele.ENABLED:
            return self.checksum.verify(x, y)
        with tele.span("abft_verify", cat="reliability", nnz=self.nnz):
            ok = self.checksum.verify(x, y)
        tele.count("abft_verifications_total", outcome="ok" if ok else "detected")
        return ok

    def _protected(self, x: np.ndarray, k: int | None) -> np.ndarray:
        run = (lambda: self.engine.spmv(x)) if k is None else (lambda: self.engine.spmm(x))
        y = run()
        if self.checksum is None:
            return y
        if self._verify(x, y):
            self.counters["verified_ok"] += 1
            return y
        self.counters["detected"] += 1
        if tele.ENABLED:
            tele.count("reliability_detected_total")
        for _ in range(self.max_retries):
            self._rebuild_engine()
            self.counters["retries"] += 1
            if tele.ENABLED:
                tele.count("reliability_retries_total")
            y = run()
            if self._verify(x, y):
                self.counters["verified_ok"] += 1
                return y
            self.counters["detected"] += 1
            if tele.ENABLED:
                tele.count("reliability_detected_total")
        self.counters["fallbacks"] += 1
        if tele.ENABLED:
            tele.count("reliability_fallbacks_total")
        y = verified_reference(self.reference, x, self._verify)
        self.counters["verified_ok"] += 1
        return y

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, verified; retries and falls back as needed."""
        x = self._check_x(x)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},)")
        return self._protected(x, None)

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block, verified per column.

        Degenerate widths short-circuit: k=1 runs the exact verified
        :meth:`spmv` path (same detection/retry accounting as a
        standalone request), k=0 returns a typed empty block with
        nothing to verify.
        """
        x = self._check_x(x)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"X must have shape ({self.shape[1]}, k)")
        if x.shape[1] == 0:
            return np.zeros((self.shape[0], 0))
        if x.shape[1] == 1:
            return self._protected(x[:, 0], None).reshape(self.shape[0], 1)
        return self._protected(x, x.shape[1])

    def update_values(self, values) -> "ReliableSpMV":
        """Stream new values through the prepared plan, re-arming ABFT.

        Accepts a same-pattern sparse matrix (canonicalized per the
        wrapper's policy) or the length-``nnz`` value array in canonical
        CSR order.  The checksums are rebuilt — they protect values, so
        they must follow them.
        """
        if sp.issparse(values):
            csr, report = canonicalize_csr(values, self.policy)
            self.counters["repairs"] += report.n_repairs
            self.engine.update_values(csr)
        else:
            data = np.asarray(values, dtype=np.float64)
            if self.policy is not ValidationPolicy.TRUST and not np.isfinite(data).all():
                raise MatrixValidationError(
                    "nonfinite", "replacement values contain NaN/Inf"
                )
            self.engine.update_values(data)
        if self.checksum is not None:
            self.checksum = AbftChecksum.from_csr(self.canonical_csr())
        self._reference = None
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the protected engine's resources (idempotent).

        A sharded engine shuts its thread pool down; a process-backend
        engine additionally terminates its workers and unlinks its
        shared-memory segments.  The plain ``TileSpMV`` engine holds no
        releasable resources, so this is a no-op for it.
        """
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ReliableSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting --------------------------------------------------------

    def run_cost(self) -> RunCost:
        """Engine cost plus the checksum verification overhead."""
        cost = self.engine.run_cost()
        if self.checksum is not None:
            cost = cost + self.checksum.verify_cost(1)
        cost.label = f"ReliableSpMV_{self.engine.method}"
        return cost

    def spmm_cost(self, k: int) -> RunCost:
        cost = self.engine.spmm_cost(k)
        if self.checksum is not None:
            cost = cost + self.checksum.verify_cost(k)
        cost.label = f"ReliableSpMV_{self.engine.method}[k={k}]"
        return cost

    def nbytes_model(self) -> int:
        total = self.engine.nbytes_model()
        if self.checksum is not None:
            total += self.checksum.nbytes_model()
        return total

    def describe(self) -> str:
        c = self.counters
        lines = [self.engine.describe()]
        lines.append(self.validation_report.describe())
        lines.append(
            "reliability: "
            + ("ABFT on" if self.checksum is not None else "ABFT off")
            + f", policy={self.policy.value}; "
            f"verified_ok={c['verified_ok']} detected={c['detected']} "
            f"retries={c['retries']} fallbacks={c['fallbacks']} repairs={c['repairs']}"
        )
        return "\n".join(lines)
