"""Checkpoint/rollback fault tolerance for iterative solvers.

PR 2 made a *single* product trustworthy; an iterative solver runs
thousands, and one transient fault mid-iteration silently corrupts
every subsequent iterate.  This module lifts the per-kernel guarantee to
the solve level with three cooperating mechanisms:

1. **Verified products** — :class:`VerifiedOperator` ABFT-checks every
   SpMV and, unlike :class:`~repro.reliability.reliable.ReliableSpMV`,
   does *not* silently retry: it raises :class:`SpmvFault` so the solver
   owns recovery.  A detected product fault costs a rollback, not a
   poisoned Krylov space.
2. **Periodic verified checkpoints** — every ``interval`` iterations the
   solver stores its state (CG: ``x, r, p, rs``; BiCGSTAB adds
   ``v, rho, alpha, omega``; PageRank: the rank vector) *after* proving
   it consistent: the recurrence residual must match the true residual
   ``b - A x`` recomputed through the trusted reference path (for
   PageRank, mass conservation ``sum(rank) == 1`` plays this role, for
   free).  A checkpoint that fails the proof is itself a detection.
3. **Divergence watchdog + rollback-and-replay** — every iterate is
   screened for NaN/Inf, residual explosion beyond
   ``divergence_factor`` of the best seen, and mass drift (PageRank);
   any detection (watchdog, failed checkpoint, or :class:`SpmvFault`)
   rolls the solver back to the last verified checkpoint and replays.
   Convergence is only ever declared after a trusted *exit
   verification* — the returned answer is never an unverified iterate.

Persistent faults cannot livelock the solver: after ``replay_limit``
consecutive rollbacks at one checkpoint (or ``max_rollbacks`` total)
the operator drops to **safe mode** — the scalar reference path outside
the simulated fault domain — and the replay proceeds clean.

Host-memory corruption of the solver's own vectors (the fault class no
per-product checksum can see) is injected by
:meth:`~repro.gpu.faults.FaultInjector.corrupt_solver_state` when a
campaign arms ``solver_state_corruptions``; the consistency proofs and
the exit verification are what catch it.

Every recovery action is counted in :class:`RecoveryLog`
(checkpoints, rollbacks, iterations lost, product faults, watchdog
events), so fault campaigns measure *iterations-lost and recovery
success* instead of just per-kernel detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.apps.graph import pagerank_step
from repro.apps.solvers import SolveResult, denominator_breakdown
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.core.tilespmv import TileSpMV
from repro.gpu import faults
from repro.gpu.costmodel import RunCost
from repro.reliability.abft import AbftChecksum
from repro.reliability.reliable import verified_reference
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.util.vecops import dot, norm

__all__ = [
    "SpmvFault",
    "VerifiedOperator",
    "CheckpointConfig",
    "RecoveryLog",
    "FtSolveResult",
    "FtPageRankResult",
    "checkpointed_cg",
    "checkpointed_bicgstab",
    "checkpointed_pagerank",
    "modelled_checkpoint_overhead",
]

_TINY = 1e-30


class SpmvFault(RuntimeError):
    """A verified product failed its ABFT check — the caller must recover.

    Deliberately *not* absorbed by an internal retry: the raising
    operator has already counted the detection, and the checkpointed
    solvers answer with a rollback, which is the recovery that also
    repairs any state the fault may have reached.
    """


class _WatchdogFault(RuntimeError):
    """Internal: a solver-state screen (not a product check) fired."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


class VerifiedOperator:
    """An engine whose every product is ABFT-verified or *signalled*.

    Parameters mirror :class:`~repro.core.tilespmv.TileSpMV`; pass an
    already-built engine (anything with ``.spmv``) via ``engine`` to
    protect it instead.  ``safe_mode`` permanently reroutes products to
    the scalar reference path outside the simulated fault domain — the
    escalation of last resort for persistent faults.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        method: str = "adpt",
        policy: ValidationPolicy | str = ValidationPolicy.REPAIR,
        plan_cache=None,
        engine=None,
        **tile_kwargs,
    ) -> None:
        csr, self.validation_report = canonicalize_csr(matrix, policy)
        if engine is None:
            engine = TileSpMV(
                csr, method=method, plan_cache=plan_cache, validation="trust", **tile_kwargs
            )
            # The engine copied it: its operand is the one canonical copy.
            csr = engine.operand
        self._csr = csr
        self.engine = engine
        self.checksum = AbftChecksum.from_csr(csr)
        self._reference: CsrScalarSpMV | None = None
        self.safe_mode = False
        self.products = 0
        self.faults_detected = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x, verified; raises :class:`SpmvFault` on detection."""
        self.products += 1
        if self.safe_mode:
            return self._reference_product(x)
        y = self.engine.spmv(x)
        if self.checksum.verify(x, y):
            return y
        self.faults_detected += 1
        raise SpmvFault(f"ABFT checksum violation on product #{self.products}")

    def reference_spmv(self, x: np.ndarray) -> np.ndarray:
        """The trusted product used by consistency and exit checks."""
        self.products += 1
        return self._reference_product(x)

    def _reference_product(self, x: np.ndarray) -> np.ndarray:
        if self._reference is None:
            self._reference = CsrScalarSpMV(self._csr, validation="trust")
        return verified_reference(self._reference, x, self.checksum.verify)

    def enter_safe_mode(self) -> None:
        self.safe_mode = True

    # -- accounting --------------------------------------------------------

    def fast_cost(self) -> RunCost:
        """Modelled cost of one verified fast-path product."""
        return self.engine.run_cost() + self.checksum.verify_cost(1)

    def reference_cost(self) -> RunCost:
        ref = self._reference or CsrScalarSpMV(self._csr, validation="trust")
        return ref.run_cost() + self.checksum.verify_cost(1)


@dataclass(frozen=True)
class CheckpointConfig:
    """Tuning of the checkpoint/rollback machinery.

    Attributes
    ----------
    interval:
        Iterations between verified checkpoints.  Smaller loses less
        work per rollback but pays the consistency product more often
        (see :func:`modelled_checkpoint_overhead`).
    max_rollbacks:
        Total rollbacks before the operator escalates to safe mode.
    replay_limit:
        Consecutive rollbacks at *one* checkpoint before escalating —
        a persistent fault at a fixed point must not livelock.
    divergence_factor:
        Watchdog threshold: squared residual beyond this multiple of
        the best seen is a fault, not convergence behaviour.
    stagnation_window:
        Iterations without a new best residual before giving up
        (returned as non-converged, counted as a watchdog event).
    consistency_slack:
        Checkpoint proof tolerance: ``|(b - A x) - r| <= slack * |b|``.
    exit_slack:
        Exit verification accepts a true residual up to
        ``exit_slack * tol * |b|`` (recurrence and true residuals
        legitimately drift apart by roundoff).
    mass_slack:
        PageRank mass-conservation tolerance on ``|sum(rank) - 1|``.
    """

    interval: int = 10
    max_rollbacks: int = 25
    replay_limit: int = 3
    divergence_factor: float = 1e6
    stagnation_window: int = 200
    consistency_slack: float = 1e-6
    exit_slack: float = 10.0
    mass_slack: float = 1e-8

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.replay_limit < 1:
            raise ValueError("replay_limit must be >= 1")
        if self.max_rollbacks < 1:
            raise ValueError("max_rollbacks must be >= 1")


@dataclass
class RecoveryLog:
    """What the fault-tolerance machinery did during one solve."""

    checkpoints: int = 0
    checkpoint_rejects: int = 0
    rollbacks: int = 0
    iterations_lost: int = 0      # iterations discarded by rollbacks (incl. the faulted one)
    product_faults: int = 0       # SpmvFault detections
    watchdog_events: dict = field(default_factory=dict)
    safe_mode_entered: bool = False

    def note(self, kind: str) -> None:
        self.watchdog_events[kind] = self.watchdog_events.get(kind, 0) + 1

    @property
    def detections(self) -> int:
        return self.product_faults + sum(self.watchdog_events.values())

    def as_dict(self) -> dict:
        return {
            "checkpoints": self.checkpoints,
            "checkpoint_rejects": self.checkpoint_rejects,
            "rollbacks": self.rollbacks,
            "iterations_lost": self.iterations_lost,
            "product_faults": self.product_faults,
            "watchdog_events": dict(self.watchdog_events),
            "safe_mode_entered": self.safe_mode_entered,
        }

    def describe(self) -> str:
        return (
            f"recovery: checkpoints={self.checkpoints} rollbacks={self.rollbacks} "
            f"iterations_lost={self.iterations_lost} product_faults={self.product_faults} "
            f"watchdog={self.watchdog_events or '{}'}"
            + (" [safe mode]" if self.safe_mode_entered else "")
        )


@dataclass
class FtSolveResult:
    """A :class:`~repro.apps.solvers.SolveResult` plus its recovery log."""

    result: SolveResult
    recovery: RecoveryLog


@dataclass
class FtPageRankResult:
    rank: np.ndarray
    iterations: int
    converged: bool
    recovery: RecoveryLog


class _Recovery:
    """Checkpoint store + rollback accounting shared by the solvers."""

    def __init__(self, op: VerifiedOperator, cfg: CheckpointConfig, log: RecoveryLog) -> None:
        self.op, self.cfg, self.log = op, cfg, log
        self.ckpt_it = 0
        self.ckpt_state: tuple = ()
        self.replays = 0

    @staticmethod
    def _copy(state: tuple) -> tuple:
        return tuple(np.copy(s) if isinstance(s, np.ndarray) else s for s in state)

    def checkpoint(self, it: int, *state) -> None:
        self.ckpt_it = it
        self.ckpt_state = self._copy(state)
        self.replays = 0
        self.log.checkpoints += 1

    def rollback(self, it: int, exc: Exception) -> tuple[int, tuple] | None:
        """Account for a detection; returns (restart_it, state) or
        ``None`` when recovery is impossible even from safe mode."""
        if isinstance(exc, SpmvFault):
            self.log.product_faults += 1
        else:
            self.log.note(exc.kind)  # type: ignore[attr-defined]
        self.log.rollbacks += 1
        self.log.iterations_lost += it - self.ckpt_it
        self.replays += 1
        if self.replays > self.cfg.replay_limit or self.log.rollbacks >= self.cfg.max_rollbacks:
            if self.op.safe_mode:
                self.log.note("unrecoverable")
                return None
            self.op.enter_safe_mode()
            self.log.safe_mode_entered = True
            self.replays = 0
        return self.ckpt_it + 1, self._copy(self.ckpt_state)


def _consistent(
    op: VerifiedOperator, b: np.ndarray, x: np.ndarray, r: np.ndarray,
    bn: float, cfg: CheckpointConfig,
) -> bool:
    """Does the recurrence residual match the trusted true residual?"""
    r_true = b - op.reference_spmv(x)
    return norm(r_true - r) <= cfg.consistency_slack * bn


def checkpointed_cg(
    op: VerifiedOperator,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    config: CheckpointConfig | None = None,
) -> FtSolveResult:
    """Fault-tolerant CG: verified products, checkpoints, rollback-replay."""
    cfg = config or CheckpointConfig()
    log = RecoveryLog()
    rec = _Recovery(op, cfg, log)
    b = np.asarray(b, dtype=np.float64)
    bn = norm(b) or 1.0

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = dot(r, r)
    rec.checkpoint(0, x, r, p, rs)
    if np.sqrt(rs) <= tol * bn:
        return FtSolveResult(SolveResult(x, 0, np.sqrt(rs), True, op.products), log)
    best_rs = rs
    since_best = 0
    it = 1
    while it <= max_iter:
        try:
            ap = op.spmv(p)
            denom = dot(p, ap)
            if denominator_breakdown(denom, norm(p) * norm(ap)):
                return FtSolveResult(
                    SolveResult(x, it, np.sqrt(rs), False, op.products,
                                breakdown=True, breakdown_reason="pAp"),
                    log,
                )
            alpha = rs / denom
            x_new = x + alpha * p
            r_new = r - alpha * ap
            inj = faults.active_injector()
            if inj is not None:
                x_new = inj.corrupt_solver_state(x_new)
                r_new = inj.corrupt_solver_state(r_new)
            rs_new = dot(r_new, r_new)
            if not (np.isfinite(rs_new) and np.isfinite(x_new).all()):
                raise _WatchdogFault("nonfinite_state")
            if rs_new > cfg.divergence_factor * max(best_rs, _TINY):
                raise _WatchdogFault("divergence")
            if np.sqrt(rs_new) <= tol * bn:
                true_res = norm(b - op.reference_spmv(x_new))
                if true_res <= cfg.exit_slack * tol * bn:
                    return FtSolveResult(
                        SolveResult(x_new, it, true_res, True, op.products), log
                    )
                raise _WatchdogFault("false_convergence")
            p_next = r_new + (rs_new / rs) * p
            if it % cfg.interval == 0:
                if _consistent(op, b, x_new, r_new, bn, cfg):
                    rec.checkpoint(it, x_new, r_new, p_next, rs_new)
                else:
                    log.checkpoint_rejects += 1
                    raise _WatchdogFault("inconsistent_state")
            x, r, p, rs = x_new, r_new, p_next, rs_new
            if rs < best_rs:
                best_rs, since_best = rs, 0
            else:
                since_best += 1
                if since_best >= cfg.stagnation_window:
                    log.note("stagnation")
                    return FtSolveResult(
                        SolveResult(x, it, np.sqrt(rs), False, op.products), log
                    )
            it += 1
        except (SpmvFault, _WatchdogFault) as exc:
            restart = rec.rollback(it, exc)
            if restart is None:
                return FtSolveResult(
                    SolveResult(x, it, np.sqrt(rs), False, op.products), log
                )
            it, (x, r, p, rs) = restart
            # The watchdog's baseline restarts at the restored state: a
            # residual reached only by discarded iterates would flag
            # every replay from an earlier checkpoint as divergence.
            best_rs = rs
            since_best = 0
    return FtSolveResult(SolveResult(x, max_iter, np.sqrt(rs), False, op.products), log)


def checkpointed_bicgstab(
    op: VerifiedOperator,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    config: CheckpointConfig | None = None,
) -> FtSolveResult:
    """Fault-tolerant BiCGSTAB (two verified products per iteration)."""
    cfg = config or CheckpointConfig()
    log = RecoveryLog()
    rec = _Recovery(op, cfg, log)
    b = np.asarray(b, dtype=np.float64)
    bn = norm(b) or 1.0

    x = np.zeros_like(b)
    r = b.copy()
    r_hat = r.copy()  # fixed shadow vector; never rolled back
    rhat_norm = norm(r_hat)
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    rec.checkpoint(0, x, r, p, v, rho, alpha, omega)
    res = norm(r)
    if res <= tol * bn:
        return FtSolveResult(SolveResult(x, 0, res, True, op.products), log)
    best_res = res
    since_best = 0
    it = 1
    while it <= max_iter:
        try:
            rho_new = dot(r_hat, r)
            if denominator_breakdown(rho_new, rhat_norm * norm(r)):
                return FtSolveResult(
                    SolveResult(x, it, norm(r), False, op.products,
                                breakdown=True, breakdown_reason="rho"),
                    log,
                )
            beta = (rho_new / rho) * (alpha / omega)
            p_new = r + beta * (p - omega * v)
            v_new = op.spmv(p_new)
            rv = dot(r_hat, v_new)
            if denominator_breakdown(rv, rhat_norm * norm(v_new)):
                return FtSolveResult(
                    SolveResult(x, it, norm(r), False, op.products,
                                breakdown=True, breakdown_reason="rhat_v"),
                    log,
                )
            alpha_new = rho_new / rv
            s = r - alpha_new * v_new
            s_norm = norm(s)
            if s_norm <= tol * bn:
                x_mid = x + alpha_new * p_new
                true_res = norm(b - op.reference_spmv(x_mid))
                if true_res <= cfg.exit_slack * tol * bn:
                    return FtSolveResult(
                        SolveResult(x_mid, it, true_res, True, op.products), log
                    )
                raise _WatchdogFault("false_convergence")
            t = op.spmv(s)
            tt = dot(t, t)
            omega_new = dot(t, s) / tt if tt > 0 else 0.0
            x_new = x + alpha_new * p_new + omega_new * s
            r_new = s - omega_new * t
            inj = faults.active_injector()
            if inj is not None:
                x_new = inj.corrupt_solver_state(x_new)
                r_new = inj.corrupt_solver_state(r_new)
            res_new = norm(r_new)
            if not (np.isfinite(res_new) and np.isfinite(x_new).all()):
                raise _WatchdogFault("nonfinite_state")
            if res_new**2 > cfg.divergence_factor * max(best_res**2, _TINY):
                raise _WatchdogFault("divergence")
            if res_new <= tol * bn:
                true_res = norm(b - op.reference_spmv(x_new))
                if true_res <= cfg.exit_slack * tol * bn:
                    return FtSolveResult(
                        SolveResult(x_new, it, true_res, True, op.products), log
                    )
                raise _WatchdogFault("false_convergence")
            if denominator_breakdown(omega_new, 1.0):
                return FtSolveResult(
                    SolveResult(x_new, it, res_new, False, op.products,
                                breakdown=True, breakdown_reason="omega"),
                    log,
                )
            if it % cfg.interval == 0:
                if _consistent(op, b, x_new, r_new, bn, cfg):
                    rec.checkpoint(it, x_new, r_new, p_new, v_new, rho_new, alpha_new, omega_new)
                else:
                    log.checkpoint_rejects += 1
                    raise _WatchdogFault("inconsistent_state")
            x, r, p, v = x_new, r_new, p_new, v_new
            rho, alpha, omega = rho_new, alpha_new, omega_new
            if res_new < best_res:
                best_res, since_best = res_new, 0
            else:
                since_best += 1
                if since_best >= cfg.stagnation_window:
                    log.note("stagnation")
                    return FtSolveResult(
                        SolveResult(x, it, res_new, False, op.products), log
                    )
            it += 1
        except (SpmvFault, _WatchdogFault) as exc:
            restart = rec.rollback(it, exc)
            if restart is None:
                return FtSolveResult(
                    SolveResult(x, it, norm(r), False, op.products), log
                )
            it, (x, r, p, v, rho, alpha, omega) = restart
            best_res = norm(r)  # baseline restarts at the restored state
            since_best = 0
    return FtSolveResult(
        SolveResult(x, max_iter, norm(r), False, op.products), log
    )


def checkpointed_pagerank(
    op: VerifiedOperator,
    dangling: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    config: CheckpointConfig | None = None,
) -> FtPageRankResult:
    """Fault-tolerant PageRank over a column-stochastic operator.

    Mass conservation (``sum(rank) == 1`` after every damped step) is
    the checkpoint invariant — it comes free of extra products, which is
    why PageRank checkpoints are so much cheaper than the solvers'.
    """
    cfg = config or CheckpointConfig()
    log = RecoveryLog()
    rec = _Recovery(op, cfg, log)
    n = dangling.size
    seeds = np.full(n, 1.0 / n)
    rank = seeds.copy()
    rec.checkpoint(0, rank)
    best_delta = np.inf
    it = 1
    while it <= max_iter:
        try:
            new = pagerank_step(op, rank, dangling, seeds, damping)
            inj = faults.active_injector()
            if inj is not None:
                new = inj.corrupt_solver_state(new)
            if not np.isfinite(new).all():
                raise _WatchdogFault("nonfinite_state")
            if abs(float(new.sum()) - 1.0) > cfg.mass_slack:
                raise _WatchdogFault("mass_drift")
            delta = float(np.abs(new - rank).sum())
            if delta**2 > cfg.divergence_factor * max(best_delta**2 if np.isfinite(best_delta) else delta**2, _TINY):
                raise _WatchdogFault("divergence")
            if delta <= tol:
                spread = op.reference_spmv(new) + new[dangling].sum() / n
                true_new = damping * spread + (1.0 - damping) * seeds
                if float(np.abs(true_new - new).sum()) <= cfg.exit_slack * max(tol, 1e-15):
                    return FtPageRankResult(new, it, True, log)
                raise _WatchdogFault("false_convergence")
            if it % cfg.interval == 0:
                rec.checkpoint(it, new)
            rank = new
            best_delta = min(best_delta, delta)
            it += 1
        except (SpmvFault, _WatchdogFault) as exc:
            restart = rec.rollback(it, exc)
            if restart is None:
                return FtPageRankResult(rank, it, False, log)
            it, (rank,) = restart
            best_delta = np.inf
    return FtPageRankResult(rank, max_iter, False, log)


def modelled_checkpoint_overhead(
    op: VerifiedOperator,
    config: CheckpointConfig | None = None,
    device=None,
    products_per_iteration: int = 1,
) -> float:
    """Fractional modelled-time overhead of the consistency products.

    One trusted reference product per ``interval`` iterations, relative
    to the ``products_per_iteration`` verified fast products each
    iteration costs anyway:  ``t_ref / (interval * ppi * t_fast)``.
    The knee of the tradeoff: halving ``interval`` halves the work lost
    per rollback but doubles this overhead.
    """
    from repro.gpu.device import A100

    cfg = config or CheckpointConfig()
    device = device or A100
    t_fast = op.fast_cost().time(device)
    t_ref = op.reference_cost().time(device)
    if t_fast <= 0:
        return 0.0
    return t_ref / (cfg.interval * max(1, products_per_iteration) * t_fast)
