"""Checkpoint/rollback fault tolerance for the iterative solvers.

One transient fault mid-solve corrupts every later iterate, so a
per-product guarantee is not enough.  The checkpointed solvers are the
solvers' own steps (:class:`~repro.apps.solvers.CgState`,
:class:`~repro.apps.solvers.BicgstabState`,
:class:`~repro.apps.graph.PageRankState`) under their own driver
(:func:`~repro.apps.solvers.run`), in lanes that switch on:

1. **Verified products**: :class:`VerifiedOperator` ABFT-checks every
   SpMV and raises :class:`SpmvFault` instead of retrying, so a detected
   fault costs a rollback, not a poisoned Krylov space.
2. **A watchdog** on every new iterate: NaN/Inf, PageRank's mass
   conservation, a residual beyond ``divergence_factor`` of the best,
   and no new best for ``stagnation_window`` iterations (a give-up).
3. **Verified checkpoints** every ``interval`` iterations, stored once
   the recurrence residual is proven to match ``b - A x`` on the
   trusted reference path; and a trusted *exit verification*, so the
   answer is never an unverified iterate.
4. **Rollback-and-replay** to the last checkpoint on any detection;
   after ``replay_limit`` rollbacks at one checkpoint (or
   ``max_rollbacks`` in all) the operator drops to **safe mode**, the
   scalar reference path outside the simulated fault domain.

:meth:`~repro.gpu.faults.FaultInjector.corrupt_solver_state` injects
host-memory corruption of the solver's vectors, which no per-product
checksum sees; the watchdog, the proofs and the exit verification catch
it.  :class:`RecoveryLog` counts every recovery action.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from repro.apps.graph import PageRankState, pagerank_step
from repro.apps.solvers import BicgstabState, CgState, Lanes, SolveResult, Stop, run
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.core.tilespmv import TileSpMV
from repro.gpu import faults
from repro.gpu.costmodel import RunCost
from repro.reliability.abft import AbftChecksum
from repro.reliability.reliable import verified_reference
from repro.reliability.validation import ValidationPolicy, canonicalize_csr
from repro.util.vecops import norm

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


class SpmvFault(RuntimeError):
    """A verified product failed its ABFT check — the caller must recover.

    Not retried inside: the checkpointed solvers answer with a rollback,
    the recovery that also repairs any state the fault may have reached.
    """


class _WatchdogFault(RuntimeError):
    """Internal: a state screen (not a product check) fired; its arg names it."""


class VerifiedOperator:
    """An engine whose every product is ABFT-verified or *signalled*.

    Parameters mirror :class:`~repro.core.tilespmv.TileSpMV`; ``engine``
    protects an already-built one instead.  ``safe_mode`` reroutes every
    product to the scalar reference path outside the fault domain.
    """

    def __init__(self, matrix: sp.spmatrix, method: str = "adpt",
                 policy: ValidationPolicy | str = ValidationPolicy.REPAIR, plan_cache=None,
                 engine=None, **tile_kwargs) -> None:
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
        Iterations between verified checkpoints: smaller loses less work
        per rollback, but pays the consistency product more often.
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
        ``exit_slack * tol * |b|`` (the two residuals drift by roundoff).
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
        for name in ("interval", "replay_limit", "max_rollbacks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
        return asdict(self)

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


class _CheckedLanes(Lanes):
    """One right-hand side with checkpointing on.  A converged iterate is
    accepted once its trusted ``exit_error`` is at most ``exit_bound``;
    ``consistent`` proves a state to checkpoint; ``drifted`` checks mass."""

    faults = (SpmvFault, _WatchdogFault)

    def __init__(self, op: VerifiedOperator, cfg: CheckpointConfig, tol_b: float,
                 exit_error, exit_bound: float, consistent=None, drifted=None) -> None:
        super().__init__(op, tol_b)
        self.cfg, self.log = cfg, RecoveryLog()
        self.exit_error, self.exit_bound = exit_error, exit_bound
        self.consistent, self.drifted = consistent, drifted

    def start(self, state) -> None:
        self.power, self.best, self.since = state.power, state.watch, 0
        self._checkpoint(0, state)
        super().start(state)

    def corrupt(self, v: np.ndarray) -> np.ndarray:
        inj = faults.active_injector()
        return v if inj is None else inj.corrupt_solver_state(v)

    def screen(self, measure, x: np.ndarray) -> None:
        if not (np.isfinite(measure) and np.isfinite(x).all()):
            raise _WatchdogFault("nonfinite_state")
        if self.drifted is not None and self.drifted(x):
            raise _WatchdogFault("mass_drift")
        if measure**self.power > self.cfg.divergence_factor * max(self.best**self.power, 1e-30):
            raise _WatchdogFault("divergence")
        self.measure = measure

    def converge(self, residual, x) -> None:
        if residual <= self.tol_b:
            x = x()
            error = self.exit_error(x)
            if not error <= self.exit_bound:
                raise _WatchdogFault("false_convergence")
            raise Stop(x, error, True)

    def commit(self, state, it: int):
        if it % self.cfg.interval == 0:
            if self.consistent is not None and not self.consistent(state):
                self.log.checkpoint_rejects += 1
                raise _WatchdogFault("inconsistent_state")
            self._checkpoint(it, state)
        if self.measure < self.best:
            self.best, self.since = self.measure, 0
        else:
            self.since += 1
            if self.since >= self.cfg.stagnation_window:
                self.log.note("stagnation")
                raise Stop(state.x, state.residual)
        return state

    def _checkpoint(self, it: int, state) -> None:
        self.ckpt_it, self.ckpt_state, self.replays = it, deepcopy(state), 0
        self.log.checkpoints += 1

    def recover(self, it: int, exc: Exception):
        """Account for a detection: (restart iteration, state), or ``None``
        when even safe mode cannot recover."""
        log, cfg = self.log, self.cfg
        if isinstance(exc, SpmvFault):
            log.product_faults += 1
        else:
            log.note(exc.args[0])
        log.rollbacks += 1
        log.iterations_lost += it - self.ckpt_it
        self.replays += 1
        if self.replays > cfg.replay_limit or log.rollbacks >= cfg.max_rollbacks:
            if self.engine.safe_mode:
                log.note("unrecoverable")
                return None
            self.engine.enter_safe_mode()
            log.safe_mode_entered = True
            self.replays = 0
        state = deepcopy(self.ckpt_state)
        # The watchdog's baseline restarts at the restored state: a
        # residual reached only by discarded iterates would flag every
        # replay from an earlier checkpoint as divergence.
        self.best, self.since = state.watch, 0
        return self.ckpt_it + 1, state

    def result(self, x, iterations, residual, converged=False, reason=""):
        out = super().result(x, iterations, residual, converged, reason)
        out.spmv_calls = self.engine.products
        return FtSolveResult(out, self.log)


def _solve(state_cls, op: VerifiedOperator, b: np.ndarray, tol: float, max_iter: int,
           config: CheckpointConfig | None) -> FtSolveResult:
    """A checkpointed solve of ``A x = b`` from ``x = 0``: the proof and
    the exit verification recompute ``b - A x`` on the trusted path."""
    cfg = config or CheckpointConfig()
    b = np.asarray(b, dtype=np.float64)
    bn = norm(b) or 1.0
    lanes = _CheckedLanes(
        op, cfg, tol * bn, lambda x: norm(b - op.reference_spmv(x)), cfg.exit_slack * tol * bn,
        consistent=lambda s: norm(b - op.reference_spmv(s.x) - s.r) <= cfg.consistency_slack * bn)
    return run(lanes, state_cls.start(np.zeros_like(b), b.copy()), max_iter)


def checkpointed_cg(op: VerifiedOperator, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000,
                    config: CheckpointConfig | None = None) -> FtSolveResult:
    """Fault-tolerant CG: verified products, checkpoints, rollback-replay."""
    return _solve(CgState, op, b, tol, max_iter, config)


def checkpointed_bicgstab(op: VerifiedOperator, b: np.ndarray, tol: float = 1e-10,
                          max_iter: int = 1000,
                          config: CheckpointConfig | None = None) -> FtSolveResult:
    """Fault-tolerant BiCGSTAB (two verified products per iteration)."""
    return _solve(BicgstabState, op, b, tol, max_iter, config)


def checkpointed_pagerank(op: VerifiedOperator, dangling: np.ndarray, damping: float = 0.85,
                          tol: float = 1e-10, max_iter: int = 200,
                          config: CheckpointConfig | None = None) -> FtPageRankResult:
    """Fault-tolerant PageRank over a column-stochastic operator.  Mass
    conservation is checked on every iterate at no product's cost, so a
    checkpoint needs no proof; the exit verification is a trusted step."""
    cfg = config or CheckpointConfig()
    seeds = np.full(dangling.size, 1.0 / dangling.size)
    reference = SimpleNamespace(spmv=op.reference_spmv)
    lanes = _CheckedLanes(
        op, cfg, tol,
        lambda rank: np.abs(pagerank_step(reference, rank, dangling, seeds, damping) - rank).sum(),
        cfg.exit_slack * max(tol, 1e-15),
        drifted=lambda rank: abs(float(rank.sum()) - 1.0) > cfg.mass_slack)
    out = run(lanes, PageRankState(seeds.copy(), seeds, dangling, damping), max_iter)
    return FtPageRankResult(out.result.x, out.result.iterations, out.result.converged, out.recovery)


def modelled_checkpoint_overhead(op: VerifiedOperator, config: CheckpointConfig | None = None,
                                 device=None, products_per_iteration: int = 1) -> float:
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
