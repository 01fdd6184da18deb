"""Iterative solvers over any SpMV engine: one step per method, one driver.

Each Krylov method is written once, as the ``step`` of its state
(:class:`CgState`, :class:`BicgstabState`; PageRank's is in
:mod:`repro.apps.graph`), and :func:`run` drives every solve.  A step
takes 1-D vectors or (n, k) blocks; its *lanes* decide what its checks
do.  :class:`Lanes` ends a 1-D solve when one fires; :class:`BlockLanes`
runs k independent solves in lockstep, one SpMM per product, freezing
the columns a check names; :mod:`repro.serving.checkpoint` adds
verified products, a watchdog, checkpoints and rollback.  Reductions
go through ``vecops.column_dots``/``column_norms``, so vectors and
blocks keep their own bits.  The operator is touched only through
``.spmv``/``.spmm``: any engine, or scipy via :class:`ScipyOperator`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.util.vecops import axpy, column_dots, column_norms, dot, norm

__all__ = [
    "ScipyOperator",
    "SolveResult",
    "BlockSolveResult",
    "conjugate_gradient",
    "bicgstab",
    "block_conjugate_gradient",
    "block_bicgstab",
    "jacobi",
    "power_iteration",
    "denominator_breakdown",
]

# Relative threshold under which a solver denominator counts as a
# breakdown: |d| at or below this fraction of its factors' magnitudes is
# numerically indistinguishable from zero, and dividing by it emits the
# NaN/Inf iterates the reliability layer must never see.
BREAKDOWN_RTOL = 64.0 * np.finfo(np.float64).eps


def denominator_breakdown(value, scale):
    """Is ``value`` (a solver denominator) effectively zero at ``scale``?

    ``scale`` is the product of the norms of the vectors whose inner
    product produced ``value`` (the natural magnitude of its terms).
    Non-finite denominators always count as broken; arrays give a mask.
    """
    return ~np.isfinite(value) | (np.abs(value) <= BREAKDOWN_RTOL * scale)


class ScipyOperator:
    """Adapter giving a scipy sparse matrix the engine interface."""

    def __init__(self, matrix: sp.spmatrix) -> None:
        self._matrix = matrix.tocsr()

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix @ x)

    spmm = spmv


def product(engine, x: np.ndarray) -> np.ndarray:
    """``A x`` for a vector; ``A X`` for a block, by SpMM if the engine has it."""
    if x.ndim == 1:
        return engine.spmv(x)
    if hasattr(engine, "spmm"):
        return engine.spmm(x)
    return np.column_stack([engine.spmv(x[:, j]) for j in range(x.shape[1])])


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``breakdown`` flags the structured failure mode: a near-zero solver
    denominator (CG's ``p·Ap``, BiCGSTAB's ``rho``/``r_hat·v``/``omega``)
    was caught *before* it divided into NaN iterates; ``x`` holds the
    last finite iterate and ``breakdown_reason`` names the denominator.
    """

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    spmv_calls: int
    breakdown: bool = False
    breakdown_reason: str = ""


@dataclass
class BlockSolveResult:
    """Outcome of a batched multi-RHS solve (k independent systems)."""

    x: np.ndarray  # (n, k) solutions
    iterations: np.ndarray  # (k,) iterations each column ran
    residual_norms: np.ndarray  # (k,) final residual norms
    converged: np.ndarray  # (k,) bool
    spmm_calls: int
    breakdown: np.ndarray | None = None  # (k,) bool: frozen on a near-zero denominator


class Stop(Exception):
    """Ends a 1-D solve inside a step: args ``(x, residual, converged, reason)``."""


class Lanes:
    """A solve of one right-hand side, which a check that fires ends.

    ``tol_b`` is the residual to converge at (PageRank: a step's move).
    A step computes through ``ratio`` (``a / b``, 0 where ``b`` is 0),
    ``keep`` (the new value where a column is still active) and ``add``,
    and checks through ``breakdown`` and ``converge``; the driver calls
    ``start``, ``running``, ``commit`` and, on ``faults``, ``recover``.
    """

    faults: tuple = ()  # detections that ``recover`` answers: none

    def __init__(self, engine, tol_b) -> None:
        self.engine, self.tol_b, self.calls = engine, tol_b, 0

    def spmv(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        return product(self.engine, x)

    spmm = spmv

    def initial(self, b: np.ndarray, x0: np.ndarray | None):
        """The first iterate and its residual ``b - A x``."""
        x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
        return x, b - product(self, x)

    def start(self, state) -> None:
        """A start within tolerance is the answer: its residual was
        computed, not recurred, so it needs no verifying."""
        if state.residual <= self.tol_b:
            raise Stop(state.x, state.residual, True)

    def running(self, it: int) -> bool:
        return True

    def _same(self, value, *_):
        return value

    # A plain solve neither corrupts, masks nor checkpoints its state.
    corrupt = keep = commit = _same

    def screen(self, measure, x: np.ndarray) -> None:
        """The watchdog on a new iterate: idle in a plain solve."""

    def ratio(self, a, b):
        return a / b if b else 0.0

    def add(self, x, a, b):
        return x + a + b

    def breakdown(self, reason: str, state, bad) -> None:
        if bad:
            raise Stop(state.x, state.residual, False, reason)

    def converge(self, residual, x) -> None:
        if residual <= self.tol_b:
            raise Stop(x(), residual, True)

    def result(self, x, iterations, residual, converged=False, reason=""):
        return SolveResult(x, iterations, residual, converged, self.calls, bool(reason), reason)


class BlockLanes(Lanes):
    """k independent solves in lockstep on (n, k) blocks.  A check freezes
    the columns it names (scalars masked to 0, vectors kept); the solve
    runs while any column is active."""

    def start(self, state) -> None:
        k = state.x.shape[1]
        self.active = np.ones(k, dtype=bool)
        self.converged, self.broken = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
        self.iterations, self.res = np.zeros(k, dtype=np.int64), np.zeros(k)
        self.converge(state.residual, None)

    def running(self, it: int) -> bool:
        self.iterations[self.active] = it
        return bool(self.active.any())

    def ratio(self, a, b):
        return np.where(self.active, a / np.where(self.active & (b != 0), b, 1.0), 0.0)

    def keep(self, new, old):
        return np.where(self.active, new, old)

    def add(self, x, a, b):
        return x + (a + b)

    def breakdown(self, reason: str, state, bad) -> None:
        bad = self.active & bad
        self.broken |= bad
        self.active &= ~bad

    def converge(self, residual, x) -> None:
        done = self.active & (residual <= self.tol_b)
        self.converged |= done
        self.res = np.where(done, residual, self.res)
        self.active &= ~done

    def result(self, x, iterations, residual, converged=False, reason=""):
        return BlockSolveResult(x, self.iterations, np.where(self.converged, self.res, residual),
                                self.converged, self.calls, self.broken)


def run(lanes: Lanes, state, max_iter: int):
    """Step ``state`` in ``lanes`` until a check stops it or ``max_iter``
    is reached, and return ``lanes.result``.  On a detection in
    ``lanes.faults``, ``lanes.recover`` restores an earlier iteration and
    state to replay from, or gives up (``None``)."""
    it = 0
    try:
        lanes.start(state)
        it = 1
        while it <= max_iter and lanes.running(it):
            try:
                state = lanes.commit(state.step(lanes, it), it)
                it += 1
            except lanes.faults as exc:
                restart = lanes.recover(it, exc)
                if restart is None:
                    return lanes.result(state.x, it, state.residual)
                it, state = restart
    except Stop as stop:
        return lanes.result(stop.args[0], it, *stop.args[1:])
    return lanes.result(state.x, max_iter, state.residual)


class CgState(namedtuple("CgState", "x r p rs")):
    """Conjugate gradients: iterate, residual, direction and ``r · r``
    (the watchdog's measure, already squared: ``power`` 1)."""

    power = 1
    residual = property(lambda self: np.sqrt(self.rs))
    watch = property(lambda self: self.rs)

    @classmethod
    def start(cls, x: np.ndarray, r: np.ndarray) -> CgState:
        return cls(x, r, r.copy(), column_dots(r, r))

    def step(self, lanes: Lanes, it: int) -> CgState:
        ap = product(lanes, self.p)
        denom = column_dots(self.p, ap)
        lanes.breakdown("pAp", self, denominator_breakdown(
            denom, column_norms(self.p) * column_norms(ap)))
        alpha = lanes.ratio(self.rs, denom)
        x = lanes.corrupt(axpy(alpha, self.p, self.x))
        r = lanes.corrupt(axpy(-alpha, ap, self.r))
        rs = column_dots(r, r)
        lanes.screen(rs, x)
        lanes.breakdown("nonfinite_residual", self, ~np.isfinite(rs))
        lanes.converge(np.sqrt(rs), lambda: x)
        return CgState(x, r, axpy(lanes.ratio(rs, self.rs), self.p, r), rs)


class BicgstabState(namedtuple("BicgstabState", "x r p v rho alpha omega res r_hat rhat_norm")):
    """BiCGSTAB: CG's vectors, ``v = A p``, the last step's scalars,
    ``res = |r|`` and the fixed shadow residual ``r_hat``."""

    power = 2
    residual = watch = property(lambda self: self.res)

    @classmethod
    def start(cls, x: np.ndarray, r: np.ndarray) -> BicgstabState:
        res = column_norms(r)
        return cls(x, r, np.zeros_like(r), np.zeros_like(r), 1.0, 1.0, 1.0, res, r.copy(), res)

    def step(self, lanes: Lanes, it: int) -> BicgstabState:
        rho = column_dots(self.r_hat, self.r)
        lanes.breakdown("rho", self, denominator_breakdown(
            rho, self.rhat_norm * column_norms(self.r)))
        beta = lanes.ratio(rho, self.rho) * lanes.ratio(self.alpha, self.omega)
        p = lanes.keep(self.r + beta * (self.p - self.omega * self.v), self.p)
        v = lanes.keep(product(lanes, p), self.v)
        rv = column_dots(self.r_hat, v)
        lanes.breakdown("rhat_v", self, denominator_breakdown(
            rv, self.rhat_norm * column_norms(v)))
        alpha = lanes.ratio(rho, rv)
        s = self.r - alpha * v
        lanes.converge(column_norms(s), lambda: self.x + alpha * p)
        if not lanes.running(it):  # every column converged at the half step
            return self._replace(x=self.x + alpha * p)
        t = product(lanes, s)
        omega = lanes.ratio(column_dots(t, s), column_dots(t, t))
        x = lanes.corrupt(lanes.add(self.x, alpha * p, omega * s))
        r = lanes.corrupt(lanes.keep(s - omega * t, self.r))
        res = column_norms(r)
        lanes.screen(res, x)
        lanes.breakdown("nonfinite_residual", self, ~np.isfinite(res))
        new = self._replace(x=x, r=r, p=p, v=v, rho=rho, alpha=alpha, omega=omega,
                            res=lanes.keep(res, self.res))
        lanes.converge(res, lambda: x)
        # omega ~ 0 would divide the next beta by zero: stop at the new state.
        lanes.breakdown("omega", new, denominator_breakdown(omega, 1.0))
        return new


def _block(b, tol: float, single: str) -> tuple[np.ndarray, np.ndarray]:
    """A block right-hand side and its per-column tolerances."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"b must be 2-D (n, k); use {single} for one rhs")
    norms = np.linalg.norm(b, axis=0)
    return b, tol * np.where(norms > 0, norms, 1.0)


def conjugate_gradient(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> SolveResult:
    """Unpreconditioned CG for symmetric positive-definite operators."""
    lanes = Lanes(engine, tol * (norm(b) or 1.0))
    return run(lanes, CgState.start(*lanes.initial(b, x0)), max_iter)


def bicgstab(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> SolveResult:
    """BiCGSTAB for general (nonsymmetric) operators."""
    lanes = Lanes(engine, tol * (norm(b) or 1.0))
    return run(lanes, BicgstabState.start(*lanes.initial(b, x0)), max_iter)


def block_conjugate_gradient(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> BlockSolveResult:
    """CG on k right-hand sides in lockstep, one SpMM per iteration.

    Mathematically identical to k independent :func:`conjugate_gradient`
    runs (per-column alpha/beta, no shared Krylov space).
    """
    b, tol_b = _block(b, tol, "conjugate_gradient")
    lanes = BlockLanes(engine, tol_b)
    return run(lanes, CgState.start(*lanes.initial(b, x0)), max_iter)


def block_bicgstab(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> BlockSolveResult:
    """BiCGSTAB on k right-hand sides in lockstep (two SpMMs per iter)."""
    b, tol_b = _block(b, tol, "bicgstab")
    lanes = BlockLanes(engine, tol_b)
    return run(lanes, BicgstabState.start(*lanes.initial(b, x0)), max_iter)


def jacobi(engine, b: np.ndarray, diagonal: np.ndarray, tol: float = 1e-10, max_iter: int = 2000,
           x0: np.ndarray | None = None) -> SolveResult:
    """Jacobi iteration; caller supplies the operator diagonal.

    The engine interface exposes only matrix-vector products, so the
    diagonal is an explicit argument (``matrix.diagonal()`` upstream).
    """
    if np.any(diagonal == 0):
        raise ValueError("Jacobi requires a zero-free diagonal")
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    inv_d = 1.0 / diagonal
    bn = norm(b) or 1.0
    calls = 0
    for it in range(1, max_iter + 1):
        r = b - engine.spmv(x)
        calls += 1
        res = norm(r)
        if res <= tol * bn:
            return SolveResult(x, it, res, True, calls)
        x = x + inv_d * r
    return SolveResult(x, max_iter, res, False, calls)


def power_iteration(
    engine, n: int, tol: float = 1e-12, max_iter: int = 5000, seed: int = 0
) -> tuple[float, np.ndarray, int]:
    """Dominant eigenvalue/vector by power iteration.

    Returns ``(eigenvalue, eigenvector, iterations)``.  One product per
    iteration: ``A · v_new`` gives the Rayleigh quotient and is the next
    iteration's ``w``.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= norm(v)
    lam = 0.0
    w = engine.spmv(v)
    for it in range(1, max_iter + 1):
        w_norm = norm(w)
        if w_norm == 0.0:
            return 0.0, v, it
        v_new = w / w_norm
        w = engine.spmv(v_new)
        lam_new = dot(v_new, w)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            return lam_new, v_new, it
        v, lam = v_new, lam_new
    return lam, v, max_iter
