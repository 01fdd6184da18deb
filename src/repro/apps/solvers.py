"""Iterative solvers generic over any SpMV engine.

Each solver only ever touches the operator through ``.spmv(x)`` (and
``.spmm(X)`` for the block variants), so a tiled engine, any baseline,
or (via :class:`ScipyOperator`) a plain scipy matrix can drive them
interchangeably — which is also how the tests cross-check them.

The block solvers (:func:`block_conjugate_gradient`,
:func:`block_bicgstab`) run k independent solves in lockstep: one
batched SpMM per iteration instead of k SpMVs, with per-column scalars
and a converged mask freezing finished columns.  On the modelled GPU
this rides the k-vector payload amortisation of
:meth:`~repro.gpu.costmodel.RunCost.batched`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.util.vecops import dot, norm

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


def denominator_breakdown(value: float, scale: float) -> bool:
    """Is ``value`` (a solver denominator) effectively zero at ``scale``?

    ``scale`` is the product of the norms of the vectors whose inner
    product produced ``value`` (the natural magnitude of its terms).
    Non-finite denominators always count as broken.
    """
    if not np.isfinite(value):
        return True
    return abs(value) <= BREAKDOWN_RTOL * scale


class ScipyOperator:
    """Adapter giving a scipy sparse matrix the engine interface."""

    def __init__(self, matrix: sp.spmatrix) -> None:
        self._matrix = matrix.tocsr()

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def spmv(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix @ x)

    def spmm(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix @ x)


def _spmm(engine, x: np.ndarray) -> np.ndarray:
    """Apply an engine to a dense block, preferring its native SpMM."""
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


def _bnorm(b: np.ndarray) -> float:
    n = norm(b)
    return n if n > 0 else 1.0


def conjugate_gradient(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> SolveResult:
    """Unpreconditioned CG for symmetric positive-definite operators."""
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - engine.spmv(x)
    p = r.copy()
    rs = dot(r, r)
    calls = 1
    bn = _bnorm(b)
    for it in range(1, max_iter + 1):
        ap = engine.spmv(p)
        calls += 1
        denom = dot(p, ap)
        if denominator_breakdown(denom, norm(p) * norm(ap)):
            return SolveResult(
                x, it, np.sqrt(rs), False, calls,
                breakdown=True, breakdown_reason="pAp",
            )
        alpha = rs / denom
        x_new = x + alpha * p
        r_new = r - alpha * ap
        rs_new = dot(r_new, r_new)
        if not np.isfinite(rs_new):
            return SolveResult(
                x, it, np.sqrt(rs), False, calls,
                breakdown=True, breakdown_reason="nonfinite_residual",
            )
        x, r = x_new, r_new
        if np.sqrt(rs_new) <= tol * bn:
            return SolveResult(x, it, np.sqrt(rs_new), True, calls)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return SolveResult(x, max_iter, np.sqrt(rs), False, calls)


def bicgstab(
    engine, b: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, x0: np.ndarray | None = None
) -> SolveResult:
    """BiCGSTAB for general (nonsymmetric) operators."""
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - engine.spmv(x)
    calls = 1
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    bn = _bnorm(b)
    rhat_norm = norm(r_hat)
    for it in range(1, max_iter + 1):
        rho_new = dot(r_hat, r)
        if denominator_breakdown(rho_new, rhat_norm * norm(r)):
            return SolveResult(
                x, it, norm(r), False, calls,
                breakdown=True, breakdown_reason="rho",
            )
        beta = (rho_new / rho) * (alpha / omega) if it > 1 else 0.0
        p = r + beta * (p - omega * v) if it > 1 else r.copy()
        v = engine.spmv(p)
        calls += 1
        rv = dot(r_hat, v)
        if denominator_breakdown(rv, rhat_norm * norm(v)):
            return SolveResult(
                x, it, norm(r), False, calls,
                breakdown=True, breakdown_reason="rhat_v",
            )
        alpha = rho_new / rv
        s = r - alpha * v
        if norm(s) <= tol * bn:
            x = x + alpha * p
            return SolveResult(x, it, norm(s), True, calls)
        t = engine.spmv(s)
        calls += 1
        tt = dot(t, t)
        omega = dot(t, s) / tt if tt > 0 else 0.0
        x = x + alpha * p + omega * s
        r = s - omega * t
        res = norm(r)
        if not np.isfinite(res):
            return SolveResult(
                x - alpha * p - omega * s, it, norm(s), False,
                calls, breakdown=True, breakdown_reason="nonfinite_residual",
            )
        if res <= tol * bn:
            return SolveResult(x, it, res, True, calls)
        if denominator_breakdown(omega, 1.0):
            # omega ~ 0 leaves the next iteration's beta = rho'/rho *
            # alpha/omega dividing by zero; stop with the state intact.
            return SolveResult(
                x, it, res, False, calls,
                breakdown=True, breakdown_reason="omega",
            )
        rho = rho_new
    return SolveResult(x, max_iter, norm(r), False, calls)


@dataclass
class BlockSolveResult:
    """Outcome of a batched multi-RHS solve (k independent systems)."""

    x: np.ndarray  # (n, k) solutions
    iterations: np.ndarray  # (k,) iterations each column ran
    residual_norms: np.ndarray  # (k,) final residual norms
    converged: np.ndarray  # (k,) bool
    spmm_calls: int
    breakdown: np.ndarray | None = None  # (k,) bool: frozen on a near-zero denominator


def _bnorms(b: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(b, axis=0)
    return np.where(norms > 0, norms, 1.0)


def block_conjugate_gradient(
    engine,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
) -> BlockSolveResult:
    """CG on k right-hand sides in lockstep, one SpMM per iteration.

    Mathematically identical to k independent :func:`conjugate_gradient`
    runs (per-column alpha/beta, no shared Krylov space); finished or
    broken-down columns are frozen via the active mask so extra
    iterations never perturb their answers.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("b must be 2-D (n, k); use conjugate_gradient for one rhs")
    k = b.shape[1]
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - _spmm(engine, x)
    p = r.copy()
    rs = np.einsum("ij,ij->j", r, r)
    calls = 1
    bn = _bnorms(b)
    active = np.ones(k, dtype=bool)
    converged = np.sqrt(rs) <= tol * bn
    active &= ~converged
    iterations = np.zeros(k, dtype=np.int64)
    breakdown = np.zeros(k, dtype=bool)
    for it in range(1, max_iter + 1):
        if not active.any():
            break
        ap = _spmm(engine, p)
        calls += 1
        denom = np.einsum("ij,ij->j", p, ap)
        scale = np.linalg.norm(p, axis=0) * np.linalg.norm(ap, axis=0)
        broken = active & (~np.isfinite(denom) | (np.abs(denom) <= BREAKDOWN_RTOL * scale))
        breakdown |= broken
        active &= ~broken
        iterations[broken] = it
        safe = np.where(broken | (denom == 0.0), 1.0, denom)
        alpha = np.where(active, rs / safe, 0.0)
        x += alpha * p
        r -= alpha * ap
        rs_new = np.einsum("ij,ij->j", r, r)
        blown = active & ~np.isfinite(rs_new)
        breakdown |= blown
        active &= ~blown
        iterations[blown] = it
        rs_new = np.where(blown, rs, rs_new)
        done = active & (np.sqrt(rs_new) <= tol * bn)
        converged |= done
        iterations[done] = it
        active &= ~done
        iterations[active] = it
        beta = np.where(active, rs_new / np.where(rs == 0.0, 1.0, rs), 0.0)
        p = r + beta * p
        rs = rs_new
    return BlockSolveResult(x, iterations, np.sqrt(rs), converged, calls, breakdown)


def block_bicgstab(
    engine,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
) -> BlockSolveResult:
    """BiCGSTAB on k right-hand sides in lockstep (two SpMMs per iter)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("b must be 2-D (n, k); use bicgstab for one rhs")
    k = b.shape[1]
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - _spmm(engine, x)
    calls = 1
    r_hat = r.copy()
    rho = np.ones(k)
    alpha = np.ones(k)
    omega = np.ones(k)
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    bn = _bnorms(b)
    res = np.linalg.norm(r, axis=0)
    converged = res <= tol * bn
    active = ~converged
    iterations = np.zeros(k, dtype=np.int64)
    breakdown = np.zeros(k, dtype=bool)
    rhat_norm = np.linalg.norm(r_hat, axis=0)
    for it in range(1, max_iter + 1):
        if not active.any():
            break
        rho_new = np.einsum("ij,ij->j", r_hat, r)
        rho_scale = rhat_norm * np.linalg.norm(r, axis=0)
        broken = active & (
            ~np.isfinite(rho_new) | (np.abs(rho_new) <= BREAKDOWN_RTOL * rho_scale)
        )
        breakdown |= broken
        active &= ~broken
        iterations[broken] = it
        if it > 1:
            beta = np.where(
                active, (rho_new / _nz(rho)) * (alpha / _nz(omega)), 0.0
            )
            p = np.where(active, r + beta * (p - omega * v), p)
        else:
            p = r.copy()
        v_new = _spmm(engine, p)
        calls += 1
        v = np.where(active, v_new, v)
        rv = np.einsum("ij,ij->j", r_hat, v)
        rv_broken = active & (
            ~np.isfinite(rv) | (np.abs(rv) <= BREAKDOWN_RTOL * rhat_norm * np.linalg.norm(v, axis=0))
        )
        breakdown |= rv_broken
        active &= ~rv_broken
        iterations[rv_broken] = it
        alpha = np.where(active, rho_new / _nz(rv), 0.0)
        s = r - alpha * v
        s_norm = np.linalg.norm(s, axis=0)
        early = active & (s_norm <= tol * bn)
        x += np.where(early, alpha, 0.0) * p
        res = np.where(early, s_norm, res)
        converged |= early
        iterations[early] = it
        active &= ~early
        t = _spmm(engine, s)
        calls += 1
        tt = np.einsum("ij,ij->j", t, t)
        omega = np.where(active, np.einsum("ij,ij->j", t, s) / _nz(tt), 0.0)
        step = np.where(active, alpha, 0.0) * p + omega * s
        x += step
        r = np.where(active, s - omega * t, r)
        res_new = np.linalg.norm(r, axis=0)
        res = np.where(active, res_new, res)
        done = active & (res_new <= tol * bn)
        converged |= done
        iterations[done] = it
        active &= ~done
        iterations[active] = it
        # omega ~ 0 poisons the next beta (alpha/omega); freeze the column.
        om_broken = active & (
            ~np.isfinite(res_new) | (np.abs(omega) <= BREAKDOWN_RTOL)
        )
        breakdown |= om_broken
        active &= ~om_broken
        rho = rho_new
    return BlockSolveResult(x, iterations, res, converged, calls, breakdown)


def _nz(a: np.ndarray) -> np.ndarray:
    """Replace zeros by 1 so masked-out columns never divide by zero."""
    return np.where(a == 0.0, 1.0, a)


def jacobi(
    engine,
    b: np.ndarray,
    diagonal: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 2000,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Jacobi iteration; caller supplies the operator diagonal.

    The engine interface exposes only matrix-vector products, so the
    diagonal is an explicit argument (``matrix.diagonal()`` upstream).
    """
    if np.any(diagonal == 0):
        raise ValueError("Jacobi requires a zero-free diagonal")
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    inv_d = 1.0 / diagonal
    bn = _bnorm(b)
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

    Returns ``(eigenvalue, eigenvector, iterations)``.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= norm(v)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = engine.spmv(v)
        w_norm = norm(w)
        if w_norm == 0.0:
            return 0.0, v, it
        v_new = w / w_norm
        lam_new = dot(v_new, engine.spmv(v_new))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            return lam_new, v_new, it
        v, lam = v_new, lam_new
    return lam, v, max_iter
