"""Vector and block reductions that never call threaded BLAS.

``a @ b`` and ``np.linalg.norm`` on 1-D float64 vectors go to BLAS
``ddot``, which OpenBLAS splits across its thread pool once n passes
about 10 000.  When the pool's helper thread has been descheduled the
caller waits for it: on a shared 2-vCPU host, 1 in ~100 such calls at
n = 18 000 took 8 ms against a 5 µs median, so an iterative solve's
wall time depended on host scheduling more than on its own work.
``einsum``'s sum-of-products loop runs in the calling thread, costs
about twice the median ``ddot`` and has no such tail, and its summation
order does not depend on the arrays' memory alignment.

A C-order (n, k) block is reduced in chunks of consecutive rows, whose
partial results are added at the end: ``einsum("i,ik->k")`` and
``sum(axis=0)`` would run a length-k inner loop n times.  For ``w @ X``
a chunk is one small ``gemv`` of at most :data:`CHUNK_ELEMS` values,
far below the size at which OpenBLAS threads a ``gemv`` (on a 2-vCPU
host, 256 x 1024 still ran in the calling thread).  For the column
sums a chunk is :data:`SUM_ROWS` rows, one contiguous run of
``SUM_ROWS * k`` values added onto running totals that stay in L1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "axpy", "column_dots", "column_norms", "column_sums", "dot", "masked_sums", "norm",
    "weighted_sum",
]

# Values per chunk of ``w @ X`` (rows * k): at n = 20000 and k = 2..8,
# 8192-value chunks took half the time of 256-row ones.
CHUNK_ELEMS = 8192
# Rows per chunk of a column sum: 1024-row chunks took twice as long.
SUM_ROWS = 256


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D vectors, computed in the calling thread."""
    return float(np.einsum("i,i->", a, b))


def norm(a: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector (``sqrt(dot(a, a))``, as numpy's)."""
    return math.sqrt(dot(a, a))


def axpy(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y + a * x`` in one fresh array, with the expression's bits.

    The expression allocates a temporary for ``a * x`` besides its
    result; on a solver's vectors (n = 18 000) each fresh array can
    cost page faults when the allocator has just returned freed memory
    to the system, which made a CG iteration a third slower.
    """
    out = np.multiply(a, x)
    out += y
    return out


def column_dots(a: np.ndarray, b: np.ndarray):
    """``a · b``: :func:`dot` for two vectors, ``einsum("ij,ij->j")`` per
    column of two (n, k) blocks.  Each form keeps its own bits: a k = 1
    block solve does not round like the 1-D solve."""
    if a.ndim == 1:
        return dot(a, b)
    return np.einsum("ij,ij->j", a, b)


def column_norms(a: np.ndarray):
    """:func:`norm` for a vector, ``np.linalg.norm(axis=0)`` per column
    of an (n, k) block."""
    if a.ndim == 1:
        return norm(a)
    return np.linalg.norm(a, axis=0)


def _gemv_rows(k: int) -> int:
    """Rows per chunk of ``w @ X`` for a k-column block (one row for
    blocks wider than :data:`CHUNK_ELEMS`)."""
    return max(1, CHUNK_ELEMS // max(k, 1))


def weighted_sum(w: np.ndarray, x: np.ndarray):
    """``w @ x`` in the calling thread: a float for 1-D ``x``, one value
    per column for an (n, k) block (``@`` would be a threaded ``dgemv``).

    A block is multiplied chunk by chunk as one stacked ``np.matmul``
    of (1, rows) by (rows, k) products, plus the remainder rows.
    """
    if x.ndim == 1:
        return dot(w, x)
    n, k = x.shape
    rows = _gemv_rows(k)
    full = n - n % rows
    out = np.matmul(w[:full].reshape(full // rows, 1, rows),
                    x[:full].reshape(full // rows, rows, k)).sum(axis=0)[0]
    if full < n:
        out += np.matmul(w[full:], x[full:])
    return out


def column_sums(y: np.ndarray):
    """``sum(y)`` per column of an (n, k) block; ``np.sum(y)`` for a vector.

    Each chunk of ``rows`` consecutive rows of a C-order block is one
    contiguous row of the ``(n // rows, rows * k)`` reshape: summing
    those rows takes a pass of vector adds, and the ``rows * k`` totals
    fold to k.
    """
    if y.ndim == 1:
        return np.sum(y)
    n, k = y.shape
    rows = SUM_ROWS
    full = n - n % rows
    out = y[:full].reshape(full // rows, rows * k).sum(axis=0).reshape(rows, k).sum(axis=0)
    if full < n:
        out += y[full:].sum(axis=0)
    return out


def masked_sums(mask: np.ndarray, x: np.ndarray):
    """The sum of ``x`` over the rows ``mask`` selects: ``x[mask].sum()``
    for a vector, one value per column of an (n, k) block by
    :func:`weighted_sum` (gathering the rows of a block first took four
    times as long at n = 20000, k = 4)."""
    if x.ndim == 1:
        return x[mask].sum()
    return weighted_sum(mask, x)
