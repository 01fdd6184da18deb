"""Length-n vector reductions that never call threaded BLAS.

``a @ b`` and ``np.linalg.norm`` on 1-D float64 vectors go to BLAS
``ddot``, which OpenBLAS splits across its thread pool once n passes
about 10 000.  When the pool's helper thread has been descheduled the
caller waits for it: on a shared 2-vCPU host, 1 in ~100 such calls at
n = 18 000 took 8 ms against a 5 µs median, so an iterative solve's
wall time depended on host scheduling more than on its own work.
``einsum``'s sum-of-products loop runs in the calling thread, costs
about twice the median ``ddot`` and has no such tail, and its summation
order does not depend on the arrays' memory alignment.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dot", "norm", "weighted_sum"]


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two 1-D vectors, computed in the calling thread."""
    return float(np.einsum("i,i->", a, b))


def norm(a: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector (``sqrt(dot(a, a))``, as numpy's)."""
    return math.sqrt(dot(a, a))


def weighted_sum(w: np.ndarray, x: np.ndarray):
    """``w @ x`` in the calling thread: a float for 1-D ``x``, one value
    per column for an (n, k) block (``@`` would be a threaded ``dgemv``)."""
    return dot(w, x) if x.ndim == 1 else np.einsum("i,ik->k", w, x)
