"""Algorithm-based fault tolerance (ABFT) for SpMV/SpMM.

The classical Huang-Abraham column-checksum argument: augment ``A`` with
the checksum row ``c = 1^T A`` (``c_j`` is the sum of column ``j``).
Linearity then gives an end-to-end invariant on every product

    sum(y) = 1^T (A x) = (1^T A) x = c . x

that a corrupted value, a dropped atomic, a lost lane or a bit-flipped
partial sum breaks with overwhelming probability.  The check costs
O(nnz) *once* (building ``c``) and O(n + m) per column *per product* —
two streaming passes, ``sum(y)`` and ``c . x`` — against the O(nnz) of
the SpMV itself, so protection is
cheap exactly where it matters (repeated products over one prepared
matrix, the serving workload).

Roundoff makes the invariant approximate: the two sides are different
summation orders of the same ~nnz-term sum.  :class:`AbftChecksum`
therefore compares the residual against a scale- and size-aware bound
built from the *absolute* checksum ``r = 1^T |A|`` — the magnitude of
the terms actually summed — not against the result's own magnitude,
which cancellation can drive to zero.

An accepting check is those two passes and nothing else (a block's
columns are reduced in row chunks, :mod:`repro.util.vecops`).  Since
``|c . x| <= r . |x|``, a residual within *half* the bound evaluated at
``|c . x|`` is within the full bound, so ``r . |x|`` (a third pass,
over ``|x|``) is computed only when that free test fails.  Every
product is therefore accepted or rejected exactly as by the full bound.

The modeled cost of the verification (checksum vector traffic + the two
reductions) is exposed as a :class:`~repro.gpu.costmodel.RunCost` so
protected engines report it honestly instead of hiding it.  It prices
the two passes of an accepting check, so the free bound left it, and
every modelled price built on it, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.gpu.costmodel import RunCost
from repro.util.vecops import column_sums, weighted_sum

__all__ = ["AbftChecksum"]

# Safety factor over the roundoff bound.  Summing N float64 terms in any
# order keeps the error under ~N * eps * sum|terms|; the slack covers
# the constant without letting real corruption (orders of magnitude
# larger by the FaultPlan's min_magnitude contract) slip through.
CHECK_SLACK = 64.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class AbftChecksum:
    """Column checksums of one prepared matrix.

    Attributes
    ----------
    col_sum:
        ``c = 1^T A`` (length ``n``) — the verification vector.
    col_abs_sum:
        ``r = 1^T |A|`` (length ``n``) — the roundoff scale.
    m, n, nnz:
        Dimensions of the protected matrix; ``nnz + m`` is the term
        count of the tolerance.
    """

    col_sum: np.ndarray
    col_abs_sum: np.ndarray
    m: int
    n: int
    nnz: int

    @classmethod
    def from_csr(cls, csr: sp.csr_matrix) -> "AbftChecksum":
        """Build checksums in O(nnz) from a canonical CSR matrix."""
        m, n = csr.shape
        indices = np.asarray(csr.indices, dtype=np.int64)
        data = np.asarray(csr.data, dtype=np.float64)
        col_sum = np.bincount(indices, weights=data, minlength=n)
        col_abs_sum = np.bincount(indices, weights=np.abs(data), minlength=n)
        return cls(
            col_sum=col_sum[:n],
            col_abs_sum=col_abs_sum[:n],
            m=m,
            n=n,
            nnz=int(csr.nnz),
        )

    def window(self, lo: int, hi: int, nnz: int) -> "AbftChecksum":
        """The checksum of columns ``[lo, hi)``, which hold ``nnz`` of
        the entries: both vectors sliced (views), the rows kept.  The
        shard recovery ladder checks each grid cell against its window
        of its row block's checksum."""
        return replace(self, col_sum=self.col_sum[lo:hi],
                       col_abs_sum=self.col_abs_sum[lo:hi], n=hi - lo, nnz=nnz)

    def _unit(self) -> float:
        """The bound per unit of summed magnitude: the module's safety
        slack times ``(nnz + m) * eps``."""
        return CHECK_SLACK * max(self.nnz + self.m, 1) * _EPS

    def tolerance(self, x: np.ndarray) -> np.ndarray:
        """Roundoff bound on the residual for input ``x`` (per column).

        The module's safety slack times ``(nnz + m) * eps * (r . |x|)``: the
        number of terms in the doubly-summed comparison times machine
        epsilon times the magnitude of what was summed.  The one
        tolerance of every checksum check, whole-matrix or per block.
        """
        scale = weighted_sum(self.col_abs_sum, np.abs(x))  # scalar or (k,) for 2-D x
        return self._unit() * np.maximum(scale, 1e-300)

    def verify(self, x: np.ndarray, y: np.ndarray) -> bool:
        """Does ``y`` satisfy the checksum invariant for ``A @ x``?

        Works for both SpMV (1-D ``x``/``y``) and SpMM (2-D, checked
        per column).  Non-finite ``y`` always fails, with no separate
        scan over ``y``: a non-finite entry makes its column sum, and so
        its residual, non-finite.
        """
        with np.errstate(invalid="ignore"):  # inf - inf: rejected below
            return self.verify_sums(np.asarray(x, dtype=np.float64),
                                    column_sums(np.asarray(y, dtype=np.float64)))

    def verify_sums(self, x: np.ndarray, sums) -> bool:
        """Does an observed ``sum(y)`` (per column for a block) satisfy
        ``sum(y) = c . x`` within :meth:`tolerance`?  A non-finite sum
        always fails.

        A residual within half of the bound taken at ``|c . x|`` passes
        without :meth:`tolerance`: ``|c . x| <= r . |x|``, and the half
        absorbs the roundoff of the two computed products, so such a
        residual is within the full bound too.  Any other residual is
        decided by the full bound.
        """
        cx = weighted_sum(self.col_sum, x)
        # Per column in Python floats: k is small, and a numpy call on
        # a length-k array costs more than the arithmetic it runs.
        sums, cx = ([float(sums)], [cx]) if x.ndim == 1 else (sums.tolist(), cx.tolist())
        residuals = [abs(s - c) for s, c in zip(sums, cx)]
        if not all(map(math.isfinite, residuals)):
            return False
        half = 0.5 * self._unit()
        if all(r <= half * max(abs(c), 1e-300) for r, c in zip(residuals, cx)):
            return True
        return bool(np.all(np.array(residuals) <= self.tolerance(x)))

    # -- accounting -------------------------------------------------------

    def nbytes_model(self) -> int:
        """Device footprint of the two checksum vectors."""
        return 2 * 8 * self.n

    def verify_cost(self, k: int = 1) -> RunCost:
        """Modeled cost of one verification of a k-column product.

        Streams the checksum vector once (it is k-independent) plus
        ``y`` and ``x`` once per column, and executes the two
        reductions' flops.  Pure overhead: ``useful_flops`` stays zero
        so protected GFlops honestly reflect the paper's 2*nnz
        convention on the *product* alone.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        flops = float(k * (2 * self.n + self.m))
        return RunCost(
            payload_bytes=float(8 * self.n),
            x_gather_bytes=float(8 * self.n * k + 8 * self.m * k),
            x_footprint_bytes=float(8 * self.n + 8 * self.m),
            y_write_bytes=float(8 * k),
            warp_instructions=flops / 32.0,
            n_warps=max(1, -(-max(self.m, self.n) // 32)),
            useful_flops=0.0,
            executed_flops=flops,
            kernel_launches=1,
            label=f"ABFT-verify[k={k}]",
        )
