"""Structural feature extraction for sparse matrices.

The format-selection literature the paper builds on (SMAT, clSpMV, the
CNN selectors of Zhao et al.) drives its decisions from a standard set
of structural features; this module computes them — both matrix-level
(row-length distribution, bandwidth, symmetry, diagonal dominance) and
tile-level (per-tile density distribution, dense-tile share).  They
power `python -m repro inspect`, the feature-based analysis example,
and give a learned selector (future work in the paper) its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.tiling import tile_decompose

__all__ = ["MatrixFeatures", "extract_features"]


@dataclass
class MatrixFeatures:
    """Structural profile of one sparse matrix."""

    rows: int
    cols: int
    nnz: int
    density: float
    row_mean: float
    row_std: float
    row_max: int
    row_gini: float
    empty_rows: int
    bandwidth: int
    avg_bandwidth: float
    symmetry: float  # fraction of nonzeros with a structural mirror
    diag_dominance: float  # fraction of rows with |diag| >= off-row sum
    tiles: int
    tile_nnz_mean: float
    tile_nnz_p90: float
    dense_tile_share: float  # tiles at >= 50% fill
    singleton_tile_share: float  # tiles with < 4 entries

    def as_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a nonnegative distribution (0 = uniform)."""
    v = np.sort(values.astype(np.float64))
    n = v.size
    total = v.sum()
    if n == 0 or total == 0:
        return 0.0
    return float((2 * np.arange(1, n + 1) - n - 1) @ v / (n * total))


def extract_features(matrix: sp.spmatrix, tile: int = 16) -> MatrixFeatures:
    """Compute the full structural profile of ``matrix``."""
    csr = matrix.tocsr()
    csr.sort_indices()
    m, n = csr.shape
    nnz = csr.nnz
    lens = np.diff(csr.indptr)
    coo = csr.tocoo()
    if nnz:
        band = np.abs(coo.row.astype(np.int64) - coo.col.astype(np.int64))
        bandwidth = int(band.max())
        avg_bandwidth = float(band.mean())
    else:
        bandwidth, avg_bandwidth = 0, 0.0
    # Structural symmetry: fraction of entries whose transpose slot is
    # also occupied (square matrices only; rectangular report 0).
    if nnz and m == n:
        pattern = csr.copy()
        pattern.data = np.ones_like(pattern.data)
        sym_overlap = pattern.multiply(pattern.T)
        symmetry = float(sym_overlap.nnz / nnz)
    elif m != n:
        symmetry = 0.0
    else:
        symmetry = 1.0
    # Diagonal dominance over square part.
    k = min(m, n)
    diag = np.abs(csr.diagonal()[:k]) if k else np.zeros(0)
    row_abs = np.asarray(np.abs(csr).sum(axis=1)).ravel()[:k]
    off = row_abs - diag
    diag_dominance = float(np.mean(diag >= off)) if k else 0.0
    # Tile-level profile.
    ts = tile_decompose(csr, tile=tile)
    counts = ts.pattern.counts().astype(np.float64)
    slots = ts.pattern.eff_h.astype(np.float64) * ts.pattern.eff_w.astype(np.float64)
    fill = counts / slots if counts.size else np.zeros(0)
    return MatrixFeatures(
        rows=m,
        cols=n,
        nnz=nnz,
        density=nnz / (m * n) if m and n else 0.0,
        row_mean=float(lens.mean()) if m else 0.0,
        row_std=float(lens.std()) if m else 0.0,
        row_max=int(lens.max(initial=0)),
        row_gini=_gini(lens),
        empty_rows=int((lens == 0).sum()),
        bandwidth=bandwidth,
        avg_bandwidth=avg_bandwidth,
        symmetry=symmetry,
        diag_dominance=diag_dominance,
        tiles=ts.n_tiles,
        tile_nnz_mean=float(counts.mean()) if counts.size else 0.0,
        tile_nnz_p90=float(np.percentile(counts, 90)) if counts.size else 0.0,
        dense_tile_share=float(np.mean(fill >= 0.5)) if counts.size else 0.0,
        singleton_tile_share=float(np.mean(counts < 4)) if counts.size else 0.0,
    )
