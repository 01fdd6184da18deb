"""Per-tile format selection — the paper's §III.D flowchart.

Rules, applied in order (first match wins):

1. **COO** — very sparse tiles: fewer than 12 nonzeros *and* unevenly
   distributed over the rows (we operationalise "not evenly" as the
   variation measure exceeding ``te``; an 8-entry diagonal fragment is
   even and falls through to the later rules).
2. **Dns** — at least 128 nonzeros (half the 256 slots): explicit zeros
   beat any index structure.
3. **DnsRow / DnsCol** — every occupied row (column) is completely
   dense and all other rows (columns) empty.
4. **ELL / CSR / HYB** by the *variation* of the per-row nonzero counts
   (standard deviation over mean, computed over all effective rows):
   ``variation <= te`` -> ELL, ``variation > th`` -> HYB, otherwise CSR.

The thresholds (te=0.2, th=1.0, 12, 128) are the paper's experimentally
chosen values; all four are exposed for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tiling import TileSet
from repro.formats.base import FormatID

__all__ = ["SelectionConfig", "TileStats", "compute_tile_stats", "select_formats"]


@dataclass(frozen=True)
class SelectionConfig:
    """Thresholds of the §III.D selection flowchart."""

    coo_nnz_max: int = 12  # exclusive upper bound for the COO rule
    dns_nnz_min: int = 128  # inclusive lower bound for the Dns rule
    te: float = 0.2  # variation below which rows are 'balanced' -> ELL
    th: float = 1.0  # variation above which rows are 'irregular' -> HYB
    # Extension (off by default, not in the paper): replace CSR tiles
    # holding more than ``bitmap_nnz_min`` entries with the bitmap
    # format — the point where a flat 32-byte bitmap beats CSR's
    # 16-byte row pointer plus packed indices.
    use_bitmap: bool = False
    bitmap_nnz_min: int = 32

    def __post_init__(self) -> None:
        if self.te < 0 or self.th < self.te:
            raise ValueError("thresholds must satisfy 0 <= te <= th")


@dataclass
class TileStats:
    """Per-tile sparsity statistics feeding the selection rules."""

    nnz: np.ndarray  # nonzeros per tile
    variation: np.ndarray  # std/mean of per-row counts over eff_h rows
    rows_all_dense: np.ndarray  # bool: every occupied row completely full
    cols_all_dense: np.ndarray  # bool: every occupied column completely full


def compute_tile_stats(tileset: TileSet) -> TileStats:
    """Vectorised per-tile statistics over the whole matrix."""
    view = tileset.pattern
    nnz = view.counts()
    counts = nnz.astype(np.float64)
    eff_h = view.eff_h.astype(np.float64)
    rc = view.row_counts()
    # Rows beyond eff_h hold zero counts, so plain row sums are exact;
    # squared integer counts sum exactly in any order.
    sumsq = np.square(rc, dtype=np.float64) @ np.ones(view.tile)
    mean = counts / eff_h
    var = np.maximum(sumsq / eff_h - mean**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        variation = np.where(mean > 0, np.sqrt(var) / mean, 0.0)
    # A tile whose occupied rows (columns) are all full holds a whole
    # number of them: only those few candidates need the per-line test.
    row_candidates = _whole_lines(nnz, view.eff_w)
    col_candidates = _whole_lines(nnz, view.eff_h)
    return TileStats(
        nnz=nnz,
        variation=variation,
        rows_all_dense=_all_full(rc[row_candidates], view.eff_w[row_candidates], row_candidates),
        cols_all_dense=_all_full(
            view.select(col_candidates).col_counts(), view.eff_h[col_candidates], col_candidates
        ),
    )


def _whole_lines(nnz: np.ndarray, length: np.ndarray) -> np.ndarray:
    return (nnz > 0) & (nnz % length.astype(np.int64) == 0)


def _all_full(line_counts: np.ndarray, length: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per tile: a candidate whose every occupied line holds ``length``."""
    out = np.zeros(candidates.size, dtype=bool)
    full = line_counts == length.astype(np.int16)[:, None]
    out[candidates] = np.all((line_counts == 0) | full, axis=1)
    return out


def select_formats(
    tileset: TileSet,
    config: SelectionConfig | None = None,
    stats: TileStats | None = None,
) -> np.ndarray:
    """Assign one of the seven formats to every tile.

    Returns a ``uint8`` array of :class:`~repro.formats.base.FormatID`
    values, one per occupied tile.
    """
    config = config or SelectionConfig()
    stats = stats or compute_tile_stats(tileset)
    n = tileset.n_tiles
    fmt = np.full(n, FormatID.CSR, dtype=np.uint8)
    undecided = np.ones(n, dtype=bool)

    # Rule 1: very sparse and uneven -> COO.
    coo = undecided & (stats.nnz < config.coo_nnz_max) & (stats.variation > config.te)
    fmt[coo] = FormatID.COO
    undecided &= ~coo

    # Rule 2: at least half full -> Dns.  The 128 cut is defined against
    # the full 256-slot tile; boundary tiles scale proportionally.
    eff_slots = tileset.pattern.eff_h.astype(np.int64) * tileset.pattern.eff_w.astype(np.int64)
    dns_cut = config.dns_nnz_min * eff_slots / (tileset.tile * tileset.tile)
    dns = undecided & (stats.nnz >= dns_cut)
    fmt[dns] = FormatID.DNS
    undecided &= ~dns

    # Rule 3: all nonzeros confined to fully-dense rows / columns.
    dnsrow = undecided & stats.rows_all_dense
    fmt[dnsrow] = FormatID.DNSROW
    undecided &= ~dnsrow
    dnscol = undecided & stats.cols_all_dense
    fmt[dnscol] = FormatID.DNSCOL
    undecided &= ~dnscol

    # Rule 4: variation thresholds split ELL / CSR / HYB.
    ell = undecided & (stats.variation <= config.te)
    fmt[ell] = FormatID.ELL
    undecided &= ~ell
    hyb = undecided & (stats.variation > config.th)
    fmt[hyb] = FormatID.HYB
    # Whatever remains keeps the CSR default.
    if config.use_bitmap:
        bitmap = (fmt == FormatID.CSR) & (stats.nnz > config.bitmap_nnz_min)
        fmt[bitmap] = FormatID.BITMAP
    return fmt
