"""Model-driven selection tuning.

The paper fixes the selection thresholds (te=0.2, th=1.0, COO<12,
Dns>=128) "experimentally" and names learned per-matrix selection as
the natural extension.  With an analytical cost model the extension is
directly realisable without training data: enumerate candidate
configurations, score each by the modelled SpMV time, keep the best.

Two granularities:

* :func:`tune_selection` — per-matrix threshold search (what the paper
  tunes once globally, done per input).
* :func:`greedy_per_tile` — the idealised upper bound: ignore the
  flowchart entirely and pick each tile's format by its own modelled
  cycle/byte cost.  The gap between the flowchart and this bound is the
  headroom a learned selector could capture (reported by the ablation
  bench).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from repro.core.kernels.costs import costs_for_format
from repro.core.kernels.params import KernelCostParams
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import TileSet, tile_decompose
from repro.formats import FormatID, encode_coo, encode_csr, encode_dns, encode_ell, encode_hyb
from repro.gpu.device import A100, DeviceSpec

__all__ = [
    "TuneResult",
    "tune_selection",
    "greedy_per_tile",
    "greedy_scores",
    "default_byte_weight",
    "DEFAULT_GRID",
]

DEFAULT_GRID = {
    "te": (0.0, 0.2, 0.4),
    "th": (0.6, 1.0, 1.6),
    "coo_nnz_max": (6, 12, 24),
    "dns_nnz_min": (96, 128, 192),
}


@dataclass
class TuneResult:
    """Outcome of a threshold search."""

    config: SelectionConfig
    predicted_time: float
    baseline_time: float  # paper-default config on the same matrix

    @property
    def improvement(self) -> float:
        """Speedup of the tuned config over the paper defaults.

        ``inf``-safe at the degenerate ends: a zero predicted time with
        a zero baseline (an empty matrix — nothing to run under either
        config) is a neutral ``1.0``; a zero predicted time against a
        positive baseline is honestly ``inf`` rather than a silent
        "no improvement".
        """
        if self.predicted_time == 0.0:
            return 1.0 if self.baseline_time == 0.0 else math.inf
        return self.baseline_time / self.predicted_time


def tune_selection(
    matrix: sp.spmatrix,
    device: DeviceSpec = A100,
    grid: dict | None = None,
    tile: int = 16,
    params: KernelCostParams | None = None,
) -> TuneResult:
    """Grid-search the selection thresholds for one matrix.

    The tile decomposition is computed once and shared across candidate
    configurations (selection is cheap; encoding dominates), so the
    search costs a handful of re-encodings.
    """
    grid = grid or DEFAULT_GRID
    params = params or KernelCostParams()
    tileset = tile_decompose(matrix, tile=tile)
    if tileset.n_tiles == 0:
        # Empty tileset (0-nnz matrix): every configuration selects the
        # same nothing — skip the grid search instead of re-encoding an
        # empty payload dozens of times.
        return TuneResult(
            config=SelectionConfig(), predicted_time=0.0, baseline_time=0.0
        )
    baseline = _score(tileset, SelectionConfig(), device, params)
    best_cfg, best_t = SelectionConfig(), baseline
    for te, th, coo_max, dns_min in product(
        grid["te"], grid["th"], grid["coo_nnz_max"], grid["dns_nnz_min"]
    ):
        if th < te:
            continue
        cfg = SelectionConfig(coo_nnz_max=coo_max, dns_nnz_min=dns_min, te=te, th=th)
        t = _score(tileset, cfg, device, params)
        if t < best_t:
            best_cfg, best_t = cfg, t
    return TuneResult(config=best_cfg, predicted_time=best_t, baseline_time=baseline)


def _score(tileset: TileSet, cfg: SelectionConfig, device: DeviceSpec, params) -> float:
    formats = select_formats(tileset, cfg)
    tm = TileMatrix.build(tileset, formats)
    return tm.run_cost(params).time(device)


# Formats a tile can always legally take (the dense-row/column formats
# require their structural precondition, so the greedy bound skips them
# unless selection already proved eligibility).
_UNIVERSAL = (FormatID.CSR, FormatID.COO, FormatID.ELL, FormatID.HYB, FormatID.DNS)
_ENCODERS = {
    FormatID.CSR: encode_csr,
    FormatID.COO: encode_coo,
    FormatID.ELL: encode_ell,
    FormatID.HYB: encode_hyb,
    FormatID.DNS: encode_dns,
}


def default_byte_weight(device: DeviceSpec) -> float:
    """Warp-issue slots per DRAM byte — the roofline exchange rate."""
    return device.clock_hz * device.sm_count * device.warps_per_scheduler / (
        device.mem_bandwidth_bytes
    )


def greedy_scores(
    tileset: TileSet,
    device: DeviceSpec = A100,
    params: KernelCostParams | None = None,
    byte_weight: float | None = None,
) -> np.ndarray:
    """Per-tile greedy score under every universal format.

    Returns a ``(len(_UNIVERSAL), n_tiles)`` matrix of
    ``cycles + byte_weight * bytes`` scores — row ``k`` prices the whole
    tileset encoded as ``_UNIVERSAL[k]``.  Shared by
    :func:`greedy_per_tile` (argmin over rows) and the online tuner's
    re-arbitration (which replaces only the worst-offending tiles'
    formats with their argmin).
    """
    params = params or KernelCostParams()
    n = tileset.n_tiles
    if byte_weight is None:
        byte_weight = default_byte_weight(device)
    eff_w = tileset.pattern.eff_w
    scores = np.full((len(_UNIVERSAL), n), np.inf)
    for k, fmt in enumerate(_UNIVERSAL):
        payload = _ENCODERS[fmt](tileset.pattern)
        cost = costs_for_format(fmt, payload, params, eff_w)
        per_tile_bytes = _per_tile_bytes(fmt, payload, tileset)
        scores[k] = cost.cycles + byte_weight * per_tile_bytes
    return scores


def greedy_per_tile(
    matrix: sp.spmatrix,
    device: DeviceSpec = A100,
    tile: int = 16,
    params: KernelCostParams | None = None,
    byte_weight: float | None = None,
) -> TileMatrix:
    """Idealised per-tile format choice by modelled cost.

    Every tile is scored under each universally-applicable format as a
    weighted sum of warp cycles and memory traffic (the weight is the
    device's cycles-per-byte, so the score is a per-tile proxy for the
    roofline); the cheapest format wins.  Returns the built TileMatrix.
    """
    tileset = tile_decompose(matrix, tile=tile)
    scores = greedy_scores(tileset, device, params, byte_weight)
    choice = np.asarray(_UNIVERSAL, dtype=np.uint8)[np.argmin(scores, axis=0)]
    return TileMatrix.build(tileset, choice)


def _per_tile_bytes(fmt: FormatID, payload, tileset: TileSet) -> np.ndarray:
    """Approximate per-tile payload footprint for the greedy score."""
    counts = tileset.pattern.counts().astype(np.float64)
    t = tileset.tile
    if fmt == FormatID.CSR:
        return counts * 8.5 + t
    if fmt == FormatID.COO:
        return counts * 9.0
    if fmt == FormatID.ELL:
        return payload.width.astype(np.float64) * t * 8.5 + 1
    if fmt == FormatID.HYB:
        ell = payload.ell.width.astype(np.float64) * t * 8.5 + 1
        coo_counts = np.diff(payload.coo.offsets).astype(np.float64)
        return ell + coo_counts * 9.0
    if fmt == FormatID.DNS:
        return (
            tileset.pattern.eff_h.astype(np.float64)
            * tileset.pattern.eff_w.astype(np.float64)
            * 8.0
        )
    raise ValueError(fmt)
