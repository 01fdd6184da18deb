"""Vectorised per-tile cost accounting for the seven warp kernels.

Every function takes a format payload (all tiles of that format at once)
and returns a :class:`TileKernelCost`: per-tile warp cycles plus the
aggregate quantities the cost model consumes.  The formulas mirror the
lane-accurate kernels in :mod:`repro.core.kernels.lane_accurate`; the
agreement of the two on results is property-tested, and the cycle
formulas are derived from the same control flow (iteration counts are
``max`` over lanes of per-lane trip counts — exactly what lockstep SIMT
execution costs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels.params import KernelCostParams
from repro.formats.base import FormatID
from repro.formats.tile_bitmap import TileBitmapData
from repro.formats.tile_coo import TileCOOData
from repro.formats.tile_csr import TileCSRData
from repro.formats.tile_dns import TileDnsData
from repro.formats.tile_dnscol import TileDnsColData
from repro.formats.tile_dnsrow import TileDnsRowData
from repro.formats.tile_ell import TileELLData
from repro.formats.tile_hyb import TileHYBData
from repro.gpu.warp import WARP_SIZE
from repro.util.packing import unpack_nibble_pairs
from repro.util.segments import repeat_offsets, segment_histogram

__all__ = [
    "TileKernelCost",
    "csr_costs",
    "coo_costs",
    "ell_costs",
    "hyb_costs",
    "dns_costs",
    "dnsrow_costs",
    "dnscol_costs",
    "costs_for_format",
]

X_SECTOR_DOUBLES = 4  # one 32-byte DRAM sector holds 4 float64 x entries


@dataclass
class TileKernelCost:
    """Cost of running one format's kernel over all of its tiles."""

    cycles: np.ndarray  # per-tile warp cycles
    payload_bytes: int  # streamed format payload footprint
    x_sectors: int  # raw 32B sectors of x gathered (pre-L2 adjustment)
    flops: float  # executed flops (padding slots included)
    atomic_ops: float = 0.0  # warp-wide atomic instructions issued
    atomic_rounds: float = 0.0  # serialisation rounds (>= ops on conflict)

    @property
    def instructions(self) -> float:
        return float(self.cycles.sum())


def _full_slice_sectors(eff_w: np.ndarray) -> int:
    """Sectors to stage each tile's full x window (CSR/ELL/HYB/Dns/DnsRow)."""
    return int(np.sum(-(-eff_w.astype(np.int64) // X_SECTOR_DOUBLES)))


def _distinct_sectors_per_tile(lcol: np.ndarray, offsets: np.ndarray) -> int:
    """Total distinct x sectors actually touched, per tile, summed.

    Used by the COO and DnsCol kernels, which gather only the columns
    they need rather than staging the whole window.  Marks an
    ``n_tiles * 8`` presence grid (a 16-wide tile spans at most 4
    sectors) and counts the marks.
    """
    seen = np.zeros((offsets.size - 1) * 8, dtype=bool)
    seen[repeat_offsets(offsets) * 8 + lcol.astype(np.int64) // X_SECTOR_DOUBLES] = True
    return int(np.count_nonzero(seen))


def csr_costs(data: TileCSRData, params: KernelCostParams, eff_w: np.ndarray) -> TileKernelCost:
    """Alg. 2: ``32/tile`` lanes per row; trip count = max ceil(len/lanes)."""
    lanes_per_row = WARP_SIZE // data.tile
    row_lengths = data.row_lengths()  # (n_tiles, tile)
    iters = -(-row_lengths.max(axis=1) // lanes_per_row) if data.n_tiles else np.zeros(0, np.int64)
    cycles = params.csr_overhead + params.csr_per_iter * iters
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_full_slice_sectors(eff_w),
        flops=2.0 * data.nnz,
    )


def coo_costs(data: TileCOOData, params: KernelCostParams) -> TileKernelCost:
    """Alg. 3: one entry per lane, shared-memory atomicAdd accumulation.

    Atomic serialisation per batch equals the largest multiplicity of a
    single row among the batch's entries; with the selection rule capping
    COO tiles below 12 entries a tile is a single batch, so the tile-wide
    max row count is exact.
    """
    counts = np.diff(data.offsets)
    batches = -(-counts // WARP_SIZE)
    lrow, _ = unpack_nibble_pairs(data.rowcol)
    n = data.n_tiles
    rounds = np.zeros(n, dtype=np.int64)
    if lrow.size:
        per_row = segment_histogram(repeat_offsets(data.offsets), lrow, n, 16)
        rounds = per_row.max(axis=1)
    cycles = params.coo_overhead + params.coo_per_batch * batches + rounds
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_distinct_sectors_per_tile(*_coo_cols(data)),
        flops=2.0 * data.nnz,
        atomic_ops=float(batches.sum()),
        atomic_rounds=float(rounds.sum()),
    )


def _coo_cols(data: TileCOOData) -> tuple[np.ndarray, np.ndarray]:
    _, lcol = unpack_nibble_pairs(data.rowcol)
    return lcol, data.offsets


def ell_costs(data: TileELLData, params: KernelCostParams, eff_w: np.ndarray) -> TileKernelCost:
    """Alg. 4: 32 lanes stride the ``width*tile`` column-major slots."""
    slots = data.width.astype(np.int64) * data.tile
    iters = -(-slots // WARP_SIZE)
    cycles = params.ell_overhead + params.ell_per_iter * iters
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_full_slice_sectors(eff_w),
        flops=2.0 * data.n_slots,  # padding slots execute FMAs too
    )


def hyb_costs(data: TileHYBData, params: KernelCostParams, eff_w: np.ndarray) -> TileKernelCost:
    """ELL phase then COO phase inside one kernel launch."""
    ell = ell_costs(data.ell, params, eff_w)
    coo = coo_costs(data.coo, params)
    cycles = ell.cycles + coo.cycles - params.coo_overhead + params.hyb_extra_overhead
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        # The ELL phase stages the full window; COO columns are a subset.
        x_sectors=ell.x_sectors,
        flops=ell.flops + coo.flops,
        atomic_ops=coo.atomic_ops,
        atomic_rounds=coo.atomic_rounds,
    )


def dns_costs(data: TileDnsData, params: KernelCostParams) -> TileKernelCost:
    """Dense tile: 32 lanes sweep the column-major rectangle."""
    slots = data.eff_h.astype(np.int64) * data.eff_w.astype(np.int64)
    rounds = -(-slots // WARP_SIZE)
    cycles = params.dns_overhead + params.dns_per_round * rounds
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_full_slice_sectors(data.eff_w),
        flops=2.0 * data.n_slots,
    )


def dnsrow_costs(data: TileDnsRowData, params: KernelCostParams) -> TileKernelCost:
    """Dense rows: each row is an ``eff_w``-lane dot + shuffle reduction."""
    work = data.n_rows() * data.eff_w.astype(np.int64)
    rounds = -(-work // WARP_SIZE)
    cycles = params.dnsrow_overhead + params.dnsrow_per_round * np.maximum(rounds, data.n_rows() // 2 + 1)
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_full_slice_sectors(data.eff_w),
        flops=2.0 * data.nnz,
    )


def dnscol_costs(data: TileDnsColData, params: KernelCostParams) -> TileKernelCost:
    """Dense columns: lanes own rows, one reused x entry per column."""
    work = data.n_cols() * data.eff_h.astype(np.int64)
    rounds = -(-work // WARP_SIZE)
    cycles = params.dnscol_overhead + params.dnscol_per_round * rounds
    # Gather only the occupied columns' x sectors.
    x_sectors = _distinct_sectors_per_tile(data.colidx, data.col_offsets)
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=x_sectors,
        flops=2.0 * data.nnz,
    )


def bitmap_costs(data: TileBitmapData, params: KernelCostParams, eff_w: np.ndarray) -> TileKernelCost:
    """Bitmap extension: lanes sweep the set bits in 32-entry rounds."""
    counts = np.diff(data.offsets)
    rounds = -(-counts // WARP_SIZE)
    cycles = params.bitmap_overhead + params.bitmap_per_round * rounds
    return TileKernelCost(
        cycles=cycles,
        payload_bytes=data.nbytes_model(),
        x_sectors=_full_slice_sectors(eff_w),
        flops=2.0 * data.nnz,
    )


def costs_for_format(
    fmt: FormatID,
    payload,
    params: KernelCostParams,
    eff_w: np.ndarray,
) -> TileKernelCost:
    """Dispatch to the per-format cost function."""
    if fmt == FormatID.CSR:
        return csr_costs(payload, params, eff_w)
    if fmt == FormatID.COO:
        return coo_costs(payload, params)
    if fmt == FormatID.ELL:
        return ell_costs(payload, params, eff_w)
    if fmt == FormatID.HYB:
        return hyb_costs(payload, params, eff_w)
    if fmt == FormatID.DNS:
        return dns_costs(payload, params)
    if fmt == FormatID.DNSROW:
        return dnsrow_costs(payload, params)
    if fmt == FormatID.DNSCOL:
        return dnscol_costs(payload, params)
    if fmt == FormatID.BITMAP:
        return bitmap_costs(payload, params, eff_w)
    raise ValueError(f"unknown format {fmt!r}")
