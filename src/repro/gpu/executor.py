"""Full-matrix lane-accurate execution.

Runs a complete TileSpMV over a :class:`~repro.core.storage.TileMatrix`
using the *lane-accurate* warp kernels — one simulated warp per schedule
entry, each tile computed from its real packed payload bytes, partial
``y`` vectors of split tile rows combined exactly as the scheduler's
atomic path would.

This is the slow path (Python loop over warps); it exists to close the
validation loop at matrix granularity: the vectorised gather SpMV and
the instruction-level simulation must produce the same vector for every
matrix, not just for isolated tiles.  Tests run it on the whole zoo.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as tele
from repro.core.kernels import lane_accurate as lak
from repro.gpu import faults
from repro.core.scheduler import WarpSchedule, build_schedule
from repro.formats import FormatID

__all__ = ["lane_accurate_spmv"]


def _tile_kernel(fmt: FormatID, payload, local_idx: int, x_slice: np.ndarray, tile: int) -> np.ndarray:
    if fmt == FormatID.CSR:
        return lak.csr_tile_spmv(payload, local_idx, x_slice)
    if fmt == FormatID.COO:
        return lak.coo_tile_spmv(payload, local_idx, x_slice, tile=tile)
    if fmt == FormatID.ELL:
        return lak.ell_tile_spmv(payload, local_idx, x_slice)
    if fmt == FormatID.HYB:
        return lak.hyb_tile_spmv(payload, local_idx, x_slice)
    if fmt == FormatID.DNS:
        return lak.dns_tile_spmv(payload, local_idx, x_slice)
    if fmt == FormatID.DNSROW:
        return lak.dnsrow_tile_spmv(payload, local_idx, x_slice, tile=tile)
    if fmt == FormatID.DNSCOL:
        return lak.dnscol_tile_spmv(payload, local_idx, x_slice, tile=tile)
    if fmt == FormatID.BITMAP:
        return lak.bitmap_tile_spmv(payload, local_idx, x_slice)
    raise ValueError(f"unknown format {fmt!r}")


def lane_accurate_spmv(
    tile_matrix,
    data: np.ndarray,
    x: np.ndarray,
    tbalance: int = 8,
    schedule: WarpSchedule | None = None,
) -> np.ndarray:
    """y = A @ x via per-warp, per-tile lane-accurate kernels.

    Parameters
    ----------
    tile_matrix:
        A built :class:`~repro.core.storage.TileMatrix`.
    data:
        The values it multiplies: its operand's value array, canonical
        CSR order (the payloads are encoded from it once per call).
    x:
        Dense input vector of length ``n``.
    tbalance:
        Warp split limit (must match the schedule if one is passed).
    schedule:
        Optional precomputed :class:`~repro.core.scheduler.WarpSchedule`.
    """
    ts = tile_matrix.tileset
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ts.n,):
        raise ValueError(f"x must have shape ({ts.n},)")
    tile = ts.tile
    # Pad x so boundary tiles can always slice a full window.
    x_pad = np.zeros(ts.tile_cols * tile)
    x_pad[: ts.n] = x
    # Map each global tile to its (format, payload-local index).
    local_idx = np.zeros(ts.n_tiles, dtype=np.int64)
    fmt_of = np.asarray(tile_matrix.formats)
    for fmt, ids in tile_matrix.tile_ids.items():
        local_idx[ids] = np.arange(ids.size)
    schedule = schedule or build_schedule(ts.tile_ptr, tbalance)
    payloads = tile_matrix.payloads(data)
    profiler = tele.profiler() if tele.ENABLED else None
    tile_nnz = ts.pattern.counts() if profiler is not None else None
    y = np.zeros(ts.m)
    with tele.span("kernel_execute", cat="executor", warps=schedule.n_warps,
                   tiles=ts.n_tiles, nnz=ts.nnz):
        for w in range(schedule.n_warps):
            start = int(schedule.warp_tile_start[w])
            count = int(schedule.warp_tile_count[w])
            row = int(schedule.warp_row[w])
            y_partial = np.zeros(tile)
            for t in range(start, start + count):
                fmt = FormatID(fmt_of[t])
                col = int(ts.tile_colidx[t])
                x_slice = x_pad[col * tile : (col + 1) * tile]
                y_partial += _tile_kernel(fmt, payloads[fmt], int(local_idx[t]), x_slice, tile)
            inj = faults.active_injector()
            if inj is not None:
                y_partial = inj.maybe_drop_lane(y_partial)
            if profiler is not None:
                profiler.record_warp(
                    w, row, count, int(tile_nnz[start : start + count].sum())
                )
            base = row * tile
            rows = min(tile, ts.m - base)
            # atomicAdd of the warp's partial into global y (split tile rows
            # from several warps accumulate here).
            y[base : base + rows] += y_partial[:rows]
    if tele.ENABLED:
        tele.count("executor_runs_total")
        tele.count("executor_warps_total", n=schedule.n_warps)
    return y
