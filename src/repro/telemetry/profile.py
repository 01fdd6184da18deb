"""Per-tile / per-warp profiling records and the hotspot report.

The paper's argument is that performance is decided tile-by-tile:
format choice moves bytes, lane utilisation wastes issue slots, split
tile rows collide on atomics, heavy tiles stretch the warp critical
path.  :func:`profile_tile_matrix` turns a built
:class:`~repro.core.storage.TileMatrix` into explicit per-tile records
carrying exactly those quantities (modelled, hence deterministic), and
:func:`hotspot_report` aggregates them under the device's roofline
ceilings so "where does modelled time go" has a one-page answer.

The lane-accurate executor additionally emits *measured* per-warp
records (entries actually processed per warp) through a
:class:`ProfileCollector` installed by :func:`repro.telemetry.enable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TileRecord",
    "WarpRecord",
    "ProfileCollector",
    "profile_tile_matrix",
    "hotspot_report",
]


@dataclass
class TileRecord:
    """Modelled execution record of one occupied tile."""

    tile_id: int
    row: int                 # tile-row index
    col: int                 # tile-column index
    fmt: str                 # chosen format name
    nnz: int
    cycles: float            # modelled warp cycles spent in this tile
    payload_bytes: float     # payload traffic attributed to this tile
    flops: float             # executed flops attributed to this tile
    lane_utilization: float  # useful/executed flops of its format's kernel

    def as_dict(self) -> dict:
        return {
            "tile_id": self.tile_id,
            "row": self.row,
            "col": self.col,
            "fmt": self.fmt,
            "nnz": self.nnz,
            "cycles": self.cycles,
            "payload_bytes": self.payload_bytes,
            "flops": self.flops,
            "lane_utilization": self.lane_utilization,
        }


@dataclass
class WarpRecord:
    """One simulated warp's execution in the lane-accurate executor."""

    warp: int
    row: int        # tile-row the warp serves
    tiles: int      # tiles it owned
    entries: int    # nonzero entries it processed


@dataclass
class ProfileCollector:
    """Sink for executor-emitted warp records (installed via telemetry)."""

    warps: list = field(default_factory=list)

    def record_warp(self, warp: int, row: int, tiles: int, entries: int) -> None:
        self.warps.append(WarpRecord(warp, row, tiles, entries))

    def warp_balance(self) -> dict:
        """Entry-count balance across warps (the tbalance story, measured)."""
        if not self.warps:
            return {"warps": 0, "max_entries": 0, "mean_entries": 0.0, "imbalance": 0.0}
        entries = np.array([w.entries for w in self.warps], dtype=np.float64)
        mean = float(entries.mean())
        return {
            "warps": len(self.warps),
            "max_entries": int(entries.max()),
            "mean_entries": mean,
            "imbalance": float(entries.max() / mean) if mean > 0 else 0.0,
        }


def profile_tile_matrix(tile_matrix, params=None, tbalance: int = 8,
                        schedule=None) -> list[TileRecord]:
    """Per-tile modelled records for a built TileMatrix.

    Cycles come straight from the per-tile kernel-cost vectors; payload
    bytes and flops are per-format totals attributed to tiles by nnz
    share (the kernels stream whole-format payloads, so a finer split
    does not exist in the model).  Lane utilisation is the format
    kernel's useful/executed flop ratio — the padding waste DNS/ELL
    trade for decode simplicity.
    """
    from repro.core.kernels.params import KernelCostParams
    from repro.formats import FormatID

    params = params or KernelCostParams()
    ts = tile_matrix.tileset
    counts = ts.pattern.counts()
    costs = tile_matrix.kernel_costs(params)
    records: list[TileRecord] = []
    for fmt, cost in costs.items():
        ids = tile_matrix.tile_ids[fmt]
        fmt_nnz = float(counts[ids].sum()) or 1.0
        useful = 2.0 * float(counts[ids].sum())
        util = useful / cost.flops if cost.flops > 0 else 1.0
        for local, tid in enumerate(ids):
            share = float(counts[tid]) / fmt_nnz
            records.append(TileRecord(
                tile_id=int(tid),
                row=int(ts.tile_rowidx[tid]),
                col=int(ts.tile_colidx[tid]),
                fmt=FormatID(fmt).name,
                nnz=int(counts[tid]),
                cycles=float(cost.cycles[local]),
                payload_bytes=float(cost.payload_bytes) * share,
                flops=float(cost.flops) * share,
                lane_utilization=util,
            ))
    records.sort(key=lambda r: r.tile_id)
    return records


def hotspot_report(tile_matrix, device, params=None, tbalance: int = 8,
                   schedule=None, top: int = 8) -> str:
    """Readable hotspot summary under the device's roofline ceilings.

    Sections: where the whole kernel sits on the roofline (arithmetic
    intensity vs the bandwidth slope and FP64 ceiling, and which term of
    the cost model binds), the per-format attribution, the atomic-
    collision charge from split tile rows, and the heaviest tiles.
    """
    from repro.analysis.roofline import roofline_point
    from repro.core.kernels.params import KernelCostParams
    from repro.core.scheduler import build_schedule

    params = params or KernelCostParams()
    records = profile_tile_matrix(tile_matrix, params, tbalance, schedule)
    cost = tile_matrix.run_cost(params, tbalance, schedule=schedule)
    point = roofline_point("TileSpMV", cost, device)
    bw = device.mem_bandwidth_bytes / 1e9
    slope_ceiling = bw * point.intensity  # GFlops the bandwidth slope allows here
    ceiling = min(slope_ceiling, device.peak_gflops_fp64)

    lines = [
        f"Hotspot report — {device.name} "
        f"({tile_matrix.shape[0]}x{tile_matrix.shape[1]}, nnz={tile_matrix.nnz}, "
        f"tiles={tile_matrix.n_tiles})",
        f"roofline: intensity {point.intensity:.4f} flops/byte, "
        f"achieved {point.gflops:.2f} GFlops of {ceiling:.2f} ceiling "
        f"(slope {slope_ceiling:.2f}, FP64 peak {device.peak_gflops_fp64:.0f}); "
        f"bound: {point.bound}",
    ]
    total_cycles = sum(r.cycles for r in records) or 1.0
    by_fmt: dict[str, dict] = {}
    for r in records:
        agg = by_fmt.setdefault(
            r.fmt, {"tiles": 0, "nnz": 0, "cycles": 0.0, "bytes": 0.0, "util": r.lane_utilization}
        )
        agg["tiles"] += 1
        agg["nnz"] += r.nnz
        agg["cycles"] += r.cycles
        agg["bytes"] += r.payload_bytes
    lines.append(f"{'format':8s} {'tiles':>6s} {'nnz':>9s} {'cycle %':>8s} {'bytes':>10s} {'lane util':>10s}")
    for fmt in sorted(by_fmt, key=lambda f: -by_fmt[f]["cycles"]):
        agg = by_fmt[fmt]
        lines.append(
            f"{fmt:8s} {agg['tiles']:6d} {agg['nnz']:9d} "
            f"{100 * agg['cycles'] / total_cycles:7.1f}% {agg['bytes']:10.0f} "
            f"{agg['util']:9.0%}"
        )
    sched = schedule or build_schedule(tile_matrix.tileset.tile_ptr, tbalance)
    ops, rounds = sched.cross_warp_atomics(tile_matrix.tileset.row_heights())
    lines.append(
        f"atomics: {ops:.0f} cross-warp y-combines over {sched.n_warps} warps "
        f"({rounds:.0f} serialisation rounds)"
    )
    heavy = sorted(records, key=lambda r: -r.cycles)[:top]
    lines.append(f"top {len(heavy)} tiles by modelled cycles:")
    for r in heavy:
        lines.append(
            f"  tile {r.tile_id:5d} ({r.row:4d},{r.col:4d}) {r.fmt:7s} "
            f"nnz={r.nnz:3d} cycles={r.cycles:8.1f} bytes={r.payload_bytes:7.0f} "
            f"util={r.lane_utilization:4.0%}"
        )
    return "\n".join(lines)
