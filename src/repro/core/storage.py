"""The two-level TileSpMV storage container.

A :class:`TileMatrix` owns the level-1 tile structure (from
:mod:`repro.core.tiling`), the per-tile format assignment (from
:mod:`repro.core.selection`) and the seven format payloads (from
:mod:`repro.formats`), all as structure: it holds no values.  The
values live in the engine's **operand**, the canonical (row, ascending
column) CSR matrix of the pattern the tile set was cut from, which
executes every product.  The payloads are what the cost model prices,
and pricing reads their structure alone.  A reader that needs values
(:meth:`~TileMatrix.payloads`, :meth:`~TileMatrix.to_csr`,
:meth:`~TileMatrix.validate`) takes them from that operand when it
reads; :meth:`~TileMatrix.validate` and the round-trip tests hold the
decode to the operand bit for bit.  A ``TileSpMV`` builds its tile
matrix only when something first prices or inspects it; every product
runs the operand without one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.kernels.costs import TileKernelCost, costs_for_format
from repro.core.kernels.params import KernelCostParams
from repro.core.scheduler import DEFAULT_TBALANCE, WarpSchedule, build_schedule
from repro.core.tiling import TileSet
from repro.formats import (
    FormatID,
    TilesView,
    encode_bitmap,
    encode_coo,
    encode_csr,
    encode_dns,
    encode_dnscol,
    encode_dnsrow,
    encode_ell,
    encode_hyb,
)
from repro.gpu import faults
from repro.gpu.costmodel import RunCost
from repro.util.segments import index_dtype, lengths_to_offsets, repeat_offsets

__all__ = [
    "TileMatrix",
    "decode_csr",
    "faulted_operand",
    "masked_csr",
    "masked_pattern",
    "refill_operand",
    "same_csr",
]

_ENCODERS = {
    FormatID.CSR: encode_csr,
    FormatID.COO: encode_coo,
    FormatID.ELL: encode_ell,
    FormatID.HYB: encode_hyb,
    FormatID.DNS: encode_dns,
    FormatID.DNSROW: encode_dnsrow,
    FormatID.DNSCOL: encode_dnscol,
    FormatID.BITMAP: encode_bitmap,
}


def _decode_with_tiles(fmt: FormatID, payload) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform (format-local tile, lrow, lcol, val) decode across formats."""
    if fmt in (FormatID.CSR, FormatID.COO):
        lrow, lcol, val = payload.decode()
        t = repeat_offsets(payload.offsets)
        return t, lrow, lcol, val
    return payload.decode()


def decode_csr(ts: TileSet, payloads: dict, tile_ids: dict) -> sp.csr_matrix:
    """The matrix the payloads encode, as CSR in canonical order.

    Every decoder drops its padding slots; one stable sort on the
    (row, column) key puts the decoded entries in canonical order
    (duplicates, kept under ``validation="trust"``, in decode order).
    """
    m, n = ts.m, ts.n
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for fmt, payload in payloads.items():
        t_local, lrow, lcol, val = _decode_with_tiles(fmt, payload)
        gid = tile_ids[fmt][t_local]
        rows.append(ts.tile_rowidx[gid].astype(np.int64) * ts.tile + lrow)
        cols.append(ts.tile_colidx[gid].astype(np.int64) * ts.tile + lcol)
        vals.append(val)
    rows, cols, vals = (np.concatenate(p) for p in (rows, cols, vals))
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(m + 1))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(m, n))


def same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """``a`` and ``b`` hold the same entries in the same order, bit for bit."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.asarray(a.data, dtype=np.float64).tobytes()
        == np.asarray(b.data, dtype=np.float64).tobytes()
    )


def masked_pattern(indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray):
    """``(indptr, indices)`` of the entries the boolean ``keep`` selects,
    in order, in the index dtype of ``indices``."""
    kept_before = lengths_to_offsets(keep)
    return kept_before[indptr].astype(indices.dtype), indices[keep]


def masked_csr(csr: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The entries of ``csr`` that the boolean ``keep`` selects, in order."""
    indptr, indices = masked_pattern(csr.indptr, csr.indices, keep)
    return sp.csr_matrix((csr.data[keep], indices, indptr), shape=csr.shape)


def refill_operand(op: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """``op``'s structure (index arrays shared, not copied) with new ``data``."""
    return sp.csr_matrix((data, op.indices, op.indptr), shape=op.shape)


def faulted_operand(op: sp.csr_matrix) -> sp.csr_matrix:
    """``op``, or a throwaway copy carrying injected faults.

    The one GPU-substrate fault site of a tiled product: an armed
    campaign corrupts a copy of ``data`` (kind ``tile_payload``), so a
    cached operand never holds injected values.
    """
    inj = faults.active_injector()
    if inj is not None:
        data = inj.corrupt_payload(op.data, kind="tile_payload")
        if data is not op.data:
            return refill_operand(op, data)
    return op


def encode_payloads(view: TilesView, formats: np.ndarray, hyb_widths: np.ndarray | None = None):
    """``(payloads, tile_ids)``: every tile of ``view`` in its format.

    ``tile_ids`` maps each used ``FormatID`` to its tiles' indices.  A
    structure-only ``view`` (``val is None``) yields structure-only
    payloads.  ``hyb_widths`` pins the HYB tiles' split widths.
    """
    payloads: dict = {}
    tile_ids: dict = {}
    idx_dtype = index_dtype(formats.size)
    for fmt in FormatID:
        idx = np.flatnonzero(formats == fmt)
        if idx.size == 0:
            continue
        sub = view.select(idx)
        if fmt == FormatID.HYB and hyb_widths is not None:
            payloads[fmt] = encode_hyb(sub, widths=hyb_widths)
        else:
            payloads[fmt] = _ENCODERS[fmt](sub)
        tile_ids[fmt] = idx.astype(idx_dtype)
    return payloads, tile_ids


class TileMatrix:
    """A sparse matrix in the two-level TileSpMV representation.

    A matrix holds its tile set (level-1 arrays, the tile-sorted entry
    structure and the canonical pattern they were cut from), its format
    vector, and each format's payload as *structure*: every array but
    the values.  Pricing (:meth:`kernel_costs`, :meth:`run_cost`,
    :meth:`nbytes_model`, :meth:`format_histogram`) reads structure
    only.  The value readers take ``data``, a value array of the
    pattern in canonical CSR order (an engine's operand values):
    :meth:`payloads` encodes the full payloads from it, bit for bit
    what an eager encode stores, so one tile matrix serves every value
    array of its pattern.
    """

    def __init__(self, tileset: TileSet, formats: np.ndarray, structure: dict, tile_ids: dict) -> None:
        self.formats = formats  # uint8 FormatID per tile
        self.tile_ids = tile_ids  # FormatID -> global tile idx
        self.tileset = tileset
        self.structure = structure  # FormatID -> payload without values

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        tileset: TileSet,
        formats: np.ndarray,
        hyb_widths: np.ndarray | None = None,
    ) -> "TileMatrix":
        """Encode every tile's structure in its assigned format.

        ``hyb_widths`` (per-HYB-tile split widths) lets the DeferredCOO
        strategy pin widths decided before extraction; by default the
        paper's space search chooses them.
        """
        formats = np.asarray(formats, dtype=np.uint8)
        if formats.size != tileset.n_tiles:
            raise ValueError("one format per tile required")
        structure, tile_ids = encode_payloads(tileset.pattern, formats, hyb_widths)
        return cls(tileset, formats, structure, tile_ids)

    # -- values, read from the caller's operand ------------------------------

    def payloads(self, data: np.ndarray) -> dict:
        """``FormatID`` -> encoded payload carrying ``data`` (canonical
        CSR order), the structure's HYB split widths pinned so the
        encode matches it.  Pricing reads :attr:`structure` instead."""
        hyb = self.structure.get(FormatID.HYB)
        payloads, _ = encode_payloads(
            self.tileset.view(data), self.formats, None if hyb is None else hyb.ell.width
        )
        return payloads

    def to_csr(self, data: np.ndarray) -> sp.csr_matrix:
        """Reconstruct a scipy CSR matrix from the payloads encoded with
        ``data``.

        The cold-path decode: products never run it.  It equals the
        operand ``data`` came from bit for bit (``validate`` and the
        round-trip tests hold the encoders to that).
        """
        return decode_csr(self.tileset, self.payloads(data), self.tile_ids)

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.tileset.m, self.tileset.n)

    @property
    def nnz(self) -> int:
        return self.tileset.nnz

    @property
    def n_tiles(self) -> int:
        return self.formats.size

    # -- accounting ------------------------------------------------------------

    def nbytes_model(self) -> int:
        """Modelled device footprint: level-1 arrays + all payloads."""
        return self.tileset.level1_nbytes_model() + sum(
            p.nbytes_model() for p in self.structure.values()
        )

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Per-format tile and nonzero counts (Fig 7's two ratios)."""
        counts = self.tileset.pattern.counts()
        out: dict[FormatID, dict[str, int]] = {}
        for fmt in FormatID:
            mask = self.formats == fmt
            out[fmt] = {
                "tiles": int(mask.sum()),
                "nnz": int(counts[mask].sum()),
            }
        return out

    # -- cost model --------------------------------------------------------------

    def kernel_costs(self, params: KernelCostParams | None = None) -> dict[FormatID, TileKernelCost]:
        """Per-format kernel cost accounting (vectorised over tiles)."""
        params = params or KernelCostParams()
        eff_w = self.tileset.pattern.eff_w
        out = {}
        for fmt, payload in self.structure.items():
            out[fmt] = costs_for_format(FormatID(fmt), payload, params, eff_w[self.tile_ids[fmt]])
        return out

    def run_cost(
        self,
        params: KernelCostParams | None = None,
        tbalance: int = DEFAULT_TBALANCE,
        schedule: WarpSchedule | None = None,
    ) -> RunCost:
        """Device-independent cost of one SpMV with this representation."""
        params = params or KernelCostParams()
        costs = self.kernel_costs(params)
        per_tile_cycles = np.zeros(self.n_tiles)
        payload_bytes = float(self.tileset.level1_nbytes_model())
        x_sectors = 0
        executed_flops = 0.0
        atomic_ops = 0.0
        atomic_rounds = 0.0
        for fmt, cost in costs.items():
            per_tile_cycles[self.tile_ids[fmt]] = cost.cycles
            payload_bytes += cost.payload_bytes
            x_sectors += cost.x_sectors
            executed_flops += cost.flops
            atomic_ops += cost.atomic_ops
            atomic_rounds += cost.atomic_rounds
        schedule = schedule or build_schedule(self.tileset.tile_ptr, tbalance)
        warp_cycles = schedule.warp_cycle_totals(per_tile_cycles, params.warp_overhead)
        # Boundary tile rows are shorter than ``tile``; charge split-row
        # y-combining atomics for the rows that actually exist.
        ops, rounds = schedule.cross_warp_atomics(self.tileset.row_heights())
        atomic_ops += ops
        atomic_rounds += rounds
        return RunCost(
            payload_bytes=payload_bytes,
            x_gather_bytes=float(x_sectors * 32),
            x_footprint_bytes=float(self.tileset.n * 8),
            y_write_bytes=float(schedule.n_warps * self.tileset.tile * 8),
            warp_instructions=float(warp_cycles.sum()),
            warp_cycles_max=float(warp_cycles.max()) if warp_cycles.size else 0.0,
            n_warps=schedule.n_warps,
            atomic_ops=atomic_ops,
            atomic_rounds=atomic_rounds,
            useful_flops=2.0 * self.nnz,
            executed_flops=executed_flops,
            kernel_launches=1,
            label="TileSpMV",
        )

    def cost_attribution(self, params: KernelCostParams | None = None) -> dict[FormatID, dict[str, float]]:
        """Attribute the modelled kernel work to each format.

        For every format used: share of warp cycles, payload bytes and
        raw x-gather sectors.  The per-format cycle totals answer 'which
        format is this matrix actually spending its time in' — the
        companion of :meth:`format_histogram` on the time axis.
        """
        params = params or KernelCostParams()
        costs = self.kernel_costs(params)
        total_cycles = sum(float(c.cycles.sum()) for c in costs.values()) or 1.0
        total_bytes = sum(c.payload_bytes for c in costs.values()) or 1
        out: dict[FormatID, dict[str, float]] = {}
        for fmt, cost in costs.items():
            out[FormatID(fmt)] = {
                "cycles": float(cost.cycles.sum()),
                "cycle_share": float(cost.cycles.sum()) / total_cycles,
                "payload_bytes": float(cost.payload_bytes),
                "byte_share": cost.payload_bytes / total_bytes,
                "x_sectors": float(cost.x_sectors),
            }
        return out

    # -- invariants -----------------------------------------------------------------

    def validate(self, operand: sp.csr_matrix) -> None:
        """Check the storage invariants against ``operand``, the
        canonical CSR matrix whose values the payloads carry; raises
        ``AssertionError`` on breakage."""
        ts = self.tileset
        view = ts.pattern
        assert np.all(np.diff(ts.tile_ptr) >= 0), "tilePtr must be monotone"
        assert np.all(np.diff(view.offsets) > 0), "occupied tiles must be nonempty"
        assert int(view.offsets[-1]) == ts.nnz, "tileNnz must cover all entries"
        assert self.formats.size == ts.n_tiles
        covered = np.concatenate([v for v in self.tile_ids.values()]) if self.tile_ids else np.zeros(0, np.int64)
        in_range = covered.size == 0 or (covered.min() >= 0 and covered.max() < ts.n_tiles)
        assert in_range and np.all(np.bincount(covered, minlength=ts.n_tiles) == 1), (
            "every tile must belong to exactly one format payload"
        )
        # The operand: shape, one slot per entry, monotone indptr, and
        # columns in range and ascending within each row — the canonical
        # order every product and the sharded operands rely on.  A
        # ``trust`` plan keeps duplicate entries, so equal neighbours pass.
        op = operand
        assert op.shape == (ts.m, ts.n), "operand shape must match the matrix"
        assert op.nnz == ts.nnz, f"operand holds {op.nnz} entries != level-1 {ts.nnz}"
        indptr = np.asarray(op.indptr, dtype=np.int64)
        assert indptr[0] == 0 and np.all(np.diff(indptr) >= 0), "operand indptr must be monotone"
        if op.nnz:  # vacuous for 0-row/0-col/0-nnz matrices
            cols = np.asarray(op.indices, dtype=np.int64)
            assert cols.min() >= 0 and cols.max() < ts.n, "operand column out of range"
            rows = repeat_offsets(indptr)
            same_row = rows[1:] == rows[:-1]
            assert np.all(np.diff(cols)[same_row] >= 0), (
                "operand columns must ascend within each row"
            )
        # The payloads encode exactly the matrix that executes.
        assert same_csr(self.to_csr(op.data), op), "decoded payloads differ from the operand (round-trip)"
