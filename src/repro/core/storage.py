"""The two-level TileSpMV storage container.

A :class:`TileMatrix` owns the level-1 tile structure (from
:mod:`repro.core.tiling`), the per-tile format assignment (from
:mod:`repro.core.selection`) and the seven format payloads (from
:mod:`repro.formats`).  Its **operand**, which executes every product,
is the canonical (row, ascending column) CSR matrix the tile set was cut
from.  The payloads are what the cost model prices; :meth:`~TileMatrix.validate`
and the round-trip tests hold their decode to the operand bit for bit.
A value update refills the operand alone; payload and view values are
rebuilt from it on first read.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.core.kernels.costs import TileKernelCost, costs_for_format
from repro.core.kernels.params import KernelCostParams
from repro.core.scheduler import DEFAULT_TBALANCE, WarpSchedule, build_schedule
from repro.core.tiling import TileSet
from repro.formats import (
    FormatID,
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
from repro.util.segments import lengths_to_offsets, repeat_offsets, run_starts

__all__ = [
    "TileMatrix",
    "decode_csr",
    "faulted_operand",
    "masked_csr",
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
        rows.append(ts.tile_rowidx[gid] * ts.tile + lrow.astype(np.int64))
        cols.append(ts.tile_colidx[gid] * ts.tile + lcol.astype(np.int64))
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


def masked_csr(csr: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The entries of ``csr`` that the boolean ``keep`` selects, in order."""
    kept_before = lengths_to_offsets(keep)
    return sp.csr_matrix(
        (csr.data[keep], csr.indices[keep], kept_before[csr.indptr]), shape=csr.shape
    )


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


def _refill_payload(payload, entry: tuple, view_val: np.ndarray):
    """``payload`` with its value slots refilled from view-ordered values.

    ``entry`` is the payload's map from :meth:`TileMatrix._value_slot_maps`;
    padding slots of the masked formats stay zero, as the encoders leave
    them.
    """
    if entry[0] == "hyb":
        _, ell_slots, ell_vidx, coo_vidx = entry
        ell_val = np.zeros_like(payload.ell.val)
        ell_val[ell_slots] = view_val[ell_vidx]
        return replace(
            payload,
            ell=replace(payload.ell, val=ell_val),
            coo=replace(payload.coo, val=view_val[coo_vidx]),
        )
    if entry[0] == "masked":
        _, slots, vidx = entry
        val = np.zeros_like(payload.val)
        val[slots] = view_val[vidx]
        return replace(payload, val=val)
    return replace(payload, val=view_val[entry[1]])


def _rank_among_equal(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the equal keys before it in ``keys``."""
    order = np.argsort(keys, kind="stable")
    starts = run_starts(keys[order])
    ranked = np.arange(keys.size, dtype=np.int64)
    ranked -= np.repeat(starts, np.diff(starts, append=keys.size))
    rank = np.empty_like(ranked)
    rank[order] = ranked
    return rank


class TileMatrix:
    """A sparse matrix in the two-level TileSpMV representation.

    A *built* matrix owns its tile set (level-1 arrays, the entry values
    in view order and the canonical CSR they were cut from), the encoded
    payloads, and that CSR as its operand.  A *value clone*
    (:meth:`with_operand_data`) owns only a refilled operand and shares
    everything structural with the built matrix it came from, its
    template.  The operand is what executes; a clone's ``tileset`` and
    ``payloads`` are derived from it on first read — bit for bit what
    re-encoding the new values would store — so a value update writes
    only what the products read.
    """

    def __init__(self, tileset: TileSet, formats: np.ndarray, payloads: dict, tile_ids: dict) -> None:
        self.formats = formats  # uint8 FormatID per tile
        self.tile_ids = tile_ids  # FormatID -> global tile idx
        self._tileset: TileSet | None = tileset
        self._payloads: dict | None = payloads  # FormatID -> payload
        # The built matrix a value clone derives from; None when built.
        self._template: TileMatrix | None = None
        # Structural maps from view entries to payload value slots,
        # built lazily on the built matrix only.
        self._value_maps: dict | None = None
        # The executor: the canonical CSR the tile set was cut from.
        self.operand: sp.csr_matrix = tileset.csr

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        tileset: TileSet,
        formats: np.ndarray,
        hyb_widths: np.ndarray | None = None,
    ) -> "TileMatrix":
        """Encode every tile into its assigned format.

        ``hyb_widths`` (per-HYB-tile split widths) lets the DeferredCOO
        strategy pin widths decided before extraction; by default the
        paper's space search chooses them.
        """
        formats = np.asarray(formats, dtype=np.uint8)
        if formats.size != tileset.n_tiles:
            raise ValueError("one format per tile required")
        payloads: dict = {}
        tile_ids: dict = {}
        for fmt in FormatID:
            idx = np.flatnonzero(formats == fmt)
            if idx.size == 0:
                continue
            view = tileset.view.select(idx)
            if fmt == FormatID.HYB and hyb_widths is not None:
                payloads[fmt] = encode_hyb(view, widths=hyb_widths)
            else:
                payloads[fmt] = _ENCODERS[fmt](view)
            tile_ids[fmt] = idx
        return cls(tileset, formats, payloads, tile_ids)

    def _value_slot_maps(self) -> dict:
        """Structural maps from view entries to payload value slots.

        Every decoder drops its padding slots (``validate``'s round-trip
        check holds it to that), so each payload's decode stream is a
        pure permutation of its tiles' view entries.
        Decoding each payload's *index* arrays once recovers which
        stored value slot holds which view entry.  Built lazily on the
        built matrix — a value clone asks its template — and never
        rebuilt for a fixed structure.
        """
        if self._template is not None:
            return self._template._value_slot_maps()
        if self._value_maps is not None:
            return self._value_maps
        tile = self._tileset.tile
        view = self._tileset.view
        # View entries are sorted by (tile, lrow, lcol), so this key is
        # non-decreasing over the view — searchsorted inverts it.  Equal
        # keys are duplicates (kept under ``validation="trust"``); every
        # decoder emits them in view order, so the k-th decoded one is
        # the k-th in the view.
        view_keys = (
            view.tile_of_entry() * (tile * tile)
            + view.lrow.astype(np.int64) * tile
            + view.lcol.astype(np.int64)
        )
        has_duplicates = bool(np.any(view_keys[1:] == view_keys[:-1]))
        maps: dict = {}
        for fmt, payload in self._payloads.items():
            t_local, lrow, lcol, _ = _decode_with_tiles(fmt, payload)
            gid = self.tile_ids[fmt][t_local]
            keys = gid * (tile * tile) + lrow.astype(np.int64) * tile + lcol.astype(np.int64)
            vidx = np.searchsorted(view_keys, keys)
            if has_duplicates:
                vidx += _rank_among_equal(keys)
            if fmt == FormatID.HYB:
                # HYB decodes its ELL part (mask-compacted) then its COO
                # part (dense); split the map at the seam.
                n_ell = int(np.count_nonzero(payload.ell.valid))
                maps[fmt] = ("hyb", np.flatnonzero(payload.ell.valid), vidx[:n_ell], vidx[n_ell:])
            elif fmt in (FormatID.ELL, FormatID.DNS):
                maps[fmt] = ("masked", np.flatnonzero(payload.valid), vidx)
            else:
                maps[fmt] = ("dense", vidx)
        self._value_maps = maps
        return maps

    def with_operand_data(self, data: np.ndarray) -> "TileMatrix":
        """Same structure, new entry values given in operand order.

        The one refill: the clone shares the template's structure (the
        built matrix, never a previous clone, so repeated updates form
        no chain) and owns a refilled operand.  Its ``tileset`` and
        ``payloads`` are rebuilt from the operand on first read.  No
        encoder runs and nothing is sorted; the caller must not mutate
        ``data`` afterwards.  Returns a new object (cached plans may
        share this one).
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ValueError(f"expected {self.nnz} values, got {data.size}")
        tpl = self._template or self
        clone = copy.copy(tpl)  # structure shared by reference
        clone._template = tpl
        clone._tileset = clone._payloads = None
        clone.operand = refill_operand(tpl.operand, data)
        return clone

    def _derive_values(self) -> None:
        """Rebuild a value clone's view values and payloads from its operand."""
        tpl = self._template
        maps = tpl._value_slot_maps()
        self._tileset = tpl._tileset.with_values(self.operand.data)
        view_val = self._tileset.view.val
        self._payloads = {
            fmt: _refill_payload(payload, maps[fmt], view_val)
            for fmt, payload in tpl._payloads.items()
        }

    # -- basic properties ----------------------------------------------------

    @property
    def tileset(self) -> TileSet:
        """Level-1 structure and view-ordered entry values (derived in a clone)."""
        if self._tileset is None:
            self._derive_values()
        return self._tileset

    @property
    def payloads(self) -> dict:
        """``FormatID`` -> encoded payload (derived in a clone)."""
        if self._payloads is None:
            self._derive_values()
        return self._payloads

    @property
    def shape(self) -> tuple[int, int]:
        return self.operand.shape

    @property
    def nnz(self) -> int:
        return self.operand.nnz

    @property
    def n_tiles(self) -> int:
        return self.formats.size

    # -- numerics ------------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x through the tiled representation's operand."""
        x = np.asarray(x, dtype=np.float64)
        n = self.operand.shape[1]
        if x.shape != (n,):
            raise ValueError(f"x must have shape ({n},)")
        return faulted_operand(self.operand) @ x

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors (tall-skinny X).

        The natural SpMV extension for block Krylov methods: the operand
        streams its index structure once for every column.
        """
        x = np.asarray(x, dtype=np.float64)
        n = self.operand.shape[1]
        if x.ndim != 2 or x.shape[0] != n:
            raise ValueError(f"X must have shape ({n}, k)")
        return faulted_operand(self.operand) @ x

    def to_csr(self) -> sp.csr_matrix:
        """Reconstruct a scipy CSR matrix from the encoded payloads.

        The cold-path decode: products never run it.  It equals the
        operand bit for bit (``validate`` and the round-trip tests hold
        the encoders to that).
        """
        return decode_csr(self.tileset, self.payloads, self.tile_ids)

    # -- accounting ------------------------------------------------------------

    def nbytes_model(self) -> int:
        """Modelled device footprint: level-1 arrays + all payloads."""
        return self.tileset.level1_nbytes_model() + sum(
            p.nbytes_model() for p in self.payloads.values()
        )

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Per-format tile and nonzero counts (Fig 7's two ratios)."""
        counts = self.tileset.view.counts()
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
        eff_w = self.tileset.view.eff_w
        out = {}
        for fmt, payload in self.payloads.items():
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

    def validate(self) -> None:
        """Check the storage invariants; raises ``AssertionError`` on breakage."""
        ts = self.tileset
        assert np.all(np.diff(ts.tile_ptr) >= 0), "tilePtr must be monotone"
        assert np.all(np.diff(ts.tile_nnz) > 0), "occupied tiles must be nonempty"
        assert int(ts.tile_nnz[-1]) == ts.nnz, "tileNnz must cover all entries"
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
        op = self.operand
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
        assert same_csr(self.to_csr(), op), "decoded payloads differ from the operand (round-trip)"
