"""Scatter- and sort-based reference formulations of the plan build.

The plan build counts, packs and sorts in single passes (``bincount``,
direct assignment, ``reduceat`` over sorted runs, presence grids, one
stable sort).  Each function here computes the same array the textbook
way — ``np.add.at``, ``np.bitwise_or.at``, ``np.lexsort`` + ``np.unique``
— so the differential tests can demand bit-identical results, and
:func:`patch_in` swaps every reference into the build at once for an
end-to-end comparison of whole plans.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

import numpy as np
import scipy.sparse as sp

import repro.baselines.csr_scalar
import repro.baselines.hyb_global
import repro.baselines.merge
import repro.core.kernels.costs
import repro.core.storage
import repro.core.tilespmv
from repro.core.kernels.costs import TileKernelCost
from repro.core.kernels.costs import dnscol_costs as shipped_dnscol_costs
from repro.core.tiling import TileSet
from repro.formats.base import FormatID, TilesView
from repro.formats.tile_bitmap import BITMAP_BYTES, encode_bitmap as shipped_encode_bitmap
from repro.formats.tile_coo import encode_coo
from repro.formats.tile_csr import encode_csr as shipped_encode_csr
from repro.formats.tile_ell import encode_ell
from repro.formats.tile_hyb import TileHYBData, hyb_split_widths
from repro.gpu.warp import WARP_SIZE
from repro.matrices import banded, random_uniform
from repro.util.packing import unpack_nibble_pairs
from repro.util.segments import lengths_to_offsets, repeat_offsets

X_SECTOR_DOUBLES = 4


# -- counts ---------------------------------------------------------------


def segment_histogram(seg_ids, local, n_segments, width):
    out = np.zeros((n_segments, width), dtype=np.int64)
    np.add.at(out, (seg_ids, np.asarray(local, dtype=np.int64)), 1)
    return out


def row_counts(view: TilesView) -> np.ndarray:
    counts = np.zeros((view.n_tiles, view.tile), dtype=np.int16)
    np.add.at(counts, (view.tile_of_entry(), view.lrow.astype(np.int64)), 1)
    return counts


def col_counts(view: TilesView) -> np.ndarray:
    counts = np.zeros((view.n_tiles, view.tile), dtype=np.int16)
    np.add.at(counts, (view.tile_of_entry(), view.lcol.astype(np.int64)), 1)
    return counts


def distinct_sectors_per_tile(lcol: np.ndarray, offsets: np.ndarray) -> int:
    if lcol.size == 0:
        return 0
    key = repeat_offsets(offsets) * 8 + lcol.astype(np.int64) // X_SECTOR_DOUBLES
    return int(np.unique(key).size)


def coo_costs(data, params):
    """COO kernel cost, per-tile row multiplicities by ``np.add.at``."""
    counts = np.diff(data.offsets)
    batches = -(-counts // WARP_SIZE)
    lrow, lcol = unpack_nibble_pairs(data.rowcol)
    rounds = np.zeros(data.n_tiles, dtype=np.int64)
    if lrow.size:
        rounds = segment_histogram(repeat_offsets(data.offsets), lrow, data.n_tiles, 16).max(axis=1)
    return TileKernelCost(
        cycles=params.coo_overhead + params.coo_per_batch * batches + rounds,
        payload_bytes=data.nbytes_model(),
        x_sectors=distinct_sectors_per_tile(lcol, data.offsets),
        flops=2.0 * data.nnz,
        atomic_ops=float(batches.sum()),
        atomic_rounds=float(rounds.sum()),
    )


def dnscol_costs(data, params):
    """DnsCol kernel cost, distinct x sectors by ``np.unique``."""
    col_tile = np.repeat(np.arange(data.n_tiles), data.n_cols())
    key = col_tile * 8 + data.colidx.astype(np.int64) // X_SECTOR_DOUBLES
    x_sectors = int(np.unique(key).size) if key.size else 0
    return replace(shipped_dnscol_costs(data, params), x_sectors=x_sectors)


def row_gather_sectors(indptr: np.ndarray, indices: np.ndarray) -> int:
    if indices.size == 0:
        return 0
    rows = repeat_offsets(np.asarray(indptr, dtype=np.int64))
    n_sectors = int(indices.max()) // X_SECTOR_DOUBLES + 1
    key = rows * n_sectors + indices.astype(np.int64) // X_SECTOR_DOUBLES
    return int(np.unique(key).size)


def transposed_gather_sectors(engine) -> int:
    """CSR5's distinct x sectors per 32-lane gather step, by ``np.unique``."""
    if engine.nnz == 0:
        return 0
    valid = engine.stored_valid
    step = np.flatnonzero(valid) // WARP_SIZE
    n_sectors = int(engine.stored_col[valid].max()) // X_SECTOR_DOUBLES + 1
    key = step * n_sectors + engine.stored_col[valid] // X_SECTOR_DOUBLES
    return int(np.unique(key).size)


# -- encoders -------------------------------------------------------------


def csr_colidx(view: TilesView, byte_offsets: np.ndarray) -> np.ndarray:
    """Packed CSR column nibbles, scattered with ``np.bitwise_or.at``."""
    rank = view.entry_rank()
    byte_idx = byte_offsets[view.tile_of_entry()] + rank // 2
    colidx = np.zeros(int(byte_offsets[-1]), dtype=np.uint8)
    hi = (rank % 2) == 0
    nib = view.lcol.astype(np.uint8)
    np.bitwise_or.at(colidx, byte_idx[hi], nib[hi] << 4)
    np.bitwise_or.at(colidx, byte_idx[~hi], nib[~hi])
    return colidx


def encode_csr(view: TilesView):
    data = shipped_encode_csr(view)
    return replace(data, colidx=csr_colidx(view, data.byte_offsets))


def bitmap_bytes(view: TilesView) -> np.ndarray:
    """Occupancy bitmaps, scattered with ``np.bitwise_or.at``."""
    bit = view.lrow.astype(np.int64) * view.tile + view.lcol.astype(np.int64)
    byte_idx = view.tile_of_entry() * BITMAP_BYTES + bit // 8
    bitmap = np.zeros(view.n_tiles * BITMAP_BYTES, dtype=np.uint8)
    np.bitwise_or.at(bitmap, byte_idx, (1 << (bit % 8)).astype(np.uint8))
    return bitmap


def encode_bitmap(view: TilesView):
    return replace(shipped_encode_bitmap(view), bitmap=bitmap_bytes(view))


def hyb_split_views(view: TilesView, widths: np.ndarray) -> tuple[TilesView, TilesView]:
    """HYB's ELL and COO sub-views, per-tile lengths by ``np.add.at``."""
    tile_of_entry = view.tile_of_entry()
    to_ell = view.pos_in_row() < widths[tile_of_entry]

    def subview(mask):
        lengths = np.zeros(view.n_tiles, dtype=np.int64)
        np.add.at(lengths, tile_of_entry[mask], 1)
        return TilesView(
            lrow=view.lrow[mask], lcol=view.lcol[mask], val=view.val[mask],
            offsets=lengths_to_offsets(lengths),
            eff_h=view.eff_h, eff_w=view.eff_w, tile=view.tile,
        )

    return subview(to_ell), subview(~to_ell)


def encode_hyb(view: TilesView, widths: np.ndarray | None = None):
    if widths is None:
        widths = hyb_split_widths(view)
    ell_view, coo_view = hyb_split_views(view, np.asarray(widths, dtype=np.int64))
    return TileHYBData(ell=encode_ell(ell_view), coo=encode_coo(coo_view))


# -- tiling ---------------------------------------------------------------


def tile_decompose(matrix, tile: int = 16, validation: str = "repair") -> TileSet:
    """Tile decomposition by ``np.lexsort`` + ``np.unique``."""
    from repro.reliability.validation import canonicalize_csr

    csr = canonicalize_csr(matrix, validation)[0]
    coo = csr.tocoo()
    m, n = coo.shape
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    lrow = (rows % tile).astype(np.uint8)
    lcol = (cols % tile).astype(np.uint8)
    tile_cols_total = -(-n // tile)
    tile_key = (rows // tile) * tile_cols_total + cols // tile
    order = np.lexsort((lcol, lrow, tile_key))
    uniq_keys, counts = np.unique(tile_key[order], return_counts=True)
    tile_rowidx = uniq_keys // tile_cols_total
    tile_colidx = uniq_keys % tile_cols_total
    view = TilesView(
        lrow=lrow[order], lcol=lcol[order], val=coo.data.astype(np.float64)[order],
        offsets=lengths_to_offsets(counts),
        eff_h=np.minimum(tile, m - tile_rowidx * tile).astype(np.uint8),
        eff_w=np.minimum(tile, n - tile_colidx * tile).astype(np.uint8),
        tile=tile,
    )
    tiles_per_row = np.bincount(tile_rowidx, minlength=-(-m // tile))
    return TileSet(
        m=m, n=n, tile=tile,
        tile_ptr=lengths_to_offsets(tiles_per_row),
        tile_colidx=tile_colidx, tile_rowidx=tile_rowidx,
        view=view, entry_perm=order, csr=csr,
    )


def remainder(csr: sp.csr_matrix, drop: np.ndarray) -> sp.csr_matrix:
    """``csr`` without the entries ``drop`` masks (canonical order), by a
    row search over the kept entries."""
    keep = ~drop
    rows = repeat_offsets(csr.indptr)[keep]
    indptr = np.searchsorted(rows, np.arange(csr.shape[0] + 1))
    return sp.csr_matrix((csr.data[keep], csr.indices[keep], indptr), shape=csr.shape)


def patch_in(monkeypatch) -> None:
    """Route every rewritten build and pricing step through its reference."""
    costs = repro.core.kernels.costs
    monkeypatch.setattr(TilesView, "row_counts", row_counts)
    monkeypatch.setattr(TilesView, "col_counts", col_counts)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.CSR, encode_csr)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.BITMAP, encode_bitmap)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.HYB, encode_hyb)
    monkeypatch.setattr(repro.core.storage, "encode_hyb", encode_hyb)
    monkeypatch.setattr(repro.core.tilespmv, "tile_decompose", tile_decompose)
    monkeypatch.setattr(costs, "coo_costs", coo_costs)
    monkeypatch.setattr(costs, "dnscol_costs", dnscol_costs)
    for mod in (repro.baselines.csr_scalar, repro.baselines.merge, repro.baselines.hyb_global):
        monkeypatch.setattr(mod, "row_gather_sectors", row_gather_sectors)


# -- comparison -----------------------------------------------------------


def assert_same(a: np.ndarray, b: np.ndarray) -> None:
    """Equal values, dtype and shape."""
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def flat(obj, name: str = "") -> dict:
    """Every array (as dtype, shape and bytes) and scalar reachable from
    ``obj`` through dataclass fields, dicts and scipy sparse matrices."""
    if isinstance(obj, np.ndarray):
        return {name: (obj.dtype.str, obj.shape, np.ascontiguousarray(obj).tobytes())}
    if sp.issparse(obj):
        return {f"{name}.{k}": flat(getattr(obj, k))[""] for k in ("indptr", "indices", "data")}
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            out.update(flat(getattr(obj, f.name), f"{name}.{f.name}"))
        return out
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(flat(v, f"{name}[{k!r}]"))
        return out
    return {name: obj}


# -- inputs ---------------------------------------------------------------


def with_dense_structure(m: int, n: int, seed: int) -> sp.csr_matrix:
    """Sparse random entries plus a dense block, two dense columns and
    two dense rows (in bands kept otherwise empty), so that tiles of
    every format appear."""
    a = random_uniform(m, n, nnz_per_row=2, seed=seed).tolil()
    rng = np.random.default_rng(seed)
    a[:, 32:48] = 0
    a[48:64, :] = 0
    a[:24, :24] = rng.uniform(0.5, 1.5, (24, 24))
    a[:, [40, 45]] = rng.uniform(0.5, 1.5, (m, 2))
    a[[50, 55], :] = rng.uniform(0.5, 1.5, (2, n))
    return a.tocsr()


def trusted_duplicates() -> sp.csr_matrix:
    """Sorted rows that repeat column indices, as ``validation="trust"``
    keeps them (the duplicates are never merged)."""
    indptr = np.array([0, 3, 3, 7, 9])
    indices = np.array([1, 1, 18, 0, 2, 2, 2, 5, 5])
    return sp.csr_matrix((np.arange(1.0, 10.0), indices, indptr), shape=(4, 21))


def cases() -> list[tuple[str, sp.csr_matrix, str]]:
    """(name, matrix, validation policy) covering every rewritten path."""
    return [
        ("random", random_uniform(96, 96, nnz_per_row=6, seed=21), "repair"),
        ("boundary_61x45", random_uniform(61, 45, nnz_per_row=5, seed=22), "repair"),
        ("banded", banded(64, half_bandwidth=2, seed=24), "repair"),
        ("dense_structure", with_dense_structure(80, 75, seed=23), "repair"),
        ("empty", sp.csr_matrix((13, 27)), "repair"),
        ("single_entry", sp.csr_matrix(([2.5], ([7], [11])), shape=(19, 23)), "repair"),
        ("trust_duplicates", trusted_duplicates(), "trust"),
    ]
