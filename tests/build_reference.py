"""Scatter- and sort-based reference formulations of the plan build.

The plan build counts, packs and sorts in single passes (``bincount``,
direct assignment, ``reduceat`` over sorted runs, presence grids, one
sort of row segments).  Each function here computes the same array the
textbook way — ``np.add.at``, ``np.bitwise_or.at``, ``np.lexsort`` +
``np.unique``, a stable sort of every entry, a loop over candidate
widths, full input inspection — so the differential tests can demand
bit-identical results, and :func:`patch_in` swaps every reference into
the build at once for an end-to-end comparison of whole plans.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

import numpy as np
import scipy.sparse as sp

import repro.baselines.csr_scalar
import repro.baselines.hyb_global
import repro.baselines.merge
import repro.core.deferred
import repro.core.kernels.costs
import repro.core.plancache
import repro.core.selection
import repro.core.storage
import repro.core.tilespmv
import repro.formats.tile_hyb
import repro.reliability.validation
from repro.core.kernels.costs import TileKernelCost
from repro.core.kernels.costs import dnscol_costs as shipped_dnscol_costs
from repro.core.selection import TileStats
from repro.core.tiling import TileSet
from repro.formats.base import VALUE_BYTES, FormatID, TilesView
from repro.formats.tile_bitmap import BITMAP_BYTES, encode_bitmap as shipped_encode_bitmap
from repro.formats.tile_coo import encode_coo
from repro.formats.tile_csr import encode_csr as shipped_encode_csr
from repro.formats.tile_dnscol import encode_dnscol as shipped_encode_dnscol
from repro.formats.tile_ell import encode_ell
from repro.formats.tile_hyb import TileHYBData, _ell_bytes
from repro.gpu.warp import WARP_SIZE
from repro.matrices import banded, random_uniform
from repro.util.packing import unpack_nibble_pairs
from repro.util.segments import lengths_to_offsets, repeat_offsets, segment_local_index

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


def select(view: TilesView, mask_or_idx: np.ndarray) -> TilesView:
    """A sub-view of the given tiles, every entry gathered by its rank."""
    idx = np.asarray(mask_or_idx)
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    lengths = view.counts()[idx]
    new_offsets = np.zeros(idx.size + 1, dtype=view.offsets.dtype)
    np.cumsum(lengths, out=new_offsets[1:])
    src = np.repeat(view.offsets[idx], lengths) + segment_local_index(new_offsets)
    return TilesView(
        lrow=view.lrow[src], lcol=view.lcol[src], val=_values(view, src), offsets=new_offsets,
        eff_h=view.eff_h[idx], eff_w=view.eff_w[idx], tile=view.tile,
    )


def _values(view: TilesView, sel) -> np.ndarray | None:
    """``view.val[sel]``, or ``None`` for a structure-only view."""
    return None if view.val is None else view.val[sel]


def pos_in_row(view: TilesView) -> np.ndarray:
    """Rank within each (tile, row) run, by a running maximum of run starts."""
    key = view.tile_of_entry() * view.tile + view.lrow.astype(np.int64)
    is_start = np.ones(key.size, dtype=bool)
    is_start[1:] = key[1:] != key[:-1]
    run_start = np.maximum.accumulate(np.where(is_start, np.arange(key.size), 0))
    return np.arange(key.size) - run_start


def entry_rank(view: TilesView) -> np.ndarray:
    return segment_local_index(view.offsets)


def compute_tile_stats(tileset: TileSet) -> TileStats:
    """Per-tile statistics in float64, dense-row tests over the whole grid."""
    view = tileset.pattern
    counts = view.counts().astype(np.float64)
    eff_h = view.eff_h.astype(np.float64)
    eff_w_i = view.eff_w.astype(np.int64)
    eff_h_i = view.eff_h.astype(np.int64)
    rc, cc = row_counts(view), col_counts(view)
    sumsq = (rc.astype(np.float64) ** 2).sum(axis=1)
    mean = counts / eff_h
    var = np.maximum(sumsq / eff_h - mean**2, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        variation = np.where(mean > 0, np.sqrt(var) / mean, 0.0)
    return TileStats(
        nnz=view.counts(),
        variation=variation,
        rows_all_dense=(counts > 0) & np.all((rc == 0) | (rc == eff_w_i[:, None]), axis=1),
        cols_all_dense=(counts > 0) & np.all((cc == 0) | (cc == eff_h_i[:, None]), axis=1),
    )


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


def hyb_split_widths(view: TilesView) -> np.ndarray:
    """The width search as a loop over every candidate width."""
    rc = row_counts(view).astype(np.int64)
    max_w = int(rc.max()) if rc.size else 0
    n = view.n_tiles
    best_w = np.zeros(n, dtype=np.int64)
    best_cost = np.full(n, np.iinfo(np.int64).max)
    for w in range(max_w, -1, -1):
        overflow = np.maximum(rc - w, 0).sum(axis=1)
        cost = _ell_bytes(np.full(n, w), view.tile) + overflow * (1 + VALUE_BYTES)
        better = cost <= best_cost
        best_cost = np.where(better, cost, best_cost)
        best_w = np.where(better, w, best_w)
    return best_w


def dnscol_val(view: TilesView) -> np.ndarray:
    """DnsCol values, re-sorted column-major by ``np.lexsort``."""
    order = np.lexsort((view.lrow, view.lcol, view.tile_of_entry()))
    return _values(view, order)


def encode_dnscol(view: TilesView):
    return replace(shipped_encode_dnscol(view), val=dnscol_val(view))


def hyb_split_views(view: TilesView, widths: np.ndarray) -> tuple[TilesView, TilesView]:
    """HYB's ELL and COO sub-views, per-tile lengths by ``np.add.at``."""
    tile_of_entry = view.tile_of_entry()
    to_ell = view.pos_in_row() < widths[tile_of_entry]

    def subview(mask):
        lengths = np.zeros(view.n_tiles, dtype=np.int64)
        np.add.at(lengths, tile_of_entry[mask], 1)
        return TilesView(
            lrow=view.lrow[mask], lcol=view.lcol[mask], val=_values(view, mask),
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
    """Tile decomposition by ``np.lexsort`` + ``np.unique``; index arrays
    in int32 when every index fits."""
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
    idx = np.int32 if max(coo.nnz, m, n) < 2**31 else np.int64
    pattern = TilesView(
        lrow=lrow[order], lcol=lcol[order], val=None,
        offsets=lengths_to_offsets(counts).astype(idx),
        eff_h=np.minimum(tile, m - tile_rowidx * tile).astype(np.uint8),
        eff_w=np.minimum(tile, n - tile_colidx * tile).astype(np.uint8),
        tile=tile,
    )
    tiles_per_row = np.bincount(tile_rowidx, minlength=-(-m // tile))
    return TileSet(
        m=m, n=n, tile=tile,
        tile_ptr=lengths_to_offsets(tiles_per_row),
        tile_colidx=tile_colidx.astype(idx), tile_rowidx=tile_rowidx.astype(idx),
        pattern=pattern, entry_perm=order.astype(idx), indptr=csr.indptr, indices=csr.indices,
    )


def structural_fingerprint(csr, tile, selection, tbalance, extra=""):
    """The plan key over ``tobytes`` copies of the index arrays, each
    after its dtype tag."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([csr.shape[0], csr.shape[1], tile, tbalance], dtype=np.int64).tobytes())
    h.update(str(np.dtype(csr.dtype)).encode())
    h.update(repr(selection).encode())
    if extra:
        h.update(extra.encode())
    for arr in (csr.indptr, csr.indices):
        h.update(arr.dtype.str.encode())
        h.update(np.asarray(arr).tobytes())
    return h.hexdigest()


def valued_view(matrix, tile: int = 16, validation: str = "repair") -> TilesView:
    """The shipped tiling's tile-sorted entries of ``matrix``, values
    included (gathered from its canonical CSR)."""
    from repro.core.tiling import tile_decompose as shipped_tile_decompose
    from repro.reliability.validation import canonicalize_csr

    ts = shipped_tile_decompose(matrix, tile=tile, validation=validation)
    return ts.view(canonicalize_csr(matrix, validation)[0].data)


def full_inspection(monkeypatch) -> None:
    """Send every input through ``canonicalize_csr``'s full inspection."""
    monkeypatch.setattr(repro.reliability.validation, "_is_canonical", lambda *args: False)


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
    monkeypatch.setattr(TilesView, "select", select)
    monkeypatch.setattr(TilesView, "pos_in_row", pos_in_row)
    monkeypatch.setattr(TilesView, "entry_rank", entry_rank)
    monkeypatch.setattr(repro.core.selection, "compute_tile_stats", compute_tile_stats)
    monkeypatch.setattr(repro.formats.tile_hyb, "hyb_split_widths", hyb_split_widths)
    monkeypatch.setattr(repro.core.deferred, "hyb_split_widths", hyb_split_widths)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.DNSCOL, encode_dnscol)
    monkeypatch.setattr(repro.core.tilespmv, "structural_fingerprint", structural_fingerprint)
    full_inspection(monkeypatch)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.CSR, encode_csr)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.BITMAP, encode_bitmap)
    monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.HYB, encode_hyb)
    monkeypatch.setattr(repro.core.storage, "encode_hyb", encode_hyb)
    monkeypatch.setattr(repro.core.plancache, "tile_decompose", tile_decompose)
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
