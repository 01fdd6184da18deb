"""TileMatrix persistence.

Preprocessing is the expensive step (Fig 11); a solver that reuses a
matrix across runs wants to pay it once.  ``save``/``load`` round-trip a
built :class:`~repro.core.storage.TileMatrix` and the values of its
operand through a single ``.npz`` file holding exactly the paper's
arrays — the level-1 structure and the per-format payloads, values
included.  Loading decodes the payloads into the operand: the one build
path that still derives the executing CSR from payloads.

The same ``.npz`` container doubles as the **block wire format** of
the process-pool backend (:mod:`repro.dist.procpool`):
:func:`pack_shard_plan` freezes one output block's canonical CSR
operand into a ``bytes`` blob, and :func:`unpack_shard_plan` is the
worker-side inverse.  The worker multiplies that operand as the parent
does, so the blob holds nothing else; the per-call x/y payloads never
touch this path at all — they live in shared memory.
"""

from __future__ import annotations

import io
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.storage import TileMatrix, decode_csr
from repro.core.tiling import TileSet
from repro.formats import (
    FormatID,
    TileBitmapData,
    TileCOOData,
    TileCSRData,
    TileDnsColData,
    TileDnsData,
    TileDnsRowData,
    TileELLData,
    TileHYBData,
)
from repro.formats.base import TilesView

__all__ = [
    "save_tile_matrix",
    "load_tile_matrix",
    "pack_shard_plan",
    "unpack_shard_plan",
]

_PAYLOAD_TYPES = {
    FormatID.CSR: TileCSRData,
    FormatID.COO: TileCOOData,
    FormatID.ELL: TileELLData,
    FormatID.HYB: TileHYBData,
    FormatID.DNS: TileDnsData,
    FormatID.DNSROW: TileDnsRowData,
    FormatID.DNSCOL: TileDnsColData,
    FormatID.BITMAP: TileBitmapData,
}


def _flatten_payload(prefix: str, payload, out: dict) -> None:
    for f in fields(payload):
        value = getattr(payload, f.name)
        key = f"{prefix}.{f.name}"
        if isinstance(value, np.ndarray):
            out[key] = value
        elif isinstance(value, (int, np.integer)):
            out[key] = np.int64(value)
        else:  # nested payload (HYB's ell/coo parts)
            _flatten_payload(key, value, out)


def _rebuild_payload(cls, prefix: str, data: dict):
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in data:
            value = data[key]
            kwargs[f.name] = int(value) if value.ndim == 0 else value
        else:  # nested payload
            nested_cls = TileELLData if f.name == "ell" else TileCOOData
            kwargs[f.name] = _rebuild_payload(nested_cls, key, data)
    return cls(**kwargs)


def save_tile_matrix(path: str | Path, tm: TileMatrix, data: np.ndarray) -> None:
    """Persist a built TileMatrix carrying ``data`` (its operand's
    values, canonical CSR order) as a compressed ``.npz``."""
    ts = tm.tileset
    view = ts.view(data)
    arrays: dict = {
        "meta.m": np.int64(ts.m),
        "meta.n": np.int64(ts.n),
        "meta.tile": np.int64(ts.tile),
        "level1.tile_ptr": ts.tile_ptr,
        "level1.tile_colidx": ts.tile_colidx,
        "level1.tile_rowidx": ts.tile_rowidx,
        "level1.formats": tm.formats,
        "view.lrow": view.lrow,
        "view.lcol": view.lcol,
        "view.val": view.val,
        "view.offsets": view.offsets,
        "view.eff_h": view.eff_h,
        "view.eff_w": view.eff_w,
    }
    for fmt, payload in tm.payloads(data).items():
        arrays[f"tile_ids.{int(fmt)}"] = tm.tile_ids[fmt]
        _flatten_payload(f"payload.{int(fmt)}", payload, arrays)
    np.savez_compressed(path, **arrays)


def load_tile_matrix(path: str | Path) -> tuple[TileMatrix, sp.csr_matrix]:
    """Load what :func:`save_tile_matrix` saved: ``(tile matrix,
    operand)``, the operand decoded from the payloads."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    pattern = TilesView(
        lrow=arrays["view.lrow"],
        lcol=arrays["view.lcol"],
        val=None,
        offsets=arrays["view.offsets"],
        eff_h=arrays["view.eff_h"],
        eff_w=arrays["view.eff_w"],
        tile=int(arrays["meta.tile"]),
    )
    structure = TileSet(
        m=int(arrays["meta.m"]),
        n=int(arrays["meta.n"]),
        tile=int(arrays["meta.tile"]),
        tile_ptr=arrays["level1.tile_ptr"],
        tile_colidx=arrays["level1.tile_colidx"],
        tile_rowidx=arrays["level1.tile_rowidx"],
        pattern=pattern,
        entry_perm=None,
        indptr=None,
        indices=None,
    )
    payloads: dict = {}
    tile_ids: dict = {}
    for fmt in FormatID:
        key = f"tile_ids.{int(fmt)}"
        if key not in arrays:
            continue
        tile_ids[fmt] = arrays[key]
        payloads[fmt] = _rebuild_payload(_PAYLOAD_TYPES[fmt], f"payload.{int(fmt)}", arrays)
    # Canonical slot of every view entry: its rank in (row, column) order.
    key = structure.global_rows() * structure.n + structure.global_cols()
    operand = decode_csr(structure, payloads, tile_ids)
    tileset = replace(
        structure,
        entry_perm=np.argsort(np.argsort(key, kind="stable")),
        indptr=operand.indptr,
        indices=operand.indices,
    )
    # Built like any plan: structure encoded from the pattern (HYB split
    # widths pinned to the saved ones); values stay in the operand.
    hyb = payloads.get(FormatID.HYB)
    tm = TileMatrix.build(
        tileset, arrays["level1.formats"], None if hyb is None else hyb.ell.width
    )
    return tm, operand


# -- shard-plan wire format (process-pool backend) -------------------------

_WIRE_VERSION = 2


def pack_shard_plan(block: sp.csr_matrix) -> bytes:
    """Freeze one block's CSR operand into a wire blob.

    The blob is a plain (uncompressed — spawn latency matters more than
    wire size on a local socket) ``.npz`` archive of the block's CSR
    arrays, unpacked bit for bit by :func:`unpack_shard_plan`.
    """
    buf = io.BytesIO()
    np.savez(
        buf,
        **{
            "wire.version": np.int64(_WIRE_VERSION),
            "wire.m": np.int64(block.shape[0]),
            "wire.n": np.int64(block.shape[1]),
            "csr.data": np.asarray(block.data, dtype=np.float64),
            "csr.indices": np.asarray(block.indices, dtype=np.int64),
            "csr.indptr": np.asarray(block.indptr, dtype=np.int64),
        },
    )
    return buf.getvalue()


def unpack_shard_plan(blob: bytes) -> sp.csr_matrix:
    """Worker-side inverse of :func:`pack_shard_plan`."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        version = int(data["wire.version"])
        if version != _WIRE_VERSION:
            raise ValueError(f"unsupported shard-plan wire version {version}")
        shape = (int(data["wire.m"]), int(data["wire.n"]))
        return sp.csr_matrix(
            (data["csr.data"], data["csr.indices"], data["csr.indptr"]),
            shape=shape,
        )
