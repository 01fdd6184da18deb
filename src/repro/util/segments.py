"""Vectorised segment (ragged-array) primitives.

The tiled storage keeps per-tile payloads concatenated into flat arrays
with CSR-style offset arrays delimiting each tile.  These helpers provide
the handful of segment operations every encoder and kernel needs, built on
``numpy`` so that whole-collection preprocessing stays vectorised (the
hpc-parallel guides' first rule: no Python-level loops over nonzeros).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "index_dtype",
    "lengths_to_offsets",
    "offsets_to_lengths",
    "repeat_offsets",
    "segment_local_index",
    "segment_histogram",
    "run_starts",
    "stable_key_order",
    "segment_sum",
    "segment_max",
]


def index_dtype(bound: int) -> type:
    """The narrowest of ``int32``/``int64`` holding every index <= ``bound``."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def lengths_to_offsets(lengths: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Exclusive prefix sum: segment lengths -> CSR-style offsets.

    ``offsets`` has one more element than ``lengths`` and
    ``offsets[i]:offsets[i+1]`` delimits segment ``i``.
    """
    lengths = np.asarray(lengths)
    offsets = np.zeros(lengths.size + 1, dtype=dtype)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def offsets_to_lengths(offsets: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lengths_to_offsets`."""
    offsets = np.asarray(offsets)
    return np.diff(offsets)


def repeat_offsets(offsets: np.ndarray) -> np.ndarray:
    """Return the segment id of every element described by ``offsets``.

    Equivalent to ``np.repeat(np.arange(n), lengths)`` but named for
    intent.  The result has length ``offsets[-1]``.
    """
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def segment_local_index(offsets: np.ndarray) -> np.ndarray:
    """Position of every element within its own segment (0, 1, 2, ...).

    Computed without a loop: a global ``arange`` minus each element's
    segment start.
    """
    offsets = np.asarray(offsets)
    total = int(offsets[-1])
    seg_ids = repeat_offsets(offsets)
    return np.arange(total, dtype=np.int64) - offsets[seg_ids]


def segment_histogram(
    seg_ids: np.ndarray, local: np.ndarray, n_segments: int, width: int
) -> np.ndarray:
    """``(n_segments, width)`` counts of each ``local`` bucket per segment.

    ``local`` must lie in ``[0, width)``.  One ``bincount`` over the
    flattened ``seg_ids * width + local`` key: the same counts as an
    ``np.add.at`` scatter into a zero grid, in a single pass.
    """
    key = np.asarray(seg_ids, dtype=np.int64) * width + np.asarray(local, dtype=np.int64)
    return np.bincount(key, minlength=n_segments * width).reshape(n_segments, width)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values in ``keys``.

    On sorted ``keys`` these are the first occurrences of the distinct
    values — what ``np.unique`` finds, without its sort.
    """
    keys = np.asarray(keys)
    is_start = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
    return np.flatnonzero(is_start)


def stable_key_order(keys: np.ndarray, key_bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, key_bound)``.

    When a key and its position fit one ``int64`` together, a plain
    (SIMD) sort of ``key << bits | position`` yields the stable order
    several times faster than the stable argsort; otherwise the stable
    argsort runs.
    """
    keys = np.asarray(keys)
    bits = max(keys.size - 1, 0).bit_length()
    if max(key_bound - 1, 0).bit_length() + bits > 62:
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.int64) << bits
    packed |= np.arange(keys.size, dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def segment_sum(values: np.ndarray, seg_ids: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` grouped by ``seg_ids`` into ``n_segments`` buckets."""
    values = np.asarray(values)
    out = np.zeros(n_segments, dtype=values.dtype if values.dtype.kind == "f" else np.int64)
    np.add.at(out, seg_ids, values)
    return out


def segment_max(values: np.ndarray, seg_ids: np.ndarray, n_segments: int, initial=0) -> np.ndarray:
    """Max of ``values`` grouped by ``seg_ids`` (``initial`` for empties)."""
    values = np.asarray(values)
    out = np.full(n_segments, initial, dtype=values.dtype)
    np.maximum.at(out, seg_ids, values)
    return out
