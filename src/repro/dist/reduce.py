"""Deterministic cross-shard reductions.

Column cuts (and transposed products) make several shards contribute to
the *same* output entries, so the sharded engine needs to sum partial
results across shards.  Floating-point addition is not associative:
whatever order the combine runs in is baked into the answer's low bits.
This module pins that order two different ways, for two different
guarantees:

* :func:`tree_reduce` — a **fixed-shape binary tree** over the partial
  vectors.  The pairing schedule (:func:`tree_schedule`) is a pure
  function of the participant count — i.e. of the partition's grid
  shape — and never of thread completion order, so the result is
  byte-stable across runs, worker counts, and scheduling jitter.  This
  is also what P real devices would execute (pairwise exchanges over
  ``ceil(log2 P)`` rounds), which is why the multi-device cost model
  prices exactly this tree.

* :func:`replay_reduce` — **ordered contribution replay**.  Instead of
  combining rounded per-shard partials (whose sum can never reproduce
  the single-device bits), the shards hand over their raw
  ``(index, value)`` contribution streams in operand order and
  one accumulation pass replays the exact single-device summation
  sequence.  Because tile-snapped cuts preserve per-output relative
  order (each output row sees its contributions in ascending column
  order, each transposed output column in ascending row order,
  regardless of which shard owns them), the replayed
  result is **bit-for-bit** the unsharded one, at every grid shape.

The sharded engine uses replay for the fixed strategies (the
bit-for-bit contract) and the tree for partial-vector combines where no
stream replay is possible (per-shard ``auto`` arbitration).
"""

from __future__ import annotations

import numpy as np

__all__ = ["tree_schedule", "tree_reduce", "replay_reduce"]


def tree_schedule(parts: int) -> list[list[tuple[int, int]]]:
    """The fixed pairing schedule of a ``parts``-leaf binary tree.

    Returns one list per round; each ``(dst, src)`` pair means "partial
    ``src`` is folded into partial ``dst`` this round".  Round ``r``
    folds rank ``i + 2**r`` into rank ``i`` for every ``i`` that is a
    multiple of ``2**(r+1)`` — the classic recursive-halving combine.
    The schedule depends only on ``parts``: grid shape in, bits out.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    rounds: list[list[tuple[int, int]]] = []
    stride = 1
    while stride < parts:
        pairs = [
            (dst, dst + stride)
            for dst in range(0, parts - stride, 2 * stride)
        ]
        rounds.append(pairs)
        stride *= 2
    return rounds


def tree_reduce(parts: list[np.ndarray]) -> np.ndarray:
    """Sum equal-shape partials through the fixed-shape binary tree.

    The combine order comes from :func:`tree_schedule` alone, so two
    runs — threaded or sequential, any completion order — produce
    byte-identical results for the same inputs.  The result generally
    differs from a naive left-to-right sum in the low bits; what it
    never does is vary.
    """
    if not parts:
        raise ValueError("tree_reduce needs at least one partial")
    acc = [np.array(p, dtype=np.float64, copy=True) for p in parts]
    shape = acc[0].shape
    for a in acc[1:]:
        if a.shape != shape:
            raise ValueError(
                f"all partials must share one shape, got {a.shape} vs {shape}"
            )
    for pairs in tree_schedule(len(acc)):
        for dst, src in pairs:
            acc[dst] += acc[src]
    return acc[0]


def replay_reduce(
    streams: list[tuple[np.ndarray, np.ndarray]],
    length: int,
) -> np.ndarray:
    """Replay contribution streams in one canonical accumulation pass.

    ``streams`` is a list of ``(indices, values)`` pairs, concatenated
    in grid order; the single :func:`numpy.bincount` pass then adds
    every contribution left-to-right — index ``i``'s entries accumulate
    in exactly their stream order.  When the concatenated order equals
    the single-device operand order (tile-snapped cuts guarantee this),
    the result is bit-for-bit the single-device product.
    """
    live = [(i, v) for i, v in streams if i.size]
    if not live:
        return np.zeros(length)
    idx = np.concatenate([i for i, _ in live])
    val = np.concatenate([v for _, v in live])
    return np.bincount(idx, weights=val, minlength=length)
