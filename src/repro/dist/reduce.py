"""Deterministic cross-shard reduction of partial vectors.

Column cuts (and transposed products) make several shards contribute to
the *same* output entries.  For the fixed strategies the sharded engine
never sums per-shard partials: it multiplies per-block CSR operands
assembled from the shards' decode streams, which re-runs the
single-device summation exactly (see :mod:`repro.dist.sharded`).
``auto`` may arbitrate differently per shard, so no such operand exists
and its partial vectors must be summed — and floating-point addition is
not associative: whatever order the combine runs in is baked into the
answer's low bits.

:func:`tree_reduce` pins that order with a **fixed-shape binary tree**
over the partials.  The pairing schedule (:func:`tree_schedule`) is a
pure function of the participant count — i.e. of the partition's grid
shape — and never of thread completion order, so the result is
byte-stable across runs, worker counts, and scheduling jitter.  This is
also what P real devices would execute (pairwise exchanges over
``ceil(log2 P)`` rounds), which is why the multi-device cost model
prices exactly this tree.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tree_schedule", "tree_reduce"]


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

