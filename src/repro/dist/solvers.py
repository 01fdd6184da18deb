"""Iterative solvers over the sharded operator.

The solvers in :mod:`repro.apps.solvers` and :mod:`repro.apps.graph`
only touch their operator through ``.spmv``/``.spmm``, so a
:class:`~repro.dist.sharded.ShardedSpMV` drops in unchanged — these
wrappers just build the sharded engine (with its partition, per-shard
plans and worker pool) and hand it to the generic algorithm.  Every
iteration's SpMV then runs shard-concurrent, which is where a
multi-core host earns wall-clock on long solves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.apps.graph import make_transition, pagerank
from repro.apps.solvers import SolveResult, conjugate_gradient
from repro.dist.sharded import ShardedSpMV

__all__ = ["sharded_conjugate_gradient", "sharded_pagerank"]


def sharded_conjugate_gradient(
    matrix: sp.spmatrix,
    b: np.ndarray,
    shards: int = 2,
    method: str = "adpt",
    grid: tuple[int, int] | str | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
    **engine_kwargs,
) -> SolveResult:
    """CG for SPD systems with every SpMV executed shard-concurrent.

    Because the sharded product is bit-for-bit the single-device one
    (fixed methods) — on 1D row partitions *and* on 2D tile grids
    (``grid=(R, C)`` or ``"auto"``), whose row blocks replay the
    single-device accumulation order — the iterate sequence, and
    therefore the iteration count, is *identical* to the unsharded
    solve, not merely close.
    """
    with ShardedSpMV(
        matrix, shards=shards, method=method, grid=grid, **engine_kwargs
    ) as engine:
        return conjugate_gradient(engine, b, tol=tol, max_iter=max_iter, x0=x0)


def sharded_pagerank(
    adjacency: sp.spmatrix,
    shards: int = 2,
    method: str = "adpt",
    grid: tuple[int, int] | str | None = None,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
    **engine_kwargs,
) -> tuple[np.ndarray, int]:
    """PageRank whose per-step transition product runs shard-concurrent.

    Column-normalises ``adjacency`` (:func:`make_transition`), shards
    the transition operator — by rows, or over a 2D tile grid with
    ``grid=(R, C)``/``"auto"`` (power-law adjacency is exactly the
    scattered structure whose x broadcast the column cuts bound) — and
    power-iterates.  Returns ``(rank, iterations)`` exactly like
    :func:`repro.apps.graph.pagerank`.
    """
    transition, dangling = make_transition(adjacency)
    with ShardedSpMV(
        transition, shards=shards, method=method, grid=grid, **engine_kwargs
    ) as engine:
        return pagerank(engine, dangling, damping=damping, tol=tol, max_iter=max_iter)
