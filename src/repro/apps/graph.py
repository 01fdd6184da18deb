"""Graph analytics on top of SpMV, the GraphBLAS-style consumers the
paper's introduction cites.

PageRank is one damped power-iteration step (:func:`pagerank_step`, the
``step`` of :class:`PageRankState`) under the solvers' driver
(:func:`repro.apps.solvers.run`): on one rank vector (:func:`pagerank`),
on k personalised ones in lockstep (:func:`personalized_pagerank`), and
checkpointed (:func:`repro.serving.checkpoint.checkpointed_pagerank`).
Reachability is repeated SpMV over the boolean semiring in float64.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from repro.apps.solvers import BlockLanes, Lanes, product, run
from repro.util.vecops import column_sums, masked_sums

__all__ = [
    "pagerank",
    "pagerank_step",
    "personalized_pagerank",
    "make_transition",
    "connected_component_sizes",
]


def pagerank_step(engine, rank: np.ndarray, dangling: np.ndarray, seeds: np.ndarray,
                  damping: float) -> np.ndarray:
    """One damped power-iteration step: ``d·(P r + mass/n) + (1-d)·s``.

    ``rank`` is a vector or an (n, k) block of them, ``seeds`` the
    restart distribution (uniform for global PageRank) and ``mass`` the
    rank held by ``dangling`` nodes, summed per column.
    """
    spread = product(engine, rank) + masked_sums(dangling, rank) / dangling.size
    return damping * spread + (1.0 - damping) * seeds


class PageRankState(namedtuple("PageRankState", "rank seeds dangling damping")):
    """PageRank: the rank vector(s), and the fixed restarts, dangling mask
    and damping.  A step converges when it moves the rank by at most
    ``tol`` (1-norm); the watchdog has no baseline before a first step."""

    power = 2
    residual = watch = np.inf
    x = property(lambda self: self.rank)

    def step(self, lanes: Lanes, it: int) -> PageRankState:
        new = lanes.corrupt(
            pagerank_step(lanes, self.rank, self.dangling, self.seeds, self.damping))
        delta = column_sums(np.abs(new - self.rank))
        lanes.screen(delta, new)
        rank = lanes.keep(new, self.rank)
        lanes.converge(delta, lambda: new)
        return self._replace(rank=rank)


def pagerank(engine, dangling: np.ndarray, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 200) -> tuple[np.ndarray, int]:
    """Power-iteration PageRank: ``engine.spmv`` applies the column-normalised
    adjacency, and the rank of ``dangling`` nodes (no out-links) is spread
    uniformly each step."""
    n = dangling.size
    state = PageRankState(np.full(n, 1.0 / n), np.full(n, 1.0 / n), dangling, damping)
    out = run(Lanes(engine, tol), state, max_iter)
    return out.x, out.iterations


def personalized_pagerank(engine, dangling: np.ndarray, seeds: np.ndarray, damping: float = 0.85,
                          tol: float = 1e-10, max_iter: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """k personalised PageRank vectors in one batched power iteration.

    ``seeds`` is an ``(n, k)`` column-stochastic personalisation matrix
    (each column a restart distribution, e.g. one-hot per query node).
    One ``engine.spmm`` per step streams the matrix once for all k
    queries; converged columns are frozen.  Returns ``(ranks,
    iterations)`` of shapes ``(n, k)`` and ``(k,)``.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    if seeds.ndim != 2 or seeds.shape[0] != dangling.size:
        raise ValueError(f"seeds must have shape ({dangling.size}, k)")
    if not np.allclose(seeds.sum(axis=0), 1.0):
        raise ValueError("each seed column must sum to 1")
    state = PageRankState(seeds.copy(), seeds, dangling, damping)
    out = run(BlockLanes(engine, tol), state, max_iter)
    return out.x, out.iterations


def make_transition(adjacency: sp.spmatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Column-normalise an adjacency matrix; returns (P, dangling mask)."""
    adj = adjacency.tocsr()
    outdeg = np.asarray(adj.sum(axis=0)).ravel()
    scale = np.where(outdeg > 0, 1.0 / np.maximum(outdeg, 1e-300), 0.0)
    transition = (adj @ sp.diags(scale)).tocsr()
    return transition, outdeg == 0


def connected_component_sizes(engine, n: int, max_iter: int | None = None) -> np.ndarray:
    """Component sizes of an undirected graph by SpMV frontier expansion.

    Label propagation: each step every vertex takes the max label among
    its neighbours (emulated with repeated SpMV-driven reachability —
    here implemented as BFS frontier sweeps, one SpMV per level, which
    is exactly how GraphBLAS expresses BFS).
    """
    visited = np.zeros(n, dtype=bool)
    sizes = []
    max_iter = max_iter or n
    while not visited.all():
        seed = int(np.flatnonzero(~visited)[0])
        frontier = np.zeros(n)
        frontier[seed] = 1.0
        component = np.zeros(n, dtype=bool)
        component[seed] = True
        for _ in range(max_iter):
            reached = engine.spmv(frontier) > 0
            new = reached & ~component
            if not new.any():
                break
            component |= new
            frontier = np.zeros(n)
            frontier[new] = 1.0
        visited |= component
        sizes.append(int(component.sum()))
    return np.sort(np.array(sizes))[::-1]
