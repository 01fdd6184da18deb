"""Application layer: iterative methods driven by TileSpMV.

SpMV's role in sparse iterative solvers and graph analytics is the
paper's opening motivation; this package provides the standard consumers
so the library is usable end-to-end, each generic over any operator with
an ``spmv`` method (a :class:`~repro.core.tilespmv.TileSpMV`, a baseline
engine, or a raw scipy matrix via the adapter).
"""

from repro.apps.graph import (
    connected_component_sizes,
    make_transition,
    pagerank,
    pagerank_step,
    personalized_pagerank,
)
from repro.apps.solvers import (
    BlockSolveResult,
    ScipyOperator,
    SolveResult,
    bicgstab,
    denominator_breakdown,
    block_bicgstab,
    block_conjugate_gradient,
    conjugate_gradient,
    jacobi,
    power_iteration,
)

__all__ = [
    "ScipyOperator",
    "SolveResult",
    "BlockSolveResult",
    "conjugate_gradient",
    "bicgstab",
    "block_conjugate_gradient",
    "block_bicgstab",
    "jacobi",
    "power_iteration",
    "denominator_breakdown",
    "pagerank",
    "pagerank_step",
    "personalized_pagerank",
    "make_transition",
    "connected_component_sizes",
]
