"""The seven warp-level tile SpMV kernels.

Each format has two implementations:

* :mod:`repro.core.kernels.lane_accurate` — the paper's Algorithms 2-4
  (and the dense-family kernels of Fig. 4) written against the 32-lane
  warp interpreter in :mod:`repro.gpu.warp`.  One tile per call; used as
  the correctness oracle and as executable documentation of the CUDA
  kernels.

* :mod:`repro.core.kernels.costs` — vectorised cost accounting over all
  tiles of a format at once: per-tile warp cycles, instruction totals,
  raw ``x``-gather sectors, and atomic behaviour.  These are the numbers
  the scheduler aggregates into :class:`repro.gpu.costmodel.KernelStats`.

The numeric SpMV itself is performed by the CSR operand the
:class:`repro.core.storage.TileMatrix` decodes from the payloads at
build time (the inspector-executor pattern: the format arrays are the
stored truth, the operand is the 'compiled kernel').
"""

from repro.core.kernels.params import KernelCostParams
from repro.core.kernels.costs import (
    TileKernelCost,
    coo_costs,
    csr_costs,
    dns_costs,
    dnscol_costs,
    dnsrow_costs,
    ell_costs,
    hyb_costs,
    costs_for_format,
)

__all__ = [
    "KernelCostParams",
    "TileKernelCost",
    "csr_costs",
    "coo_costs",
    "ell_costs",
    "hyb_costs",
    "dns_costs",
    "dnsrow_costs",
    "dnscol_costs",
    "costs_for_format",
]
