"""End-to-end verification sweep: ``python -m repro verify``.

Certifies the reproduction's three-way agreement on a structurally
diverse matrix sample:

1. vectorised TileSpMV (all strategies) == scipy ground truth,
2. every strategy's payloads decode to exactly the canonical matrix it
   executes (both DeferredCOO halves),
3. lane-accurate whole-matrix simulation == vectorised path,
4. every baseline (vectorised and lane-accurate) == ground truth,
5. storage invariants (``TileMatrix.validate``).

Prints one row per (matrix, check) and a final verdict; exits nonzero
on any disagreement.  This is the "trust but verify" entry point for a
new user of the reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines import BsrSpMV, Csr5SpMV, MergeSpMV
from repro.baselines.lane_accurate import (
    bsr_lane_accurate_spmv,
    csr5_lane_accurate_spmv,
    merge_lane_accurate_spmv,
)
from repro.core.tilespmv import TileSpMV
from repro.gpu.executor import lane_accurate_spmv
from repro.matrices import (
    banded,
    dense_corner,
    fem_blocks,
    gupta_arrow,
    hypersparse,
    power_law,
    random_uniform,
    stencil_2d,
)

__all__ = ["run_verification", "run"]

SAMPLE = [
    ("random", lambda: random_uniform(250, 250, 6, seed=1)),
    ("banded", lambda: banded(300, half_bandwidth=8, seed=2)),
    ("stencil", lambda: stencil_2d(20, points=9, seed=3)),
    ("fem", lambda: fem_blocks(100, block=3, avg_degree=10, seed=4)),
    ("graph", lambda: power_law(600, avg_degree=4, seed=5)),
    ("hypersparse", lambda: hypersparse(700, nnz=80, seed=6)),
    ("arrow", lambda: gupta_arrow(250, border=20, seed=7)),
    ("dense-corner", lambda: dense_corner(200, corner_frac=0.4, seed=8)),
]

TOL = dict(rtol=1e-10, atol=1e-12)


def _agree(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a, b, **TOL))


def _validates(obj, *args) -> bool:
    try:
        obj.validate(*args)
    except AssertionError:
        return False
    return True


def run_verification(seed: int = 0) -> tuple[list, bool]:
    """Run all checks; returns (rows, all_passed)."""
    rng = np.random.default_rng(seed)
    rows = []
    ok_all = True

    def record(matrix_name: str, check: str, passed: bool) -> None:
        nonlocal ok_all
        ok_all &= passed
        rows.append((matrix_name, check, "PASS" if passed else "FAIL"))

    for name, build in SAMPLE:
        mat = build()
        x = rng.standard_normal(mat.shape[1])
        ref = mat @ x
        for method in ("csr", "adpt", "deferred_coo", "auto"):
            engine = TileSpMV(mat, method=method)
            record(name, f"TileSpMV_{method} == scipy", _agree(engine.spmv(x), ref))
            record(name, f"TileSpMV_{method} payload round-trip == canonical", _validates(engine))
        adpt = TileSpMV(mat, method="adpt")
        record(
            name,
            "lane-accurate == vectorised",
            _agree(lane_accurate_spmv(adpt.tiled, adpt.operand.data, x), adpt.spmv(x)),
        )
        record(name, "storage invariants", _validates(adpt.tiled, adpt.operand))
        merge = MergeSpMV(mat)
        csr5 = Csr5SpMV(mat)
        bsr = BsrSpMV(mat)
        record(name, "Merge == scipy", _agree(merge.spmv(x), ref))
        record(name, "CSR5 == scipy", _agree(csr5.spmv(x), ref))
        record(name, "BSR == scipy", _agree(bsr.spmv(x), ref))
        record(name, "Merge interpreter", _agree(merge_lane_accurate_spmv(merge, x), ref))
        record(name, "CSR5 interpreter", _agree(csr5_lane_accurate_spmv(csr5, x), ref))
        record(name, "BSR interpreter", _agree(bsr_lane_accurate_spmv(bsr, x), ref))
    return rows, ok_all


def run(scale: str = "small") -> str:
    """Render the verification table (scale accepted for CLI uniformity)."""
    rows, ok = run_verification()
    table = format_table(["Matrix", "Check", "Result"], rows, title="Verification sweep")
    verdict = (
        f"\n{sum(1 for r in rows if r[2] == 'PASS')}/{len(rows)} checks passed — "
        + ("ALL GOOD" if ok else "FAILURES PRESENT")
    )
    return table + verdict
