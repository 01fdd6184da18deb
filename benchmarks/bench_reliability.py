"""Reliability layer perf + detection benchmark.

Quantifies what the protection costs and proves what it buys, per
matrix:

* modelled verification overhead: ``ReliableSpMV.run_cost`` vs the bare
  engine, for one SpMV and a k=32 SpMM (the checksum is k-independent,
  so amortisation should push the relative overhead down),
* wall-time overhead of the verified numeric path at k = 1, 3 and 8:
  the median of alternated protected and bare calls (one product each),
* canonicalization gate cost (strict inspection of a clean matrix) vs
  the ``trust`` fast path,
* a detection drill: a seeded fault-injection campaign per matrix; the
  run fails unless every injected corruption is detected AND the
  recovered product matches scipy to 1e-12.

Results land in a JSON file (default ``BENCH_reliability.json``) so CI
can archive them.  ``--quick`` uses two small synthetic matrices and is
the CI smoke; the full run sweeps the representative suite.  Exits
non-zero if any corruption goes undetected, any recovery is wrong, or
amortisation fails (the k=32 SpMM overhead must drop below the SpMV
overhead on every matrix — the checksum vector is k-independent).

    PYTHONPATH=src python benchmarks/bench_reliability.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.plancache import PlanCache
from repro.core.tilespmv import TileSpMV
from repro.gpu.device import A100, TITAN_RTX
from repro.gpu.faults import FaultPlan, fault_injection
from repro.reliability.reliable import ReliableSpMV
from repro.reliability.validation import canonicalize_csr

DETECTION_SEEDS = (0, 1, 2)
WALL_WIDTHS = (1, 3, 8)
WALL_CALLS = 21  # per engine and width, alternated with the other engine's


def wall_overhead(bare, protected, k: int, rng) -> float:
    """Median protected wall time over median bare wall time, minus one,
    for a k-column product (``spmv`` at k = 1).  The two engines' calls
    alternate, and which runs first alternates too, so host drift lands
    on both sides alike."""
    n = bare.shape[1]
    x = rng.standard_normal(n) if k == 1 else rng.standard_normal((n, k))
    runs = (bare.spmv, protected.spmv) if k == 1 else (bare.spmm, protected.spmm)
    walls = ([], [])
    for call in range(WALL_CALLS + 1):  # call 0 warms both
        for side in ((0, 1) if call % 2 else (1, 0)):
            t0 = time.perf_counter()
            runs[side](x)
            if call:
                walls[side].append(time.perf_counter() - t0)
    return float(np.median(walls[1]) / np.median(walls[0]) - 1.0)


def _matrices(quick: bool):
    if quick:
        from repro.matrices import generators as g

        return [
            ("fem_quick", g.fem_blocks(600, block=3, avg_degree=12, seed=7)),
            ("powerlaw_quick", g.power_law(1500, avg_degree=8, seed=8)),
        ]
    from repro.matrices.representative import representative_suite

    return [(rec.name, rec.matrix) for rec in representative_suite()]


def bench_matrix(name, matrix, device) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])
    ref = matrix @ x

    # Canonicalization gate: strict inspection vs the trust fast path.
    t0 = time.perf_counter()
    canonicalize_csr(matrix, "strict")
    strict_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    canonicalize_csr(matrix, "trust")
    trust_s = time.perf_counter() - t0

    protected = ReliableSpMV(matrix, method="adpt", plan_cache=PlanCache())
    bare = TileSpMV(matrix, method="adpt", validation="trust")

    spmv_bare = bare.run_cost().time(device)
    spmv_prot = protected.run_cost().time(device)
    spmm_bare = bare.spmm_cost(32).time(device)
    spmm_prot = protected.spmm_cost(32).time(device)

    # Wall time of the verified numeric path, per width.
    wall = {str(k): wall_overhead(bare, protected, k, rng) for k in WALL_WIDTHS}

    # Detection drill: one transient corruption per seed, every one must
    # be detected and recovered from.
    detected = 0
    recovered = 0
    for seed in DETECTION_SEEDS:
        drill = ReliableSpMV(matrix, method="adpt", plan_cache=PlanCache())
        with fault_injection(FaultPlan(seed=seed)) as inj:
            y = drill.spmv(x)
        if inj.injected and drill.counters["detected"]:
            detected += 1
        if np.allclose(y, ref, rtol=1e-12, atol=1e-12):
            recovered += 1

    return {
        "matrix": name,
        "m": matrix.shape[0],
        "n": matrix.shape[1],
        "nnz": int(matrix.nnz),
        "strict_gate_seconds": strict_s,
        "trust_gate_seconds": trust_s,
        "spmv_model_overhead": spmv_prot / spmv_bare - 1.0,
        "spmm32_model_overhead": spmm_prot / spmm_bare - 1.0,
        "wall_overhead": wall,
        "campaigns": len(DETECTION_SEEDS),
        "detected": detected,
        "recovered": recovered,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small synthetic set (CI smoke)")
    parser.add_argument("--out", default="BENCH_reliability.json", help="JSON output path")
    parser.add_argument("--device", default="a100", choices=("a100", "titanrtx"))
    args = parser.parse_args(argv)
    device = {"a100": A100, "titanrtx": TITAN_RTX}[args.device]

    rows = []
    for name, matrix in _matrices(args.quick):
        row = bench_matrix(name, matrix, device)
        rows.append(row)
        print(
            f"{name:18s} verify overhead: spmv {row['spmv_model_overhead'] * 100:6.2f}%  "
            f"spmm32 {row['spmm32_model_overhead'] * 100:6.2f}% (model)  "
            f"wall k=1/3/8 "
            + "/".join(f"{v * 100:.0f}%" for v in row["wall_overhead"].values())
            + "  "
            f"faults {row['detected']}/{row['campaigns']} detected, "
            f"{row['recovered']}/{row['campaigns']} recovered"
        )

    all_caught = all(
        r["detected"] == r["campaigns"] and r["recovered"] == r["campaigns"]
        for r in rows
    )
    amortised = all(
        r["spmm32_model_overhead"] < r["spmv_model_overhead"] for r in rows
    )
    min_overhead = min(r["spmv_model_overhead"] for r in rows)
    ok = all_caught and amortised
    payload = {
        "device": device.name,
        "quick": args.quick,
        "seeds": list(DETECTION_SEEDS),
        "all_faults_detected": all_caught,
        "amortisation_holds": amortised,
        "min_spmv_model_overhead": min_overhead,
        "pass": ok,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ndetection {'100%' if all_caught else 'INCOMPLETE'}; "
        f"amortisation {'holds' if amortised else 'BROKEN'}; "
        f"min modelled spmv overhead {min_overhead * 100:.2f}% -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
