"""PageRank on a scale-free graph via TileSpMV_DeferredCOO.

Graph matrices are the COO-tile-dominated class that motivates the
paper's DeferredCOO strategy; this example runs the library's
power-iteration PageRank (:func:`repro.apps.pagerank`) with both ADPT
and DeferredCOO engines, checks they agree, and compares the modelled
GPU time per iteration.

Run:  python examples/pagerank.py
"""

import numpy as np

from repro import A100, TileSpMV
from repro.apps import make_transition, pagerank
from repro.matrices import power_law


def main() -> None:
    n = 60_000
    adj = power_law(n, avg_degree=8, seed=7)
    # Column-normalise: P[i, j] = A[i, j] / outdeg(j); dangling columns stay 0.
    transition, dangling = make_transition(adj)
    results = {}
    for method in ("adpt", "deferred_coo"):
        engine = TileSpMV(transition, method=method)
        rank, iters = pagerank(engine, dangling)
        results[method] = rank
        print(
            f"{method:13s}: {iters} iterations, modelled A100 SpMV "
            f"{engine.predicted_time(A100) * 1e6:8.1f} us/iter "
            f"({engine.gflops(A100):6.1f} GFlops)"
        )
    agree = np.allclose(results["adpt"], results["deferred_coo"], atol=1e-12)
    print(f"ADPT and DeferredCOO ranks agree: {agree}")
    top = np.argsort(results["adpt"])[-5:][::-1]
    print("top-5 nodes:", ", ".join(f"{i} ({results['adpt'][i]:.2e})" for i in top))


if __name__ == "__main__":
    main()
