"""Conjugate-gradient solver driven by TileSpMV.

SpMV inside iterative solvers is the paper's headline motivation; this
example solves a 2D Poisson problem with the library's unpreconditioned
CG (:func:`repro.apps.conjugate_gradient`), whose only matrix operation
is ``TileSpMV.spmv``, and reports the modelled GPU time an A100 would
spend in SpMV across the solve.

Run:  python examples/cg_solver.py
"""

import numpy as np
import scipy.sparse as sp

from repro import A100, TileSpMV
from repro.apps import conjugate_gradient
from repro.matrices import stencil_2d


def main() -> None:
    grid = 96
    # -Laplacian is negative definite with our positive off-diagonals;
    # build an SPD operator as (D + A) with a dominant diagonal instead.
    a = stencil_2d(grid, points=5, seed=3)
    a = a + a.T  # symmetrise values
    diag = np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0
    a_spd = sp.diags(diag) - a * 0.5
    a_spd = a_spd.tocsr()

    engine = TileSpMV(a_spd, method="adpt")
    rng = np.random.default_rng(1)
    x_true = rng.standard_normal(a_spd.shape[0])
    b = engine.spmv(x_true)

    res = conjugate_gradient(engine, b, tol=1e-8, max_iter=2000)
    x, iters, calls = res.x, res.iterations, res.spmv_calls
    err = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    print(f"grid {grid}x{grid} -> n={a_spd.shape[0]}, nnz={a_spd.nnz}")
    print(f"CG converged in {iters} iterations ({calls} SpMV calls), rel err {err:.2e}")

    t_spmv = engine.predicted_time(A100)
    print(
        f"modelled A100 SpMV time {t_spmv * 1e6:.1f} us/call -> "
        f"{calls * t_spmv * 1e3:.2f} ms of modelled SpMV across the solve"
    )


if __name__ == "__main__":
    main()
