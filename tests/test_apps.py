"""Application-layer tests: solvers and graph analytics over TileSpMV."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import TileSpMV
from repro.apps import (
    ScipyOperator,
    bicgstab,
    conjugate_gradient,
    connected_component_sizes,
    jacobi,
    pagerank,
    power_iteration,
)
from repro.apps.graph import make_transition
from repro.matrices import power_law, stencil_2d


def spd_matrix(grid=24, seed=0):
    """A diagonally-dominant SPD operator from a 2D stencil."""
    a = stencil_2d(grid, points=5, seed=seed)
    a = a + a.T
    diag = np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0
    return (sp.diags(diag) - 0.5 * a).tocsr()


def general_matrix(n=300, seed=1):
    """A well-conditioned nonsymmetric operator."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.02, random_state=seed, format="csr")
    return (a + sp.diags(np.abs(a).sum(axis=1).A.ravel() + 1.0)).tocsr()


class TestConjugateGradient:
    def test_solves_spd_system(self):
        a = spd_matrix()
        engine = TileSpMV(a, method="adpt")
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(a.shape[0])
        result = conjugate_gradient(engine, engine.spmv(x_true), tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-6, atol=1e-8)

    def test_engines_interchangeable(self):
        a = spd_matrix()
        b = np.ones(a.shape[0])
        r_tile = conjugate_gradient(TileSpMV(a), b)
        r_scipy = conjugate_gradient(ScipyOperator(a), b)
        assert r_tile.iterations == r_scipy.iterations
        np.testing.assert_allclose(r_tile.x, r_scipy.x, rtol=1e-8)

    def test_warm_start_converges_faster(self):
        a = spd_matrix()
        engine = ScipyOperator(a)
        b = np.ones(a.shape[0])
        cold = conjugate_gradient(engine, b, tol=1e-10)
        warm = conjugate_gradient(engine, b, tol=1e-10, x0=cold.x)
        assert warm.iterations <= 2

    def test_reports_spmv_calls(self):
        a = spd_matrix(12)
        r = conjugate_gradient(ScipyOperator(a), np.ones(a.shape[0]))
        assert r.spmv_calls == r.iterations + 1

    def test_nonconvergence_flagged(self):
        a = spd_matrix(12)
        r = conjugate_gradient(ScipyOperator(a), np.ones(a.shape[0]), max_iter=1)
        assert not r.converged


class TestBicgstab:
    def test_solves_nonsymmetric_system(self):
        a = general_matrix()
        engine = TileSpMV(a, method="adpt")
        rng = np.random.default_rng(2)
        x_true = rng.standard_normal(a.shape[0])
        result = bicgstab(engine, engine.spmv(x_true), tol=1e-12, max_iter=2000)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-5, atol=1e-7)


class TestJacobi:
    def test_solves_diagonally_dominant(self):
        a = spd_matrix(16)
        engine = TileSpMV(a)
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(a.shape[0])
        result = jacobi(engine, engine.spmv(x_true), a.diagonal(), tol=1e-12, max_iter=5000)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, rtol=1e-5, atol=1e-7)

    def test_rejects_zero_diagonal(self):
        a = spd_matrix(8)
        d = a.diagonal()
        d[0] = 0.0
        with pytest.raises(ValueError):
            jacobi(ScipyOperator(a), np.ones(a.shape[0]), d)


class TestPowerIteration:
    def test_finds_dominant_eigenvalue(self):
        # Symmetric matrix with known spectrum via diagonal + rank checks.
        a = spd_matrix(14)
        lam, v, _ = power_iteration(ScipyOperator(a), a.shape[0], seed=4)
        from scipy.sparse.linalg import eigsh

        lam_ref = float(eigsh(a, k=1, which="LA", return_eigenvectors=False)[0])
        assert lam == pytest.approx(lam_ref, rel=1e-6)
        np.testing.assert_allclose(np.abs(a @ v), np.abs(lam * v), rtol=1e-4, atol=1e-6)

    def test_one_product_per_iteration(self):
        """``A · v_new`` serves the Rayleigh quotient and the next
        iteration; the result is the two-product recurrence's, bit for bit."""
        a = sp.diags([1.0, 2.0, 5.0, 3.0]).tocsr()
        calls = []

        class Counting:
            def spmv(self, x):
                calls.append(1)
                return a @ x

        lam, v, it = power_iteration(Counting(), 4, seed=0)
        assert (it, len(calls)) == (24, 25)
        # The recurrence spelled with two products per iteration.
        from repro.util.vecops import dot, norm

        rng = np.random.default_rng(0)
        u = rng.standard_normal(4)
        u /= norm(u)
        mu = 0.0
        for k in range(1, 25):
            w = a @ u
            u_new = w / norm(w)
            mu_new = dot(u_new, a @ u_new)
            if abs(mu_new - mu) <= 1e-12 * max(abs(mu_new), 1.0):
                break
            u, mu = u_new, mu_new
        assert (lam, k) == (mu_new, it)
        assert np.array_equal(v, u_new)


class TestPagerank:
    def test_sums_to_one_and_matches_scipy_path(self):
        adj = power_law(2000, avg_degree=5, seed=5)
        transition, dangling = make_transition(adj)
        r_tile, _ = pagerank(TileSpMV(transition, method="deferred_coo"), dangling)
        r_ref, _ = pagerank(ScipyOperator(transition), dangling)
        assert r_tile.sum() == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(r_tile, r_ref, atol=1e-12)


class TestComponents:
    def test_two_known_components(self):
        blocks = sp.block_diag([
            sp.csr_matrix(np.ones((4, 4))),
            sp.csr_matrix(np.ones((7, 7))),
        ]).tocsr()
        sizes = connected_component_sizes(ScipyOperator(blocks), 11)
        assert sizes.tolist() == [7, 4]

    def test_matches_scipy_components(self):
        a = power_law(300, avg_degree=3, seed=6)
        sym = ((a + a.T) > 0).astype(np.float64).tocsr()
        sizes = connected_component_sizes(TileSpMV(sym), 300)
        from scipy.sparse.csgraph import connected_components

        n_ref, labels = connected_components(sym, directed=False)
        ref_sizes = np.sort(np.bincount(labels))[::-1]
        assert sizes.tolist() == ref_sizes.tolist()


class TestSpmm:
    def test_matches_column_spmvs(self, zoo_matrix, rng):
        engine = TileSpMV(zoo_matrix, method="adpt")
        x = rng.standard_normal((zoo_matrix.shape[1], 4))
        got = engine.spmm(x)
        want = np.column_stack([zoo_matrix @ x[:, j] for j in range(4)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_deferred_spmm(self, rng):
        a = power_law(500, avg_degree=4, seed=7)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal((500, 3))
        np.testing.assert_allclose(engine.spmm(x), a @ x, rtol=1e-10, atol=1e-12)

    def test_rejects_wrong_shape(self, zoo_matrix):
        engine = TileSpMV(zoo_matrix)
        with pytest.raises(ValueError):
            engine.spmm(np.zeros((zoo_matrix.shape[1] + 1, 2)))


class TestBlockSolvers:
    def test_block_cg_matches_single_rhs(self):
        from repro.apps import block_conjugate_gradient

        a = spd_matrix()
        engine = TileSpMV(a, method="adpt")
        rng = np.random.default_rng(2)
        b = rng.standard_normal((a.shape[0], 5))
        res = block_conjugate_gradient(engine, b, tol=1e-11)
        assert res.converged.all()
        assert res.spmm_calls < 5 * res.iterations.max()  # batched, not k loops
        for j in range(5):
            single = conjugate_gradient(engine, b[:, j], tol=1e-11)
            np.testing.assert_allclose(res.x[:, j], single.x, rtol=1e-8, atol=1e-10)
            assert res.iterations[j] == single.iterations

    def test_block_bicgstab_solves_all_columns(self):
        from repro.apps import block_bicgstab

        a = general_matrix()
        engine = TileSpMV(a, method="adpt")
        rng = np.random.default_rng(3)
        b = rng.standard_normal((a.shape[0], 4))
        res = block_bicgstab(engine, b, tol=1e-11, max_iter=500)
        assert res.converged.all()
        np.testing.assert_allclose(a @ res.x, b, rtol=1e-7, atol=1e-8)

    def test_block_solvers_reject_1d_rhs(self):
        from repro.apps import block_bicgstab, block_conjugate_gradient

        a = spd_matrix()
        op = ScipyOperator(a)
        with pytest.raises(ValueError):
            block_conjugate_gradient(op, np.ones(a.shape[0]))
        with pytest.raises(ValueError):
            block_bicgstab(op, np.ones(a.shape[0]))


class TestPersonalizedPagerank:
    def test_uniform_seeds_reproduce_global_pagerank(self):
        from repro.apps import personalized_pagerank

        adj = power_law(400, avg_degree=5, seed=4)
        adj.data[:] = 1.0
        transition, dangling = make_transition(adj)
        engine = TileSpMV(transition, method="adpt")
        n = transition.shape[0]
        seeds = np.full((n, 3), 1.0 / n)
        ranks, iters = personalized_pagerank(engine, dangling, seeds, tol=1e-12)
        ref, _ = pagerank(engine, dangling, tol=1e-12)
        for j in range(3):
            np.testing.assert_allclose(ranks[:, j], ref, rtol=1e-8, atol=1e-12)

    def test_one_hot_seeds_localise_mass(self):
        from repro.apps import personalized_pagerank

        adj = power_law(300, avg_degree=5, seed=5)
        adj.data[:] = 1.0
        transition, dangling = make_transition(adj)
        engine = TileSpMV(transition, method="adpt")
        n = transition.shape[0]
        seeds = np.zeros((n, 2))
        seeds[0, 0] = 1.0
        seeds[7, 1] = 1.0
        ranks, iters = personalized_pagerank(engine, dangling, seeds)
        assert ranks.shape == (n, 2) and (iters >= 1).all()
        # The restart node holds at least the teleport mass of its column.
        assert ranks[0, 0] >= 0.15 - 1e-9
        assert ranks[7, 1] >= 0.15 - 1e-9

    def test_rejects_non_stochastic_seeds(self):
        from repro.apps import personalized_pagerank

        adj = power_law(100, avg_degree=4, seed=6)
        transition, dangling = make_transition(adj)
        op = ScipyOperator(transition)
        with pytest.raises(ValueError):
            personalized_pagerank(op, dangling, np.ones((100, 2)))
        with pytest.raises(ValueError):
            personalized_pagerank(op, dangling, np.ones(100))


class TestBreakdownGuards:
    """Near-zero denominators return structured breakdowns, never NaN."""

    def test_cg_pap_breakdown_on_indefinite_operator(self):
        # p.Ap = 0 on the very first iteration: diag(1,-1) with b=[1,1]
        a = sp.csr_matrix(sp.diags([1.0, -1.0]))
        res = conjugate_gradient(ScipyOperator(a), np.array([1.0, 1.0]))
        assert res.breakdown
        assert res.breakdown_reason == "pAp"
        assert not res.converged
        assert np.isfinite(res.x).all()

    def test_cg_clean_solve_reports_no_breakdown(self):
        a = spd_matrix(grid=12)
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        res = conjugate_gradient(ScipyOperator(a), b, tol=1e-10)
        assert res.converged and not res.breakdown
        assert res.breakdown_reason == ""

    def test_bicgstab_rhat_v_breakdown(self):
        # rotation operator: v = A r0 is orthogonal to r_hat = r0
        a = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        res = bicgstab(ScipyOperator(a), np.array([1.0, 0.0]))
        assert res.breakdown
        assert res.breakdown_reason == "rhat_v"
        assert np.isfinite(res.x).all()

    def test_bicgstab_singular_diagonal(self):
        a = sp.csr_matrix(sp.diags([1.0, 0.0]))
        res = bicgstab(ScipyOperator(a), np.array([0.0, 1.0]))
        assert res.breakdown
        assert np.isfinite(res.x).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_singular_operators_never_produce_nan(self, seed):
        # rank-deficient PSD (CG) and zero-row (BiCGSTAB) operators
        rng = np.random.default_rng(seed)
        n, k = 24, 6
        low = rng.standard_normal((n, k))
        psd = sp.csr_matrix(low @ low.T)
        b = rng.standard_normal(n)
        res = conjugate_gradient(ScipyOperator(psd), b, max_iter=200)
        assert np.isfinite(res.x).all()
        assert res.converged or res.breakdown or res.iterations == 200

        dense = rng.standard_normal((n, n))
        dense[rng.integers(n)] = 0.0
        res2 = bicgstab(ScipyOperator(sp.csr_matrix(dense)), b, max_iter=200)
        assert np.isfinite(res2.x).all()
        assert res2.converged or res2.breakdown or res2.iterations == 200

    def test_block_cg_flags_broken_columns_individually(self):
        from repro.apps import block_conjugate_gradient

        # column 0 solves an SPD system; column 1 would break down alone,
        # but lives in the same block solve
        a = sp.csr_matrix(sp.diags([1.0, -1.0, 2.0, 3.0]))
        b = np.zeros((4, 2))
        b[:, 0] = [1.0, 0.0, 1.0, 1.0]
        b[:, 1] = [1.0, 1.0, 0.0, 0.0]
        res = block_conjugate_gradient(ScipyOperator(a), b, max_iter=50)
        assert res.breakdown is not None
        assert np.isfinite(res.x).all()

    def test_block_bicgstab_breakdown_array(self):
        from repro.apps import block_bicgstab

        a = sp.csr_matrix(sp.diags([1.0, 0.0, 2.0]))
        b = np.zeros((3, 2))
        b[:, 0] = [1.0, 0.0, 1.0]  # solvable
        b[:, 1] = [0.0, 1.0, 0.0]  # hits the singular mode
        res = block_bicgstab(ScipyOperator(a), b, max_iter=50)
        assert res.breakdown is not None
        assert np.isfinite(res.x).all()

    def test_denominator_breakdown_helper(self):
        from repro.apps import denominator_breakdown

        assert denominator_breakdown(0.0, 1.0)
        assert denominator_breakdown(np.nan, 1.0)
        assert denominator_breakdown(np.inf, 1.0)
        assert denominator_breakdown(1e-18, 1.0)
        assert not denominator_breakdown(1e-3, 1.0)
        assert not denominator_breakdown(-5.0, 1.0)


def _zero_residual_solve(form, method, a, b, x0):
    """One solve of ``a x = b`` from ``x0`` in the given form; returns
    ``(x, iterations, converged, breakdown)`` as 1-D/scalars."""
    from repro.apps import block_bicgstab, block_conjugate_gradient
    from repro.serving import VerifiedOperator, checkpointed_bicgstab, checkpointed_cg

    if form == "checkpointed":
        solve = checkpointed_cg if method == "cg" else checkpointed_bicgstab
        res = solve(VerifiedOperator(a), b).result
        return res.x, res.iterations, res.converged, res.breakdown
    if form == "block":
        solve = block_conjugate_gradient if method == "cg" else block_bicgstab
        res = solve(ScipyOperator(a), b[:, None], x0=None if x0 is None else x0[:, None])
        return res.x[:, 0], res.iterations[0], res.converged[0], res.breakdown[0]
    solve = conjugate_gradient if method == "cg" else bicgstab
    res = solve(ScipyOperator(a), b, x0=x0)
    return res.x, res.iterations, res.converged, res.breakdown


@pytest.mark.parametrize("method", ["cg", "bicgstab"])
@pytest.mark.parametrize("form, start", [
    ("vector", "zero_b"), ("vector", "exact_x0"), ("block", "zero_b"), ("block", "exact_x0"),
    ("checkpointed", "zero_b"),  # the checkpointed solvers always start from x = 0
])
def test_zero_initial_residual_converges_at_iteration_zero(form, method, start):
    """A start that already meets the tolerance is the answer, in every
    form of both solvers (the vector ones used to report a pAp/rho
    breakdown on it)."""
    a = spd_matrix(grid=8) if method == "cg" else general_matrix(n=60)
    n = a.shape[0]
    if start == "zero_b":
        b, x0 = np.zeros(n), None
    else:
        x0 = np.random.default_rng(4).standard_normal(n)
        b = a @ x0  # x0 is the solution, up to roundoff
    x, iterations, converged, breakdown = _zero_residual_solve(form, method, a, b, x0)
    assert converged and iterations == 0 and not breakdown
    np.testing.assert_array_equal(x, np.zeros(n) if x0 is None else x0)


@pytest.mark.parametrize("n", [50, 200])
def test_block_bicgstab_spends_the_vector_products(n):
    """At k = 1 the block solve runs the vector solve's products: no SpMM
    after every column converged at the half step (n = 200 ends there)."""
    from repro.apps import block_bicgstab

    a = sp.diags([-1.0, 4.0, -2.0], [-1, 0, 1], shape=(n, n), format="csr")
    b = np.random.default_rng(0).standard_normal(n)
    vec = bicgstab(ScipyOperator(a), b)
    blk = block_bicgstab(ScipyOperator(a), b[:, None])
    assert blk.converged[0] and vec.converged
    assert blk.iterations[0] == vec.iterations
    assert blk.spmm_calls == vec.spmv_calls
