"""Selection-tuner tests."""

import numpy as np
import pytest

from repro.core.selection import SelectionConfig
from repro.core.tuner import DEFAULT_GRID, greedy_per_tile, tune_selection
from repro.gpu.device import A100
from repro.matrices import fem_blocks, hypersparse, power_law, random_uniform
from repro.reliability.validation import canonicalize_csr


class TestTuneSelection:
    def test_never_worse_than_default(self):
        for a in (
            random_uniform(400, 400, 5, seed=1),
            power_law(1500, avg_degree=4, seed=2),
            fem_blocks(150, block=3, seed=3),
        ):
            result = tune_selection(a)
            assert result.predicted_time <= result.baseline_time
            assert result.improvement >= 1.0

    def test_returns_valid_config(self):
        result = tune_selection(random_uniform(300, 300, 4, seed=4))
        assert isinstance(result.config, SelectionConfig)
        assert result.config.te <= result.config.th

    def test_custom_grid_respected(self):
        grid = {"te": (0.2,), "th": (1.0,), "coo_nnz_max": (12,), "dns_nnz_min": (128,)}
        result = tune_selection(random_uniform(300, 300, 4, seed=5), grid=grid)
        assert result.config == SelectionConfig()
        assert result.improvement == pytest.approx(1.0)

    def test_tuned_matrix_still_correct(self, rng):
        a = power_law(800, avg_degree=4, seed=6)
        result = tune_selection(a)
        from repro import TileSpMV

        engine = TileSpMV(a, method="adpt", selection=result.config)
        x = rng.standard_normal(a.shape[1])
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-10, atol=1e-12)


class TestGreedyPerTile:
    def test_numerically_exact(self, rng):
        a = random_uniform(300, 300, 6, seed=7)
        tm = greedy_per_tile(a)
        c = canonicalize_csr(a)[0]
        x = rng.standard_normal(300)
        np.testing.assert_allclose(tm.to_csr(c.data) @ x, a @ x, rtol=1e-10, atol=1e-12)
        tm.validate(c)

    def test_prefers_dns_for_dense_tiles(self):
        import scipy.sparse as sp

        a = sp.csr_matrix(np.ones((32, 32)))
        tm = greedy_per_tile(a)
        from repro.formats import FormatID

        assert all(f == FormatID.DNS for f in tm.formats)

    def test_prefers_coo_for_singleton_tiles(self):
        a = hypersparse(600, nnz=40, seed=8)
        tm = greedy_per_tile(a)
        from repro.formats import FormatID

        hist = tm.format_histogram()
        assert hist[FormatID.COO]["tiles"] > 0.8 * tm.n_tiles

    def test_greedy_at_least_close_to_flowchart(self):
        """The idealised bound should not lose badly to the flowchart."""
        from repro import TileSpMV

        for a in (power_law(1500, avg_degree=4, seed=9), fem_blocks(120, block=3, seed=10)):
            t_flow = TileSpMV(a, method="adpt").predicted_time(A100)
            t_greedy = greedy_per_tile(a).run_cost().time(A100)
            assert t_greedy <= t_flow * 1.1


class TestDegenerateInputs:
    def test_zero_nnz_matrix_short_circuits(self):
        import scipy.sparse as sp

        result = tune_selection(sp.csr_matrix((64, 64)))
        assert result.predicted_time == 0.0
        assert result.baseline_time == 0.0
        assert result.improvement == 1.0  # neutral, not 0/0
        assert isinstance(result.config, SelectionConfig)

    def test_improvement_inf_safe(self):
        from repro.core.tuner import TuneResult

        neutral = TuneResult(SelectionConfig(), predicted_time=0.0, baseline_time=0.0)
        assert neutral.improvement == 1.0
        free = TuneResult(SelectionConfig(), predicted_time=0.0, baseline_time=1e-6)
        assert free.improvement == np.inf
        normal = TuneResult(SelectionConfig(), predicted_time=1e-6, baseline_time=2e-6)
        assert normal.improvement == pytest.approx(2.0)

    def test_greedy_scores_shape_and_finiteness(self):
        from repro.core.tiling import tile_decompose
        from repro.core.tuner import _UNIVERSAL, greedy_scores

        a = random_uniform(120, 120, nnz_per_row=4, seed=3)
        ts = tile_decompose(a, tile=16)
        scores = greedy_scores(ts)
        assert scores.shape == (len(_UNIVERSAL), ts.n_tiles)
        assert np.isfinite(scores).all()
        assert (scores > 0).all()
