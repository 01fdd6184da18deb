"""Multi-GPU partitioning claims (modelled), on the one multi-device model.

The 1D nnz-balanced row split is :func:`repro.dist.partition_rows` and
the modelled step time is :meth:`ShardedSpMV.multi_device_cost`; links
are the device's interconnect fields.  The class names keep the ids of
the partitioner these claims were first written against.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import A100
from repro.core.tilespmv import TileSpMV
from repro.dist import ShardedSpMV, partition_rows
from repro.matrices import banded, power_law, random_uniform

NVLINK = replace(A100, link_bandwidth_gbps=300.0, link_latency_us=5.0)
PCIE4 = replace(A100, link_bandwidth_gbps=16.0, link_latency_us=10.0)


def _cost(a, p):
    with ShardedSpMV(a, shards=p) as engine:
        return engine.multi_device_cost()


def _comm_fraction(mdc, device) -> float:
    t = mdc.time(device)
    return 1.0 - mdc.compute_time(device) / t


class TestRowBlockPartition:
    def test_bounds_cover_rows(self):
        a = random_uniform(200, 200, 5, seed=0)
        bounds = partition_rows(a, 4).bounds
        assert bounds[0] == 0 and bounds[-1] == 200
        assert np.all(np.diff(bounds) >= 0)

    def test_nnz_balanced(self):
        a = power_law(3000, avg_degree=5, seed=1)
        loads = [s.nnz for s in partition_rows(a, 4).shards]
        # Hub rows limit perfection; within 2x of ideal is the contract.
        assert max(loads) < 2 * a.nnz / 4 + max(np.diff(a.tocsr().indptr))

    def test_k1_is_whole_matrix(self):
        a = random_uniform(100, 100, 4, seed=2)
        assert partition_rows(a, 1).bounds.tolist() == [0, 100]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            partition_rows(random_uniform(10, 10, 2, seed=3), 0)


class TestPartitionedSpMV:
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_exact_regardless_of_k(self, k, rng):
        a = random_uniform(300, 300, 6, seed=4)
        x = rng.standard_normal(300)
        with ShardedSpMV(a, shards=k) as engine:
            assert np.array_equal(engine.spmv(x), TileSpMV(a).spmv(x))

    def test_zoo_correctness(self, zoo_matrix, rng):
        x = rng.standard_normal(zoo_matrix.shape[1])
        with ShardedSpMV(zoo_matrix, shards=3) as engine:
            np.testing.assert_allclose(engine.spmv(x), zoo_matrix @ x,
                                       rtol=1e-10, atol=1e-12)

    def test_banded_exchanges_halo_only(self):
        a = banded(4000, half_bandwidth=12, seed=5)
        part = partition_rows(a, 4)
        # Each shard's x window is its own rows plus ~bandwidth on each side.
        assert max(s.x_window_cols - s.rows for s in part.shards) <= 2 * 12 + 2

    def test_graph_exchanges_nearly_everything(self):
        a = power_law(4000, avg_degree=5, seed=6)
        part = partition_rows(a, 4)
        assert max(s.x_window_cols - s.rows for s in part.shards) > 0.3 * 4000

    def test_banded_scales_graph_saturates(self):
        """The classic distributed-SpMV result, reproduced in the model.

        The problem must be large enough that the single-device kernel
        dwarfs the link latency — strong scaling of a 12 us kernel over
        a 5-10 us link is physically hopeless, and the model says so.
        """
        band = banded(300_000, half_bandwidth=16, seed=7)
        graph = power_law(150_000, avg_degree=8, seed=8)
        for a, should_scale in ((band, True), (graph, False)):
            speedup = _cost(a, 1).time(NVLINK) / _cost(a, 4).time(NVLINK)
            if should_scale:
                assert speedup > 2.0, f"banded should scale: {speedup:.2f}"
            else:
                assert speedup < 1.2, f"graph should saturate: {speedup:.2f}"

    def test_faster_link_helps_comm_bound(self):
        mdc = _cost(power_law(30_000, avg_degree=6, seed=9), 4)
        assert mdc.time(NVLINK) < mdc.time(PCIE4)

    def test_communication_fraction_bounds(self):
        a = power_law(10_000, avg_degree=5, seed=10)
        mdc = _cost(a, 4)
        frac = _comm_fraction(mdc, PCIE4)
        assert 0.0 <= frac <= 1.0
        assert _comm_fraction(mdc, NVLINK) <= frac + 1e-9
        assert _comm_fraction(_cost(a, 1), A100) == 0.0
