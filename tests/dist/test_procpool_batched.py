"""Batched shared-memory round trips on the process backend.

The coalescing payoff on the process backend is round-trip economy: a
k-column ``spmm`` must cross the pipe **once** per shard per batch —
one command, one shared-memory block of k columns back — instead of k
single-vector replays.
"""

import numpy as np

from repro.core.tilespmv import TileSpMV
from repro.dist import ProcessShardedSpMV
from repro.matrices import fem_blocks, power_law


def _matrix():
    return fem_blocks(80, block=3, avg_degree=8, seed=5)


class TestBatchedRoundTrips:
    def test_one_round_trip_per_shard_per_batch(self):
        a = _matrix()
        k = 8
        x = np.random.default_rng(3).standard_normal((a.shape[1], k))
        with ProcessShardedSpMV(a, shards=2, method="adpt") as eng:
            assert eng.backend == "process"
            sup = eng._supervisor
            base = sup.counters["round_trips"]
            fused = eng.spmm(x)
            batched_trips = sup.counters["round_trips"] - base
            # one command per shard for the whole k-column block
            assert batched_trips == 2
            base = sup.counters["round_trips"]
            ref = np.column_stack([eng.spmv(x[:, j]) for j in range(k)])
            solo_trips = sup.counters["round_trips"] - base
            assert solo_trips == 2 * k
        assert fused.tobytes() == ref.tobytes()

    def test_grid_batched_matches_single_device(self):
        a = power_law(600, avg_degree=4, seed=6)
        x = np.random.default_rng(4).standard_normal((a.shape[1], 5))
        ref = TileSpMV(a, method="adpt").spmm(x)
        with ProcessShardedSpMV(a, shards=4, grid=(2, 2),
                                method="adpt") as eng:
            assert eng.spmm(x).tobytes() == ref.tobytes()
