"""Metamorphic property: sharding is invisible to the product.

For every strategy, ``auto`` included, a tile-snapped partition — 1D
row blocks or a 2D row x column tile grid — must reproduce the
single-device result *bit-for-bit*: every output block holds its rows
of the canonical operand, so each output sum runs in the single-device
order, whichever shard owns each tile and whichever strategy its
``auto`` arbitration keeps.  This is the strongest oracle available: not allclose, but
``np.array_equal``, across the whole structural zoo, every shard
count, and every grid shape, so any change to the partitioner, the
shard slicing, the reduction order, or the per-shard engines that
perturbs even one ulp fails here immediately.  The adversarial cases
mix magnitudes (1e-12 .. 1e12) where a reordered summation *visibly*
changes the rounded result, proving the guarantee is not vacuous.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.tilespmv import TileSpMV
from repro.dist import ShardedSpMV
from repro.matrices import generators as g
from tests import build_reference as ref

pytestmark = pytest.mark.properties

COUNTS = (1, 2, 4, 8)


def _grid_configs(include_1d=False):
    """(shards, grid) pairs: factored 2D per count + explicit column cuts."""
    if include_1d:
        for p in COUNTS:
            yield p, None
    for p in COUNTS:
        yield p, "auto"
    yield 4, (1, 4)  # extreme: every cut is a column cut
    yield 6, (2, 3)
    yield 3, (3, 1)  # row cuts only: forward row-disjoint, transpose overlaps
    yield 3, (1, 3)


def _matrices():
    return [
        ("random", g.random_uniform(220, 220, nnz_per_row=5, seed=1)),
        ("rect", g.random_uniform(150, 310, nnz_per_row=4, seed=2)),
        ("banded", g.banded(260, half_bandwidth=6, seed=3)),
        ("stencil", g.stencil_2d(17, points=5, seed=4)),
        ("fem", g.fem_blocks(120, block=3, avg_degree=8, seed=5)),
        ("powerlaw", g.power_law(600, avg_degree=4, seed=6)),
        ("hyper", g.hypersparse(700, nnz=90, seed=7)),
        ("arrow", g.gupta_arrow(220, border=20, seed=8)),
        ("lp", g.lp_like(90, 330, seed=9)),
        ("tall", g.random_uniform(340, 120, nnz_per_row=4, seed=13)),
        # Hypersparse tiles (DeferredCOO half) beside banded ones (tiled
        # half): under deferred_coo every multi-shard config has cells
        # holding only one half, and grids (4, 2) and (2, 3) have empty
        # off-diagonal cells.
        ("halves", sp.block_diag([
            g.hypersparse(192, nnz=500, seed=15),
            g.banded(192, half_bandwidth=2, seed=14),
        ]).tocsr()),
    ]


MATRICES = _matrices()
IDS = [name for name, _ in MATRICES]


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
@pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo"])
def test_spmv_bit_for_bit_every_count(matrix, method):
    rng = np.random.default_rng(99)
    x = rng.standard_normal(matrix.shape[1])
    ref = TileSpMV(matrix, method=method).spmv(x)
    for p in COUNTS:
        with ShardedSpMV(matrix, shards=p, method=method) as eng:
            y = eng.spmv(x)
        assert np.array_equal(y, ref), f"P={p} diverged from single-device"


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
def test_spmm_bit_for_bit(matrix):
    rng = np.random.default_rng(100)
    x = rng.standard_normal((matrix.shape[1], 5))
    ref = TileSpMV(matrix, method="adpt").spmm(x)
    for p in COUNTS:
        with ShardedSpMV(matrix, shards=p) as eng:
            assert np.array_equal(eng.spmm(x), ref)


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
def test_update_values_preserves_bit_equality(matrix):
    rng = np.random.default_rng(101)
    x = rng.standard_normal(matrix.shape[1])
    new = rng.standard_normal(matrix.nnz)
    csr = matrix.tocsr()
    fresh = csr.copy()
    fresh.data = new.copy()
    ref = TileSpMV(fresh, method="adpt").spmv(x)
    for p in COUNTS:
        with ShardedSpMV(matrix, shards=p) as eng:
            eng.update_values(new)
            assert np.array_equal(eng.spmv(x), ref)


def test_auto_is_bit_for_bit():
    # ``auto`` may keep different strategies per shard; every strategy
    # executes the same canonical operand, so the products still equal
    # the single-device ``auto`` engine's bits on every count and grid.
    # The power-law matrix resolves to DeferredCOO; the second pairs a
    # power-law block with a banded one, so the shards' picks split.
    rng = np.random.default_rng(102)
    picks = set()
    for matrix in (
        g.power_law(800, avg_degree=5, seed=10),
        sp.block_diag([
            g.power_law(600, avg_degree=5, seed=10),
            g.banded(600, half_bandwidth=6, seed=3),
        ]).tocsr(),
    ):
        x = rng.standard_normal(matrix.shape[1])
        xk = rng.standard_normal((matrix.shape[1], 3))
        xt = rng.standard_normal(matrix.shape[0])
        single = TileSpMV(matrix, method="auto")
        ref = (single.spmv(x), single.spmm(xk), single.spmv_transpose(xt))
        for p, grid in _grid_configs(include_1d=True):
            with ShardedSpMV(matrix, shards=p, method="auto", grid=grid) as eng:
                if len(set(eng.resolved_methods)) > 1:
                    picks.add(grid)
                got = (eng.spmv(x), eng.spmm(xk), eng.spmv_transpose(xt))
            for out, want in zip(got, ref):
                assert np.array_equal(out, want), f"P={p} grid={grid} diverged"
    # Not vacuous: some partitions' shards really do pick differently.
    assert picks


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
@pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo"])
def test_grid_spmv_bit_for_bit(matrix, method):
    # The 1D counts are covered above; here every config but (3, 1) has
    # column cuts, so the block operands are on the critical path.
    rng = np.random.default_rng(103)
    x = rng.standard_normal(matrix.shape[1])
    ref = TileSpMV(matrix, method=method).spmv(x)
    for p, grid in _grid_configs():
        with ShardedSpMV(matrix, shards=p, method=method, grid=grid) as eng:
            y = eng.spmv(x)
        assert np.array_equal(y, ref), (
            f"P={p} grid={grid} diverged from single-device"
        )


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
@pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo"])
def test_transpose_bit_for_bit_every_count_and_grid(matrix, method):
    rng = np.random.default_rng(104)
    x = rng.standard_normal(matrix.shape[0])
    ref = TileSpMV(matrix, method=method).spmv_transpose(x)
    for p, grid in _grid_configs(include_1d=True):
        with ShardedSpMV(matrix, shards=p, method=method, grid=grid) as eng:
            y = eng.spmv_transpose(x)
        assert np.array_equal(y, ref), (
            f"P={p} grid={grid} transpose diverged"
        )


@pytest.mark.parametrize("matrix", [m for _, m in MATRICES], ids=IDS)
def test_grid_spmm_bit_for_bit(matrix):
    rng = np.random.default_rng(105)
    x = rng.standard_normal((matrix.shape[1], 4))
    ref = TileSpMV(matrix, method="adpt").spmm(x)
    for grid in ("auto", (2, 2)):
        with ShardedSpMV(matrix, shards=4, grid=grid) as eng:
            assert np.array_equal(eng.spmm(x), ref)


def _adversarial(m, n, seed):
    """Mixed-magnitude values where summation order changes the bits."""
    rng = np.random.default_rng(seed)
    a = g.random_uniform(m, n, nnz_per_row=7, seed=seed).tocoo()
    mags = rng.choice([1e-12, 1e-6, 1.0, 1e6, 1e12], size=a.nnz)
    signs = rng.choice([-1.0, 1.0], size=a.nnz)
    a.data = signs * mags * (1.0 + rng.random(a.nnz))
    return a.tocsr()


def _check_adversarial(method, backend):
    a = _adversarial(330, 270, seed=11)
    rng = np.random.default_rng(106)
    x = rng.choice([1e-9, 1.0, 1e9], size=270) * rng.standard_normal(270)
    xt = rng.choice([1e-9, 1.0, 1e9], size=330) * rng.standard_normal(330)
    ref = TileSpMV(a, method=method).spmv(x)
    ref_t = TileSpMV(a, method=method).spmv_transpose(xt)
    for p, grid in _grid_configs(include_1d=True):
        with ShardedSpMV(a, shards=p, method=method, grid=grid,
                         backend=backend) as eng:
            assert np.array_equal(eng.spmv(x), ref)
            assert np.array_equal(eng.spmv_transpose(xt), ref_t)


@pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo", "auto"])
def test_adversarial_magnitudes_bit_for_bit(method):
    # Summing these in any other order visibly changes the rounded
    # result, so bit-equality here proves the sharded engine replays
    # the exact single-device accumulation sequence — it cannot pass
    # by luck.
    _check_adversarial(method, "thread")


@pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo", "auto"])
def test_adversarial_magnitudes_process_backend_bit_for_bit(method):
    # Same oracle with the shards in worker processes.
    _check_adversarial(method, "process")


def _mixed_magnitude_duplicates(n=3000, dups=196, seed=12):
    """A ``validation="trust"`` matrix repeating ``dups`` entries, each
    right after its original, with magnitudes 1e-8 .. 1e8: any reorder
    of equal (row, column) entries visibly changes the rounded sums."""
    rng = np.random.default_rng(seed)
    a = g.random_uniform(n, n, nnz_per_row=5, seed=seed).tocsr()
    a.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    pick = rng.choice(a.nnz, size=dups, replace=False)
    r = np.concatenate([rows, rows[pick]])
    c = np.concatenate([a.indices, a.indices[pick]])
    order = np.lexsort((c, r))
    vals = rng.choice([-1.0, 1.0], r.size) * 10.0 ** rng.uniform(-8, 8, r.size)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    return sp.csr_matrix((vals, c[order], indptr), shape=(n, n))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_trusted_duplicates_bit_for_bit(backend):
    # ``trust`` keeps duplicate entries in input order; every partition
    # must sum them in that order too, forward and transposed.
    for a in (ref.trusted_duplicates(), _mixed_magnitude_duplicates()):
        rng = np.random.default_rng(108)
        x = rng.standard_normal(a.shape[1]) * 10.0 ** rng.uniform(-4, 4, a.shape[1])
        xk = rng.standard_normal((a.shape[1], 3))
        xt = rng.standard_normal(a.shape[0])
        single = TileSpMV(a, method="adpt", validation="trust")
        want = (single.spmv(x), single.spmm(xk), single.spmv_transpose(xt))
        for p, grid in ((2, None), (4, None), (2, (1, 2)), (4, (2, 2))):
            with ShardedSpMV(a, shards=p, grid=grid, validation="trust",
                             backend=backend) as eng:
                got = (eng.spmv(x), eng.spmm(xk), eng.spmv_transpose(xt))
            for out, expect in zip(got, want):
                assert out.tobytes() == expect.tobytes(), f"P={p} grid={grid}"


def test_adversarial_order_sensitivity_is_real():
    # Guard against a vacuous oracle: the adversarial values really do
    # round differently when accumulated in a different order.
    a = _adversarial(330, 270, seed=11).tocsr()
    rng = np.random.default_rng(106)
    x = rng.choice([1e-9, 1.0, 1e9], size=270) * rng.standard_normal(270)
    forward = np.array([
        np.sum(a.data[a.indptr[i]:a.indptr[i + 1]]
               * x[a.indices[a.indptr[i]:a.indptr[i + 1]]])
        for i in range(a.shape[0])
    ])
    backward = np.array([
        np.sum((a.data[a.indptr[i]:a.indptr[i + 1]]
                * x[a.indices[a.indptr[i]:a.indptr[i + 1]]])[::-1])
        for i in range(a.shape[0])
    ])
    assert not np.array_equal(forward, backward)


def test_grid_update_values_preserves_bit_equality():
    matrix = g.fem_blocks(140, block=3, avg_degree=8, seed=12)
    rng = np.random.default_rng(107)
    x = rng.standard_normal(matrix.shape[1])
    new = rng.standard_normal(matrix.nnz)
    csr = matrix.tocsr()
    fresh = csr.copy()
    fresh.data = new.copy()
    ref = TileSpMV(fresh, method="adpt").spmv(x)
    for grid in ("auto", (2, 2), (1, 4)):
        with ShardedSpMV(matrix, shards=4, grid=grid) as eng:
            eng.update_values(new)
            assert np.array_equal(eng.spmv(x), ref)
