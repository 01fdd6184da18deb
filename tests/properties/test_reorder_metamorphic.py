"""Metamorphic properties of plan-time reorders.

The contract under test: a reordered plan is an *internal* layout
change — ``TileSpMV(A, reorder=spec)`` answers every product in the
original index order.  Every method executes one canonical operand,
so every method is graded the same way, by what the permutation
touches:

* **row-only** transforms (SELL-C-σ sorting, CMRS blocking): spmv,
  spmm and spmv_transpose are **bit-for-bit** equal to the unreordered
  plan.  The operand is the permuted canonical matrix, each row's
  entries in ascending column order, so a row permutation changes
  neither any row's accumulation sequence (spmv/spmm) nor the
  canonical (col, row) transpose.
* **column-permuting** chains (anything containing rcm): the transpose
  stays bit-for-bit (the replay sorts by *original* (col, row), the
  same canonical order the unreordered engine accumulates in), while
  spmv/spmm re-associate each row's sum in the permuted column order —
  allclose, not exact.

``deferred_coo`` splits tiles by a row-count threshold that the
permutation shifts, so its priced halves move — but its operand does
not, so it is graded exactly like ``adpt``.

A reorder is one permutation above any engine, so the same grading
holds for every engine built under it — the single device, 1D and 2D
sharded engines on both backends, and ``ReliableSpMV`` over the shard
recovery ladder — each against the *unreordered single device*.

Tile sizes {8, 16} are exercised.  The issue's nominal {16, 32} pair is
impossible here: local indices are 4-bit packed, so ``tile_decompose``
hard-caps tiles at 16 — 8 exercises the same "reorder crosses tile
boundaries differently" axis from below instead.
"""

from contextlib import closing
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.tilespmv import TileSpMV
from repro.dist.sharded import ShardedSpMV
from repro.reliability.reliable import ReliableSpMV
from tests import build_reference as ref
from repro.matrices import stencil_2d
from repro.matrices.reorder import (
    ReorderPlan,
    apply_symmetric_permutation,
    bandwidth,
    build_reorder,
    reverse_cuthill_mckee,
)

pytestmark = pytest.mark.properties

# Row-only transforms: permutation of rows, columns untouched.
ROW_ONLY = ["sell:0", "sell:16", "cmrs:16/0", "cmrs:16/64", "sell:0+cmrs:8/32"]
# Chains containing rcm permute columns symmetrically as well.
COL_PERM = ["rcm", "rcm+sell:0", "rcm+cmrs:16/64"]
TILES = (8, 16)
EXACT_METHODS = ("csr", "adpt")


# Every engine a reorder can sit above.
ENGINES = {
    "single": TileSpMV,
    "shards2": partial(ShardedSpMV, shards=2),
    "grid2x2": partial(ShardedSpMV, grid=(2, 2)),
    "grid1x3": partial(ShardedSpMV, grid=(1, 3)),
    "shards2_process": partial(ShardedSpMV, shards=2, backend="process"),
    "grid2x2_process": partial(ShardedSpMV, grid=(2, 2), backend="process"),
    "grid1x3_process": partial(ShardedSpMV, grid=(1, 3), backend="process"),
    "reliable_recovery": partial(ReliableSpMV, shards=2, recovery=True),
}


def _cases(tile):
    """(engine, methods) graded at ``tile``: the single device at both
    tile sizes, every other engine at 16 (the sharding suite grades each
    partition per tile size), the process engines with ``adpt`` only —
    every method executes the same canonical operand, and each worker
    spawn costs ~60 ms."""
    if tile != 16:
        return [("single", EXACT_METHODS)]
    return [(name, ("adpt",) if name.endswith("_process") else EXACT_METHODS)
            for name in ENGINES]


def _transpose(eng, w):
    """``A.T @ w``: ``ReliableSpMV`` leaves transposes to its engine."""
    return getattr(eng, "engine", eng).spmv_transpose(w)


def _vectors(matrix, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(matrix.shape[1]),
        rng.standard_normal((matrix.shape[1], 3)),
        rng.standard_normal(matrix.shape[0]),
    )


def _unreordered(matrix, tile, x, X, w):
    """Each method's unreordered single-device (spmv, spmm, transpose)."""
    out = {}
    for method in EXACT_METHODS:
        base = TileSpMV(matrix, method=method, tile=tile)
        out[method] = base.spmv(x), base.spmm(X), base.spmv_transpose(w)
    return out


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("spec", ROW_ONLY)
def test_row_only_reorder_is_bit_for_bit(zoo_matrix, spec, tile):
    """spmv, spmm and spmv_transpose all bit-identical under row sorts,
    on every engine."""
    x, X, w = _vectors(zoo_matrix)
    ref = _unreordered(zoo_matrix, tile, x, X, w)
    for name, methods in _cases(tile):
        for method in methods:
            with closing(ENGINES[name](zoo_matrix, method=method, tile=tile,
                                       reorder=spec)) as eng:
                y, Y, t = ref[method]
                assert np.array_equal(eng.spmv(x), y), name
                assert np.array_equal(eng.spmm(X), Y), name
                assert np.array_equal(_transpose(eng, w), t), name


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("spec", COL_PERM)
def test_rcm_chain_transpose_exact_spmv_allclose(zoo_matrix, spec, tile):
    """Column permutations: canonical transpose replay stays exact, on
    every engine."""
    if zoo_matrix.shape[0] != zoo_matrix.shape[1]:
        pytest.skip("rcm needs a square matrix")
    x, X, w = _vectors(zoo_matrix)
    ref = _unreordered(zoo_matrix, tile, x, X, w)
    for name, methods in _cases(tile):
        for method in methods:
            with closing(ENGINES[name](zoo_matrix, method=method, tile=tile,
                                       reorder=spec)) as eng:
                y, Y, t = ref[method]
                assert np.array_equal(_transpose(eng, w), t), name
                # Each row's sum re-associates in the permuted column order.
                np.testing.assert_allclose(eng.spmv(x), y, rtol=1e-12, atol=1e-13)
                np.testing.assert_allclose(eng.spmm(X), Y, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("spec", ROW_ONLY + ["rcm+sell:0"])
def test_deferred_coo_reorder_allclose(spec):
    """The deferred split moves with the permutation, the operand does
    not: graded as ``adpt`` is — bit-for-bit under row-only specs, an
    exact transpose and allclose spmv/spmm under rcm chains."""
    m = stencil_2d(18, points=5, seed=4)
    x, X, w = _vectors(m)
    base = TileSpMV(m, method="deferred_coo")
    eng = TileSpMV(m, method="deferred_coo", reorder=spec)
    assert np.array_equal(eng.spmv_transpose(w), base.spmv_transpose(w))
    if spec in ROW_ONLY:
        assert np.array_equal(eng.spmv(x), base.spmv(x))
        assert np.array_equal(eng.spmm(X), base.spmm(X))
    else:
        np.testing.assert_allclose(eng.spmv(x), base.spmv(x), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(eng.spmm(X), base.spmm(X), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("spec", ROW_ONLY + COL_PERM)
def test_permutation_round_trip(zoo_matrix, spec):
    """Applying the plan then inverting it restores the matrix exactly."""
    if "rcm" in spec and zoo_matrix.shape[0] != zoo_matrix.shape[1]:
        pytest.skip("rcm needs a square matrix")
    plan = build_reorder(zoo_matrix, spec)
    permuted = plan.apply(zoo_matrix)
    restored = permuted[plan.inv_row]
    if plan.col_perm is not None:
        restored = restored[:, plan.inv_col]
    restored = restored.tocsr()
    restored.sort_indices()
    assert np.array_equal(restored.indptr, zoo_matrix.indptr)
    assert np.array_equal(restored.indices, zoo_matrix.indices)
    assert np.array_equal(restored.data, zoo_matrix.data)
    # The permutations themselves are bijections.
    assert np.array_equal(np.sort(plan.row_perm), np.arange(zoo_matrix.shape[0]))
    if plan.col_perm is not None:
        assert np.array_equal(np.sort(plan.col_perm), np.arange(zoo_matrix.shape[1]))


def _same_csr(a, b):
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data))


@pytest.mark.parametrize("spec", ROW_ONLY + COL_PERM)
def test_permute_is_apply_in_one_pass(zoo_matrix, spec):
    """``permute`` returns ``apply``'s matrix bit for bit, and its data
    permutation carries original-order values into it."""
    if "rcm" in spec and zoo_matrix.shape[0] != zoo_matrix.shape[1]:
        pytest.skip("rcm needs a square matrix")
    plan = build_reorder(zoo_matrix, spec)
    permuted, perm = plan.permute(zoo_matrix)
    assert _same_csr(permuted, plan.apply(zoo_matrix))
    assert np.array_equal(permuted.data, zoo_matrix.data[perm])


@pytest.mark.parametrize("spec", ROW_ONLY)
def test_permute_keeps_trusted_duplicates(spec):
    """A ``trust`` input may repeat a column in a row; the tagged pass
    orders the repeats exactly as permuting the values does."""
    m = ref.trusted_duplicates()
    plan = build_reorder(m, spec)
    permuted, perm = plan.permute(m)
    assert _same_csr(permuted, plan.apply(m))
    assert np.array_equal(permuted.data, m.data[perm])


def test_data_permutation_tracks_update_values():
    """Streaming new values through a reordered plan stays bit-for-bit,
    on every engine."""
    m = stencil_2d(14, points=9, seed=3)
    x = np.random.default_rng(11).standard_normal(m.shape[1])
    m2 = m.copy()
    m2.data = m2.data * 1.7 + 0.3
    for name, build in ENGINES.items():
        with closing(build(m, method="adpt", reorder="rcm+sell:0")) as eng, \
                closing(build(m2, method="adpt", reorder="rcm+sell:0")) as fresh:
            eng.update_values(m2)
            assert np.array_equal(eng.spmv(x), fresh.spmv(x)), name


class TestBandwidthMonotonicity:
    """Windowed row displacement bounds the bandwidth growth.

    Both SELL-C-σ sorting and CMRS blocking restricted to a window of
    ``w`` rows move no row further than ``w - 1`` positions, so chaining
    either after RCM can grow the RCM bandwidth by at most ``w - 1``.
    """

    @staticmethod
    def _scrambled_stencil():
        a = stencil_2d(20, points=5, seed=1)
        rng = np.random.default_rng(5)
        return apply_symmetric_permutation(a, rng.permutation(a.shape[0]))

    @pytest.mark.parametrize("window", [16, 64])
    def test_sell_window_bounds_bandwidth(self, window):
        a = self._scrambled_stencil()
        rcm = build_reorder(a, "rcm")
        chained = build_reorder(a, f"rcm+sell:{window}")
        assert bandwidth(chained.apply(a)) <= bandwidth(rcm.apply(a)) + window - 1

    @pytest.mark.parametrize("window", [16, 64])
    def test_cmrs_window_bounds_bandwidth(self, window):
        a = self._scrambled_stencil()
        rcm = build_reorder(a, "rcm")
        chained = build_reorder(a, f"rcm+cmrs:16/{window}")
        assert bandwidth(chained.apply(a)) <= bandwidth(rcm.apply(a)) + window - 1

    def test_global_sort_can_exceed_window_bound(self):
        # Sanity that the bound is about *windows*: the global sort
        # (sigma=0) is free to scatter rows arbitrarily far.
        a = self._scrambled_stencil()
        plan = build_reorder(a, "rcm+sell:0")
        disp = np.abs(np.argsort(plan.row_perm) - np.arange(a.shape[0]))
        assert disp.max() > 64


class TestEdgeCases:
    @pytest.mark.parametrize("spec", ["sell:0", "cmrs:16/0", "rcm"])
    def test_empty_matrix(self, spec):
        m = sp.csr_matrix((32, 32))
        eng = TileSpMV(m, method="adpt", reorder=spec)
        y = eng.spmv(np.ones(32))
        assert y.shape == (32,) and not y.any()
        assert np.array_equal(eng.spmv_transpose(np.ones(32)), np.zeros(32))

    def test_single_entry(self):
        m = sp.csr_matrix(([3.5], ([7], [11])), shape=(40, 40))
        for spec in ("sell:0", "cmrs:4/8", "rcm+sell:0"):
            eng = TileSpMV(m, method="adpt", reorder=spec)
            y = eng.spmv(np.arange(40, dtype=np.float64))
            assert y[7] == 3.5 * 11 and np.count_nonzero(y) == 1

    def test_window_larger_than_matrix(self):
        m = stencil_2d(6, seed=2)
        base = TileSpMV(m, method="adpt")
        x = np.random.default_rng(3).standard_normal(m.shape[1])
        for spec in (f"sell:{m.shape[0] * 4}", f"cmrs:16/{m.shape[0] * 4}"):
            eng = TileSpMV(m, method="adpt", reorder=spec)
            assert np.array_equal(eng.spmv(x), base.spmv(x))

    def test_identity_reorder_object_accepted(self):
        m = stencil_2d(6, seed=2)
        n = m.shape[0]
        plan = ReorderPlan("identity", np.arange(n))
        eng = TileSpMV(m, method="adpt", reorder=plan)
        x = np.random.default_rng(4).standard_normal(n)
        assert np.array_equal(eng.spmv(x), TileSpMV(m, method="adpt").spmv(x))

    @pytest.mark.parametrize("bad", ["xyz", "cmrs:0", "sell:-1", "sell:abc", ""])
    def test_invalid_specs_rejected(self, bad):
        m = stencil_2d(6, seed=2)
        with pytest.raises(ValueError):
            build_reorder(m, bad)

    def test_rcm_rejects_rectangular_inside_chain(self):
        m = sp.random(20, 30, density=0.1, format="csr", random_state=1)
        with pytest.raises(ValueError):
            build_reorder(m, "sell:0+rcm")


class TestFingerprints:
    def test_reordered_plan_never_aliases_natural_order(self):
        from repro.core.plancache import PlanCache

        m = stencil_2d(12, points=5, seed=9)
        cache = PlanCache()
        a = TileSpMV(m, method="adpt", plan_cache=cache)
        b = TileSpMV(m, method="adpt", plan_cache=cache, reorder="sell:0")
        c = TileSpMV(m, method="adpt", plan_cache=cache, reorder="cmrs:16/0")
        keys = {a.plan_key, b.plan_key, c.plan_key}
        assert len(keys) == 3
        assert cache.stats()["misses"] >= 3

    def test_formats_override_changes_fingerprint(self):
        from repro.core.plancache import PlanCache
        from repro.formats import FormatID

        m = stencil_2d(12, points=5, seed=9)
        cache = PlanCache()
        a = TileSpMV(m, method="adpt", plan_cache=cache)
        override = np.full(a.tiled.n_tiles, FormatID.COO, dtype=np.uint8)
        b = TileSpMV(m, method="adpt", plan_cache=cache, formats_override=override)
        assert a.plan_key != b.plan_key
