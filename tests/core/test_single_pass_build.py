"""Plan build and pricing without scatters or sort-based distinct counts.

Differential tests of the tiling, selection and kernel-cost helpers
against the references in :mod:`tests.build_reference`, one end-to-end
comparison of whole plans built with every reference patched in, and a
source guard that keeps ``<ufunc>.at``, ``np.unique`` and ``np.lexsort``
off the plan-build modules and the sharded combine (whose products
multiply cached block operands instead of re-sorting streams per call).
"""

import ast
import inspect

import numpy as np
import pytest

import repro.baselines.common
import repro.core.kernels.costs as costs
import repro.core.selection
import repro.core.tiling
import repro.dist.procpool
import repro.dist.reduce
import repro.dist.sharded
import repro.formats.base
import repro.formats.tile_bitmap
import repro.formats.tile_csr
import repro.formats.tile_hyb
from repro import TileSpMV
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.core.selection import SelectionConfig, compute_tile_stats, select_formats
from repro.core.tiling import tile_decompose
from repro.formats.base import FormatID
from tests import build_reference as ref

TILED = [(name, a, policy, tile) for name, a, policy in ref.cases() for tile in (4, 8, 16)]
TILED_IDS = [f"{t[0]}-t{t[3]}" for t in TILED]


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_tile_decompose_matches_lexsort_unique(name, a, policy, tile):
    got = tile_decompose(a, tile=tile, validation=policy)
    assert ref.flat(got) == ref.flat(ref.tile_decompose(a, tile=tile, validation=policy))


@pytest.mark.parametrize("use_bitmap", [False, True], ids=["paper", "bitmap"])
@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_selection_matches_reference(monkeypatch, name, a, policy, tile, use_bitmap):
    ts = tile_decompose(a, tile=tile, validation=policy)
    config = SelectionConfig(use_bitmap=use_bitmap)
    stats, formats = compute_tile_stats(ts), select_formats(ts, config)
    ref.patch_in(monkeypatch)
    assert ref.flat(stats) == ref.flat(compute_tile_stats(ts))
    ref.assert_same(formats, select_formats(ts, config))


def test_distinct_sectors_match_unique():
    rng = np.random.default_rng(7)
    for n_tiles in (0, 1, 5, 40):
        offsets = np.r_[0, np.cumsum(rng.integers(0, 9, n_tiles))]
        lcol = rng.integers(0, 16, int(offsets[-1])).astype(np.uint8)
        assert costs._distinct_sectors_per_tile(lcol, offsets) == ref.distinct_sectors_per_tile(
            lcol, offsets
        )


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_kernel_costs_match_reference(monkeypatch, name, a, policy, tile):
    tiled = TileSpMV(
        a, method="adpt", tile=tile, validation=policy,
        selection=SelectionConfig(use_bitmap=tile == 16),
    ).tiled
    shipped = ref.flat(tiled.kernel_costs())
    ref.patch_in(monkeypatch)
    assert ref.flat(tiled.kernel_costs()) == shipped


def test_cases_cover_every_format():
    seen = set()
    for _, a, policy in ref.cases():
        for use_bitmap in (False, True):
            e = TileSpMV(a, method="adpt", validation=policy,
                         selection=SelectionConfig(use_bitmap=use_bitmap))
            seen.update(FormatID(f) for f in np.unique(e.tiled.formats))
    assert seen == set(FormatID)


@pytest.mark.parametrize("method", ["csr", "adpt", "deferred_coo", "auto"])
@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_plans_match_reference_build(monkeypatch, name, a, policy, tile, method):
    """Whole plans and their prices, shipped helpers vs references."""

    def snapshot() -> dict:
        e = TileSpMV(
            a, method=method, tile=tile, validation=policy,
            selection=SelectionConfig(use_bitmap=tile == 16),
        )
        parts = {
            "method": e.method,
            "run_cost": e.run_cost(),
            "spmm_cost": e.spmm_cost(3),
            "scalar_run_cost": CsrScalarSpMV(a, validation=policy).run_cost(),
        }
        if e.tiled is not None:
            parts.update(
                tileset=e.tiled.tileset,
                formats=e.tiled.formats,
                payloads=e.tiled.payloads,
                operand=e.tiled.operand,
            )
        return ref.flat(parts)

    shipped = snapshot()
    ref.patch_in(monkeypatch)
    assert snapshot() == shipped


# -- source guard ---------------------------------------------------------

GUARDED = (
    repro.formats.base,
    repro.formats.tile_csr,
    repro.formats.tile_hyb,
    repro.formats.tile_bitmap,
    repro.core.tiling,
    repro.core.selection,
    costs,
    repro.baselines.common,
    repro.dist.sharded,
    repro.dist.procpool,
    repro.dist.reduce,
)


def _scatters_and_sorts(source: str) -> list[str]:
    """``<ufunc>.at(`` scatters and ``np.unique``/``np.lexsort`` calls."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("at", "unique", "lexsort")
        ):
            offenders.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return offenders


def test_guard_sees_scatters_and_sorts():
    src = "def f(a, i, k):\n    np.add.at(a, i, 1)\n    np.unique(k)\n    return np.lexsort((k, i))\n"
    assert _scatters_and_sorts(src) == ["2: np.add.at", "3: np.unique", "4: np.lexsort"]


@pytest.mark.parametrize("module", GUARDED, ids=[m.__name__ for m in GUARDED])
def test_plan_build_has_no_scatter_or_sort_count(module):
    assert _scatters_and_sorts(inspect.getsource(module)) == []
