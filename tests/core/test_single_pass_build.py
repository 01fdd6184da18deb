"""Plan build and pricing without scatters or sort-based distinct counts.

Differential tests of the tiling, input gate, selection, sub-view
gathers, HYB width search, DnsCol layout, DeferredCOO split and
kernel-cost helpers against the references in
:mod:`tests.build_reference`, one end-to-end comparison of whole plans
built with every reference patched in, and source guards: one keeps
``<ufunc>.at``, ``np.unique`` and ``np.lexsort`` off the plan-build
modules and the sharded engines (whose blocks are row slices of the
canonical operand), one keeps ``np.argsort`` off the modules that
build, refill and execute the operand (the canonical input, never
re-sorted, on one device or many).
"""

import ast
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

import repro.baselines.common
import repro.baselines.csr5
import repro.core.deferred
import repro.core.kernels.costs as costs
import repro.core.plancache
import repro.core.scheduler
import repro.core.selection
import repro.core.storage
import repro.core.tilespmv
import repro.core.tiling
import repro.dist.procpool
import repro.dist.recovery
import repro.dist.sharded
import repro.formats.base
import repro.formats.tile_bitmap
import repro.formats.tile_coo
import repro.formats.tile_csr
import repro.formats.tile_dns
import repro.formats.tile_dnscol
import repro.formats.tile_dnsrow
import repro.formats.tile_ell
import repro.formats.tile_hyb
from repro import TileSpMV
from repro.baselines.csr5 import Csr5SpMV
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.core.deferred import split_deferred_coo
from repro.core.plancache import structural_fingerprint
from repro.core.selection import SelectionConfig, compute_tile_stats, select_formats
from repro.core.tiling import tile_decompose
from repro.formats.base import FormatID, TilesView
from repro.formats.tile_dnscol import encode_dnscol
from repro.formats.tile_hyb import hyb_split_widths
from repro.matrices import banded, fem_blocks, power_law
from repro.reliability.validation import canonicalize_csr
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


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_tile_stats_match_reference(name, a, policy, tile):
    ts = tile_decompose(a, tile=tile, validation=policy)
    assert ref.flat(compute_tile_stats(ts)) == ref.flat(ref.compute_tile_stats(ts))


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_view_passes_match_reference(name, a, policy, tile):
    """Sub-view gathers, row ranks and tile ranks, per format's tiles and
    for every other tile."""
    ts = tile_decompose(a, tile=tile, validation=policy)
    view = ref.valued_view(a, tile=tile, validation=policy)
    ref.assert_same(view.pos_in_row(), ref.pos_in_row(view))
    ref.assert_same(view.entry_rank(), ref.entry_rank(view))
    formats = select_formats(ts, SelectionConfig(use_bitmap=tile == 16))
    picks = [formats == f for f in np.unique(formats)] + [np.arange(0, ts.n_tiles, 2)]
    for pick in picks:
        sub = view.select(pick)
        assert ref.flat(sub) == ref.flat(ref.select(view, pick))
        ref.assert_same(sub.pos_in_row(), ref.pos_in_row(sub))


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_hyb_split_widths_match_loop(name, a, policy, tile):
    view = tile_decompose(a, tile=tile, validation=policy).pattern
    ref.assert_same(hyb_split_widths(view), ref.hyb_split_widths(view))


def test_hyb_split_widths_match_loop_on_random_rows():
    rng = np.random.default_rng(11)
    for n_tiles in (0, 1, 7, 300):
        counts = rng.integers(1, 60, n_tiles)
        offsets = np.r_[0, np.cumsum(counts)].astype(np.int64)
        # Each tile's local rows ascend, as tiling emits them.
        lrow = np.concatenate(
            [np.sort(rng.integers(0, 16, c)) for c in counts] + [np.zeros(0, int)]
        ).astype(np.uint8)
        view = TilesView(
            lrow=lrow, lcol=np.zeros_like(lrow), val=np.zeros(lrow.size), offsets=offsets,
            eff_h=np.full(n_tiles, 16, np.uint8), eff_w=np.full(n_tiles, 16, np.uint8),
        )
        ref.assert_same(hyb_split_widths(view), ref.hyb_split_widths(view))


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_dnscol_layout_matches_lexsort(name, a, policy, tile):
    ts = tile_decompose(a, tile=tile, validation=policy)
    dense_cols = compute_tile_stats(ts).cols_all_dense
    view = ref.valued_view(a, tile=tile, validation=policy).select(dense_cols)
    assert ref.flat(encode_dnscol(view)) == ref.flat(ref.encode_dnscol(view))


def test_dnscol_cases_hold_dnscol_tiles():
    """The layout test above is not vacuous."""
    _, a, policy = next(c for c in ref.cases() if c[0] == "dense_structure")
    ts = tile_decompose(a, tile=16, validation=policy)
    assert compute_tile_stats(ts).cols_all_dense.sum() >= 2


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_structural_fingerprint_matches_byte_copies(name, a, policy, tile):
    c, _ = canonicalize_csr(a, policy)
    config = SelectionConfig()
    for extra in ("", "reorder=rcm"):
        assert structural_fingerprint(c, tile, config, 8, extra) == ref.structural_fingerprint(
            c, tile, config, 8, extra
        )


def _malformed() -> list[tuple[str, object]]:
    """One input per defect class the gate repairs, plus index and value
    dtypes and a non-CSR container it must convert exactly."""
    indptr, indices = np.array([0, 2, 3, 5]), np.array([1, 3, 0, 2, 4])
    data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

    def csr(ind=indices, dat=data):
        return sp.csr_matrix((dat, ind, indptr), shape=(3, 5))

    return [
        ("unsorted", csr(ind=np.array([3, 1, 0, 2, 4]))),
        ("duplicate", csr(ind=np.array([1, 1, 0, 2, 4]))),
        ("out_of_range", csr(ind=np.array([1, 5, 0, 2, 4]))),
        ("nonfinite", csr(dat=np.array([1.0, np.nan, 3.0, np.inf, 5.0]))),
        ("clean_int64", sp.csr_matrix((data, indices.astype(np.int64), indptr.astype(np.int64)), shape=(3, 5))),
        ("clean_float32", csr(dat=data.astype(np.float32))),
        ("clean_coo", csr().tocoo()),
    ]


GATE_INPUTS = [(name, a) for name, a, _ in ref.cases()] + _malformed()


def _gate(a, policy):
    try:
        c, report = canonicalize_csr(a, policy)
    except ValueError as exc:
        return {"raised": (type(exc).__name__, exc.reason, exc.rows.tobytes(), str(exc))}
    return ref.flat({"csr": c, "report": report}) | {
        "shape": c.shape, "sorted": c.has_sorted_indices,
    }


@pytest.mark.parametrize("policy", ["repair", "strict"])
@pytest.mark.parametrize("name,a", GATE_INPUTS, ids=[n for n, _ in GATE_INPUTS])
def test_canonicalize_clean_path_matches_full_inspection(monkeypatch, name, a, policy):
    """Same arrays (values and dtypes), same report, same rejection."""
    import repro.reliability.validation as validation

    c = a.tocsr()
    clean = validation._is_canonical(
        np.asarray(c.indptr, dtype=np.int64), c.indices, np.asarray(c.data, dtype=np.float64), c.shape[1]
    )
    assert clean == (name not in ("unsorted", "duplicate", "out_of_range", "nonfinite", "trust_duplicates"))
    shipped = _gate(a, policy)
    if clean:
        got, _ = canonicalize_csr(a, policy)
        for arr in (got.indptr, got.indices, got.data):
            assert not any(np.shares_memory(arr, x) for x in (c.indptr, c.indices, c.data))
    ref.full_inspection(monkeypatch)
    assert shipped == _gate(a, policy)


def test_distinct_sectors_match_unique():
    rng = np.random.default_rng(7)
    for n_tiles in (0, 1, 5, 40):
        offsets = np.r_[0, np.cumsum(rng.integers(0, 9, n_tiles))]
        lcol = rng.integers(0, 16, int(offsets[-1])).astype(np.uint8)
        assert costs._distinct_sectors_per_tile(lcol, offsets) == ref.distinct_sectors_per_tile(
            lcol, offsets
        )


@pytest.mark.parametrize("name,a,policy,tile", TILED, ids=TILED_IDS)
def test_deferred_remainder_matches_fresh_tiling(name, a, policy, tile):
    """The masked tile set equals tiling the remaining matrix from scratch."""
    ts = tile_decompose(a, tile=tile, validation=policy)
    split = split_deferred_coo(ts)
    c = canonicalize_csr(a, policy)[0]
    if split.tiled is None:
        assert split.extracted.all()
        return
    want = tile_decompose(ref.remainder(c, split.extracted), tile=tile, validation=policy)
    assert ref.flat(split.tiled.tileset) == ref.flat(want)


@pytest.mark.parametrize(
    "a",
    [power_law(3000, avg_degree=8, seed=1), fem_blocks(800, seed=2), banded(2000, 8, seed=3)]
    + [a for _, a, _ in ref.cases()],
    ids=["power_law", "fem_blocks", "banded"] + [name for name, _, _ in ref.cases()],
)
@pytest.mark.parametrize("sigma", [None, 4, 16])
def test_csr5_transposed_gather_sectors_match_unique(a, sigma):
    engine = Csr5SpMV(a, sigma=sigma, validation="trust")
    assert engine.transposed_gather_sectors() == ref.transposed_gather_sectors(engine)


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
                payloads=e.tiled.payloads(e.halves()[0].data),
                operand=e.operand,
            )
        return ref.flat(parts)

    shipped = snapshot()
    ref.patch_in(monkeypatch)
    assert snapshot() == shipped


# -- source guard ---------------------------------------------------------

GUARDED = (
    repro.formats.base,
    repro.formats.tile_coo,
    repro.formats.tile_csr,
    repro.formats.tile_ell,
    repro.formats.tile_hyb,
    repro.formats.tile_dns,
    repro.formats.tile_dnsrow,
    repro.formats.tile_dnscol,
    repro.formats.tile_bitmap,
    repro.core.storage,
    repro.core.scheduler,
    repro.core.tiling,
    repro.core.selection,
    repro.core.deferred,
    repro.core.plancache,
    costs,
    repro.baselines.common,
    repro.baselines.csr5,
    repro.core.tilespmv,
    repro.dist.sharded,
    repro.dist.procpool,
)

# The modules that build, refill and execute the operand.
OPERAND_BUILDERS = (
    repro.core.tilespmv,
    repro.core.plancache,
    repro.core.deferred,
    repro.dist.sharded,
    repro.dist.procpool,
    repro.dist.recovery,
)


def _scatters_and_sorts(source: str, names=("at", "unique", "lexsort")) -> list[str]:
    """Calls of the attributes ``names``: by default ``<ufunc>.at(``
    scatters and ``np.unique``/``np.lexsort``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            offenders.append(f"{node.lineno}: {ast.unparse(node.func)}")
    return offenders


def test_guard_sees_scatters_and_sorts():
    src = "def f(a, i, k):\n    np.add.at(a, i, 1)\n    np.unique(k)\n    return np.lexsort((k, i))\n"
    assert _scatters_and_sorts(src) == ["2: np.add.at", "3: np.unique", "4: np.lexsort"]
    assert _scatters_and_sorts("o = np.argsort(k)\n", ("argsort",)) == ["1: np.argsort"]


@pytest.mark.parametrize("module", GUARDED, ids=[m.__name__ for m in GUARDED])
def test_plan_build_has_no_scatter_or_sort_count(module):
    assert _scatters_and_sorts(inspect.getsource(module)) == []


@pytest.mark.parametrize("module", OPERAND_BUILDERS, ids=[m.__name__ for m in OPERAND_BUILDERS])
def test_operand_path_has_no_argsort(module):
    assert _scatters_and_sorts(inspect.getsource(module), ("argsort",)) == []
