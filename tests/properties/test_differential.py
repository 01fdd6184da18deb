"""Differential fuzzing: every engine vs the dense NumPy oracle.

A seeded loop draws matrices from random structural classes and pushes
each through

* every *universally applicable* tile format, forced onto all tiles
  (DNSROW/DNSCOL legitimately reject partially-filled rows/columns, so
  they are exercised by their own format tests instead),
* every TileSpMV strategy, and
* every baseline,

comparing against ``A.toarray() @ x`` computed by NumPy.  The same loop
checks the cost-model invariants the analysis layer relies on: useful
flops are exactly ``2*nnz`` no matter which format executes, and no
format claims to move less than the bare value stream (8 bytes/nnz).
"""

import numpy as np
import pytest

from repro.baselines import (
    BsrSpMV,
    Csr5SpMV,
    CsrScalarSpMV,
    HybGlobalSpMV,
    MergeSpMV,
)
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix, same_csr
from repro.core.tiling import tile_decompose
from repro.core.tilespmv import TileSpMV
from repro.formats import FormatID
from repro.matrices import generators as g
from repro.reliability.validation import canonicalize_csr

pytestmark = pytest.mark.properties

# Formats any tile population can be encoded in (unlike DNSROW/DNSCOL,
# which require fully-dense rows/columns).
UNIVERSAL_FORMATS = (
    FormatID.CSR,
    FormatID.COO,
    FormatID.ELL,
    FormatID.HYB,
    FormatID.DNS,
    FormatID.BITMAP,
)

STRUCTURAL_CLASSES = [
    lambda rng: g.random_uniform(
        int(rng.integers(30, 150)), int(rng.integers(30, 150)),
        nnz_per_row=float(rng.uniform(1, 8)), seed=int(rng.integers(2**31)),
    ),
    lambda rng: g.banded(
        int(rng.integers(40, 200)), half_bandwidth=int(rng.integers(1, 9)),
        seed=int(rng.integers(2**31)),
    ),
    lambda rng: g.power_law(
        int(rng.integers(60, 250)), avg_degree=float(rng.uniform(2, 7)),
        seed=int(rng.integers(2**31)),
    ),
    lambda rng: g.hypersparse(
        int(rng.integers(100, 400)), nnz=int(rng.integers(5, 60)),
        seed=int(rng.integers(2**31)),
    ),
    lambda rng: g.block_random(
        int(rng.integers(40, 120)), block=16, fill=float(rng.uniform(0.5, 1.0)),
        seed=int(rng.integers(2**31)),
    ),
    lambda rng: g.dense_corner(
        int(rng.integers(40, 120)), corner_frac=float(rng.uniform(0.2, 0.5)),
        seed=int(rng.integers(2**31)),
    ),
]

N_ROUNDS = 8


def _draw(rng):
    cls = STRUCTURAL_CLASSES[int(rng.integers(len(STRUCTURAL_CLASSES)))]
    return cls(rng)


def test_forced_formats_agree_with_dense_oracle():
    """Every forced format's payloads decode to exactly the matrix.

    Products execute the canonical matrix, not the payloads, so the
    check is the payload round-trip itself, bit for bit.
    """
    rng = np.random.default_rng(8001)
    for round_ in range(N_ROUNDS):
        matrix = _draw(rng)
        rng.standard_normal(matrix.shape[1])  # keeps the seeded draw sequence
        ts = tile_decompose(matrix, validation="repair")
        c = canonicalize_csr(matrix, "repair")[0]
        np.testing.assert_array_equal(c.toarray(), matrix.toarray())
        for fmt in UNIVERSAL_FORMATS:
            tm = TileMatrix.build(ts, np.full(ts.n_tiles, fmt, dtype=np.uint8))
            assert same_csr(tm.to_csr(c.data), c), (
                f"round {round_}: format {fmt.name} payloads do not decode to the matrix"
            )


def test_tilespmv_strategies_agree_with_dense_oracle():
    rng = np.random.default_rng(8002)
    for round_ in range(N_ROUNDS):
        matrix = _draw(rng)
        x = rng.standard_normal(matrix.shape[1])
        want = matrix.toarray() @ x
        for method in ("csr", "adpt", "deferred_coo", "auto"):
            got = TileSpMV(matrix, method=method).spmv(x)
            np.testing.assert_allclose(
                got, want, rtol=1e-10, atol=1e-10,
                err_msg=f"round {round_}: method {method} disagrees with dense",
            )


def test_baselines_agree_with_dense_oracle():
    rng = np.random.default_rng(8003)
    baselines = (CsrScalarSpMV, MergeSpMV, Csr5SpMV, BsrSpMV, HybGlobalSpMV)
    for round_ in range(N_ROUNDS):
        matrix = _draw(rng)
        x = rng.standard_normal(matrix.shape[1])
        want = matrix.toarray() @ x
        for cls in baselines:
            got = cls(matrix).spmv(x)
            np.testing.assert_allclose(
                got, want, rtol=1e-10, atol=1e-10,
                err_msg=f"round {round_}: {cls.__name__} disagrees with dense",
            )


def test_cost_model_invariants_across_formats():
    """Useful flops are format-independent; bytes respect the value stream."""
    rng = np.random.default_rng(8004)
    for round_ in range(N_ROUNDS):
        matrix = _draw(rng)
        ts = tile_decompose(matrix, validation="repair")
        nnz = ts.nnz
        for fmt in UNIVERSAL_FORMATS:
            tm = TileMatrix.build(ts, np.full(ts.n_tiles, fmt, dtype=np.uint8))
            cost = tm.run_cost(tbalance=8)
            assert cost.useful_flops == pytest.approx(2.0 * nnz), (
                f"round {round_}: {fmt.name} claims "
                f"{cost.useful_flops} useful flops, expected {2 * nnz}"
            )
            assert cost.executed_flops >= cost.useful_flops
            kernel_payload = sum(
                c.payload_bytes for c in tm.kernel_costs().values()
            )
            assert kernel_payload >= 8 * nnz, (
                f"round {round_}: {fmt.name} moves {kernel_payload} payload "
                f"bytes, below the 8*nnz={8 * nnz} value-stream bound"
            )


def test_adpt_selection_agrees_with_dense_oracle_and_mixes_formats():
    """The ADPT selector's mixed-format build stays exact."""
    rng = np.random.default_rng(8005)
    saw_multiple_formats = False
    for _ in range(N_ROUNDS):
        matrix = _draw(rng)
        ts = tile_decompose(matrix, validation="repair")
        formats = select_formats(ts, SelectionConfig())
        tm = TileMatrix.build(ts, formats)
        rng.standard_normal(matrix.shape[1])  # keeps the seeded draw sequence
        c = canonicalize_csr(matrix, "repair")[0]
        np.testing.assert_array_equal(c.toarray(), matrix.toarray())
        assert same_csr(tm.to_csr(c.data), c)
        if len(np.unique(formats)) > 1:
            saw_multiple_formats = True
    assert saw_multiple_formats, "fuzz pool never exercised a mixed-format build"
