"""Per-format microbenchmarks: encode, decode and single-format SpMV.

Wall time of this reproduction's own vectorised implementations, one
format at a time (the whole matrix forced into that format), tracking
regressions in the encoders and the gather builder.
"""

import numpy as np
import pytest

from repro.core.selection import select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import (
    FormatID,
    encode_bitmap,
    encode_coo,
    encode_csr,
    encode_dns,
    encode_ell,
    encode_hyb,
)
from repro.matrices import random_uniform
from repro.reliability.validation import canonicalize_csr

ENCODERS = {
    "csr": encode_csr,
    "coo": encode_coo,
    "ell": encode_ell,
    "hyb": encode_hyb,
    "dns": encode_dns,
    "bitmap": encode_bitmap,
}


@pytest.fixture(scope="module")
def operand():
    return canonicalize_csr(random_uniform(3000, 3000, 16, seed=0))[0]


@pytest.fixture(scope="module")
def tileset(operand):
    return tile_decompose(operand, validation="trust")


class TestEncode:
    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_encode(self, benchmark, tileset, operand, name):
        payload = benchmark(ENCODERS[name], tileset.view(operand.data))
        assert payload.nbytes_model() > 0


class TestDecode:
    @pytest.mark.parametrize("name", ["csr", "coo", "ell", "hyb", "dns", "bitmap"])
    def test_decode(self, benchmark, tileset, operand, name):
        payload = ENCODERS[name](tileset.view(operand.data))
        out = benchmark(payload.decode)
        assert len(out) in (3, 4)


class TestSingleFormatSpmv:
    @pytest.mark.parametrize(
        "fmt", [FormatID.CSR, FormatID.COO, FormatID.ELL, FormatID.HYB, FormatID.DNS, FormatID.BITMAP]
    )
    def test_spmv(self, benchmark, tileset, operand, fmt):
        """Every format executes the canonical CSR operand; the payloads
        (built here) are priced, not run."""
        tm = TileMatrix.build(tileset, np.full(tileset.n_tiles, fmt, dtype=np.uint8))
        x = np.ones(tileset.n)
        y = benchmark(operand.__matmul__, x)
        assert y.shape == (tm.shape[0],)


class TestPreprocessingPhases:
    def test_tile_decompose(self, benchmark):
        a = random_uniform(3000, 3000, 16, seed=1)
        benchmark(tile_decompose, a)

    def test_selection(self, benchmark, tileset):
        fmt = benchmark(select_formats, tileset)
        assert fmt.size == tileset.n_tiles
