"""Payload round-trip: decode(encode(A)) equals canonical A, bit for bit.

Products execute the canonical CSR matrix a plan was built from, not
its payloads, so no product can notice an encoder that stores the
wrong matrix.  This suite holds the payloads to the matrix instead:
for every universal format forced onto every tile, for the ADPT mix,
and for both DeferredCOO halves — the tiled half's decode is the
canonical matrix without the extracted entries ``c[~m]``, the CSR5
arrays are ``c[m]`` — over the matrix zoo and a Hypothesis strategy
over shapes, tile sizes and densities.  A seeded encoder mutation (two
swapped column nibbles in a CSR tile) must fail the check.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.core.storage
from repro import TileSpMV
from repro.core.deferred import split_deferred_coo
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix, masked_csr, same_csr
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.formats.tile_csr import encode_csr
from repro.reliability.validation import canonicalize_csr
from tests.properties.test_differential import UNIVERSAL_FORMATS

pytestmark = pytest.mark.properties


def _csr5_pattern(layout, data, shape) -> sp.csr_matrix:
    """The CSR5 layout's arrays carrying ``data`` (it holds no values)."""
    return sp.csr_matrix((data, layout.indices, layout.indptr), shape=shape)


def assert_round_trips(a: sp.spmatrix, tile: int = 16, use_bitmap: bool = False) -> None:
    """Every format, the ADPT mix and both DeferredCOO halves decode to
    the canonical matrix (or their mask of it)."""
    c = canonicalize_csr(a)[0]
    ts = tile_decompose(c, tile=tile, validation="trust")
    for fmt in UNIVERSAL_FORMATS:
        if fmt == FormatID.BITMAP and tile != 16:
            continue  # the bitmap format is defined for 16x16 tiles only
        tm = TileMatrix.build(ts, np.full(ts.n_tiles, fmt, dtype=np.uint8))
        assert same_csr(tm.to_csr(c.data), c), f"{fmt.name} payloads do not decode to the matrix"
    formats = select_formats(ts, SelectionConfig(use_bitmap=use_bitmap))
    assert same_csr(TileMatrix.build(ts, formats).to_csr(c.data), c), "ADPT payloads"
    split = split_deferred_coo(ts, formats=formats)
    m = split.extracted
    if split.tiled is not None:
        assert same_csr(split.tiled.to_csr(c.data[~m]), masked_csr(c, ~m)), "tiled half != c[~m]"
    else:
        assert m.all()
    assert same_csr(_csr5_pattern(split.deferred, c.data[m], c.shape), masked_csr(c, m)), (
        "CSR5 half != c[m]"
    )


def test_zoo_round_trips(zoo_matrix):
    assert_round_trips(zoo_matrix)


@pytest.mark.parametrize("method", ["csr", "adpt", "deferred_coo", "auto"])
def test_engine_halves_decode_to_canonical_input(zoo_matrix, method):
    """Each engine's tiled half decodes to c[~m]; its CSR5 arrays are c[m]."""
    c, _ = canonicalize_csr(zoo_matrix)
    e = TileSpMV(zoo_matrix, method=method)
    m = e._mp.extracted
    if m is None:
        m = np.zeros(c.nnz, dtype=bool)
    if e.tiled is not None:
        assert same_csr(e.tiled.to_csr(c.data[~m]), masked_csr(c, ~m))
    if e.deferred_engine is not None:
        assert same_csr(_csr5_pattern(e.deferred_engine, c.data[m], c.shape), masked_csr(c, m))
    else:
        assert not m.any()
    e.validate()


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(1, 90)), draw(st.integers(1, 90))
    density = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a = sp.random(m, n, density=density, random_state=rng, format="csr")
    a.data = rng.standard_normal(a.nnz)
    return a


@given(sparse_matrices(), st.sampled_from([4, 8, 16]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(a, tile, use_bitmap):
    assert_round_trips(a, tile=tile, use_bitmap=use_bitmap and tile == 16)


def _swap_two_lcol_nibbles(seed: int):
    """``encode_csr`` storing two column nibbles of one CSR tile swapped."""

    def mutated(view):
        data = encode_csr(view)
        colidx = data.colidx.copy()
        # Bytes holding two entries (an odd-rank entry's), differing nibbles.
        rank = view.entry_rank()
        pairs = (data.byte_offsets[view.tile_of_entry()] + rank // 2)[rank % 2 == 1]
        pairs = pairs[(colidx[pairs] >> 4) != (colidx[pairs] & 0xF)]
        if pairs.size:
            b = int(np.random.default_rng(seed).choice(pairs))
            colidx[b] = (colidx[b] << 4 & 0xF0) | (colidx[b] >> 4)
        return replace(data, colidx=colidx)

    return mutated


@pytest.mark.parametrize("mutate", [False, True], ids=["shipped", "swapped-nibbles"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_catches_swapped_lcol_nibbles(monkeypatch, mutate, seed):
    """The check is green on the shipped encoder and red on the mutant."""
    a = sp.random(64, 64, density=0.2, random_state=seed, format="csr")
    if mutate:
        monkeypatch.setitem(repro.core.storage._ENCODERS, FormatID.CSR, _swap_two_lcol_nibbles(seed))
    c = canonicalize_csr(a)[0]
    ts = tile_decompose(c, validation="trust")
    tm = TileMatrix.build(ts, np.full(ts.n_tiles, FormatID.CSR, dtype=np.uint8))
    assert same_csr(tm.to_csr(c.data), c) is not mutate
    if mutate:
        with pytest.raises(AssertionError, match="round-trip"):
            tm.validate(c)
    else:
        tm.validate(c)
