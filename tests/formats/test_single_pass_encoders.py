"""Single-pass per-tile counts and encoders against scatter-based references.

Each rewritten helper must return exactly the array (values, dtype and
shape) its former ``np.add.at`` / ``np.bitwise_or.at`` formulation
returned; the references live in :mod:`tests.build_reference`.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import encode_bitmap, encode_csr, encode_hyb, hyb_split_widths
from tests import build_reference as ref

VIEWS = [(name, a, policy, tile) for name, a, policy in ref.cases() for tile in (4, 8, 16)]


@pytest.fixture(params=VIEWS, ids=[f"{v[0]}-t{v[3]}" for v in VIEWS])
def view(request):
    _, a, policy, tile = request.param
    return ref.valued_view(a, tile=tile, validation=policy)


def test_row_and_col_counts(view):
    ref.assert_same(view.row_counts(), ref.row_counts(view))
    ref.assert_same(view.col_counts(), ref.col_counts(view))


def test_csr_nibble_packing(view):
    data = encode_csr(view)
    ref.assert_same(data.colidx, ref.csr_colidx(view, data.byte_offsets))


def test_hyb_split_lengths(view):
    widths = hyb_split_widths(view)
    hyb = encode_hyb(view, widths=widths)
    ref.assert_same(hyb.coo.offsets, ref.hyb_split_views(view, widths)[1].offsets)
    assert ref.flat(hyb) == ref.flat(ref.encode_hyb(view, widths))


@pytest.mark.parametrize("name,a,policy", ref.cases(), ids=[c[0] for c in ref.cases()])
def test_bitmap_packing(name, a, policy):
    view = ref.valued_view(a, tile=16, validation=policy)
    ref.assert_same(encode_bitmap(view).bitmap, ref.bitmap_bytes(view))


def test_bitmap_packing_full_tile():
    """Every bit of every byte set: runs of eight entries per byte."""
    view = ref.valued_view(sp.csr_matrix(np.ones((16, 16))), tile=16)
    bitmap = encode_bitmap(view).bitmap
    ref.assert_same(bitmap, ref.bitmap_bytes(view))
    assert bitmap.tolist() == [0xFF] * 32
