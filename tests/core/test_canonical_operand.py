"""The executing operand is the canonical input.

Every plan executes the canonical CSR matrix it was built from: the
input gate's matrix, or under a reorder the permuted canonical matrix
``rp.apply`` returns.  The A.T operand is the CSR of that matrix's
transpose in original coordinates.  Inputs kept with duplicate entries
(``validation="trust"``) execute in their own CSR order, so every
method returns the bits of ``c @ x`` and takes value updates.  The plan
never aliases the caller's arrays.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import PlanCache, TileSpMV
from repro.core.storage import same_csr
from repro.matrices import banded, fem_blocks, power_law, random_uniform
from repro.matrices.reorder import build_reorder
from repro.reliability.validation import canonicalize_csr
from tests import build_reference as ref

METHODS = ("csr", "adpt", "deferred_coo", "auto")
CASES = [(name, a, policy) for name, a, policy in ref.cases()] + [
    ("power_law", power_law(1500, avg_degree=6, seed=11), "repair"),
    ("fem_blocks", fem_blocks(400, seed=12), "repair"),
    ("banded", banded(900, half_bandwidth=8, seed=13), "repair"),
    ("rectangular", random_uniform(150, 97, nnz_per_row=4, seed=14), "repair"),
]
IDS = [c[0] for c in CASES]
SQUARE = [c for c in CASES if c[1].shape[0] == c[1].shape[1]]  # RCM is square-only


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,a,policy", CASES, ids=IDS)
def test_operand_is_the_canonical_input(name, a, policy, method):
    c, _ = canonicalize_csr(a, policy)
    e = TileSpMV(a, method=method, validation=policy)
    assert same_csr(e._op, c)
    e.spmv_transpose(np.ones(a.shape[0]))
    assert same_csr(e._t_op, c.T.tocsr())


@pytest.mark.parametrize("reorder", ["sell:32", "rcm", "sell:0+cmrs:8/32"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,a,policy", SQUARE, ids=[c[0] for c in SQUARE])
def test_reordered_operand_is_the_permuted_canonical_input(name, a, policy, method, reorder):
    c, _ = canonicalize_csr(a, policy)
    e = TileSpMV(a, method=method, validation=policy, reorder=reorder)
    assert same_csr(e._op, build_reorder(c, reorder).apply(c))
    e.spmv_transpose(np.ones(a.shape[0]))
    assert same_csr(e._t_op, c.T.tocsr())


@pytest.mark.parametrize("method", METHODS)
def test_trusted_duplicates_run_every_method_bit_for_bit(method):
    """Duplicates stay in the input's CSR order in every method's operand."""
    c = ref.trusted_duplicates()
    x = np.linspace(-1.0, 2.0, c.shape[1]) ** 3
    e = TileSpMV(c, method=method, validation="trust")
    assert e._op.nnz == c.nnz
    assert e.spmv(x).tobytes() == (c @ x).tobytes()

    c2 = sp.csr_matrix((c.data * np.pi, c.indices, c.indptr), shape=c.shape)
    e.update_values(c2.data)
    assert e.spmv(x).tobytes() == (c2 @ x).tobytes()

    cache = PlanCache()
    TileSpMV(c, method=method, validation="trust", plan_cache=cache)
    refreshed = TileSpMV(c2, method=method, validation="trust", plan_cache=cache)
    assert cache.hits == 1
    assert refreshed.spmv(x).tobytes() == (c2 @ x).tobytes()


@pytest.mark.parametrize("method", ["csr", "adpt"])
def test_updated_duplicates_keep_their_own_payload_values(method):
    """The k-th decoded duplicate takes the k-th duplicate's new value."""
    c = ref.trusted_duplicates()
    e = TileSpMV(c, method=method, validation="trust")
    e.update_values(np.arange(1, c.nnz + 1.0))
    assert same_csr(e.tiled.to_csr(e.operand.data), e.operand)


@pytest.mark.parametrize("method", ["csr", "adpt"])
def test_validate_accepts_duplicates_and_rejects_descending_columns(method):
    """Equal neighbouring columns are a legal ``trust`` operand; a
    descending pair within a row is not."""
    c = ref.trusted_duplicates()
    e = TileSpMV(c, method=method, validation="trust")
    e.validate()
    op = e.operand
    e.tiled.validate(op)
    op.indices[:3] = op.indices[:3][::-1]  # row 0: [1, 1, 18] -> [18, 1, 1]
    with pytest.raises(AssertionError, match="columns must ascend"):
        e.tiled.validate(op)


@pytest.mark.parametrize("method", METHODS)
def test_plan_does_not_alias_the_callers_arrays(method):
    """Under ``trust`` the gate returns the caller's matrix; the plan copies it."""
    a = power_law(800, avg_degree=5, seed=15)
    a.sort_indices()
    x, xt = np.ones(a.shape[1]), np.ones(a.shape[0])
    e = TileSpMV(a, method=method, validation="trust")
    assert canonicalize_csr(a, "trust")[0] is a
    y, yt = e.spmv(x), e.spmv_transpose(xt)
    a.data[:] = 7.0
    a.indices[:] = 0
    assert e.spmv(x).tobytes() == y.tobytes()
    assert e.spmv_transpose(xt).tobytes() == yt.tobytes()
