"""``row_gather_sectors`` counts sorted runs; its callers canonicalize first."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.common import row_gather_sectors
from repro.baselines.csr_scalar import CsrScalarSpMV
from repro.baselines.hyb_global import EllGlobalSpMV, HybGlobalSpMV
from repro.baselines.merge import MergeSpMV
from repro.reliability.validation import canonicalize_csr
from tests import build_reference as ref
from tests.conftest import zoo

MATRICES = [(name, a, "repair") for name, a in zoo()] + ref.cases()


@pytest.mark.parametrize("name,a,policy", MATRICES, ids=[m[0] for m in MATRICES])
def test_matches_unique_count(name, a, policy):
    csr = canonicalize_csr(a, policy)[0]
    assert row_gather_sectors(csr.indptr, csr.indices) == ref.row_gather_sectors(
        csr.indptr, csr.indices
    )


def _unsorted_with_duplicates() -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A raw CSR whose rows are unsorted and repeat columns, and its
    canonical (sorted, merged) form."""
    indptr = np.array([0, 5, 5, 9, 12])
    indices = np.array([9, 0, 13, 9, 1, 22, 3, 22, 2, 30, 4, 30])
    data = np.arange(1.0, 13.0)
    raw = sp.csr_matrix((data, indices, indptr), shape=(4, 32))
    canonical = sp.coo_matrix(
        (data, (np.repeat(np.arange(4), np.diff(indptr)), indices)), shape=(4, 32)
    ).tocsr()
    return raw, canonical


@pytest.mark.parametrize("engine", [CsrScalarSpMV, MergeSpMV, HybGlobalSpMV, EllGlobalSpMV])
@pytest.mark.parametrize("policy", ["repair", "trust"])
def test_engines_canonicalize_before_counting(engine, policy):
    """Gather sectors are counted on the canonical matrix: the raw input
    would alternate sectors inside a row and over-count."""
    raw, canonical = _unsorted_with_duplicates()
    assert row_gather_sectors(raw.indptr, raw.indices) != ref.row_gather_sectors(
        raw.indptr, raw.indices
    )
    expected = engine(canonical).run_cost().x_gather_bytes
    assert expected == 32 * ref.row_gather_sectors(canonical.indptr, canonical.indices)
    assert engine(raw, validation=policy).run_cost().x_gather_bytes == expected
