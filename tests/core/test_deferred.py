"""DeferredCOO extraction tests."""

import numpy as np
import scipy.sparse as sp

from repro.core.deferred import split_deferred_coo
from repro.core.selection import select_formats
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.matrices import fem_blocks, hypersparse, power_law
from repro.reliability.validation import canonicalize_csr


class TestSplitDeferredCoo:
    def test_partition_is_exact(self, zoo_matrix):
        """tiled + deferred reconstruct the original matrix exactly."""
        c = canonicalize_csr(zoo_matrix)[0]
        ts = tile_decompose(c, validation="trust")
        split = split_deferred_coo(ts)
        m = split.extracted
        d = split.deferred
        total = sp.csr_matrix((c.data[m], d.indices, d.indptr), shape=c.shape)
        if split.tiled is not None:
            total = total + split.tiled.to_csr(c.data[~m])
        assert (total != zoo_matrix.tocsr()).nnz == 0

    def test_no_coo_left_in_tiled_part(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        split = split_deferred_coo(ts)
        if split.tiled is not None:
            hist = split.tiled.format_histogram()
            assert hist[FormatID.COO]["tiles"] == 0
            assert hist[FormatID.HYB]["tiles"] == 0

    def test_extracted_count_matches_deferred_nnz(self, zoo_matrix):
        ts = tile_decompose(zoo_matrix)
        split = split_deferred_coo(ts)
        assert split.deferred.nnz == split.extracted_nnz

    def test_hypersparse_fully_deferred(self):
        # Nearly every tile is COO: the tiled part may vanish entirely.
        a = hypersparse(600, nnz=50, seed=3)
        split = split_deferred_coo(tile_decompose(a))
        assert split.extracted_nnz > 0.9 * a.nnz

    def test_structured_mostly_kept(self):
        a = fem_blocks(120, block=3, avg_degree=10, seed=4)
        split = split_deferred_coo(tile_decompose(a))
        assert split.extracted_nnz < 0.5 * a.nnz
        assert split.tiled is not None

    def test_formats_carried_over_not_reselected(self):
        """A HYB tile's ELL remainder stays ELL even if re-selection would
        have chosen differently."""
        a = power_law(400, avg_degree=5, seed=5)
        ts = tile_decompose(a)
        formats = select_formats(ts)
        split = split_deferred_coo(ts, formats=formats)
        if split.tiled is None:
            return
        # Every remaining tile's format comes from the original decision.
        old_key = {
            (int(r), int(c)): FormatID(f)
            for r, c, f in zip(ts.tile_rowidx, ts.tile_colidx, formats)
        }
        new_ts = split.tiled.tileset
        for r, c, f in zip(new_ts.tile_rowidx, new_ts.tile_colidx, split.tiled.formats):
            orig = old_key[(int(r), int(c))]
            expected = FormatID.ELL if orig == FormatID.HYB else orig
            assert FormatID(f) == expected

    def test_empty_deferred_for_dense_blocks(self):
        a = sp.csr_matrix(np.ones((32, 32)))
        split = split_deferred_coo(tile_decompose(a))
        assert split.deferred.nnz == 0
        assert split.tiled is not None
