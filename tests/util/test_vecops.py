"""Vector reductions that stay off threaded BLAS, and the solvers' use of them."""

import ast
import inspect

import numpy as np
import pytest

import repro.apps.graph as graph
import repro.apps.solvers as solvers
import repro.dist.recovery as recovery
import repro.reliability.abft as abft
import repro.serving.checkpoint as checkpoint
import repro.util.vecops as vecops
from repro.util.vecops import CHUNK_ELEMS, SUM_ROWS, column_sums, dot, norm, weighted_sum


@pytest.mark.parametrize("n", [0, 1, 7, 18000])
def test_match_numpy(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert isinstance(dot(a, b), float)
    assert dot(a, b) == pytest.approx(float(a @ b), rel=1e-12, abs=1e-12)
    assert norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-12, abs=0.0)


def test_nonfinite_propagates():
    assert np.isnan(dot(np.array([1.0, np.nan]), np.ones(2)))
    assert norm(np.array([np.inf, 1.0])) == np.inf


def test_independent_of_alignment():
    """The summation order must not depend on where the array starts."""
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(18000), rng.standard_normal(18000)
    ref = dot(a, b)
    raw = np.empty(a.nbytes + 64, dtype=np.uint8)
    for off in range(0, 64, 8):
        shifted = raw[off:off + a.nbytes].view(np.float64)
        shifted[:] = a
        assert dot(shifted, b) == ref


def _layouts(x: np.ndarray):
    """``x`` as a C-order block, an F-order block and a strided view."""
    wide = np.zeros((2 * x.shape[0], 2 * x.shape[1]))
    strided = wide[::2, ::2]
    strided[:] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": strided}


@pytest.mark.parametrize("k", range(1, 10))
def test_block_reductions_match_columns(k):
    """The chunked block forms equal the per-column 1-D reductions to
    1e-12 of the summed magnitudes, whatever the block's layout, for
    blocks of one row, of 20000 rows, and of a chunk's rows and one
    row either side (each reduction's chunk)."""
    chunks = (SUM_ROWS, vecops._gemv_rows(k))
    for n in sorted({1, 20000, *(c + d for c in chunks for d in (-1, 0, 1))}):
        rng = np.random.default_rng(1000 * k + n)
        w, x = rng.standard_normal(n), rng.standard_normal((n, k))
        ref_ws = np.array([dot(w, x[:, j]) for j in range(k)])
        ref_cs = np.array([np.sum(x[:, j]) for j in range(k)])
        for layout, blk in _layouts(x).items():
            ws, cs = weighted_sum(w, blk), column_sums(blk)
            assert ws.shape == cs.shape == (k,), (n, layout)
            np.testing.assert_allclose(ws, ref_ws, rtol=1e-12,
                                       atol=1e-12 * np.abs(w) @ np.abs(x).max(axis=1))
            np.testing.assert_allclose(cs, ref_cs, rtol=1e-12,
                                       atol=1e-12 * np.abs(x).sum())


def test_one_dimensional_forms_keep_their_bits():
    """The solvers' reductions are einsum's and numpy's own, bit for bit:
    chunking applies to blocks only."""
    rng = np.random.default_rng(7)
    for n in (0, 1, SUM_ROWS + 1, 18000):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert dot(a, b) == float(np.einsum("i,i->", a, b))
        assert weighted_sum(a, b) == dot(a, b)
        assert column_sums(b) == np.sum(b)


def test_block_reductions_of_empty_blocks():
    assert weighted_sum(np.ones(0), np.ones((0, 3))).tolist() == [0.0] * 3
    assert column_sums(np.ones((0, 3))).tolist() == [0.0] * 3
    assert weighted_sum(np.ones(5), np.ones((5, 0))).shape == (0,)
    assert column_sums(np.ones((5, 0))).shape == (0,)


# OpenBLAS 0.3.31 on a 2-vCPU host: the smallest ``gemv`` seen on its
# thread pool held 2.6e5 values; 256 x 1024 (1.3e5) ran in the caller.
GEMV_SERIAL_LIMIT = 131072


def test_chunk_size_is_pinned():
    """A chunk's product stays under the size at which OpenBLAS threads a
    ``gemv``: an edit that grows the chunk fails here."""
    assert (CHUNK_ELEMS, SUM_ROWS) == (8192, 256)
    assert CHUNK_ELEMS <= GEMV_SERIAL_LIMIT


@pytest.mark.parametrize("k", [1, 3, 8, 256, 300, 2048])
def test_every_chunk_product_is_serial_sized(monkeypatch, k):
    """Record the operand of every ``np.matmul`` a block reduction makes."""
    sizes = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b):
            sizes.append(b.shape[-2] * b.shape[-1])
            return np.matmul(a, b)

    monkeypatch.setattr(vecops, "np", RecordingNumpy())
    n = 20000 if k <= 8 else 600
    rng = np.random.default_rng(k)
    weighted_sum(rng.standard_normal(n), rng.standard_normal((n, k)))
    assert sizes and max(sizes) <= CHUNK_ELEMS


def _blas_reductions(
    module, classes: tuple[str, ...] = (), skip: tuple[str, ...] = ()
) -> list[str]:
    """Bare ``@`` and axis-less ``np.linalg.norm`` in ``module``'s functions.

    Scans the module-level functions but those in ``skip``, and the whole
    bodies of ``classes``.  On length-n vectors either is a threaded BLAS
    ``ddot`` (a block operand makes ``@`` a threaded ``dgemv``).
    """
    tree = ast.parse(inspect.getsource(module))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name not in skip]
    functions += [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name in classes]
    assert {n.name for n in functions} >= set(classes), "a class to scan is missing"
    offenders = []
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                offenders.append(f"{fn.name}:{node.lineno} @")
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "np.linalg.norm"
                and not any(k.arg == "axis" for k in node.keywords)
            ):
                offenders.append(f"{fn.name}:{node.lineno} np.linalg.norm")
    return offenders


def test_solvers_use_no_blas_vector_reductions():
    """Every reduction in the solvers, their driver and their steps goes
    through ``repro.util.vecops``."""
    assert _blas_reductions(
        solvers, classes=("Lanes", "BlockLanes", "CgState", "BicgstabState")) == []


def test_pagerank_uses_no_blas_reductions():
    """PageRank's step sums the dangling mass per column: ``dangling @
    rank`` on an (n, k) block would be a threaded ``dgemv``.
    ``make_transition``'s ``@`` is a sparse-by-sparse product."""
    assert _blas_reductions(graph, classes=("PageRankState",), skip=("make_transition",)) == []


def test_abft_uses_no_blas_vector_reductions():
    """The ABFT tolerance, residual and verify stay off threaded BLAS."""
    assert _blas_reductions(abft, classes=("AbftChecksum",)) == []


def test_shard_checks_use_no_blas_vector_reductions():
    """The recovery ladder's per-shard checks — block checksums
    restricted to a cell's window, and the weighted sum behind them —
    reduce in the calling thread."""
    assert _blas_reductions(recovery, classes=("RecoverableShardedSpMV",)) == []
    assert _blas_reductions(abft, classes=("AbftChecksum",)) == []
    assert _blas_reductions(vecops) == []


def test_checkpointed_solvers_use_no_blas_vector_reductions():
    """The checkpointed CG/BiCGSTAB/PageRank reductions and the
    checkpoint consistency check reduce in the calling thread."""
    assert _blas_reductions(checkpoint, classes=("_CheckedLanes",)) == []
