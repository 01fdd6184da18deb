"""Vector reductions that stay off threaded BLAS, and the solvers' use of them."""

import ast
import inspect

import numpy as np
import pytest

import repro.apps.solvers as solvers
import repro.dist.recovery as recovery
import repro.reliability.abft as abft
import repro.serving.checkpoint as checkpoint
import repro.util.vecops as vecops
from repro.util.vecops import dot, norm


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


def _blas_reductions(module, classes: tuple[str, ...] = ()) -> list[str]:
    """Bare ``@`` and axis-less ``np.linalg.norm`` in ``module``'s functions.

    Scans the module-level functions and the methods of ``classes``.  On
    length-n vectors either is a threaded BLAS ``ddot`` (a block operand
    makes ``@`` a threaded ``dgemv``).
    """
    tree = ast.parse(inspect.getsource(module))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            functions += [n for n in node.body if isinstance(n, ast.FunctionDef)]
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
    """Every 1-D reduction in the solvers goes through ``repro.util.vecops``."""
    assert _blas_reductions(solvers) == []


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
    assert _blas_reductions(checkpoint) == []
