"""Smoke test: the solver examples run end to end on the library's
solvers and print what they printed with their own copies."""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_cg_solver_example(capsys):
    _main("cg_solver")()
    out = capsys.readouterr().out
    assert "grid 96x96 -> n=9216, nnz=45696" in out
    assert "CG converged in 15 iterations (16 SpMV calls), rel err 7.67e-09" in out


def test_pagerank_example(capsys):
    _main("pagerank")()
    out = capsys.readouterr().out
    assert out.count(": 19 iterations, modelled A100 SpMV") == 2
    assert "ADPT and DeferredCOO ranks agree: True" in out
    assert "top-5 nodes: 44639 (4.14e-02), 6082 (2.21e-02)" in out
