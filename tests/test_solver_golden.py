"""Golden bits of the Krylov solvers and PageRank.

Every case runs a public solver and compares a fingerprint of its whole
result with ``golden_solvers.json``: a blake2b digest of each array's
bytes (dtype and shape included), each float as ``float.hex()``, and
every other field as is.  The cases cover the vector, block and
checkpointed CG/BiCGSTAB solvers, ``pagerank`` and
``personalized_pagerank`` on zoo matrices, with ``x0`` given and not,
runs cut short by ``max_iter``, the breakdown operators of
``tests/test_apps.py`` and zero right-hand sides.  The checkpoint
campaigns (``RecoveryLog`` counters included) are ``faults`` cases,
one set per ``FAULT_SEED`` in :data:`FAULT_SEEDS`.

A change that moves these bits on purpose regenerates the fixture, from
the repo root, and names what moved and why in ``CHANGES.md``::

    PYTHONPATH=src python -m tests.test_solver_golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps import (
    ScipyOperator,
    bicgstab,
    block_bicgstab,
    block_conjugate_gradient,
    conjugate_gradient,
    make_transition,
    pagerank,
    personalized_pagerank,
)
from repro.core.tilespmv import TileSpMV
from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import banded, fem_blocks, power_law, random_uniform, stencil_2d
from repro.serving import (
    CheckpointConfig,
    VerifiedOperator,
    checkpointed_bicgstab,
    checkpointed_cg,
    checkpointed_pagerank,
)

FIXTURE = Path(__file__).with_name("golden_solvers.json")
FAULT_SEEDS = (0, 17, 4242)
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def fingerprint(obj):
    """A JSON-able value that equals another's only on equal bits."""
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, np.ndarray):
        h = hashlib.blake2b(f"{obj.dtype}{obj.shape}".encode(), digest_size=16)
        h.update(np.ascontiguousarray(obj).tobytes())
        return h.hexdigest()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (tuple, list)):
        return [fingerprint(o) for o in obj]
    if isinstance(obj, dict):
        return {str(k): fingerprint(v) for k, v in obj.items()}
    return obj


def _spd(a: sp.spmatrix) -> sp.csr_matrix:
    a = abs(sp.csr_matrix(a))
    a = a + a.T
    return sp.csr_matrix(a + sp.eye(a.shape[0]) * (abs(a).sum(axis=1).max() + 1.0))


def _general(a: sp.spmatrix) -> sp.csr_matrix:
    a = sp.csr_matrix(a)
    return sp.csr_matrix(a + sp.eye(a.shape[0]) * (0.5 * abs(a).sum(axis=1).max() + 1.0))


_ZOO = {
    "random": lambda: random_uniform(200, 200, nnz_per_row=5, seed=1),
    "banded": lambda: banded(240, half_bandwidth=6, seed=3),
    "stencil": lambda: stencil_2d(18, points=5, seed=4),
    "fem": lambda: fem_blocks(90, block=3, avg_degree=8, seed=5),
}

# Cases left out of the fixture because their results deliberately
# changed since it was recorded (CHANGES.md names each change).
_ZERO_START = "converges at iteration 0; was a pAp/rho breakdown at iteration 1"
_HALF_STEP = ("skips the SpMM after every column converged at the half step: "
              "spmm_calls one lower, every other field equal")
EXCLUDED: dict[str, str] = {
    **{f"{kind}/{name}/vector/{start}": _ZERO_START for kind in ("cg", "bicgstab")
       for name in _ZOO for start in ("zero_b", "exact_x0")},
    **dict.fromkeys([f"bicgstab/{name}/block{tag}" for name, tags in (
        ("banded", ("", "/k1", "/k1_x0", "/tol6", "/x0", "/zero_column")),
        ("fem", ("", "/k1", "/tol6", "/zero_column")),
        ("random", ("", "/k1", "/k1_x0", "/x0", "/zero_column")),
        ("stencil", ("", "/k1", "/k1_x0", "/x0", "/zero_column"))) for tag in tags]
        + ["breakdown/block_bicgstab_columns"]
        + [f"breakdown/block_bicgstab_zero_row/{seed}" for seed in (1, 2, 3)], _HALF_STEP),
}


def _system_cases() -> dict:
    cases = {}
    for name, make in _ZOO.items():
        for kind, matrix, vec, blk in (
            ("cg", _spd(make()), conjugate_gradient, block_conjugate_gradient),
            ("bicgstab", _general(make()), bicgstab, block_bicgstab),
        ):
            n = matrix.shape[0]
            rng = np.random.default_rng(len(name) * 31 + n)
            b, x0 = rng.standard_normal(n), 0.1 * rng.standard_normal(n)
            bk, x0k = rng.standard_normal((n, 3)), 0.1 * rng.standard_normal((n, 3))
            exact = rng.standard_normal(n)
            b_exact = matrix @ exact  # x0 = exact is the solution, up to roundoff
            eng = TileSpMV(matrix, method="adpt")
            pre = f"{kind}/{name}"
            for tag, kw in (("", {}), ("/x0", {"x0": x0}), ("/cut", {"max_iter": 4}),
                            ("/x0_cut", {"x0": x0, "max_iter": 3}),
                            ("/tol6", {"tol": 1e-6})):
                cases[f"{pre}/vector{tag}"] = lambda v=vec, e=eng, b=b, kw=kw: v(e, b, **kw)
            cases[f"{pre}/vector/scipy"] = lambda v=vec, m=matrix, b=b: v(ScipyOperator(m), b)
            cases[f"{pre}/vector/zero_b"] = lambda v=vec, e=eng, n=n: v(e, np.zeros(n))
            cases[f"{pre}/vector/exact_x0"] = lambda v=vec, e=eng, b=b_exact, x=exact: v(e, b, x0=x)
            for tag, kw in (("", {}), ("/x0", {"x0": x0k}), ("/cut", {"max_iter": 5}),
                            ("/tol6", {"tol": 1e-6})):
                cases[f"{pre}/block{tag}"] = lambda f=blk, e=eng, b=bk, kw=kw: f(e, b, **kw)
            cases[f"{pre}/block/k1"] = lambda f=blk, e=eng, b=b: f(e, b[:, None])
            cases[f"{pre}/block/k1_x0"] = (
                lambda f=blk, e=eng, b=b, x=x0: f(e, b[:, None], x0=x[:, None]))
            zb = bk.copy()
            zb[:, 1] = 0.0
            cases[f"{pre}/block/zero_column"] = lambda f=blk, e=eng, b=zb: f(e, b)
            cases[f"{pre}/block/exact_x0"] = (
                lambda f=blk, e=eng, b=b_exact, x=exact: f(e, b[:, None], x0=x[:, None]))
            ck = checkpointed_cg if kind == "cg" else checkpointed_bicgstab
            for tag, kw in (("", {}), ("/interval3", {"config": CheckpointConfig(interval=3)}),
                            ("/cut", {"max_iter": 7}), ("/tol6", {"tol": 1e-6})):
                cases[f"{pre}/checkpointed{tag}"] = (
                    lambda f=ck, m=matrix, b=b, kw=kw: f(VerifiedOperator(m), b, **kw))
            cases[f"{pre}/checkpointed/zero_b"] = (
                lambda f=ck, m=matrix, n=n: f(VerifiedOperator(m), np.zeros(n)))
    return cases


def _breakdown_cases() -> dict:
    """The near-zero-denominator operators of ``tests/test_apps.py``."""
    op = lambda a: ScipyOperator(sp.csr_matrix(a))  # noqa: E731
    indefinite = sp.diags([1.0, -1.0])
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    singular = sp.diags([1.0, 0.0])
    cases = {
        "breakdown/cg_pAp": lambda: conjugate_gradient(op(indefinite), np.array([1.0, 1.0])),
        "breakdown/bicgstab_rhat_v": lambda: bicgstab(op(rotation), np.array([1.0, 0.0])),
        "breakdown/bicgstab_singular": lambda: bicgstab(op(singular), np.array([0.0, 1.0])),
        "breakdown/checkpointed_cg_pAp": lambda: checkpointed_cg(
            VerifiedOperator(sp.csr_matrix(indefinite)), np.array([1.0, 1.0])),
        "breakdown/checkpointed_bicgstab_rhat_v": lambda: checkpointed_bicgstab(
            VerifiedOperator(sp.csr_matrix(rotation)), np.array([1.0, 0.0])),
    }
    b = np.zeros((4, 2))
    b[:, 0], b[:, 1] = [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]
    cases["breakdown/block_cg_columns"] = lambda: block_conjugate_gradient(
        op(sp.diags([1.0, -1.0, 2.0, 3.0])), b, max_iter=50)
    b2 = np.zeros((3, 2))
    b2[:, 0], b2[:, 1] = [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    cases["breakdown/block_bicgstab_columns"] = lambda: block_bicgstab(
        op(sp.diags([1.0, 0.0, 2.0])), b2, max_iter=50)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n, k = 24, 6
        low = rng.standard_normal((n, k))
        rhs = rng.standard_normal(n)
        dense = rng.standard_normal((n, n))
        dense[rng.integers(n)] = 0.0
        psd = op(low @ low.T)
        cases[f"breakdown/cg_psd/{seed}"] = (
            lambda o=psd, b=rhs: conjugate_gradient(o, b, max_iter=200))
        cases[f"breakdown/bicgstab_zero_row/{seed}"] = (
            lambda o=op(dense), b=rhs: bicgstab(o, b, max_iter=200))
        cases[f"breakdown/block_cg_psd/{seed}"] = lambda o=psd, b=rhs: block_conjugate_gradient(
            o, np.column_stack([b, -b]), max_iter=200)
        cases[f"breakdown/block_bicgstab_zero_row/{seed}"] = (
            lambda o=op(dense), b=rhs: block_bicgstab(o, np.column_stack([b, 2 * b]), max_iter=200))
    return cases


def _pagerank_cases() -> dict:
    cases = {}
    for n, seed in ((400, 4), (300, 5)):
        adj = power_law(n, avg_degree=5, seed=seed)
        adj.data[:] = 1.0
        transition, dangling = make_transition(adj)
        eng = TileSpMV(transition, method="adpt")
        pre = f"pagerank/powerlaw{n}"
        cases[pre] = lambda e=eng, d=dangling: pagerank(e, d)
        cases[f"{pre}/tol12"] = lambda e=eng, d=dangling: pagerank(e, d, tol=1e-12)
        cases[f"{pre}/cut"] = lambda e=eng, d=dangling: pagerank(e, d, max_iter=6)
        cases[f"{pre}/scipy"] = lambda t=transition, d=dangling: pagerank(ScipyOperator(t), d)
        cases[f"{pre}/checkpointed"] = lambda t=transition, d=dangling: checkpointed_pagerank(
            VerifiedOperator(t), d, tol=1e-12)
        cases[f"{pre}/checkpointed/interval4"] = (
            lambda t=transition, d=dangling: checkpointed_pagerank(
                VerifiedOperator(t), d, config=CheckpointConfig(interval=4)))
        seeds = np.zeros((n, 3))
        seeds[0, 0] = seeds[7, 1] = 1.0
        seeds[:, 2] = 1.0 / n
        cases[f"{pre}/personalized"] = (
            lambda e=eng, d=dangling, s=seeds: personalized_pagerank(e, d, s))
        cases[f"{pre}/personalized/cut"] = (
            lambda e=eng, d=dangling, s=seeds: personalized_pagerank(e, d, s, max_iter=5))
    # A graph without dangling nodes: a directed ring plus random chords.
    n = 250
    rng = np.random.default_rng(9)
    rows = np.concatenate([np.arange(n), rng.integers(n, size=4 * n)])
    cols = np.concatenate([(np.arange(n) + 1) % n, rng.integers(n, size=4 * n)])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj.data[:] = 1.0
    transition, dangling = make_transition(adj)
    assert not dangling.any()
    eng = TileSpMV(transition, method="adpt")
    seeds = np.zeros((n, 4))
    seeds[np.arange(4) * 11, np.arange(4)] = 1.0
    cases["pagerank/ring/personalized"] = (
        lambda e=eng, d=dangling, s=seeds: personalized_pagerank(e, d, s, tol=1e-12))
    cases["pagerank/ring/personalized/cut"] = (
        lambda e=eng, d=dangling, s=seeds: personalized_pagerank(e, d, s, max_iter=7))
    cases["pagerank/ring"] = lambda e=eng, d=dangling: pagerank(e, d)
    return cases


class _AlwaysCorrupt:
    """An engine whose every product is wrong: a persistent hard fault."""

    def __init__(self, csr: sp.csr_matrix) -> None:
        self._csr = csr

    def spmv(self, x: np.ndarray) -> np.ndarray:
        y = self._csr @ x
        y[0] += 1e6
        return y


def _campaign(solve, plan):
    def run():
        with fault_injection(plan) as injector:
            out = solve()
        return {"result": out, "injected": injector.injected}
    return run


def _fault_cases(seed: int) -> dict:
    """The ``tests/serving/test_checkpoint.py`` campaigns at ``seed``."""
    plan = lambda **kw: FaultPlan(**{"seed": seed, "payload_corruptions": 2,  # noqa: E731
                                      "fault_attempts": 4, **kw})
    rhs = lambda n, s: np.random.default_rng(s).standard_normal(n)  # noqa: E731
    spd = lambda grid, s: _spd(stencil_2d(grid, seed=s))  # noqa: E731
    gen = lambda n, s: _general(random_uniform(n, n, 5.0, seed=s))  # noqa: E731
    a1, a2, a3, a4 = spd(18, seed), spd(18, seed + 1), spd(14, seed), spd(14, seed + 3)
    g = gen(180, seed)
    t, dangling = make_transition(random_uniform(250, 250, 3.0, seed=seed + 2))
    b1, bg = rhs(a1.shape[0], seed), rhs(g.shape[0], seed + 1)
    cases = {
        "cg_product": _campaign(lambda: checkpointed_cg(VerifiedOperator(a1), b1, tol=1e-11),
                                plan()),
        "cg_state": _campaign(lambda: checkpointed_cg(
            VerifiedOperator(a2), b1, tol=1e-11, config=CheckpointConfig(interval=5)),
            plan(payload_corruptions=0, solver_state_corruptions=1, fault_attempts=2)),
        "bicgstab": _campaign(lambda: checkpointed_bicgstab(VerifiedOperator(g), bg, tol=1e-11),
                              plan(solver_state_corruptions=1, fault_attempts=5)),
        "bicgstab_state": _campaign(
            lambda: checkpointed_bicgstab(VerifiedOperator(g), bg, tol=1e-11),
            plan(payload_corruptions=0, solver_state_corruptions=1, fault_attempts=1)),
        "pagerank": _campaign(
            lambda: checkpointed_pagerank(VerifiedOperator(t), dangling, tol=1e-12),
            plan(solver_state_corruptions=1, fault_attempts=3)),
        "pagerank_state": _campaign(
            lambda: checkpointed_pagerank(VerifiedOperator(t), dangling, tol=1e-12,
                                          config=CheckpointConfig(interval=3)),
            plan(payload_corruptions=0, solver_state_corruptions=1, fault_attempts=6)),
        "unbounded": _campaign(lambda: checkpointed_cg(
            VerifiedOperator(a4), rhs(a4.shape[0], 8), tol=1e-11,
            config=CheckpointConfig(replay_limit=2)),
            FaultPlan(seed=seed, payload_corruptions=2, fault_attempts=None)),
        "bicgstab_unbounded": _campaign(lambda: checkpointed_bicgstab(
            VerifiedOperator(g), bg, tol=1e-11, config=CheckpointConfig(replay_limit=2)),
            FaultPlan(seed=seed, payload_corruptions=2, fault_attempts=None)),
    }
    cases["persistent"] = lambda: checkpointed_cg(
        VerifiedOperator(a3, engine=_AlwaysCorrupt(a3)), rhs(a3.shape[0], 7), tol=1e-11,
        config=CheckpointConfig(interval=5, replay_limit=2, max_rollbacks=20))
    cases["persistent_bicgstab"] = lambda: checkpointed_bicgstab(
        VerifiedOperator(g, engine=_AlwaysCorrupt(g)), bg, tol=1e-11,
        config=CheckpointConfig(interval=4, replay_limit=2, max_rollbacks=12))
    cases["persistent_pagerank"] = lambda: checkpointed_pagerank(
        VerifiedOperator(t, engine=_AlwaysCorrupt(t)), dangling, tol=1e-12,
        config=CheckpointConfig(interval=4, replay_limit=2, max_rollbacks=12))
    return {f"seed{seed}/{k}": v for k, v in cases.items()}


def _all_cases() -> dict:
    return {**_system_cases(), **_breakdown_cases(), **_pagerank_cases()}


def _golden() -> dict:
    if not FIXTURE.exists():  # while main() writes it
        return {"cases": {}, "faults": {}}
    return json.loads(FIXTURE.read_text())


_CASES = _all_cases()


@pytest.mark.parametrize("name", sorted(_golden()["cases"]))
def test_matches_golden_bits(name):
    assert fingerprint(_CASES[name]()) == _golden()["cases"][name]


def test_every_case_is_recorded_or_excluded():
    recorded = set(_golden()["cases"])
    assert recorded | set(EXCLUDED) == set(_CASES)
    assert not recorded & set(EXCLUDED)


@pytest.mark.faults
@pytest.mark.parametrize(
    "name", sorted(n for n in _golden()["faults"] if n.startswith(f"seed{FAULT_SEED}/")))
def test_fault_campaign_matches_golden_bits(name):
    case = _fault_cases(FAULT_SEED)[name]
    assert fingerprint(case()) == _golden()["faults"][name]


def main() -> None:
    cases = {n: fingerprint(f()) for n, f in _CASES.items() if n not in EXCLUDED}
    fault_cases = {}
    for seed in FAULT_SEEDS:
        fault_cases.update({n: fingerprint(f()) for n, f in _fault_cases(seed).items()})
    FIXTURE.write_text(json.dumps({"cases": cases, "faults": fault_cases}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases and {len(fault_cases)} fault cases to {FIXTURE}")


if __name__ == "__main__":
    main()
