"""Checkpointed solvers: verified products, rollback-replay, campaigns.

The ``faults`` campaigns assert the PR's acceptance property: every
injected fault is detected, the solver rolls back, and the final
answer matches the fault-free solve — across CG, BiCGSTAB and PageRank,
for both GPU-side product faults and host-side solver-state corruption.
CI repeats them under three fixed ``FAULT_SEED`` values.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.graph import make_transition
from repro.gpu.faults import FaultPlan, fault_injection
from repro.matrices import random_uniform, stencil_2d
from repro.serving import (
    CheckpointConfig,
    SpmvFault,
    VerifiedOperator,
    checkpointed_bicgstab,
    checkpointed_cg,
    checkpointed_pagerank,
    modelled_checkpoint_overhead,
)

FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))


def spd_matrix(grid: int = 16, seed: int = 0) -> sp.csr_matrix:
    a = stencil_2d(grid, seed=seed)
    a = abs(a) + abs(a).T
    return sp.csr_matrix(a + sp.eye(a.shape[0]) * (abs(a).sum(axis=1).max() + 1.0))

def general_matrix(n: int = 200, seed: int = 1) -> sp.csr_matrix:
    a = random_uniform(n, n, 5.0, seed=seed)
    return sp.csr_matrix(a + sp.eye(n) * (abs(a).sum(axis=1).max() + 1.0))


def rhs(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


class _AlwaysCorrupt:
    """An engine whose every product is wrong — a persistent hard fault."""

    def __init__(self, csr: sp.csr_matrix) -> None:
        self._csr = csr

    def spmv(self, x: np.ndarray) -> np.ndarray:
        y = self._csr @ x
        y[0] += 1e6
        return y


class TestVerifiedOperator:
    def test_clean_product_passes(self):
        a = spd_matrix()
        op = VerifiedOperator(a)
        x = rhs(a.shape[0], 3)
        assert np.allclose(op.spmv(x), a @ x)
        assert op.products == 1
        assert op.faults_detected == 0

    def test_detection_raises_instead_of_retrying(self):
        a = spd_matrix()
        op = VerifiedOperator(a)
        x = rhs(a.shape[0], 3)
        with fault_injection(FaultPlan(seed=FAULT_SEED, payload_corruptions=2)):
            with pytest.raises(SpmvFault):
                op.spmv(x)
        assert op.faults_detected == 1

    def test_reference_product_is_trusted_under_injection(self):
        a = spd_matrix()
        op = VerifiedOperator(a)
        x = rhs(a.shape[0], 4)
        with fault_injection(FaultPlan(seed=FAULT_SEED, payload_corruptions=2,
                                       fault_attempts=None)):
            y = op.reference_spmv(x)
        assert np.allclose(y, a @ x)

    def test_safe_mode_routes_around_a_broken_engine(self):
        a = spd_matrix()
        op = VerifiedOperator(a, engine=_AlwaysCorrupt(a))
        x = rhs(a.shape[0], 5)
        with pytest.raises(SpmvFault):
            op.spmv(x)
        op.enter_safe_mode()
        assert np.allclose(op.spmv(x), a @ x)


class TestCleanSolves:
    def test_cg_matches_direct_solve_with_zero_recovery(self):
        a = spd_matrix()
        b = rhs(a.shape[0], 1)
        res = checkpointed_cg(VerifiedOperator(a), b, tol=1e-12)
        assert res.result.converged
        assert np.allclose(a @ res.result.x, b, atol=1e-8)
        assert res.recovery.rollbacks == 0
        assert res.recovery.iterations_lost == 0
        assert res.recovery.checkpoints >= 1  # at least the initial state

    def test_bicgstab_matches_direct_solve(self):
        a = general_matrix()
        b = rhs(a.shape[0], 2)
        res = checkpointed_bicgstab(VerifiedOperator(a), b, tol=1e-12)
        assert res.result.converged
        assert np.allclose(a @ res.result.x, b, atol=1e-7)
        assert res.recovery.rollbacks == 0

    def test_pagerank_mass_conserved(self):
        t, dangling = make_transition(random_uniform(300, 300, 3.0, seed=2))
        res = checkpointed_pagerank(VerifiedOperator(t), dangling, tol=1e-12)
        assert res.converged
        assert res.rank.sum() == pytest.approx(1.0, abs=1e-9)
        assert res.recovery.rollbacks == 0

    def test_cg_breakdown_is_reported_not_nan(self):
        a = sp.csr_matrix(sp.diags([1.0, -1.0]))  # indefinite: p.Ap hits zero
        res = checkpointed_cg(VerifiedOperator(a), np.array([1.0, 1.0]))
        assert res.result.breakdown
        assert res.result.breakdown_reason == "pAp"
        assert np.isfinite(res.result.x).all()


@pytest.mark.faults
class TestFaultCampaigns:
    """Acceptance: detect every fault, roll back, converge to the clean answer."""

    def plan(self, **kw):
        defaults = dict(seed=FAULT_SEED, payload_corruptions=2, fault_attempts=4)
        defaults.update(kw)
        return FaultPlan(**defaults)

    def test_cg_product_faults(self):
        a = spd_matrix(grid=18, seed=FAULT_SEED)
        b = rhs(a.shape[0], FAULT_SEED)
        clean = checkpointed_cg(VerifiedOperator(a), b, tol=1e-11)
        with fault_injection(self.plan()) as injector:
            faulty = checkpointed_cg(VerifiedOperator(a), b, tol=1e-11)
        assert injector.injected > 0
        assert faulty.result.converged
        assert faulty.recovery.detections >= 1
        assert faulty.recovery.rollbacks >= 1
        assert faulty.recovery.iterations_lost >= faulty.recovery.rollbacks
        assert np.allclose(faulty.result.x, clean.result.x, atol=1e-7)

    def test_cg_solver_state_corruption(self):
        # host-memory corruption of x/r: invisible to per-product ABFT,
        # caught by the watchdog / checkpoint consistency / exit check
        a = spd_matrix(grid=18, seed=FAULT_SEED + 1)
        b = rhs(a.shape[0], FAULT_SEED)
        clean = checkpointed_cg(VerifiedOperator(a), b, tol=1e-11)
        plan = self.plan(payload_corruptions=0, solver_state_corruptions=1,
                         fault_attempts=2)
        with fault_injection(plan) as injector:
            faulty = checkpointed_cg(VerifiedOperator(a), b, tol=1e-11,
                                     config=CheckpointConfig(interval=5))
        assert injector.injected > 0
        assert faulty.result.converged
        assert faulty.recovery.rollbacks >= 1
        assert sum(faulty.recovery.watchdog_events.values()) >= 1, (
            "state corruption must be caught by a state check, not ABFT"
        )
        assert faulty.recovery.product_faults == 0
        assert np.allclose(faulty.result.x, clean.result.x, atol=1e-7)

    def test_bicgstab_campaign(self):
        a = general_matrix(n=180, seed=FAULT_SEED)
        b = rhs(a.shape[0], FAULT_SEED + 1)
        clean = checkpointed_bicgstab(VerifiedOperator(a), b, tol=1e-11)
        plan = self.plan(solver_state_corruptions=1, fault_attempts=5)
        with fault_injection(plan) as injector:
            faulty = checkpointed_bicgstab(VerifiedOperator(a), b, tol=1e-11)
        assert injector.injected > 0
        assert faulty.result.converged
        assert faulty.recovery.detections >= 1
        assert faulty.recovery.rollbacks >= 1
        assert np.allclose(faulty.result.x, clean.result.x, atol=1e-6)

    def test_bicgstab_recovers_from_one_solver_state_fault(self):
        # Regression: a rollback kept the watchdog's best residual from
        # the discarded iterates, so every replay from an earlier
        # checkpoint tripped "divergence" until the solver gave up.
        a = general_matrix(n=180, seed=FAULT_SEED)
        b = rhs(a.shape[0], FAULT_SEED + 1)
        clean = checkpointed_bicgstab(VerifiedOperator(a), b, tol=1e-11)
        plan = self.plan(payload_corruptions=0, solver_state_corruptions=1,
                         fault_attempts=1)
        with fault_injection(plan) as injector:
            faulty = checkpointed_bicgstab(VerifiedOperator(a), b, tol=1e-11)
        assert injector.injected == 1
        assert faulty.result.converged
        assert faulty.recovery.rollbacks >= 1
        assert np.allclose(faulty.result.x, clean.result.x, atol=1e-6)

    def test_pagerank_campaign(self):
        t, dangling = make_transition(
            random_uniform(250, 250, 3.0, seed=FAULT_SEED + 2)
        )
        clean = checkpointed_pagerank(VerifiedOperator(t), dangling, tol=1e-12)
        # Every attempt inside the window faults, back to back at the
        # first checkpoint: a window of 5 puts 4 solver-state faults
        # after safe mode, past replay_limit=3 — the designed give-up.
        plan = self.plan(solver_state_corruptions=1, fault_attempts=3)
        with fault_injection(plan) as injector:
            faulty = checkpointed_pagerank(VerifiedOperator(t), dangling, tol=1e-12)
        assert injector.injected > 0
        assert faulty.converged
        assert faulty.recovery.rollbacks >= 1
        assert np.allclose(faulty.rank, clean.rank, atol=1e-9)
        assert faulty.rank.sum() == pytest.approx(1.0, abs=1e-9)

    def test_persistent_fault_escalates_to_safe_mode(self):
        a = spd_matrix(grid=14, seed=FAULT_SEED)
        b = rhs(a.shape[0], 7)
        op = VerifiedOperator(a, engine=_AlwaysCorrupt(a))
        cfg = CheckpointConfig(interval=5, replay_limit=2, max_rollbacks=20)
        res = checkpointed_cg(op, b, tol=1e-11, config=cfg)
        assert res.recovery.safe_mode_entered
        assert op.safe_mode
        assert res.result.converged, "safe mode must still produce the answer"
        assert np.allclose(a @ res.result.x, b, atol=1e-7)
        assert res.recovery.rollbacks >= cfg.replay_limit

    def test_unbounded_campaign_still_terminates(self):
        # fault_attempts=None: faults on every product forever; the solver
        # must escalate to safe mode rather than livelock
        a = spd_matrix(grid=14, seed=FAULT_SEED + 3)
        b = rhs(a.shape[0], 8)
        plan = FaultPlan(seed=FAULT_SEED, payload_corruptions=2, fault_attempts=None)
        with fault_injection(plan):
            res = checkpointed_cg(VerifiedOperator(a), b, tol=1e-11,
                                  config=CheckpointConfig(replay_limit=2))
        assert res.recovery.safe_mode_entered
        assert res.result.converged
        assert np.allclose(a @ res.result.x, b, atol=1e-7)


class TestOverheadModel:
    def test_overhead_positive_and_shrinks_with_interval(self):
        op = VerifiedOperator(spd_matrix())
        o10 = modelled_checkpoint_overhead(op, CheckpointConfig(interval=10))
        o40 = modelled_checkpoint_overhead(op, CheckpointConfig(interval=40))
        assert o10 > o40 > 0
        assert o10 == pytest.approx(4 * o40)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval=0)
        with pytest.raises(ValueError):
            CheckpointConfig(replay_limit=0)
        with pytest.raises(ValueError):
            CheckpointConfig(max_rollbacks=0)
