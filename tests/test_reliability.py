"""Adversarial-input fuzz suite and reliability-ladder tests.

Covers the reliability layer end to end: the canonicalization gate on
every public constructor, the ABFT checksum verifier, deterministic
fault injection into the simulated GPU substrate, the ReliableSpMV
detect -> retry -> fallback ladder, empty-matrix edge cases, and the
PlanCache dtype-fingerprint regression.

Tests marked ``faults`` run the injection campaigns; CI repeats them
with three fixed seeds via the ``FAULT_SEED`` environment variable.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro import PlanCache, ReliableSpMV, TileSpMV
from repro.baselines import (
    BsrSpMV,
    Csr5SpMV,
    CsrScalarSpMV,
    EllGlobalSpMV,
    HybGlobalSpMV,
    MergeSpMV,
)
from repro.core.plancache import structural_fingerprint
from repro.core.selection import SelectionConfig, select_formats
from repro.core.storage import TileMatrix
from repro.core.tiling import tile_decompose
from repro.formats import FormatID
from repro.gpu import A100, FaultPlan, fault_injection, lane_accurate_spmv
from repro.gpu.faults import FaultInjector, active_injector
from repro.matrices import fem_blocks, random_uniform
from repro.reliability import (
    AbftChecksum,
    MatrixValidationError,
    ValidationPolicy,
    canonicalize_csr,
)
from tests.conftest import overflow_matrix

# The seed CI varies across its fault-campaign matrix jobs.
FAULT_SEED = int(os.environ.get("FAULT_SEED", "0"))

# Defect class canonicalize_csr reports first for each hostile fixture
# (out-of-range is checked before non-finite, which precedes ordering).
EXPECTED_REASON = {
    "unsorted_indices": "unsorted",
    "duplicate_indices": "duplicates",
    "nan_values": "nonfinite",
    "inf_values": "nonfinite",
    "out_of_range_column": "out_of_range",
    "negative_column": "out_of_range",
    "combined_defects": "out_of_range",
}

BASELINES = [CsrScalarSpMV, MergeSpMV, Csr5SpMV, BsrSpMV, EllGlobalSpMV, HybGlobalSpMV]


def assert_canonical(csr: sp.csr_matrix) -> None:
    """The invariants every kernel in the repo assumes."""
    m, n = csr.shape
    assert csr.indptr[0] == 0 and csr.indptr[-1] == csr.nnz
    assert np.all(np.diff(csr.indptr) >= 0)
    if csr.nnz:
        assert csr.indices.min() >= 0 and csr.indices.max() < n
    assert np.isfinite(csr.data).all()
    for r in range(m):
        row = csr.indices[csr.indptr[r] : csr.indptr[r + 1]]
        assert np.all(np.diff(row) > 0), f"row {r} unsorted or duplicated"


def repaired_reference(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """What repair should converge to, built independently from the raw
    CSR arrays (scipy's own converters reject out-of-range indices, so
    this cannot go through ``tocoo``)."""
    m, n = matrix.shape
    indices = np.asarray(matrix.indices, dtype=np.int64)
    data = np.asarray(matrix.data, dtype=np.float64)
    rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(matrix.indptr))
    keep = (indices >= 0) & (indices < n) & np.isfinite(data)
    out = sp.coo_matrix(
        (data[keep], (rows[keep], indices[keep])), shape=(m, n)
    ).tocsr()
    out.sort_indices()
    return out


# -- canonicalization gate ------------------------------------------------


class TestCanonicalize:
    def test_repair_produces_canonical_csr(self, hostile_matrix):
        name, matrix = hostile_matrix
        csr, report = canonicalize_csr(matrix, "repair")
        assert_canonical(csr)
        assert report.n_repairs > 0, f"{name}: repair did not count anything"
        assert (csr != repaired_reference(matrix)).nnz == 0

    def test_strict_raises_with_diagnostics(self, hostile_matrix):
        name, matrix = hostile_matrix
        with pytest.raises(MatrixValidationError) as err:
            canonicalize_csr(matrix, ValidationPolicy.STRICT)
        assert err.value.reason == EXPECTED_REASON[name]
        assert err.value.rows.size > 0  # all fixture defects are row-local
        assert str(err.value)  # human-readable message, not bare numpy

    def test_repair_records_offending_rows(self, hostile_matrix):
        _, matrix = hostile_matrix
        _, report = canonicalize_csr(matrix, "repair")
        assert report.bad_rows.size > 0
        assert "repaired" in report.describe()

    def test_trust_never_inspects(self, hostile_matrix):
        _, matrix = hostile_matrix
        csr, report = canonicalize_csr(matrix, "trust")
        assert report.policy is ValidationPolicy.TRUST
        assert report.n_repairs == 0
        assert csr.shape == matrix.shape

    def test_clean_matrix_is_untouched(self, zoo_matrix):
        csr, report = canonicalize_csr(zoo_matrix, "strict")
        assert report.n_repairs == 0
        assert (csr != zoo_matrix.tocsr()).nnz == 0

    def test_duplicates_are_summed(self):
        dup = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), np.array([4, 4, 7]), np.array([0, 2, 3])),
            shape=(2, 10),
        )
        csr, report = canonicalize_csr(dup, "repair")
        assert report.merged_duplicates == 1
        assert csr[0, 4] == 3.0

    def test_dim_overflow_raises_under_every_policy(self):
        for policy in ValidationPolicy:
            with pytest.raises(MatrixValidationError) as err:
                canonicalize_csr(overflow_matrix(), policy)
            assert err.value.reason == "dim_overflow"

    def test_bad_indptr_raises(self):
        broken = sp.csr_matrix((3, 5))
        broken.indptr = np.array([0, 4, 2, 5], dtype=np.int32)  # not monotone
        broken.indices = np.array([0, 1, 2, 3, 4], dtype=np.int32)
        broken.data = np.ones(5)
        with pytest.raises(MatrixValidationError) as err:
            canonicalize_csr(broken, "repair")
        assert err.value.reason == "bad_indptr"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="validation policy"):
            canonicalize_csr(sp.eye(3, format="csr"), "paranoid")


# -- every public entry point survives hostile input ----------------------


def entry_points():
    """(name, strict-constructor, repair-constructor) for each entry."""
    eps = [("tile_decompose", lambda m, p: tile_decompose(m, validation=p))]
    eps.append(("TileSpMV", lambda m, p: TileSpMV(m, validation=p)))
    eps.append(("ReliableSpMV", lambda m, p: ReliableSpMV(m, policy=p)))
    for cls in BASELINES:
        eps.append((cls.__name__, lambda m, p, c=cls: c(m, validation=p)))
    return eps


@pytest.mark.parametrize("entry", entry_points(), ids=lambda e: e[0])
class TestEntryPoints:
    def test_strict_rejects_hostile(self, entry, hostile_matrix):
        _, build = entry
        _, matrix = hostile_matrix
        with pytest.raises(MatrixValidationError):
            build(matrix, "strict")

    def test_repair_builds_and_computes(self, entry, hostile_matrix):
        name, build = entry
        _, matrix = hostile_matrix
        engine = build(matrix, "repair")
        if name == "tile_decompose":
            return  # a TileSet has no spmv; construction is the test
        ref = repaired_reference(matrix)
        x = np.arange(1.0, matrix.shape[1] + 1)
        np.testing.assert_allclose(engine.spmv(x), ref @ x, rtol=1e-12, atol=1e-12)

    def test_overflow_rejected(self, entry):
        _, build = entry
        for policy in ("strict", "repair", "trust"):
            with pytest.raises(MatrixValidationError):
                build(overflow_matrix(), policy)


# -- ABFT checksum verifier -----------------------------------------------


class TestAbft:
    def test_clean_product_verifies(self, zoo_matrix, rng):
        csr, _ = canonicalize_csr(zoo_matrix, "repair")
        check = AbftChecksum.from_csr(csr)
        x = rng.standard_normal(csr.shape[1])
        assert check.verify(x, csr @ x)

    def test_clean_spmm_verifies(self, rng):
        csr = fem_blocks(120, block=3, seed=2).tocsr()
        check = AbftChecksum.from_csr(csr)
        x = rng.standard_normal((csr.shape[1], 4))
        assert check.verify(x, csr @ x)

    def test_corrupted_entry_detected(self, zoo_matrix, rng):
        csr, _ = canonicalize_csr(zoo_matrix, "repair")
        if csr.shape[0] == 0:
            pytest.skip("no entries to corrupt")
        check = AbftChecksum.from_csr(csr)
        x = rng.standard_normal(csr.shape[1])
        y = csr @ x
        y[0] += 1e3  # the FaultPlan min_magnitude contract
        assert not check.verify(x, y)

    def test_corrupted_column_detected_in_spmm(self, rng):
        csr = random_uniform(100, 80, nnz_per_row=5, seed=3).tocsr()
        check = AbftChecksum.from_csr(csr)
        x = rng.standard_normal((80, 3))
        y = csr @ x
        y[17, 1] += 1e3
        assert not check.verify(x, y)

    def test_nonfinite_result_always_fails(self):
        csr = sp.eye(4, format="csr")
        check = AbftChecksum.from_csr(csr)
        y = np.ones(4)
        y[2] = np.nan
        assert not check.verify(np.ones(4), y)

    @pytest.mark.parametrize("bad", [(np.inf,), (np.inf, -np.inf), (np.nan,)])
    def test_nonfinite_block_column_always_fails(self, bad):
        # Non-finite entries are caught through the column sums, even
        # when +inf and -inf share a column.
        csr = sp.eye(4, format="csr")
        check = AbftChecksum.from_csr(csr)
        x = np.ones((4, 3))
        y = csr @ x
        y[: len(bad), 1] = bad
        assert not check.verify(x, y)
        assert check.verify(x, csr @ x)

    def test_verify_cost_is_pure_overhead(self):
        csr = random_uniform(200, 200, nnz_per_row=5, seed=1).tocsr()
        check = AbftChecksum.from_csr(csr)
        cost = check.verify_cost(1)
        assert cost.useful_flops == 0.0
        assert cost.executed_flops > 0
        assert check.verify_cost(4).executed_flops == 4 * cost.executed_flops
        with pytest.raises(ValueError):
            check.verify_cost(0)


# -- fault injector unit behaviour ----------------------------------------


class TestFaultInjector:
    def test_deterministic_for_a_seed(self):
        vals = np.arange(1.0, 101.0)
        a = FaultInjector(FaultPlan(seed=5)).corrupt_payload(vals)
        b = FaultInjector(FaultPlan(seed=5)).corrupt_payload(vals)
        np.testing.assert_array_equal(a, b)
        c = FaultInjector(FaultPlan(seed=6)).corrupt_payload(vals)
        assert not np.array_equal(a, c)

    def test_corruption_magnitude_contract(self):
        vals = np.zeros(50)
        plan = FaultPlan(seed=1, min_magnitude=1e3)
        out = FaultInjector(plan).corrupt_payload(vals)
        assert np.abs(out - vals).max() >= 1e3
        assert vals.max() == 0.0  # input never mutated

    def test_fault_attempts_window(self):
        # Outside a shard task the attempt is the call count of the
        # kind: attempts [0, fault_attempts) fault, later ones are clean.
        inj = FaultInjector(FaultPlan(seed=0, fault_attempts=1))
        vals = np.ones(10)
        first = inj.corrupt_payload(vals)
        assert not np.array_equal(first, vals)
        assert inj.corrupt_payload(vals) is vals  # identity: nothing fired
        persistent = FaultInjector(FaultPlan(seed=0, fault_attempts=None))
        runs = [persistent.corrupt_payload(vals) for _ in range(3)]
        assert all(not np.array_equal(r, vals) for r in runs)
        assert persistent.stats() == {"injected": 3, "by_kind": {"payload": 3}}

    def test_fault_is_a_function_of_kind_site_and_attempt(self):
        from repro.gpu.faults import fault_site

        vals = np.arange(1.0, 101.0)
        a, b = (FaultInjector(FaultPlan(seed=5, fault_attempts=None)) for _ in range(2))
        with fault_site(3, 1):
            first = a.corrupt_payload(vals)
            assert np.array_equal(a.corrupt_payload(vals), first)
        b.corrupt_payload(vals)  # site 0 calls do not move the shard's draw
        with fault_site(3, 1):
            assert np.array_equal(b.corrupt_payload(vals), first)
        with fault_site(3, 2):
            assert not np.array_equal(b.corrupt_payload(vals), first)

    def test_concurrent_hooks_lose_no_update(self):
        # Shard tasks run substrate hooks on the thread pool: the site-0
        # call counts and the fault counters are shared, lock-protected
        # state.  More threads than cores and a short switch interval
        # would expose a lost read-modify-write.
        import sys
        import threading

        from repro.gpu.faults import fault_site

        inj = FaultInjector(FaultPlan(seed=1, payload_corruptions=2, fault_attempts=None))
        vals = np.ones(8)
        threads, calls = 8, 150
        outs = [[] for _ in range(threads)]

        def work(t: int) -> None:
            for i in range(calls):
                inj.corrupt_payload(vals)  # site 0: the injector's own count
                with fault_site(t, i):
                    outs[t].append(inj.corrupt_payload(vals))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in pool)
        assert inj._calls["payload"] == threads * calls
        assert inj.stats() == {"injected": 2 * 2 * threads * calls,
                               "by_kind": {"payload": 2 * 2 * threads * calls}}
        solo = FaultInjector(inj.plan)
        with fault_site(threads - 1, calls - 1):
            assert np.array_equal(solo.corrupt_payload(vals), outs[-1][-1])

    def test_scalar_reference_is_outside_the_fault_domain(self, rng):
        # Every kind armed at certainty, every attempt faulting: the
        # scalar reference runs no hook, so it injects nothing.
        matrix = random_uniform(90, 90, nnz_per_row=5, seed=3).tocsr()
        ref = CsrScalarSpMV(matrix)
        x = rng.standard_normal(90)
        xs = rng.standard_normal((90, 3))
        plan = FaultPlan(
            seed=FAULT_SEED, payload_corruptions=4, bitflip_prob=1.0,
            drop_atomic_prob=1.0, lane_dropout_prob=1.0,
            fault_attempts=None, solver_state_corruptions=4,
        )
        with fault_injection(plan) as inj:
            y, ys = ref.spmv(x), ref.spmm(xs)
        assert inj.injected == 0
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ys, matrix @ xs, rtol=1e-12, atol=1e-12)

    def test_bitflip_changes_exactly_one_word(self):
        inj = FaultInjector(FaultPlan(seed=3, bitflip_prob=1.0))
        words = np.linspace(1.0, 2.0, 16)
        out = inj.maybe_bitflip(words)
        assert (out != words).sum() == 1

    def test_drop_atomic_removes_one_lane(self):
        inj = FaultInjector(FaultPlan(seed=3, drop_atomic_prob=1.0))
        active = np.ones(32, dtype=bool)
        out = inj.drop_atomic_lane(active)
        assert out.sum() == 31

    def test_nesting_rejected(self):
        with fault_injection(FaultPlan(seed=0)):
            assert active_injector() is not None
            with pytest.raises(RuntimeError, match="nesting"):
                with fault_injection(FaultPlan(seed=1)):
                    pass
        assert active_injector() is None


# -- the ReliableSpMV ladder ----------------------------------------------


class TestReliableLadder:
    def test_clean_run_verifies_without_retry(self, rng):
        matrix = fem_blocks(150, block=3, seed=4)
        engine = ReliableSpMV(matrix, plan_cache=PlanCache())
        x = rng.standard_normal(matrix.shape[1])
        np.testing.assert_allclose(engine.spmv(x), matrix @ x, rtol=1e-12, atol=1e-12)
        assert engine.counters["verified_ok"] == 1
        assert engine.counters["detected"] == 0
        assert engine.counters["retries"] == 0
        assert engine.counters["fallbacks"] == 0

    def test_matmul_operator(self, rng):
        matrix = random_uniform(60, 60, nnz_per_row=4, seed=9)
        engine = ReliableSpMV(matrix)
        x = rng.standard_normal(60)
        np.testing.assert_allclose(engine @ x, matrix @ x, rtol=1e-12, atol=1e-12)

    def test_repairs_counted_from_hostile_input(self, hostile_matrix):
        _, matrix = hostile_matrix
        engine = ReliableSpMV(matrix, policy="repair")
        assert engine.counters["repairs"] > 0
        assert "repaired" in engine.describe()

    def test_nan_x_rejected(self):
        engine = ReliableSpMV(random_uniform(40, 40, nnz_per_row=3, seed=5))
        x = np.ones(40)
        x[7] = np.inf
        with pytest.raises(MatrixValidationError) as err:
            engine.spmv(x)
        assert err.value.reason == "nonfinite"

    def test_wrong_shape_rejected(self):
        engine = ReliableSpMV(random_uniform(40, 50, nnz_per_row=3, seed=5))
        with pytest.raises(ValueError):
            engine.spmv(np.ones(40))
        with pytest.raises(ValueError):
            engine.spmm(np.ones(40))

    def test_update_values_rearms_checksum(self, rng):
        matrix = random_uniform(80, 80, nnz_per_row=4, seed=6).tocsr()
        engine = ReliableSpMV(matrix)
        engine.update_values(2.0 * matrix.data)
        x = rng.standard_normal(80)
        np.testing.assert_allclose(
            engine.spmv(x), 2.0 * (matrix @ x), rtol=1e-12, atol=1e-12
        )
        assert engine.counters["verified_ok"] == 1

    def test_abft_off_degrades_to_passthrough(self, rng):
        matrix = random_uniform(50, 50, nnz_per_row=4, seed=7)
        engine = ReliableSpMV(matrix, abft=False)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(engine.spmv(x), matrix @ x, rtol=1e-12, atol=1e-12)
        assert engine.counters["verified_ok"] == 0  # nothing verified
        assert "ABFT off" in engine.describe()

    def test_verification_overhead_charged_in_run_cost(self):
        matrix = fem_blocks(150, block=3, seed=4)
        protected = ReliableSpMV(matrix, plan_cache=PlanCache())
        bare = protected.engine
        assert protected.run_cost().time(A100) > bare.run_cost().time(A100)
        # GFlops convention unchanged: the checksum adds no useful flops.
        assert protected.run_cost().useful_flops == bare.run_cost().useful_flops
        assert protected.spmm_cost(4).time(A100) > bare.spmm_cost(4).time(A100)
        assert protected.nbytes_model() > bare.nbytes_model()


# -- injection campaigns (CI runs these with three fixed seeds) -----------


@pytest.mark.faults
class TestFaultCampaigns:
    def test_payload_corruption_detected_and_retried(self, rng):
        matrix = fem_blocks(150, block=3, seed=4)
        engine = ReliableSpMV(matrix, plan_cache=PlanCache())
        x = rng.standard_normal(matrix.shape[1])
        with fault_injection(FaultPlan(seed=FAULT_SEED)) as inj:
            y = engine.spmv(x)
        assert inj.injected == 1
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12, atol=1e-12)
        assert engine.counters["detected"] == 1
        assert engine.counters["retries"] == 1
        assert engine.counters["fallbacks"] == 0

    def test_unbounded_faults_force_fallback(self, rng):
        matrix = random_uniform(120, 120, nnz_per_row=5, seed=8)
        engine = ReliableSpMV(matrix, plan_cache=PlanCache())
        x = rng.standard_normal(120)
        with fault_injection(FaultPlan(seed=FAULT_SEED, fault_attempts=None)):
            y = engine.spmv(x)
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12, atol=1e-12)
        assert engine.counters["detected"] >= 2  # first run and the retry
        assert engine.counters["fallbacks"] == 1

    def test_spmm_protected(self, rng):
        matrix = fem_blocks(100, block=3, seed=5)
        engine = ReliableSpMV(matrix)
        x = rng.standard_normal((matrix.shape[1], 3))
        with fault_injection(FaultPlan(seed=FAULT_SEED)) as inj:
            y = engine.spmm(x)
        assert inj.injected == 1
        np.testing.assert_allclose(y, matrix @ x, rtol=1e-12, atol=1e-12)
        assert engine.counters["detected"] >= 1

    def test_detection_rate_is_total_across_seeds(self, rng):
        """Acceptance criterion: every injected corruption is caught and
        the returned product still matches scipy to 1e-12."""
        matrix = random_uniform(200, 200, nnz_per_row=5, seed=11)
        x = rng.standard_normal(200)
        ref = matrix @ x
        for seed in (FAULT_SEED, FAULT_SEED + 1, FAULT_SEED + 2, 40, 41):
            engine = ReliableSpMV(matrix, plan_cache=PlanCache())
            with fault_injection(FaultPlan(seed=seed)) as inj:
                y = engine.spmv(x)
            assert inj.injected == 1, f"seed {seed}: no fault fired"
            assert engine.counters["detected"] == 1, f"seed {seed}: missed"
            np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_csr5_baseline_payload_hook(self, rng):
        matrix = random_uniform(150, 150, nnz_per_row=6, seed=12).tocsr()
        check = AbftChecksum.from_csr(matrix)
        engine = Csr5SpMV(matrix)
        x = rng.standard_normal(150)
        with fault_injection(FaultPlan(seed=FAULT_SEED)) as inj:
            y = engine.spmv(x)
        assert inj.injected == 1
        assert not check.verify(x, y)  # corruption visible to the verifier

    def test_lane_accurate_dropout_detected(self):
        # Dense all-ones tile: every lane's partial is nonzero, so a
        # dropped lane provably changes y.
        matrix = sp.csr_matrix(np.ones((32, 32)))
        ts = tile_decompose(matrix)
        tm = TileMatrix.build(ts, select_formats(ts))
        check = AbftChecksum.from_csr(matrix.tocsr())
        x = np.arange(1.0, 33.0)
        plan = FaultPlan(
            seed=FAULT_SEED, payload_corruptions=0, lane_dropout_prob=1.0
        )
        with fault_injection(plan) as inj:
            y = lane_accurate_spmv(tm, x)
        assert inj.injected == 1
        assert not check.verify(x, y)

    def test_injection_disabled_means_zero_faults(self, rng):
        """Acceptance criterion: without an armed plan the counters stay
        clean and verification still runs (visible in run_cost)."""
        matrix = fem_blocks(120, block=3, seed=6)
        engine = ReliableSpMV(matrix, plan_cache=PlanCache())
        x = rng.standard_normal(matrix.shape[1])
        for _ in range(3):
            np.testing.assert_allclose(
                engine.spmv(x), matrix @ x, rtol=1e-12, atol=1e-12
            )
        assert engine.counters["verified_ok"] == 3
        assert engine.counters["retries"] == 0
        assert engine.counters["fallbacks"] == 0
        assert engine.run_cost().time(A100) > engine.engine.run_cost().time(A100)


# -- empty matrices through everything ------------------------------------

EMPTY_SHAPES = [(0, 0), (0, 7), (7, 0), (7, 7)]


def empty_csr(shape):
    return sp.csr_matrix(shape, dtype=np.float64)


@pytest.mark.parametrize("shape", EMPTY_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestEmptyMatrices:
    def test_tilespmv_all_methods(self, shape):
        for method in ("csr", "adpt", "deferred_coo", "auto"):
            engine = TileSpMV(empty_csr(shape), method=method)
            y = engine.spmv(np.ones(shape[1]))
            assert y.shape == (shape[0],)
            assert not y.any()
            ym = engine.spmm(np.ones((shape[1], 3)))
            assert ym.shape == (shape[0], 3)
            assert engine.run_cost().time(A100) >= 0.0
            assert engine.describe()

    def test_all_formats_forced(self, shape):
        ts = tile_decompose(empty_csr(shape))
        for fmt in FormatID:
            tm = TileMatrix.build(ts, np.full(ts.n_tiles, fmt, dtype=np.uint8))
            tm.validate()
            y = tm.spmv(np.ones(shape[1]))
            assert y.shape == (shape[0],)

    def test_every_baseline(self, shape):
        for cls in BASELINES:
            engine = cls(empty_csr(shape))
            y = engine.spmv(np.ones(shape[1]))
            assert y.shape == (shape[0],)
            assert not np.asarray(y).any()

    def test_reliable_wrapper(self, shape):
        engine = ReliableSpMV(empty_csr(shape), plan_cache=PlanCache())
        y = engine.spmv(np.ones(shape[1]))
        assert y.shape == (shape[0],)
        assert engine.counters["verified_ok"] == 1
        assert engine.counters["fallbacks"] == 0

    def test_lane_accurate(self, shape):
        ts = tile_decompose(empty_csr(shape))
        tm = TileMatrix.build(ts, select_formats(ts))
        y = lane_accurate_spmv(tm, np.ones(shape[1]))
        assert y.shape == (shape[0],)

    def test_selection_on_empty(self, shape):
        ts = tile_decompose(empty_csr(shape))
        formats = select_formats(ts, SelectionConfig())
        assert formats.size == ts.n_tiles


# -- PlanCache fingerprint / invalidation regressions ---------------------


class TestPlanCacheReliability:
    def test_dtype_is_part_of_fingerprint(self):
        pattern = random_uniform(90, 90, nnz_per_row=4, seed=13).tocsr()
        f64 = pattern.astype(np.float64)
        f32 = pattern.astype(np.float32)
        key64 = structural_fingerprint(f64, 16, SelectionConfig(), 8)
        key32 = structural_fingerprint(f32, 16, SelectionConfig(), 8)
        assert key64 != key32

    def test_same_pattern_different_dtype_no_collision(self, rng):
        """Regression: a float32 twin must not reuse the float64 plan."""
        cache = PlanCache()
        pattern = random_uniform(90, 90, nnz_per_row=4, seed=13).tocsr()
        f32 = (0.5 * pattern).astype(np.float32)
        e64 = TileSpMV(pattern, plan_cache=cache, validation="trust")
        e32 = TileSpMV(f32, plan_cache=cache, validation="trust")
        assert e64.plan_key != e32.plan_key
        assert cache.stats()["size"] == 2
        x = rng.standard_normal(90)
        np.testing.assert_allclose(e64.spmv(x), pattern @ x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            e32.spmv(x), f32.astype(np.float64) @ x, rtol=1e-6, atol=1e-6
        )

    def test_invalidate_drops_entry_and_counts(self):
        cache = PlanCache()
        engine = TileSpMV(
            random_uniform(60, 60, nnz_per_row=4, seed=14), plan_cache=cache
        )
        key = engine.plan_key
        assert key in cache
        assert cache.invalidate(key) is True
        assert key not in cache
        assert cache.invalidate(key) is False  # already gone
        assert cache.stats()["invalidations"] == 1


class TestMergeCreatedNonfinite:
    """Duplicate merging can overflow finite inputs into Inf; the repair
    path must re-screen the merged payload instead of trusting it."""

    def overflow_duplicates(self):
        # raw CSR arrays with two finite ~1.7e308 duplicates at (0, 0):
        # scipy's COO conversion would pre-merge them, so the duplicate
        # must reach the canonicalizer's own merge to overflow there
        big = np.finfo(np.float64).max * 0.95
        return sp.csr_matrix(
            (
                np.array([big, big, 2.0, 1.0]),
                np.array([0, 0, 0, 1]),
                np.array([0, 2, 4]),
            ),
            shape=(2, 2),
        )

    def test_repair_drops_the_overflowed_entry(self):
        out, report = canonicalize_csr(self.overflow_duplicates(), "repair")
        assert np.isfinite(out.data).all(), "merge-created Inf must not survive"
        assert report.dropped_nonfinite >= 1
        assert report.merged_duplicates == 1
        # untouched entries survive the rebuild
        assert out[1, 1] == 1.0
        assert out[1, 0] == 2.0
        assert out[0, 0] == 0.0

    def test_strict_rejects_on_the_duplicates_first(self):
        with pytest.raises(MatrixValidationError) as exc:
            canonicalize_csr(self.overflow_duplicates(), "strict")
        assert exc.value.reason == "duplicates"

    def test_result_is_abft_safe(self):
        # the repaired matrix must be usable by the full verified ladder
        out, _ = canonicalize_csr(self.overflow_duplicates(), "repair")
        engine = ReliableSpMV(out, policy="trust")
        x = np.ones(2)
        assert np.isfinite(engine.spmv(x)).all()
        assert engine.counters["verified_ok"] == 1
