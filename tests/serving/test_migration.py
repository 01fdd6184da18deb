"""Live plan migration: atomic swap, drain, rollback — and its trace.

The invariants under test, per the migration contract in
``docs/TUNING.md``:

* the swap is atomic on the virtual clock — every served request runs
  end-to-end on the plan generation it was admitted against, and its
  result is bit-for-bit the product that plan computes (no request ever
  observes a half-swapped plan);
* migration itself pauses nothing: a storm spanning a retune sheds no
  request because of it;
* the superseded plan is released only after the virtual work queued
  against it completes, and its cache entry goes with it (no PlanCache
  leak across repeated retunes);
* a candidate whose modelled fast path regresses the incumbent is
  rolled back: the incumbent keeps serving, the candidate's cache
  entries are dropped;
* the whole sequence is deterministic: counters and trace spans replay
  byte-for-byte against the checked-in golden fixture
  (``golden_migration_trace.json``, regenerated via
  ``python -m tests.serving.test_migration``).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.matrices import power_law
from repro.matrices.reorder import apply_symmetric_permutation
from repro.reliability.reliable import ReliableSpMV
from repro.serving import RuntimeConfig, ServingRuntime
from repro.serving.trace import Request

GOLDEN = Path(__file__).parent / "golden_migration_trace.json"

# On this scattered power-law fixture the global SELL sort strictly
# improves the modelled fast path while the wide CMRS blocking strictly
# regresses it — one deterministic matrix exercises both retune paths.
GOOD_REORDER = "sell:0"
BAD_REORDER = "cmrs:16/512"


def _matrix():
    rng = np.random.default_rng(42)
    a = power_law(3000, avg_degree=6.0, seed=3).tocsr()
    return apply_symmetric_permutation(a, rng.permutation(a.shape[0]))


def _requests(start_rid, n, t0, gap=1e-3, matrix_id="pl"):
    return [
        Request(rid=start_rid + i, arrival=t0 + i * gap, matrix_id=matrix_id,
                deadline=5e-3, x_seed=start_rid + i)
        for i in range(n)
    ]


def _x(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


def _run_storm(rt):
    """Six requests, a good retune, six more, a bad retune, one more."""
    outcomes = [rt.submit(r) for r in _requests(0, 6, 0.0)]
    good = rt.retune("pl", reorder=GOOD_REORDER)
    outcomes += [rt.submit(r) for r in _requests(6, 6, 0.01)]
    bad = rt.retune("pl", reorder=BAD_REORDER)
    outcomes += [rt.submit(r) for r in _requests(12, 1, 0.03)]
    return outcomes, good, bad


class TestMigrationStorm:
    @pytest.fixture()
    def storm(self):
        matrix = _matrix()
        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        rt.register("pl", matrix)
        outcomes, good, bad = _run_storm(rt)
        yield rt, matrix, outcomes, good, bad
        rt.close()

    def test_swap_is_atomic_on_generations(self, storm):
        rt, _, outcomes, good, bad = storm
        assert good.status == "migrated"
        assert (good.from_generation, good.to_generation) == (1, 2)
        assert good.gain > 1.0
        gens = [o.plan_generation for o in outcomes]
        # Monotone generation sequence with the swap exactly between
        # request 5 and 6 — no request straddles it.
        assert gens == [1] * 6 + [2] * 7
        assert all(o.status == "served" for o in outcomes)

    def test_migration_sheds_nothing(self, storm):
        rt, _, outcomes, _, _ = storm
        assert rt.counters["shed_queue_full"] == 0
        assert rt.counters["shed_deadline"] == 0
        assert rt.counters["served"] == len(outcomes) == 13

    def test_responses_bit_for_bit_per_generation(self, storm):
        """Each response equals the product of exactly its generation's
        plan — the no-half-swap invariant, checked on the payload."""
        rt, matrix, outcomes, _, _ = storm
        gen1 = ReliableSpMV(matrix, method="adpt")
        gen2 = ReliableSpMV(matrix, method="adpt", reorder=GOOD_REORDER)
        by_gen = {1: gen1, 2: gen2}
        for o in outcomes:
            expected = by_gen[o.plan_generation].spmv(_x(o.rid, matrix.shape[1]))
            assert np.array_equal(o.y, expected)

    def test_drained_plan_released_without_cache_leak(self, storm):
        rt, _, _, good, _ = storm
        # The post-swap requests advanced the clock past the old plan's
        # queued work, so it was released: engine closed, cache entry
        # dropped, nothing left draining.
        assert rt.counters["plans_drained"] == 1
        assert rt.stats()["draining"] == 0
        assert rt.plan_cache.peek(good.plan_key_old) is None
        assert rt.plan_cache.peek(good.plan_key_new) is not None

    def test_regressing_candidate_rolled_back(self, storm):
        rt, _, _, good, bad = storm
        assert bad.status == "rolled_back"
        assert bad.to_generation == bad.from_generation == 2
        assert bad.gain < 1.0
        # The incumbent keeps serving and the candidate's plan is gone.
        assert rt._served("pl").plan_key == good.plan_key_new
        assert bad.candidate_time > bad.incumbent_time
        cached = [k for k in (good.plan_key_new,) if rt.plan_cache.peek(k)]
        assert cached, "the serving plan must stay cached through a rollback"

    def test_counters_and_stats_surface(self, storm):
        rt, _, _, _, _ = storm
        assert rt.counters["migrations_started"] == 2
        assert rt.counters["migrations_completed"] == 1
        assert rt.counters["migrations_rolled_back"] == 1
        s = rt.stats()
        assert s["generations"] == {"pl": 2}
        assert "migrations:" in rt.describe()


class TestRetunePolicies:
    def test_retune_unknown_matrix(self):
        rt = ServingRuntime()
        with pytest.raises(KeyError):
            rt.retune("nope")

    def test_tuner_driven_retune(self):
        from repro.tuning import OnlineTuner, TuningConfig

        rt = ServingRuntime()
        rt.register("pl", _matrix())
        tuner = OnlineTuner(config=TuningConfig(reorders=(GOOD_REORDER,)))
        out = rt.retune("pl", tuner=tuner)
        assert out.status == "migrated"
        assert out.reorder == GOOD_REORDER
        assert out.gain > 1.0
        rt.close()

    def test_no_improvement_keeps_incumbent(self):
        from repro.tuning import OnlineTuner, TuningConfig

        # A banded matrix already tiles densely; demanding a 2x gain
        # guarantees the proposal is the incumbent.
        from repro.matrices import banded

        rt = ServingRuntime()
        rt.register("b", banded(600, half_bandwidth=5, seed=1))
        tuner = OnlineTuner(config=TuningConfig(
            reorders=(GOOD_REORDER,), min_gain=2.0
        ))
        out = rt.retune("b", tuner=tuner)
        assert out.status == "no_improvement"
        assert rt._served("b").generation == 1
        assert rt.counters["migrations_completed"] == 0
        rt.close()

    def test_repeated_retunes_bound_cache(self):
        """Migrate back and forth: drained plans leave no cache residue."""
        rt = ServingRuntime()
        rt.register("pl", _matrix())
        keys = set()
        t = 0.0
        for i in range(4):
            spec = GOOD_REORDER if i % 2 == 0 else "sell:512"
            out = rt.retune("pl", reorder=spec)
            keys.add(out.plan_key_new)
            t += 1.0
            rt.submit(Request(rid=100 + i, arrival=t, matrix_id="pl",
                              deadline=5e-3, x_seed=i))
        # Everything superseded was drained; only the live plan remains.
        assert rt.stats()["draining"] == 0
        live = rt._served("pl").plan_key
        for key in keys - {live}:
            assert rt.plan_cache.peek(key) is None
        assert rt.plan_cache.peek(live) is not None
        rt.close()


# Every engine a registration can serve from: reorder, sharding, backend
# and recovery stack under one retune.
REGISTRATIONS = {
    "shards2": dict(shards=2),
    "grid2x2": dict(grid=(2, 2)),
    "process": dict(shards=2, backend="process"),
    "recovery": dict(shards=2, recovery=True),
}


class TestShardedMigration:
    @pytest.mark.parametrize("config", REGISTRATIONS.values(), ids=REGISTRATIONS)
    def test_storm_migrates_every_registration(self, config):
        """The storm on a sharded, grid, process-backed or recoverable
        registration: it migrates to the reorder, each response is
        bit-for-bit a fresh engine of its generation's configuration, and
        the drained and rolled-back plans leave nothing in the cache."""
        matrix = _matrix()
        with ServingRuntime(RuntimeConfig(queue_limit=8)) as rt:
            rt.register("pl", matrix, **config)
            old_keys = set(rt._served("pl").probe_keys)
            outcomes, good, bad = _run_storm(rt)
            assert good.status == "migrated" and good.reorder == GOOD_REORDER
            assert bad.status == "rolled_back"
            assert [o.plan_generation for o in outcomes] == [1] * 6 + [2] * 7
            with ReliableSpMV(matrix, method="adpt", **config) as gen1, \
                    ReliableSpMV(matrix, method="adpt", reorder=GOOD_REORDER,
                                 **config) as gen2:
                by_gen = {1: gen1, 2: gen2}
                for o in outcomes:
                    expected = by_gen[o.plan_generation].spmv(_x(o.rid, matrix.shape[1]))
                    assert np.array_equal(o.y, expected)
            assert rt.counters["plans_drained"] == 1
            assert rt.stats()["draining"] == 0
            live = set(rt._served("pl").probe_keys)
            assert not old_keys & live
            assert all(rt.plan_cache.peek(k) is not None for k in live)
            assert len(rt.plan_cache) == len(live)

    @pytest.mark.parametrize("config", [
        {}, dict(shards=2), dict(reorder=GOOD_REORDER),
        dict(shards=2, reorder=GOOD_REORDER),
    ], ids=["single", "shards2", "reordered", "reordered_shards2"])
    def test_format_only_proposal_is_no_improvement(self, config):
        """A per-tile format vector changes the modelled price, never the
        executed operand: retune reports it under its label and keeps the
        incumbent.  On a reordered registration the formats candidate
        carries the reorder already serving."""
        from repro.tuning import TuningProposal

        class FormatsTuner:
            def propose(self, matrix, engine=None, collector=None, **kwargs):
                return TuningProposal(
                    label="formats", reorder=config.get("reorder"),
                    formats=np.zeros(4, dtype=np.uint8),
                    modelled_time=1e-6, incumbent_time=2e-6, retiled=4,
                )

        rt = ServingRuntime()
        rt.register("pl", _matrix(), **config)
        key = rt._served("pl").plan_key
        out = rt.retune("pl", tuner=FormatsTuner())
        assert (out.status, out.label, out.reorder) == ("no_improvement", "formats", None)
        assert rt._served("pl").generation == 1
        assert rt._served("pl").plan_key == key
        assert rt.counters["migrations_completed"] == 0
        rt.close()

    def test_tuner_driven_retune_of_sharded_registration(self):
        from repro.tuning import OnlineTuner, TuningConfig

        rt = ServingRuntime()
        rt.register("pl", _matrix(), shards=2)
        tuner = OnlineTuner(config=TuningConfig(reorders=(GOOD_REORDER,)))
        out = rt.retune("pl", tuner=tuner)
        assert (out.status, out.reorder) == ("migrated", GOOD_REORDER)
        assert rt._served("pl").engine.engine.shards == 2
        rt.close()


def _record(out_path: Path) -> tuple[str, str]:
    """The golden scenario: the storm above, under telemetry."""
    with telemetry.session() as (tracer, registry):
        rt = ServingRuntime(RuntimeConfig(queue_limit=8))
        rt.register("pl", _matrix())
        _run_storm(rt)
        rt.close()
        tracer.export(out_path)
        metrics_path = out_path.with_suffix(".metrics.json")
        registry.export(metrics_path)
    return out_path.read_text(), metrics_path.read_text()


class TestGoldenTrace:
    def test_migration_trace_matches_golden(self, tmp_path):
        trace, _ = _record(tmp_path / "run.json")
        assert trace == GOLDEN.read_text(), (
            "migration trace diverged from golden_migration_trace.json — "
            "if the behaviour change is intentional, regenerate via "
            "python -m tests.serving.test_migration"
        )

    def test_two_recordings_byte_identical(self, tmp_path):
        t1, m1 = _record(tmp_path / "a.json")
        t2, m2 = _record(tmp_path / "b.json")
        assert t1 == t2
        assert m1 == m2

    def test_golden_contains_migration_vocabulary(self):
        doc = json.loads(GOLDEN.read_text())
        events = doc["traceEvents"]
        retunes = [e for e in events if e.get("name") == "retune"]
        statuses = [e["args"]["status"] for e in retunes]
        assert statuses == ["migrated", "rolled_back"]
        assert {e["args"]["generation"] for e in retunes} == {2}

    def test_golden_metrics_cover_migration_counters(self, tmp_path):
        _, metrics = _record(tmp_path / "m.json")
        counters = json.loads(metrics)["counters"]
        assert counters['serving_migrations_total{status="migrated"}'] == 1
        assert counters['serving_migrations_total{status="rolled_back"}'] == 1
        assert counters["serving_plans_drained_total"] == 1


if __name__ == "__main__":  # fixture regeneration
    _record(GOLDEN)
    print(f"golden fixture regenerated at {GOLDEN}")
