"""Tests of the benchmark harness itself (not of the program).

    python -m pytest perfbench/tests
"""

import json
import random
from pathlib import Path

import pytest

from harness import FAILED, OK, REFUSED, WRONG, Ledger, end_to_end, Op, Phase
from harness import min_samples, percentile
from spans import Recorder, Span, instrument, self_times

BENCH = Path(__file__).resolve().parent.parent


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 201))
        random.Random(0).shuffle(samples)
        assert percentile(samples, 0.95) == 190
        assert percentile(samples, 0.5) == 100

    def test_needs_ten_beyond(self):
        assert percentile(range(200), 0.95) == 189  # 10 samples above
        with pytest.raises(ValueError, match="leaves 9 beyond"):
            percentile(range(199), 0.95)
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_min_samples(self):
        assert min_samples(0.95) == 200
        assert min_samples(0.99) == 1000
        for q in (0.5, 0.9, 0.95):
            n = min_samples(q)
            percentile(range(n), q)
            with pytest.raises(ValueError):
                percentile(range(n - 1), q)


def _span(i, start, end, parent=None, name="s"):
    return Span(i, name, start, end, parent, "op.0")


class TestSelfTime:
    def test_nested(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 5.0, 9.0, parent=0),
            _span(3, 6.0, 7.0, parent=2),
        ]
        st = self_times(spans)
        assert st == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
        # Self times partition the root's wall time.
        assert sum(st.values()) == pytest.approx(10.0)

    def test_overlapping_and_clipped_children(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 3.0, 6.0, parent=0),   # overlaps child 1
            _span(3, 9.0, 12.0, parent=0),  # runs past the parent
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_recorder_links_parents_and_ops(self):
        rec = Recorder()
        with rec.operation("op.7"):
            with rec.span("outer"):
                with rec.span("inner", k=2):
                    pass
        outer, inner = rec.spans
        assert inner.parent == outer.id and outer.parent is None
        assert {outer.op, inner.op} == {"op.7"}
        assert inner.attrs == {"k": 2}
        assert outer.start <= inner.start <= inner.end <= outer.end


class TestLedger:
    def test_counts(self):
        led = Ledger()
        for s in (OK, OK, REFUSED, FAILED):
            led.record(s)
        assert led.attempted == 4
        assert led.failed == 1  # refusals are not program failures
        assert led.fail_share == pytest.approx(0.5)
        assert led.correct
        led.record(WRONG)
        assert not led.correct and led.failed == 2

    def test_degrade_fails_that_and_every_later_op(self):
        led = Ledger()
        assert led.record(OK) == OK
        assert led.record(OK, degraded=True) == FAILED
        assert led.record(OK) == FAILED
        assert led.record(REFUSED) == REFUSED
        assert led.counts == {OK: 1, REFUSED: 1, FAILED: 2, WRONG: 0}
        assert led.fail_share == pytest.approx(0.75)

    def test_unknown_status(self):
        with pytest.raises(ValueError):
            Ledger().record("lost")

    def test_phase_metrics(self):
        ph = Phase()
        ph.add(2.0, [Op(0.001 * i, 1e9, OK) for i in range(1, 201)])
        ph.add(0.0, [Op(0.0, 0.0, REFUSED)])
        m = end_to_end([0.3, 0.1, 0.2], ph)
        assert m["setup_s"] == (0.2, "s")
        assert m["gflops"] == (100.0, "GFlop/s")
        assert m["success_share"][0] == pytest.approx(200 / 201)
        assert m["latency_p95_ms"][0] == pytest.approx(190.0)


def test_instrument_restores_the_program():
    from repro.core import tilespmv
    from repro.core.tilespmv import TileSpMV
    from repro.reliability import validation

    spmv, canon = TileSpMV.__dict__["spmv"], validation.canonicalize_csr
    rec = Recorder()
    with instrument(rec):
        assert TileSpMV.__dict__["spmv"] is not spmv
        assert tilespmv.canonicalize_csr is not canon
    assert TileSpMV.__dict__["spmv"] is spmv
    assert tilespmv.canonicalize_csr is canon
    assert validation.canonicalize_csr is canon


def test_benchmark_json_names_match_the_code():
    from ledger import PER_LAYER

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    ph = Phase()
    ph.add(1.0, [Op(0.001, 1.0, OK)] * 200)
    e2e = end_to_end([0.1], ph)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()
    }
    from workloads import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
