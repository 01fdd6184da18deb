"""Timing loop, outcome ledger and percentile rule shared by every workload.

Nothing here imports the program under test, so the harness tests run
without it.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

# Outcome of one operation.  OK counts towards success; REFUSED is a
# designed refusal of the program (a shed request, a missed deadline);
# FAILED is work the program could not complete (non-convergence, an
# unverified result, a run that left its backend); WRONG is a result that
# disagrees with the reference and makes the whole run incorrect.
OK, REFUSED, FAILED, WRONG = "ok", "refused", "failed", "wrong"
STATUSES = (OK, REFUSED, FAILED, WRONG)

# A reported percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    strictly above the selected rank, so a tail figure always rests on
    a stated number of observations.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {max(beyond, 0)} beyond it; "
            f"need >= {min_beyond}"
        )
    return ordered[rank - 1]


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``q``."""
    n = min_beyond + 1
    while n - max(1, math.ceil(q * n)) < min_beyond:
        n += 1
    return n


class Ledger:
    """Counts attempted operations by outcome, with the degrade rule.

    Once an operation reports ``degraded=True`` (the engine left the
    execution mode the workload is meant to measure), that operation and
    every later one count as FAILED even if its result was right: the run
    no longer measures what the workload names.
    """

    def __init__(self) -> None:
        self.counts = {s: 0 for s in STATUSES}
        self.degraded = False

    def record(self, status: str, degraded: bool = False) -> str:
        if status not in self.counts:
            raise ValueError(f"unknown status {status!r}")
        self.degraded = self.degraded or degraded
        if self.degraded and status == OK:
            status = FAILED
        self.counts[status] += 1
        return status

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        """Operations the program got wrong or could not complete."""
        return self.counts[FAILED] + self.counts[WRONG]

    @property
    def fail_share(self) -> float:
        """Failed, wrong and refused operations over attempted."""
        n = self.attempted
        return (n - self.counts[OK]) / n if n else 0.0

    @property
    def correct(self) -> bool:
        return self.counts[WRONG] == 0


@dataclass
class Op:
    """One completed operation: its wall latency, useful flops, outcome."""

    latency_s: float
    flops: float
    status: str
    degraded: bool = False


@dataclass
class Phase:
    """Everything one timed phase measured."""

    latencies: list = field(default_factory=list)
    flops: float = 0.0
    busy_s: float = 0.0  # wall time inside the program's calls
    ledger: Ledger = field(default_factory=Ledger)

    def add(self, busy_s: float, ops) -> None:
        self.busy_s += busy_s
        for op in ops:
            self.latencies.append(op.latency_s)
            self.flops += op.flops
            self.ledger.record(op.status, op.degraded)


def measure(step, seconds: float, min_ops: int) -> Phase:
    """Call ``step()`` until ``seconds`` have passed and ``min_ops`` ran.

    ``step`` returns ``(busy_s, ops)``: the wall time it spent inside
    the program's calls (its own checks excluded) and the operations it
    completed.
    """
    phase = Phase()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(phase.latencies) < min_ops:
        phase.add(*step())
    return phase


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux ``ru_maxrss``, KiB), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s: list, phase: Phase) -> dict:
    """The six end-to-end metrics of one run, as ``{name: (value, unit)}``."""
    ms = [t * 1e3 for t in phase.latencies]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p95_ms": (percentile(ms, 0.95), "ms"),
        "gflops": (phase.flops / phase.busy_s / 1e9, "GFlop/s"),
        "success_share": (1.0 - phase.ledger.fail_share, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
