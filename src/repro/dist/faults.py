"""Deterministic shard-level fault model for the multi-device engine.

:mod:`repro.gpu.faults` simulates faults *inside* one device's kernels;
this module simulates the failure modes that only exist *between*
devices: a device disappearing mid-product (:class:`DeviceLostError`),
a shard handing back a corrupted partial, a straggler stretching the
virtual clock, and a corrupted halo exchange (the ``x`` window a shard
receives over the interconnect).

The two injectors differ in one load-bearing way.  The GPU-substrate
injector draws from **one RNG stream consumed in execution order**,
which is why :class:`~repro.dist.sharded.ShardedSpMV` must drop to a
sequential loop while it is armed.  A shard-level campaign instead
derives every decision from a **pure function of (seed, fault kind,
device rank, attempt number)** — a ``blake2b`` digest seeds a private
``Generator`` per decision — so the outcome of any shard execution is
independent of thread scheduling and of every other shard.  Shard
campaigns therefore run on the real concurrent path, which is the whole
point: fault tolerance that only works sequentially is not fault
tolerance.

Attempt semantics: a shard's ``attempt`` is its per-device execution
count, maintained by the engine (``ShardedSpMV.shard_exec_counts``).
With the default ``fault_attempts=1`` only attempt 0 faults, so a
localized retry is clean — the transient-fault model.  ``None`` means
every attempt faults — the persistent-failure model that drives the
circuit breaker into quarantine.

Like the GPU plan, every injected value perturbation has magnitude at
least ``min_magnitude`` above the entry's own scale, so the per-shard
ABFT checksums in :mod:`repro.dist.recovery` detect it by construction.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry as tele

__all__ = [
    "DeviceLostError",
    "ShardFaultPlan",
    "ShardFaultInjector",
    "shard_fault_injection",
    "active_injector",
]


class DeviceLostError(RuntimeError):
    """A model-device vanished mid-execution: its shard returns nothing.

    Carries the device rank and the attempt number so the recovery
    ladder can localize the loss without parsing messages.
    """

    def __init__(self, device: int, attempt: int) -> None:
        super().__init__(f"device {device} lost (attempt {attempt})")
        self.device = device
        self.attempt = attempt


@dataclass(frozen=True)
class ShardFaultPlan:
    """Configuration of a deterministic shard-level fault campaign.

    Attributes
    ----------
    seed:
        Root of every derived decision stream.  Identical seeds give
        identical campaigns — including identical retry schedules in
        the recovery ladder — regardless of worker count.
    lose_devices / corrupt_devices / halo_devices / straggle_devices:
        Explicitly targeted device ranks (deterministic targeting, the
        campaign-suite workhorse).  Empty tuples target nobody.
    device_loss_prob / corruption_prob / halo_prob / straggler_prob:
        Per-(device, attempt) probabilities for untargeted devices,
        drawn from the derived stream (probabilistic sweeps).
    straggler_delay_s:
        Modelled seconds a straggling shard adds to the virtual clock.
    corruptions_per_partial:
        Entries hit per corrupted partial / halo window.
    fault_attempts:
        Attempts ``[0, fault_attempts)`` of a targeted shard fault;
        later attempts are clean.  The default of 1 makes every fault
        transient (one localized retry recovers); ``None`` makes faults
        persistent (every attempt fails) to exercise quarantine.
    min_magnitude:
        Lower bound on any injected perturbation (ABFT detectability).
    kill_workers / hang_workers:
        Process-level fault targets for the :mod:`repro.dist.procpool`
        backend — the device ranks whose worker process is SIGKILL'd
        mid-operation or stops responding (sleeps past the supervisor's
        deadline).  The supervisor respawns such a worker and reports
        its shard lost, so both kinds reach the recovery ladder as a
        :class:`DeviceLostError`.  Like every other kind, the decision
        is a pure function of ``(seed, kind, device, attempt)``: the
        worker re-derives it from the plan shipped in the command, and
        the parent re-derives it for bookkeeping, so both sides agree
        without coordination.  Thread-backend engines ignore these.
    worker_kill_prob / worker_hang_prob:
        Probabilistic variants for untargeted device ranks.
    hang_seconds:
        Real (not virtual) seconds a hung worker sleeps — configure it
        above the supervisor's ``op_timeout_s`` so the missed-heartbeat
        detection actually fires.
    """

    seed: int = 0
    lose_devices: tuple[int, ...] = ()
    corrupt_devices: tuple[int, ...] = ()
    halo_devices: tuple[int, ...] = ()
    straggle_devices: tuple[int, ...] = ()
    device_loss_prob: float = 0.0
    corruption_prob: float = 0.0
    halo_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_delay_s: float = 5e-4
    corruptions_per_partial: int = 1
    fault_attempts: int | None = 1
    min_magnitude: float = 1e3
    kill_workers: tuple[int, ...] = ()
    hang_workers: tuple[int, ...] = ()
    worker_kill_prob: float = 0.0
    worker_hang_prob: float = 0.0
    hang_seconds: float = 0.5


@dataclass
class ShardFaultInjector:
    """Runtime state of an armed :class:`ShardFaultPlan`.

    All decision state is derived, never consumed: the only mutable
    fields are the (lock-protected) bookkeeping counters, so concurrent
    shard executions cannot perturb each other's faults.
    """

    plan: ShardFaultPlan
    injected: int = 0
    by_kind: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- derived decisions -------------------------------------------------

    def _rng(self, kind: str, device: int, attempt: int) -> np.random.Generator:
        """A private generator for one (kind, device, attempt) decision."""
        h = hashlib.blake2b(
            f"{self.plan.seed}:{kind}:{device}:{attempt}".encode(), digest_size=8
        )
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def _armed(self, attempt: int) -> bool:
        """Does this attempt fall inside the faulting window?"""
        fa = self.plan.fault_attempts
        return fa is None or attempt < fa

    def _fires(self, kind: str, device: int, attempt: int,
               targets: tuple[int, ...], prob: float) -> bool:
        if not self._armed(attempt):
            return False
        if device in targets:
            return True
        return prob > 0.0 and self._rng(kind, device, attempt).random() < prob

    def _record(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.injected += n
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n
        if tele.ENABLED:
            tele.count("shard_faults_injected_total", n=n, kind=kind)

    # -- hooks (called when ShardedSpMV opens and runs a shard) ----------

    def raise_if_lost(self, device: int, attempt: int) -> None:
        """Device-loss fault: the shard raises instead of returning."""
        if self._fires("loss", device, attempt,
                       self.plan.lose_devices, self.plan.device_loss_prob):
            self._record("device_loss")
            raise DeviceLostError(device, attempt)

    def straggler_delay(self, device: int, attempt: int) -> float:
        """Modelled straggler seconds for this execution (0.0 = on time)."""
        if self._fires("straggle", device, attempt,
                       self.plan.straggle_devices, self.plan.straggler_prob):
            self._record("straggler")
            return float(self.plan.straggler_delay_s)
        return 0.0

    def _bump(self, kind: str, device: int, attempt: int,
              values: np.ndarray) -> np.ndarray:
        """Additive large-magnitude corruption of up to ``n`` entries."""
        flat = values.reshape(-1)
        n = min(self.plan.corruptions_per_partial, flat.size)
        if n <= 0:
            return values
        # Its own stream, apart from the firing decision's ``_rng(kind)``.
        rng = self._rng(f"{kind}/", device, attempt)
        out = values.astype(np.float64, copy=True)
        oflat = out.reshape(-1)
        idx = rng.choice(flat.size, size=n, replace=False)
        sign = rng.choice((-1.0, 1.0), size=n)
        bump = np.maximum(self.plan.min_magnitude, 8.0 * np.abs(oflat[idx]))
        oflat[idx] = oflat[idx] + sign * bump
        self._record(kind, n)
        return out

    def corrupt_partial(self, device: int, attempt: int,
                        values: np.ndarray) -> np.ndarray:
        """Corrupted shard partial: the block/stream a shard hands back.

        Never mutates the input; 1-D and 2-D partials are both
        supported.
        """
        if values.size == 0 or not self._fires(
            "partial", device, attempt,
            self.plan.corrupt_devices, self.plan.corruption_prob,
        ):
            return values
        return self._bump("partial", device, attempt, values)

    def corrupt_halo(self, device: int, attempt: int,
                     x_window: np.ndarray) -> np.ndarray:
        """Corrupted halo exchange: the x window the shard received."""
        if x_window.size == 0 or not self._fires(
            "halo", device, attempt, self.plan.halo_devices, self.plan.halo_prob
        ):
            return x_window
        return self._bump("halo", device, attempt, x_window)

    # -- process-level hooks (repro.dist.procpool) -------------------------

    def kill_worker(self, device: int, attempt: int) -> bool:
        """Should this device's worker process die mid-operation?

        In the worker the affirmative answer is followed by SIGKILL; in
        the parent the same derivation records the event, so counters
        match the thread backend's one-record-per-fired-fault contract.
        """
        if self._fires("worker_kill", device, attempt,
                       self.plan.kill_workers, self.plan.worker_kill_prob):
            self._record("worker_kill")
            return True
        return False

    def worker_hang_s(self, device: int, attempt: int) -> float:
        """Real seconds this device's worker sleeps before responding."""
        if self._fires("worker_hang", device, attempt,
                       self.plan.hang_workers, self.plan.worker_hang_prob):
            self._record("worker_hang")
            return float(self.plan.hang_seconds)
        return 0.0

    def record_worker_faults(self, device: int, attempt: int,
                             window_size: int, out_size: int) -> None:
        """Record the halo and partial faults a worker process applied.

        The worker corrupts its x window and its output block with its
        own copy of this injector, whose counters die with it.  The
        parent re-derives the same two decisions when the worker's
        reply arrives, so campaign counters read the same on both
        backends.
        """
        plan = self.plan
        for kind, size, targets, prob in (
            ("halo", window_size, plan.halo_devices, plan.halo_prob),
            ("partial", out_size, plan.corrupt_devices, plan.corruption_prob),
        ):
            n = min(plan.corruptions_per_partial, size)
            if n > 0 and self._fires(kind, device, attempt, targets, prob):
                self._record(kind, n)

    def stats(self) -> dict:
        with self._lock:
            return {"injected": self.injected, "by_kind": dict(self.by_kind)}


_ACTIVE: ShardFaultInjector | None = None


def active_injector() -> ShardFaultInjector | None:
    """The armed shard-level injector, or ``None`` (the common fast path)."""
    return _ACTIVE


@contextmanager
def shard_fault_injection(plan: ShardFaultPlan):
    """Arm ``plan`` for the duration of the context; yields the injector.

    Nesting is rejected, mirroring :func:`repro.gpu.faults.fault_injection`
    — overlapping campaigns would make attempt counts ambiguous.  A
    shard campaign *may* coexist with a GPU-substrate campaign (they
    are separate globals), but the GPU campaign's sequential fallback
    then governs execution.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            "shard fault injection is already active; nesting is not supported"
        )
    injector = ShardFaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
