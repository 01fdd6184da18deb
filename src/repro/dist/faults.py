"""Shard-level fault campaigns for the multi-device engine.

Where :mod:`repro.gpu.faults` corrupts what happens inside one device,
a :class:`ShardFaultPlan` corrupts what happens between devices: a
device lost mid-product (:class:`DeviceLostError`), a corrupted shard
partial, a straggler on the virtual clock, a corrupted halo exchange
(the ``x`` window a shard receives) and a killed or hung worker
process.  Every decision follows the shared model — a pure function of
(seed, kind, device rank, attempt), the attempt being the one the
armed campaigns opened at that rank (:func:`repro.gpu.faults.open_attempt`:
one sequence per rank across every engine, continued by a rebuilt or
repartitioned engine) — so campaigns run on the real concurrent path,
and every perturbation is large enough for the per-shard checksums in
:mod:`repro.dist.recovery` to detect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.faults import ARMED, Injector, arm

__all__ = [
    "DeviceLostError",
    "ShardFaultPlan",
    "ShardFaultInjector",
    "shard_fault_injection",
    "active_injector",
]


class DeviceLostError(RuntimeError):
    """A model-device vanished mid-execution: its shard returns nothing.
    Carries the rank and attempt, so the ladder localizes the loss."""

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
        Root of every derived decision: identical seeds give identical
        campaigns and retry schedules at any worker count.
    lose_devices / corrupt_devices / halo_devices / straggle_devices:
        Targeted device ranks; empty tuples target nobody.
    device_loss_prob / corruption_prob / halo_prob / straggler_prob:
        Per-(device, attempt) probabilities for untargeted devices.
    straggler_delay_s:
        Modelled seconds a straggling shard adds to the virtual clock.
    corruptions_per_partial:
        Entries hit per corrupted partial / halo window.
    fault_attempts:
        Attempts ``[0, fault_attempts)`` fault, later ones are clean:
        the default of 1 is transient (one localized retry recovers),
        ``None`` persistent (every attempt fails, driving quarantine).
    min_magnitude:
        Lower bound on any injected perturbation (ABFT detectability).
    kill_workers / hang_workers / worker_kill_prob / worker_hang_prob:
        Targets and probabilities of a :mod:`repro.dist.procpool` worker
        process SIGKILL'd mid-operation or sleeping past the supervisor's
        deadline; it is respawned and its shard reported lost
        (:class:`DeviceLostError`).  Thread-backend engines ignore these.
    hang_seconds:
        Real seconds a hung worker sleeps — above the supervisor's
        ``op_timeout_s``, so the missed-heartbeat detection fires.
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


class ShardFaultInjector(Injector):
    """Runtime state of an armed :class:`ShardFaultPlan`; its hooks run
    where a shard is opened and executed, in a thread or a worker."""

    metric = "shard_faults_injected_total"

    def _event(self, kind: str, record: str, device: int, attempt: int,
               targets: tuple[int, ...], prob: float) -> bool:
        if fired := self._fires(kind, device, attempt, targets, prob):
            self._record(record)
        return fired

    def raise_if_lost(self, device: int, attempt: int) -> None:
        """Device-loss fault: the shard raises instead of returning."""
        p = self.plan
        if self._event("loss", "device_loss", device, attempt,
                       p.lose_devices, p.device_loss_prob):
            raise DeviceLostError(device, attempt)

    def straggler_delay(self, device: int, attempt: int) -> float:
        """Modelled straggler seconds for this execution (0.0 = on time)."""
        p = self.plan
        fired = self._event("straggle", "straggler", device, attempt,
                            p.straggle_devices, p.straggler_prob)
        return float(p.straggler_delay_s) if fired else 0.0

    def kill_worker(self, device: int, attempt: int) -> bool:
        """Should this device's worker process die mid-operation?"""
        return self._event("worker_kill", "worker_kill", device, attempt,
                           self.plan.kill_workers, self.plan.worker_kill_prob)

    def worker_hang_s(self, device: int, attempt: int) -> float:
        """Real seconds this device's worker sleeps before responding."""
        p = self.plan
        fired = self._event("worker_hang", "worker_hang", device, attempt,
                            p.hang_workers, p.worker_hang_prob)
        return float(p.hang_seconds) if fired else 0.0

    def _corrupt(self, kind: str, device: int, attempt: int, values: np.ndarray,
                 targets: tuple[int, ...], prob: float) -> np.ndarray:
        if values.size == 0 or not self._fires(kind, device, attempt, targets, prob):
            return values
        return self._bump(kind, device, attempt, values, self.plan.corruptions_per_partial)

    def corrupt_partial(self, device: int, attempt: int,
                        values: np.ndarray) -> np.ndarray:
        """Corrupted shard partial (1-D or 2-D): what a shard hands back."""
        return self._corrupt("partial", device, attempt, values,
                             self.plan.corrupt_devices, self.plan.corruption_prob)

    def corrupt_halo(self, device: int, attempt: int,
                     x_window: np.ndarray) -> np.ndarray:
        """Corrupted halo exchange: the x window the shard received."""
        return self._corrupt("halo", device, attempt, x_window,
                             self.plan.halo_devices, self.plan.halo_prob)


def active_injector() -> ShardFaultInjector | None:
    """The armed shard-level injector, or ``None`` (the common fast path)."""
    return ARMED.get("shard fault injection")


def shard_fault_injection(plan: ShardFaultPlan):
    """Arm ``plan`` for the duration of the context; yields the injector.
    It may coexist with a GPU-substrate campaign over the same model."""
    return arm("shard fault injection", ShardFaultInjector(plan))
