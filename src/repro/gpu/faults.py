"""Deterministic fault model, shared by both fault domains.

A **GPU-substrate** campaign (:class:`FaultPlan`, armed by
:func:`fault_injection`) corrupts what happens inside one device:
kernel payloads (:mod:`repro.core.storage`, :mod:`repro.baselines.csr5`),
shared-memory loads, atomics and executor lanes (:mod:`repro.gpu.memory`,
:mod:`repro.gpu.warp`, :mod:`repro.gpu.executor`) and solver iterates
(:mod:`repro.serving.checkpoint`).  A **shard-level** campaign
(:mod:`repro.dist.faults`) corrupts what happens between devices.

Both follow one rule: **every injected fault is a pure function of
(seed, kind, site, attempt)** — a ``blake2b`` digest of the four seeds
the private ``Generator`` that decides and picks the victims — so no
fault depends on thread scheduling, worker count or any other fault.  Inside a shard task the site is the shard's device rank
and the attempt is the execution the engine opened (:func:`fault_site`,
set by :meth:`~repro.dist.sharded.ShardedSpMV.shard_call` and the
process backend's workers); elsewhere the site is 0 and the attempt is
the injector's own call count of that kind.  ``fault_attempts`` bounds
every kind alike: attempts ``[0, fault_attempts)`` fault, later ones
are clean (``None``: every attempt faults).  The default of 1 corrupts
a kernel's first run and leaves its retry clean, which is how
:class:`~repro.reliability.reliable.ReliableSpMV` proves its
detect-then-retry ladder.

Every value perturbation is additive, at least ``min_magnitude`` above
the entry's own scale: far beyond the ABFT verifiers' roundoff
tolerance, so a missed fault is a real bug.
"""

from __future__ import annotations

import contextvars
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry as tele

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "fault_injection",
    "active_injector",
    "fault_site",
]

# (site, attempt) of the shard task running in this context, if any.
_SITE: contextvars.ContextVar = contextvars.ContextVar("fault_site", default=None)


@contextmanager
def fault_site(site: int, attempt: int):
    """Run the enclosed hooks as device ``site``'s execution ``attempt``."""
    token = _SITE.set((site, attempt))
    try:
        yield
    finally:
        _SITE.reset(token)


@dataclass
class Injector:
    """The fault model: derivation, perturbation and bookkeeping.  The
    only mutable state is the lock-protected counters."""

    plan: object
    injected: int = 0
    by_kind: dict = field(default_factory=dict)
    _calls: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    metric = "faults_injected_total"

    def _rng(self, kind: str, site: int, attempt: int) -> np.random.Generator:
        """A private generator for one (kind, site, attempt) decision."""
        h = hashlib.blake2b(
            f"{self.plan.seed}:{kind}:{site}:{attempt}".encode(), digest_size=8
        )
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def _armed(self, attempt: int) -> bool:
        """Does this attempt fall inside the faulting window?"""
        fa = self.plan.fault_attempts
        return fa is None or attempt < fa

    def _fires(self, kind: str, site: int, attempt: int,
               targets: tuple[int, ...], prob: float) -> bool:
        """Inside the window a targeted site always fires, any other
        with probability ``prob``."""
        if not self._armed(attempt):
            return False
        if site in targets:
            return True
        return prob > 0.0 and self._rng(kind, site, attempt).random() < prob

    def _site_attempt(self, kind: str) -> tuple[int, int]:
        """The running shard task's (rank, attempt), else site 0 and
        this kind's call count."""
        current = _SITE.get()
        if current is not None:
            return current
        with self._lock:
            attempt = self._calls.get(kind, 0)
            self._calls[kind] = attempt + 1
        return 0, attempt

    def _record(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self.injected += n
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n
        if tele.ENABLED:
            tele.count(self.metric, n=n, kind=kind)

    def _bump(self, kind: str, site: int, attempt: int,
              values: np.ndarray, n: int) -> np.ndarray:
        """Additive large-magnitude corruption of up to ``n`` entries.

        The perturbation is ``max(min_magnitude, 8|v|)`` times a random
        factor in [1, 2), with a random sign: the factor keeps several
        perturbations landing in one product (one per shard, or several
        entries of one payload) from cancelling in its checksum.  Never
        mutates the input; any shape is accepted.
        """
        n = min(n, values.size)
        if n <= 0:
            return values
        # Its own stream, apart from the firing decision's ``_rng(kind)``.
        rng = self._rng(f"{kind}/", site, attempt)
        out = values.astype(np.float64, copy=True)
        flat = out.reshape(-1)
        idx = rng.choice(flat.size, size=n, replace=False)
        sign = rng.choice((-1.0, 1.0), size=n)
        bump = np.maximum(self.plan.min_magnitude, 8.0 * np.abs(flat[idx]))
        flat[idx] += sign * bump * rng.uniform(1.0, 2.0, size=n)
        self._record(kind, n)
        return out

    def record_worker_faults(self, by_kind: dict) -> None:
        """Record the faults a worker process applied with its own copy
        of this injector, whose counters die with it."""
        for kind, n in by_kind.items():
            self._record(kind, n)

    def stats(self) -> dict:
        with self._lock:
            return {"injected": self.injected, "by_kind": dict(sorted(self.by_kind.items()))}


ARMED: dict = {}  # campaign name -> its armed injector


@contextmanager
def arm(name: str, injector):
    """Arm ``injector`` as the ``name`` campaign for the context; yields
    it.  Nesting is rejected: it would make attempt counts ambiguous."""
    if name in ARMED:
        raise RuntimeError(f"{name} is already active; nesting is not supported")
    ARMED[name] = injector
    try:
        yield injector
    finally:
        del ARMED[name]


def any_armed() -> bool:
    """Is a campaign of either domain armed?"""
    return bool(ARMED)


def disarm_inherited() -> None:
    """Forget every armed campaign: a forked worker process inherits
    the parent's but arms the plans its commands ship."""
    ARMED.clear()


@dataclass(frozen=True)
class FaultPlan:
    """Configuration of a GPU-substrate fault campaign.

    Attributes
    ----------
    seed:
        Root of every derived decision.
    payload_corruptions:
        Entries corrupted per faulting vectorised kernel call
        (``TileMatrix.spmv/spmm``, ``Csr5SpMV.spmv/spmm``).
    bitflip_prob / drop_atomic_prob / lane_dropout_prob:
        Per-attempt probabilities that a
        :class:`~repro.gpu.memory.SharedMemory` load returns one word
        with a flipped high-order bit, that an ``atomicAdd`` loses one
        active lane's contribution, and that the lane-accurate executor
        drops one lane of a warp's partial result.
    fault_attempts:
        Attempts ``[0, fault_attempts)`` of every kind at every site
        fault; later attempts are clean.  ``None`` is persistent.
    min_magnitude:
        Lower bound on the absolute size of any injected value
        perturbation (guarantees ABFT detectability).
    solver_state_corruptions:
        Entries corrupted per solver iterate offered to
        :meth:`FaultInjector.corrupt_solver_state`: host-memory faults
        no per-product checksum sees, left to the checkpointed solvers.
    """

    seed: int = 0
    payload_corruptions: int = 1
    bitflip_prob: float = 0.0
    drop_atomic_prob: float = 0.0
    lane_dropout_prob: float = 0.0
    fault_attempts: int | None = 1
    min_magnitude: float = 1e3
    solver_state_corruptions: int = 0


class FaultInjector(Injector):
    """Runtime state of an armed :class:`FaultPlan`."""

    def _perturb(self, kind: str, values: np.ndarray, n: int) -> np.ndarray:
        if values.size == 0 or n <= 0:
            return values
        site, attempt = self._site_attempt(kind)
        if not self._armed(attempt):
            return values
        return self._bump(kind, site, attempt, values, n)

    def _victims(self, kind: str, prob: float, hit) -> np.random.Generator | None:
        """The victim stream of this call if its probabilistic fault fires
        (never when there is nothing to ``hit``)."""
        if prob <= 0.0 or not hit:
            return None
        site, attempt = self._site_attempt(kind)
        if not self._fires(kind, site, attempt, (), prob):
            return None
        self._record(kind)
        return self._rng(f"{kind}/", site, attempt)

    def corrupt_payload(self, values: np.ndarray, kind: str = "payload") -> np.ndarray:
        """Kernel payload corruption: ``payload_corruptions`` entries hit."""
        return self._perturb(kind, values, self.plan.payload_corruptions)

    def corrupt_solver_state(self, vec: np.ndarray) -> np.ndarray:
        """Host-memory corruption of a solver iterate between iterations:
        the product was correct, but the vector holding it rots."""
        return self._perturb("solver_state", vec, self.plan.solver_state_corruptions)

    def maybe_bitflip(self, words: np.ndarray) -> np.ndarray:
        """Shared-memory load corruption: flip one float64 word's bit
        44-62 (top of the mantissa / the exponent), so the change is
        macroscopic, never a silent last-ulp wiggle."""
        rng = self._victims("bitflip", self.plan.bitflip_prob,
                            words.size and words.dtype == np.float64)
        if rng is None:
            return words
        out = words.copy()
        bit = np.uint64(1) << np.uint64(int(rng.integers(44, 63)))
        out.view(np.uint64)[int(rng.integers(out.size))] ^= bit
        return out

    def drop_atomic_lane(self, active: np.ndarray) -> np.ndarray:
        """Dropped atomic: silently deactivate one participating lane."""
        rng = self._victims("drop_atomic", self.plan.drop_atomic_prob, active.any())
        if rng is None:
            return active
        out = active.copy()
        victims = np.flatnonzero(out)
        out[victims[int(rng.integers(victims.size))]] = False
        return out

    def maybe_drop_lane(self, y_partial: np.ndarray) -> np.ndarray:
        """Executor lane drop-out: one slot of a warp's partial y lost."""
        rng = self._victims("lane_dropout", self.plan.lane_dropout_prob, y_partial.size)
        if rng is None:
            return y_partial
        out = y_partial.copy()
        out[int(rng.integers(out.size))] = 0.0
        return out


def active_injector() -> FaultInjector | None:
    """The currently armed injector, or ``None`` (the common fast path)."""
    return ARMED.get("fault injection")


def fault_injection(plan: FaultPlan):
    """Arm ``plan`` for the duration of the context; yields the injector."""
    return arm("fault injection", FaultInjector(plan))
