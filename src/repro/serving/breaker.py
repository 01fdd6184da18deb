"""Circuit breaker guarding the fast (tiled) execution path.

One breaker protects one *plan* — the serving runtime keys breakers by
the :func:`~repro.core.plancache.structural_fingerprint` of the served
matrix, so a poisoned cached plan (repeated ABFT detections) or a
mispredicted one (repeated deadline blowouts) stops hurting exactly the
requests that would hit it, while every other matrix keeps its fast
path.

Standard three-state machine, driven entirely by the runtime's virtual
clock so campaigns are deterministic:

``CLOSED``
    Fast path allowed.  ``failure_threshold`` *consecutive* failures
    trip the breaker to ``OPEN`` (a single transient detection that the
    retry ladder absorbs should not give up the fast path).
``OPEN``
    Fast path denied; the runtime routes to the verified scalar
    fallback.  After ``cooldown_seconds`` of virtual time the next
    request is allowed through as a probe (``HALF_OPEN``).
``HALF_OPEN``
    Probes flow on the fast path.  ``probe_successes`` consecutive clean
    probes close the breaker; any probe failure reopens it and restarts
    the cooldown.

Every transition and denial is counted; :meth:`CircuitBreaker.stats`
feeds the runtime's aggregate counters and the ``serve-sim`` report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro import telemetry as tele

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker"]


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs (see docs/SERVING.md for guidance).

    Attributes
    ----------
    failure_threshold:
        Consecutive fast-path failures (ABFT detection or deadline
        blowout) that trip a closed breaker.
    cooldown_seconds:
        Virtual seconds an open breaker waits before letting a probe
        through.
    probe_successes:
        Consecutive clean probes required to close a half-open breaker.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 0.005
    probe_successes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


class CircuitBreaker:
    """Per-plan breaker state machine (single-threaded, virtual-clock)."""

    def __init__(self, config: BreakerConfig | None = None, key: str = "") -> None:
        self.config = config or BreakerConfig()
        self.key = key
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_streak = 0
        self._opened_at = 0.0
        self.counters = {
            "trips": 0,            # CLOSED -> OPEN
            "reopens": 0,          # HALF_OPEN -> OPEN (probe failed)
            "closes": 0,           # HALF_OPEN -> CLOSED (probes clean)
            "probes": 0,           # fast-path attempts while HALF_OPEN
            "probe_failures": 0,
            "fast_denied": 0,      # requests the OPEN state sent to fallback
            "failures": 0,
        }
        self.failure_reasons: dict[str, int] = {}

    # -- queries -----------------------------------------------------------

    def allow_fast(self, now: float) -> bool:
        """May this request take the fast path at virtual time ``now``?

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits the request as a probe.
        """
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.config.cooldown_seconds:
                self.state = BreakerState.HALF_OPEN
                self._probe_streak = 0
                if tele.ENABLED:
                    tele.count("breaker_transitions_total", transition="half_open")
            else:
                self.counters["fast_denied"] += 1
                if tele.ENABLED:
                    tele.count("breaker_fast_denied_total")
                return False
        if self.state is BreakerState.HALF_OPEN:
            self.counters["probes"] += 1
        return True

    def admits_fast(self, now: float) -> bool:
        """Would :meth:`allow_fast` admit a request at ``now``?

        A side-effect-free query: no transition, denial or probe is
        counted, so a caller that may not run the fast path after all
        can ask without skewing the accounting.
        """
        return (
            self.state is not BreakerState.OPEN
            or now - self._opened_at >= self.config.cooldown_seconds
        )

    # -- outcome reports ---------------------------------------------------

    def record_success(self, now: float) -> None:
        """A fast-path request completed verified and on time."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= self.config.probe_successes:
                self.state = BreakerState.CLOSED
                self.counters["closes"] += 1
                self._consecutive_failures = 0
                if tele.ENABLED:
                    tele.count("breaker_transitions_total", transition="close")
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures = 0

    def record_failure(self, now: float, reason: str = "") -> None:
        """A fast-path request failed (ABFT detection, deadline blowout)."""
        self.counters["failures"] += 1
        if reason:
            self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1
        if tele.ENABLED:
            tele.count("breaker_failures_total", reason=reason or "unspecified")
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.OPEN
            self._opened_at = now
            self._probe_streak = 0
            self.counters["reopens"] += 1
            self.counters["probe_failures"] += 1
            if tele.ENABLED:
                tele.count("breaker_transitions_total", transition="reopen")
        elif self.state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.config.failure_threshold:
                self.state = BreakerState.OPEN
                self._opened_at = now
                self.counters["trips"] += 1
                if tele.ENABLED:
                    tele.count("breaker_transitions_total", transition="trip")

    # -- accounting --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "state": self.state.value,
            "consecutive_failures": self._consecutive_failures,
            "probe_streak": self._probe_streak,
            **self.counters,
            "failure_reasons": dict(self.failure_reasons),
        }

    def describe(self) -> str:
        c = self.counters
        return (
            f"breaker[{self.key[:8] or '-'}] state={self.state.value} "
            f"trips={c['trips']} reopens={c['reopens']} closes={c['closes']} "
            f"probes={c['probes']} denied={c['fast_denied']}"
        )
