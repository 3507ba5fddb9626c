"""Per-cluster circuit breaker for the Dispatcher.

Classic three-state machine, adapted to discrete-event time:

* **CLOSED** — deployments flow normally; consecutive failures are
  counted and any success resets the count.
* **OPEN** — after ``failure_threshold`` consecutive failures the
  breaker opens and the cluster is excluded from Global Scheduler
  candidates.  No timer is armed: the transition out of OPEN is
  evaluated lazily on the next :meth:`blocked` query, which keeps the
  breaker entirely off the event heap (zero cost when nothing fails).
* **HALF_OPEN** — once ``cooldown_s`` of simulated time has passed the
  next query lets exactly one probe deployment through (the cluster
  reappears in candidates, tagged *degraded* so schedulers prefer
  healthy peers at equal distance).  A successful probe closes the
  breaker; a failed probe reopens it for another cooldown.

Transitions are appended to :attr:`transitions` and, when a recorder is
attached, emitted as a ``breaker/{name}`` time series (state code) plus
``breaker/{name}/{state}`` counters, so experiments can plot breaker
activity against availability.
"""

from __future__ import annotations

import enum
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.recorder import MetricsRecorder
    from repro.sim import Environment


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure tracker for one cluster (see module docstring)."""

    __slots__ = (
        "env",
        "name",
        "failure_threshold",
        "cooldown_s",
        "recorder",
        "state",
        "consecutive_failures",
        "opened_at",
        "transitions",
        "stats",
    )

    def __init__(
        self,
        env: "Environment",
        name: str,
        failure_threshold: int = 3,
        cooldown_s: float = 30.0,
        recorder: "MetricsRecorder | None" = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.env = env
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.recorder = recorder
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: ``(time, from_state, to_state)`` history (state values).
        self.transitions: list[tuple[float, str, str]] = []
        self.stats = {"opens": 0, "closes": 0, "probes": 0}

    def blocked(self, now: float) -> bool:
        """Is the cluster currently excluded from scheduling?

        Performs the lazy OPEN → HALF_OPEN transition when the cooldown
        has elapsed, so the caller that first queries after the
        cooldown admits the probe deployment.
        """
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.cooldown_s:
                self._count_probe()
                self._transition(BreakerState.HALF_OPEN)
                return False
            return True
        if self.state is BreakerState.HALF_OPEN:
            # Every admission while half-open is a probe, not just the
            # one that performed the OPEN -> HALF_OPEN transition —
            # otherwise repeated admissions before the probe resolves
            # are invisible to the recorder.
            self._count_probe()
        return False

    def _count_probe(self) -> None:
        self.stats["probes"] += 1
        if self.recorder is not None:
            self.recorder.count(f"breaker/{self.name}/probe")

    def record_success(self) -> None:
        """A deployment on this cluster reached ready."""
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.stats["closes"] += 1
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """A deployment on this cluster failed (any phase, or not-ready)."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # Probe failed: straight back to OPEN for another cooldown.
            self.opened_at = self.env.now
            self.stats["opens"] += 1
            self._transition(BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.opened_at = self.env.now
            self.stats["opens"] += 1
            self._transition(BreakerState.OPEN)

    def _transition(self, new: BreakerState) -> None:
        old = self.state
        self.state = new
        self.transitions.append((self.env.now, old.value, new.value))
        recorder = self.recorder
        if recorder is not None:
            recorder.mark(f"breaker/{self.name}", self.env.now)
            recorder.count(f"breaker/{self.name}/{new.value}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CircuitBreaker {self.name} {self.state.value} "
            f"failures={self.consecutive_failures}>"
        )
