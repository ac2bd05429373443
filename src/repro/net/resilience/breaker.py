"""Per-peer circuit breaker + bulkhead for the resilience control plane.

PR 8's health machine (:mod:`repro.obs.health`) *observes* a peer —
healthy/degraded/wedged/recovering — but nothing acted on the signal: a
wedged subscriber kept receiving (and shedding) its share of every
publish.  The :class:`CircuitBreaker` is the actuator half of that
loop, the classic three-state machine::

            trip (health wedged / failure streak)
    closed ────────────────────────────────────▶ open
       ▲                                          │ probe backoff
       │  success_threshold                       │ elapsed
       │  probe successes                         ▼
       └──────────────────────────────────── half_open
                        │ probe failure: reopen,
                        └─▶ backoff doubles

* **Trips** come from two input families, exactly as the health module
  promised a "future circuit breaker": HealthMonitor transitions (a
  peer entering ``wedged`` trips immediately) and ship/send failure
  counts (``failure_threshold`` consecutive failures trip without
  waiting for staleness).
* **Probing** is budgeted and backed off: an open breaker refuses all
  work until ``probe_backoff_base * 2^(reopens)`` seconds (capped) have
  passed, then admits at most ``probe_budget`` probe operations in the
  half-open state.  A failed probe reopens with a doubled backoff; a
  run of ``success_threshold`` successes closes.
* The :class:`Bulkhead` caps *concurrent in-flight work* per peer — the
  broker mirrors the peer's outbound queue depth into it before paying
  for an encode, so a wedged subscriber stops costing CPU long before
  drop-oldest shedding starts, and the publish path never blocks on it.

Both classes are clock-injectable (``clock=time.monotonic`` by default,
same convention as :class:`~repro.obs.health.PeerHealth`) and carry a
``transitions`` list plus an ``on_transition`` callback so the broker
can retract/re-split splits and emit flight events at the edges.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.quality import keep_tail

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
    "BreakerConfig",
    "Bulkhead",
    "CircuitBreaker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: numeric severity for the breaker.state gauge: higher is worse
BREAKER_STATE_CODES: Dict[str, int] = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds driving :class:`CircuitBreaker` and :class:`Bulkhead`."""

    #: consecutive recorded failures that trip a closed breaker
    failure_threshold: int = 3
    #: first open → half-open delay; doubles per reopen
    probe_backoff_base: float = 0.25
    #: ceiling on the probe backoff
    probe_backoff_cap: float = 8.0
    #: operations admitted per half-open episode before resolution
    probe_budget: int = 2
    #: consecutive half-open successes that close the breaker
    success_threshold: int = 2
    #: bulkhead cap on in-flight work per peer (``None`` disables
    #: admission rejection; the default sits below the transport's
    #: 1024-frame queue so encode work stops before shedding starts)
    bulkhead_limit: Optional[int] = 512
    #: how long a retraction waits for in-flight continuations to drain
    #: before switching plans anyway
    drain_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.probe_backoff_base <= 0:
            raise ValueError("probe_backoff_base must be positive")
        if self.probe_backoff_cap < self.probe_backoff_base:
            raise ValueError(
                "probe_backoff_cap must be >= probe_backoff_base"
            )
        if self.probe_budget < 1:
            raise ValueError("probe_budget must be >= 1")
        if self.success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")
        if self.bulkhead_limit is not None and self.bulkhead_limit < 1:
            raise ValueError("bulkhead_limit must be >= 1 or None")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


class CircuitBreaker:
    """Closed → open → half-open state machine for one peer.

    Not thread-safe by itself: the broker drives it under its own lock
    (the same one serializing publish and inbound control frames), and
    the sender endpoint under its publish lock.
    """

    def __init__(
        self,
        name: str,
        config: Optional[BreakerConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[
            Callable[["CircuitBreaker", dict], None]
        ] = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else BreakerConfig()
        self.clock = clock
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.since = self.clock()
        #: the newest transitions; ``transitions_total`` counts them all
        self.transitions: List[dict] = []
        self.transitions_total = 0
        #: consecutive failures while closed
        self.failure_streak = 0
        #: times the breaker has opened since it last closed — the
        #: backoff exponent, so every reopen doubles the probe delay
        self.open_count = 0
        self.next_probe_at: Optional[float] = None
        self.half_open_probes_used = 0
        self.half_open_successes = 0
        self.trips = 0
        self.reopens = 0
        self.closes = 0
        self.probes = 0
        self.failures_recorded = 0
        self.successes_recorded = 0

    # -- queries -------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.state == BREAKER_CLOSED

    def probe_backoff(self) -> float:
        """Current open → half-open delay (doubles per reopen)."""
        cfg = self.config
        exponent = max(0, min(self.open_count - 1, 16))
        return min(
            cfg.probe_backoff_base * (2 ** exponent),
            cfg.probe_backoff_cap,
        )

    def allow(self, now: Optional[float] = None) -> bool:
        """May one operation proceed toward this peer right now?

        Closed: always.  Open: only once the probe backoff has elapsed —
        the first such call *is* the open → half-open transition and
        consumes one probe from the budget.  Half-open: while the probe
        budget lasts.
        """
        if self.state == BREAKER_CLOSED:
            return True
        now = self.clock() if now is None else now
        if self.state == BREAKER_OPEN:
            if self.next_probe_at is not None and now < self.next_probe_at:
                return False
            self._transition(
                BREAKER_HALF_OPEN,
                f"probe window after {self.probe_backoff():.2f}s backoff",
                now,
            )
            self.half_open_probes_used = 1
            self.half_open_successes = 0
            self.probes += 1
            return True
        # half-open: bounded probe budget
        if self.half_open_probes_used < self.config.probe_budget:
            self.half_open_probes_used += 1
            self.probes += 1
            return True
        return False

    # -- inputs --------------------------------------------------------

    def trip(self, reason: str, now: Optional[float] = None) -> None:
        """Force open (e.g. the peer's health machine went wedged)."""
        if self.state == BREAKER_OPEN:
            return
        now = self.clock() if now is None else now
        self.open_count += 1
        if self.state == BREAKER_HALF_OPEN:
            self.reopens += 1
        self.trips += 1
        self.failure_streak = 0
        self.next_probe_at = now + self.probe_backoff()
        self._transition(BREAKER_OPEN, reason, now)

    def record_failure(
        self, reason: str = "failure", now: Optional[float] = None
    ) -> None:
        self.failures_recorded += 1
        now = self.clock() if now is None else now
        if self.state == BREAKER_CLOSED:
            self.failure_streak += 1
            if self.failure_streak >= self.config.failure_threshold:
                self.trip(
                    f"{self.failure_streak} consecutive failures "
                    f"({reason})",
                    now,
                )
            return
        if self.state == BREAKER_HALF_OPEN:
            # A failed probe reopens; the backoff doubles via open_count.
            self.trip(f"probe failed ({reason})", now)

    def record_success(self, now: Optional[float] = None) -> None:
        self.successes_recorded += 1
        if self.state == BREAKER_CLOSED:
            self.failure_streak = 0
            return
        if self.state == BREAKER_HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= self.config.success_threshold:
                now = self.clock() if now is None else now
                self.open_count = 0
                self.failure_streak = 0
                self.next_probe_at = None
                self.closes += 1
                self._transition(
                    BREAKER_CLOSED,
                    f"{self.half_open_successes} probe successes",
                    now,
                )

    # -- internals -----------------------------------------------------

    def _transition(self, state: str, reason: str, now: float) -> dict:
        record = {
            "at": now,
            "peer": self.name,
            "from": self.state,
            "to": state,
            "reason": reason,
        }
        self.state = state
        self.since = now
        keep_tail(self.transitions, record)
        self.transitions_total += 1
        if self.on_transition is not None:
            self.on_transition(self, record)
        return record

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "state_code": BREAKER_STATE_CODES[self.state],
            "since": self.since,
            "failure_streak": self.failure_streak,
            "open_count": self.open_count,
            "probe_backoff": self.probe_backoff(),
            "trips": self.trips,
            "reopens": self.reopens,
            "closes": self.closes,
            "probes": self.probes,
            "failures_recorded": self.failures_recorded,
            "successes_recorded": self.successes_recorded,
            "transitions": list(self.transitions),
            "transitions_total": self.transitions_total,
        }


class Bulkhead:
    """Cap on concurrent in-flight work toward one peer.

    Two usage shapes:

    * ``try_acquire()`` / ``release()`` — a classic permit pair for
      callers that own both ends of an operation (thread-safe).
    * ``admit(in_flight)`` — mirror an externally observed depth (the
      peer's outbound frame queue) and ask whether one more unit of
      work should even be *produced*.  This is the broker's shape: the
      transport queue drains asynchronously, so the broker has no
      release point — it syncs the observed depth instead.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self.in_flight = 0
        self.peak_in_flight = 0
        self.rejected = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self.in_flight >= self.limit:
                self.rejected += 1
                return False
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight
            return True

    def release(self) -> None:
        with self._lock:
            if self.in_flight > 0:
                self.in_flight -= 1

    def admit(self, in_flight: int) -> bool:
        with self._lock:
            self.in_flight = in_flight
            if in_flight > self.peak_in_flight:
                self.peak_in_flight = in_flight
            if in_flight >= self.limit:
                self.rejected += 1
                return False
            return True

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "rejected": self.rejected,
        }
