"""Per-peer health state machine for the fleet telemetry plane.

Each remote peer (a receiver, seen from the broker/sender side) gets a
:class:`PeerHealth` tracking four states::

    healthy ──▶ degraded ──▶ wedged
       ▲           │            │
       │◀── dwell ─┘            ▼
       └──── dwell ──────── recovering

Inputs are the signals the transport and telemetry plane already
produce: heartbeat-RTT EWMA, the drop-oldest queue-shed rate, dedupe
(duplicate-delivery) counts, drift-detector triggers, and *telemetry
staleness* — how long since the peer last said anything (heartbeat
echo, telemetry push, or connection establishment).

Transitions use **hysteresis** so a noisy signal hovering at a
threshold cannot flap the state: entering ``degraded`` requires a
signal above its enter threshold, while leaving requires *every*
signal to drop below ``hysteresis`` (default 0.7) times that
threshold *and* to stay clean for ``recovery_dwell`` seconds.  A
silent peer goes ``degraded`` at ``stale_degraded`` and ``wedged`` at
``stale_wedged``; a wedged peer that speaks again moves to
``recovering`` and must stay clean for the dwell before it is
``healthy`` again.

Transitions are emitted three ways when a :class:`HealthMonitor`
wires them up: a labeled gauge ``health.state{peer=...}`` (numeric
severity), a labeled counter ``health.transitions{peer=...,to=...}``,
a sampling-exempt ``health.transition`` trace span, and a flight
recorder wide event — the trip/probe inputs a future circuit breaker
(ROADMAP item 4) needs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "DEGRADED",
    "HEALTHY",
    "RECOVERING",
    "STATE_CODES",
    "WEDGED",
    "HealthConfig",
    "HealthMonitor",
    "PeerHealth",
]

HEALTHY = "healthy"
DEGRADED = "degraded"
WEDGED = "wedged"
RECOVERING = "recovering"

# Numeric severity for the health.state gauge: higher is worse.
STATE_CODES: Dict[str, int] = {
    HEALTHY: 0,
    RECOVERING: 1,
    DEGRADED: 2,
    WEDGED: 3,
}


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds driving :meth:`PeerHealth.evaluate`.

    ``hysteresis`` scales the *exit* thresholds: a peer that entered
    ``degraded`` at ``rtt_degraded`` seconds of EWMA RTT only starts
    its recovery dwell once the EWMA is below
    ``rtt_degraded * hysteresis``.
    """

    rtt_degraded: float = 0.25  # EWMA RTT above this → degraded
    rtt_alpha: float = 0.3  # EWMA smoothing for RTT samples
    shed_rate_degraded: float = 20.0  # dropped frames/sec → degraded
    shed_window: float = 2.0  # sliding window for the shed rate
    drift_burst: int = 3  # drift events in drift_window → degraded
    drift_window: float = 5.0
    stale_degraded: float = 1.0  # silence (s) → degraded
    stale_wedged: float = 1.5  # silence (s) → wedged
    hysteresis: float = 0.7  # exit threshold = enter * hysteresis
    recovery_dwell: float = 0.75  # clean seconds before healthy again
    min_dwell: float = 0.1  # minimum residence in any state

    def __post_init__(self) -> None:
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError(
                f"hysteresis must be in (0, 1], got {self.hysteresis}"
            )
        if self.stale_wedged <= self.stale_degraded:
            raise ValueError(
                "stale_wedged must exceed stale_degraded "
                f"({self.stale_wedged} <= {self.stale_degraded})"
            )


class PeerHealth:
    """State machine for one peer; clock-injectable for tests."""

    def __init__(
        self,
        name: str,
        config: Optional[HealthConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[["PeerHealth", dict], None]] = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else HealthConfig()
        self.clock = clock
        self.on_transition = on_transition
        now = self.clock()
        self.state = HEALTHY
        self.since = now
        self.transitions: List[dict] = []
        self.rtt_ewma: Optional[float] = None
        self.last_signal_at = now
        self.connected = True
        self.shed_rate = 0.0
        self.sheds_total = 0
        self.duplicates_total = 0
        self.drift_total = 0
        self.telemetry_frames = 0
        self.last_telemetry_at: Optional[float] = None
        self.forced_reason: Optional[str] = None
        self._shed_samples: Deque[Tuple[float, int]] = deque()
        self._drift_times: Deque[float] = deque()
        self._clean_since: Optional[float] = None

    # -- signal intake -------------------------------------------------

    def note_signal(self, at: Optional[float] = None) -> None:
        """Any proof of life: heartbeat echo, frame, telemetry push."""
        at = self.clock() if at is None else at
        if at > self.last_signal_at:
            self.last_signal_at = at

    def note_rtt(self, rtt: float, at: Optional[float] = None) -> None:
        alpha = self.config.rtt_alpha
        if self.rtt_ewma is None:
            self.rtt_ewma = rtt
        else:
            self.rtt_ewma += alpha * (rtt - self.rtt_ewma)
        self.note_signal(at)

    def note_connected(self, connected: bool) -> None:
        if connected and not self.connected:
            self.note_signal()
        self.connected = connected

    def note_sheds(self, total: int) -> None:
        """Feed the cumulative dropped-frame count; tracks a rate."""
        now = self.clock()
        self.sheds_total = total
        samples = self._shed_samples
        samples.append((now, total))
        horizon = now - self.config.shed_window
        while len(samples) > 1 and samples[0][0] < horizon:
            samples.popleft()
        t0, c0 = samples[0]
        dt = now - t0
        self.shed_rate = (total - c0) / dt if dt > 0 else 0.0

    def note_duplicates(self, total: int) -> None:
        self.duplicates_total = total

    def note_drift(self, count: int = 1) -> None:
        now = self.clock()
        self.drift_total += count
        for _ in range(count):
            self._drift_times.append(now)
        horizon = now - self.config.drift_window
        while self._drift_times and self._drift_times[0] < horizon:
            self._drift_times.popleft()

    def note_telemetry(self, at: Optional[float] = None) -> None:
        at = self.clock() if at is None else at
        self.telemetry_frames += 1
        self.last_telemetry_at = at
        self.note_signal(at)

    # -- forcing (fault injection / self-knowledge) --------------------

    def force(self, state: Optional[str], reason: str = "forced") -> None:
        """Pin the state externally (e.g. a known injected wedge).

        ``force(None)`` releases the pin; :meth:`evaluate` then resumes
        normal operation from the pinned state (a released ``wedged``
        peer exits through ``recovering`` as usual).
        """
        if state is None:
            self.forced_reason = None
            return
        if state not in STATE_CODES:
            raise ValueError(f"unknown health state {state!r}")
        self.forced_reason = reason
        self._transition(state, reason, self.clock())

    # -- evaluation ----------------------------------------------------

    def staleness(self, now: Optional[float] = None) -> float:
        now = self.clock() if now is None else now
        return max(0.0, now - self.last_signal_at)

    def evaluate(self, now: Optional[float] = None) -> Optional[dict]:
        """Re-derive the state; returns the transition dict if any."""
        if self.forced_reason is not None:
            return None
        now = self.clock() if now is None else now
        cfg = self.config
        if now - self.since < cfg.min_dwell:
            return None

        stale = self.staleness(now)
        if stale >= cfg.stale_wedged:
            return self._transition(WEDGED, f"stale {stale:.2f}s", now)

        if self.state == WEDGED:
            # Any fresh signal is the exit; wedged never goes straight
            # back to healthy.
            if stale < cfg.stale_degraded and self.connected:
                self._clean_since = None
                return self._transition(
                    RECOVERING, f"signal after {stale:.2f}s", now
                )
            return None

        # Exit thresholds shrink by the hysteresis factor while the
        # peer is already in a bad state.
        relax = 1.0 if self.state == HEALTHY else cfg.hysteresis
        reasons = []
        if self.rtt_ewma is not None and (
            self.rtt_ewma >= cfg.rtt_degraded * relax
        ):
            reasons.append(f"rtt ewma {self.rtt_ewma * 1e3:.1f}ms")
        if self.shed_rate >= cfg.shed_rate_degraded * relax:
            reasons.append(f"shed rate {self.shed_rate:.1f}/s")
        if stale >= cfg.stale_degraded * relax:
            reasons.append(f"stale {stale:.2f}s")
        if len(self._drift_times) >= cfg.drift_burst:
            reasons.append(f"drift burst {len(self._drift_times)}")
        if not self.connected:
            reasons.append("disconnected")

        if reasons:
            self._clean_since = None
            if self.state in (HEALTHY, RECOVERING):
                return self._transition(DEGRADED, "; ".join(reasons), now)
            return None

        if self.state == HEALTHY:
            return None
        # DEGRADED or RECOVERING with every signal clean: start (or
        # continue) the dwell, then come back healthy.
        if self._clean_since is None:
            self._clean_since = now
        if now - self._clean_since >= cfg.recovery_dwell:
            self._clean_since = None
            return self._transition(HEALTHY, "clean dwell elapsed", now)
        return None

    def _transition(self, state: str, reason: str, now: float) -> Optional[dict]:
        if state == self.state:
            return None
        record = {
            "at": now,
            "peer": self.name,
            "from": self.state,
            "to": state,
            "reason": reason,
        }
        self.state = state
        self.since = now
        self.transitions.append(record)
        if self.on_transition is not None:
            self.on_transition(self, record)
        return record

    def to_dict(self) -> dict:
        now = self.clock()
        return {
            "name": self.name,
            "state": self.state,
            "state_code": STATE_CODES[self.state],
            "since": self.since,
            "forced": self.forced_reason,
            "connected": self.connected,
            "rtt_ewma": self.rtt_ewma,
            "staleness": self.staleness(now),
            "shed_rate": self.shed_rate,
            "sheds_total": self.sheds_total,
            "duplicates_total": self.duplicates_total,
            "drift_total": self.drift_total,
            "telemetry_frames": self.telemetry_frames,
            "transitions": list(self.transitions),
        }


class HealthMonitor:
    """Registry of :class:`PeerHealth` machines with wired emission.

    ``obs`` is an :class:`~repro.obs.Observability`; transitions then
    land as labeled metrics, forced trace spans (when tracing is
    enabled) and flight-recorder wide events.  All three sinks are
    optional — a bare monitor is just the state machines.
    """

    def __init__(
        self,
        *,
        obs=None,
        config: Optional[HealthConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        metric_prefix: str = "health",
    ) -> None:
        self.obs = obs
        self.config = config if config is not None else HealthConfig()
        self.clock = clock
        self.metric_prefix = metric_prefix
        self._peers: Dict[str, PeerHealth] = {}
        self._listeners: List[Callable[[PeerHealth, dict], None]] = []

    def add_listener(
        self, fn: Callable[[PeerHealth, dict], None]
    ) -> None:
        """Subscribe *fn* to every peer transition (after emission).

        This is the hand-off point to actuators — the broker's circuit
        breakers trip on ``wedged`` transitions through exactly this
        hook.  Listeners run on whichever thread drove the transition
        (a publish or the background evaluator); a raising listener is
        isolated so it can never poison the health machine itself.
        """
        self._listeners.append(fn)

    def peer(self, name: str) -> PeerHealth:
        ph = self._peers.get(name)
        if ph is None:
            ph = PeerHealth(
                name,
                self.config,
                clock=self.clock,
                on_transition=self._emit,
            )
            self._peers[name] = ph
            if self.obs is not None:
                self.obs.metrics.gauge(
                    f'{self.metric_prefix}.state{{peer="{name}"}}'
                ).set(STATE_CODES[ph.state])
        return ph

    def peers(self) -> Dict[str, PeerHealth]:
        return dict(self._peers)

    def evaluate_all(self, now: Optional[float] = None) -> List[dict]:
        out = []
        for ph in self._peers.values():
            rec = ph.evaluate(now)
            if rec is not None:
                out.append(rec)
        return out

    def overall(self) -> str:
        """Worst state across peers (``healthy`` when empty)."""
        worst = HEALTHY
        for ph in self._peers.values():
            if STATE_CODES[ph.state] > STATE_CODES[worst]:
                worst = ph.state
        return worst

    def to_dict(self) -> dict:
        return {
            "overall": self.overall(),
            "peers": {name: ph.to_dict() for name, ph in self._peers.items()},
        }

    # -- emission ------------------------------------------------------

    def _emit(self, ph: PeerHealth, record: dict) -> None:
        obs = self.obs
        if obs is not None:
            prefix = self.metric_prefix
            obs.metrics.gauge(f'{prefix}.state{{peer="{ph.name}"}}').set(
                STATE_CODES[record["to"]]
            )
            obs.metrics.counter(
                f'{prefix}.transitions{{peer="{ph.name}",to="{record["to"]}"}}'
            ).inc()
            tracer = getattr(obs, "tracing", None)
            if tracer is not None:
                # Health transitions are rare and load-bearing: exempt
                # them from sampling like the rest of the control plane.
                trace_id = tracer.start_trace(force=True)
                span = tracer.begin(
                    "health.transition",
                    trace_id=trace_id,
                    attrs={
                        "peer": ph.name,
                        "from": record["from"],
                        "to": record["to"],
                        "reason": record["reason"],
                    },
                )
                tracer.end(span)
            obs.flight.record(
                "health.transition",
                peer=ph.name,
                **{"from": record["from"], "to": record["to"]},
                reason=record["reason"],
            )
        for fn in self._listeners:
            try:
                fn(ph, record)
            except Exception:  # noqa: BLE001 - listener bugs stay local
                pass
