"""One per-peer session: the control-plane state machine of a subscription.

Around the paper's plan switch — the Reconfiguration Unit ships a plan,
the modulator applies it as a flag flip — the publisher runs a per-peer
protocol: versioned PLAN dedupe, deferral while the split is retracted,
breaker-driven retraction and re-split, the health feed, telemetry
ingest, the feedback flush and rate recalibration.  It is one protocol
with phases, so it lives once, here: the one publisher,
:class:`~repro.net.broker.NetBrokerEndpoint`, holds one
:class:`PeerSession` per subscriber (the
:class:`~repro.net.endpoint.NetSenderEndpoint` is that broker with one).
The *data path* — the shared run, its forks and ships — stays with the
broker, which reads the session's labelled ``broker.*{peer="…"}``
series (:meth:`PeerSession.series`) from its counts at dump time.

The session is sans-I/O: ``send`` and ``clock`` are injected,
transport state is read off the injected ``peer`` (``connected``,
``last_heard``, ``last_rtt``, ``dropped_frames``, ``send_timeouts``,
``queued``, ``to_dict()``), and there is no thread, no socket and no
lock — the owner serializes every call under its own publish lock.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.partitioned import PartitionedMethod
from repro.core.plan import PartitioningPlan
from repro.core.runtime.feedback import RemoteProfilingProxy
from repro.ir.interpreter import CycleMeter, Edge
from repro.jecho.events import FeedbackEnvelope, PlanEnvelope
from repro.net.framing import Telemetry
from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    Bulkhead,
    CircuitBreaker,
)
from repro.obs.flight import wide_event
from repro.obs.health import WEDGED, HealthMonitor, PeerHealth
from repro.obs.metrics import counts, zero_counts
from repro.obs.quality import keep_tail

__all__ = ["RATE_HYSTERESIS", "CalibratedRate", "PeerSession"]

#: relative change below which a recalibrated rate is considered noise
RATE_HYSTERESIS = 0.25


class CalibratedRate:
    """The publisher's seconds-per-cycle, re-grounded after plan changes.

    ``override`` records a *calibrated* rate instead of the raw
    per-message wall clock (``None`` → raw).  A calibration is only
    valid under the split it was taken: every plan transition marks it
    stale, and the next publish refreshes it — via ``recalibrate`` when
    given, otherwise by timing full-handler runs on the event in hand.
    One instance is shared by all sessions of a publisher.
    """

    def __init__(
        self,
        partitioned: PartitionedMethod,
        override: Optional[float],
        recalibrate: Optional[Callable[[], float]],
    ) -> None:
        self.partitioned = partitioned
        self.override = override
        self.recalibrate = recalibrate
        self.recalibrations = 0
        #: set on plan transitions; the next publish re-grounds the rate
        self.stale = False

    def mark_stale(self) -> None:
        if self.override is not None:
            self.stale = True

    def seconds(self, cycles: float, elapsed: float) -> float:
        """Sender seconds to record for *cycles* measured over *elapsed*."""
        return cycles * self.override if self.override is not None else elapsed

    def refresh(self, event: object) -> None:
        """Recalibrate if a plan transition staled the rate.

        A fresh rate within :data:`RATE_HYSTERESIS` of the current one
        is "same host, same speed" and is discarded: adopting every
        measurement rescales all subsequently profiled sender costs,
        which can flap a knife-edge min-cut on every recompute.
        """
        if not self.stale:
            return
        self.stale = False
        fresh = (
            self.recalibrate()
            if self.recalibrate is not None
            else self.recalibrate_against(event)
        )
        self.recalibrations += 1
        current = self.override
        if (
            fresh is not None
            and fresh > 0.0
            and abs(fresh - current) > RATE_HYSTERESIS * current
        ):
            self.override = fresh

    def recalibrate_against(
        self, event: object, repeats: int = 5
    ) -> Optional[float]:
        """Timed full-handler runs → fresh seconds-per-cycle.

        The full handler runs enough cycles to amortize the fixed
        per-call overhead that dominates raw per-message timings.  The
        *minimum* over the repeats is reported — timing noise only ever
        inflates a run.  The runs' deliveries land in this process's
        local sink, which the publisher role never reads.
        """
        best = None
        for _ in range(repeats):
            meter = CycleMeter()
            started = time.perf_counter()
            self.partitioned.interpreter.run(
                self.partitioned.function, (event,), meter=meter
            )
            elapsed = time.perf_counter() - started
            if meter.cycles > 0:
                rate = elapsed / meter.cycles
                best = rate if best is None else min(best, rate)
        return best


class PeerSession:
    """Plan, breaker, health and feedback state for one peer.

    The peer's *receiver* owns the authoritative adaptation loop; the
    session is the publisher-side shadow of it — which plan the peer
    runs (with its idempotency version), the sender-side profiling
    buffered for it, and whether the split toward it is retracted.
    ``plan`` is the plan in force; every change of it is handed to the
    injected ``apply_plan`` — the owner's flag flip — exactly once, and
    with ``obs`` a change of the split is traced as ``SplitSwitched``.
    ``breaker_config=None`` builds the session without the resilience
    plane (no breaker, no retraction).
    """

    #: the counts :meth:`resilience_dump` reports: ``absorbed`` is the
    #: part of ``completed_locally`` whose ship the breaker refused or the
    #: transport failed, ``ships_suppressed`` the ships the bulkhead shed
    RESILIENCE_COUNTS = (
        "absorbed", "ships_suppressed", "retractions", "resplits",
        "plans_deferred",
    )
    #: every count, a plain int; the owner's data path writes the delivery
    #: counts, and each publish lands in exactly one of ``shipped``,
    #: ``completed_locally``, ``elided`` and ``ships_suppressed``
    COUNTS = (
        "plan_updates_applied", "plan_duplicates_ignored", "shipped",
        "shared_ships", "forks", "elided", "completed_locally",
        "feedback_flushes", "telemetry_frames",
    ) + RESILIENCE_COUNTS

    def __init__(
        self,
        name: str,
        peer,
        subscription_id: int,
        plan: PartitioningPlan,
        proxy: RemoteProfilingProxy,
        *,
        send: Callable[[object, float], None],
        monitor: HealthMonitor,
        rate: CalibratedRate,
        retraction_plan: PartitioningPlan,
        apply_plan: Callable[[PartitioningPlan], None],
        breaker_config: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        obs=None,
    ) -> None:
        self.name = name
        self.peer = peer
        self.subscription_id = subscription_id
        self.plan = plan
        self.proxy = proxy
        self.send = send
        self.rate = rate
        self.retraction_plan = retraction_plan
        self.apply_plan = apply_plan
        self.clock = clock
        self.obs = obs
        #: highest PLAN version applied; frames at or below this are
        #: duplicates and must not re-run the apply path
        self.plan_version_applied = 0
        zero_counts(self)
        #: the newest applied plans' edges (``plan_updates_applied``
        #: counts them all)
        self.plans_seen: List[str] = []
        #: latest TELEMETRY frame's metadata + payload
        self.last_telemetry: Optional[Dict[str, object]] = None
        self.health: PeerHealth = monitor.peer(name)
        self.breaker: Optional[CircuitBreaker] = None
        #: admission bound on the peer's outbound queue, set by an
        #: owner whose data path consults one
        self.bulkhead: Optional[Bulkhead] = None
        #: ``retracting`` while the outbound queue drains, ``retracted``
        #: once the plan has switched sender-side
        self.retracting = False
        self.retracted = False
        self.retraction_deadline: Optional[float] = None
        #: the split to restore on recovery
        self.saved_plan: Optional[PartitioningPlan] = None
        #: newest PLAN frame deferred while retracted (kept, not lost)
        self.pending_plan: Optional[PlanEnvelope] = None
        #: set by the owner's finish(); a disconnect after the goodbye
        #: drained is an orderly exit, not a fault
        self.bye_sent = False
        self._drift_reported = 0
        self._last_rtt_fed: Optional[float] = None
        self._send_timeouts_fed = 0
        if breaker_config is not None:
            # The breaker reads the session's clock at call time, so the
            # two can never be on different clocks.
            self.breaker = CircuitBreaker(
                name,
                breaker_config,
                clock=lambda: self.clock(),
                on_transition=self._on_breaker_transition,
            )
            monitor.add_listener(self._on_health_transition)

    @property
    def plan_edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.plan.active))

    # -- PLAN frames -------------------------------------------------------------

    def on_plan(self, envelope: PlanEnvelope) -> None:
        """Duplicate → ignore; retracted → defer the newest; else apply."""
        if envelope.version <= self.plan_version_applied:
            # Idempotency: a duplicated or retransmitted PLAN frame
            # (at-least-once head-frame delivery across a reconnect)
            # must not re-run the apply path.
            self.plan_duplicates_ignored += 1
            return
        if self.retracting or self.retracted:
            # Actuating now would re-split toward a peer in trouble:
            # park the plan (newest version wins; of two equal versions
            # the parked one stays) and apply it on re-split.
            if (
                self.pending_plan is None
                or envelope.version > self.pending_plan.version
            ):
                self.pending_plan = envelope
            self.plans_deferred += 1
            return
        self._apply(envelope)

    def _switch(self, plan: PartitioningPlan) -> None:
        """Put *plan* in force: the one place ``self.plan`` changes."""
        old, self.plan = self.plan, plan
        # The calibration was taken under the old split; pricing the
        # new split's cycles with it misreports the sender's rate.
        self.rate.mark_stale()
        self.apply_plan(plan)
        if self.obs is not None and plan.active != old.active:
            cut = self.proxy.cut
            self.obs.flight.record(
                "SplitSwitched",
                old_pse_ids=cut.pse_ids(old.active),
                new_pse_ids=cut.pse_ids(plan.active),
                old_edges=tuple(sorted(old.active)),
                new_edges=tuple(sorted(plan.active)),
            )

    def _apply(self, envelope: PlanEnvelope) -> None:
        self.plan_version_applied = envelope.version
        self.plan_updates_applied += 1
        keep_tail(
            self.plans_seen,
            ",".join(str(e) for e in sorted(envelope.plan.active)),
        )
        self._switch(envelope.plan)
        tracer = self.obs.tracing if self.obs is not None else None
        if tracer is not None and envelope.trace is not None:
            now = tracer.clock()
            tracer.record(
                "plan.apply",
                trace_id=envelope.trace[0],
                parent_id=envelope.trace[1],
                start=now,
                end=now,
                attrs={"plan": envelope.plan.name, "peer": self.name},
            )

    # -- breaker-driven retraction and re-split ----------------------------------

    def admits(self) -> bool:
        """May this publish ship toward the peer?

        False while the breaker is open (or half-open with the probe
        budget spent): the owner completes the message publisher-side.
        """
        br = self.breaker
        return br is None or br.is_closed or br.allow()

    def _on_health_transition(self, ph: PeerHealth, record: dict) -> None:
        """HealthMonitor listener: this peer going wedged trips the breaker."""
        if ph is self.health and record["to"] == WEDGED:
            self.breaker.trip(f"health wedged: {record['reason']}")

    def _on_breaker_transition(
        self, breaker: CircuitBreaker, record: dict
    ) -> None:
        """Breaker edges actuate the split: trip retracts, close re-splits."""
        wide_event(
            "breaker.transition",
            peer=self.name,
            **{"from": record["from"], "to": record["to"]},
            reason=record["reason"],
        )
        if record["to"] == BREAKER_OPEN:
            self.retract()
        elif record["to"] == BREAKER_CLOSED:
            self.resplit()

    def retract(self) -> None:
        """Begin migrating the split back to fully sender-side.

        Drain-then-swap: the plan switch waits (bounded by the breaker's
        ``drain_timeout``) for the peer's outbound queue to drain, so
        continuations already encoded toward the old split are not
        interleaved with the new plan; publishes arriving meanwhile are
        absorbed by the open breaker, so nothing is lost during the
        wait.  With an empty queue the swap completes in this call.
        """
        if self.retracting or self.retracted:
            return
        now = self.clock()
        self.retracting = True
        self.retraction_deadline = now + self.breaker.config.drain_timeout
        wide_event(
            "breaker.retract_begin", peer=self.name, queued=self.peer.queued
        )
        self._maybe_complete_retraction(now)

    def _maybe_complete_retraction(self, now: float) -> None:
        """Switch plans once in-flight frames drained (or timed out)."""
        drained = self.peer.queued == 0
        if not drained and now < self.retraction_deadline:
            return
        self.saved_plan = self.plan
        self.retracting = False
        self.retracted = True
        self.retraction_deadline = None
        self.retractions += 1
        wide_event(
            "breaker.retract",
            peer=self.name,
            drained=drained,
            saved_plan=self.saved_plan.name,
        )
        self._switch(self.retraction_plan)

    def resplit(self) -> None:
        """Restore the split after the breaker closed (recovery).

        A PLAN frame deferred meanwhile supersedes the pre-trip plan
        when its version is fresher — the receiver recomputed while the
        split was retracted, and its view wins, exactly as it would
        have had the breaker never opened.
        """
        if not (self.retracting or self.retracted):
            return
        swapped = self.retracted
        self.retracting = False
        self.retracted = False
        self.retraction_deadline = None
        pending, self.pending_plan = self.pending_plan, None
        saved, self.saved_plan = self.saved_plan, None
        if pending is not None and pending.version > self.plan_version_applied:
            self._apply(pending)
        elif swapped:
            self._switch(saved)
        else:
            return  # closed before the swap, nothing deferred: no change
        self.resplits += 1
        wide_event(
            "breaker.resplit",
            peer=self.name,
            plan=self.plan.name,
            version=self.plan_version_applied,
        )

    def resilience_tick(self) -> None:
        """Advance the breaker and a pending retraction from transport state."""
        br = self.breaker
        if br is None:
            return
        now = self.clock()
        peer = self.peer
        # Send failures count toward the trip threshold even while the
        # health machine still calls the peer degraded.
        delta = peer.send_timeouts - self._send_timeouts_fed
        if delta > 0:
            self._send_timeouts_fed = peer.send_timeouts
            for _ in range(min(delta, 8)):
                br.record_failure("send timeout", now)
        if br.state == BREAKER_OPEN:
            # Advancing past the probe backoff transitions to half-open
            # (the consumed probe admits the next publish's ship).
            br.allow(now)
        if br.state == BREAKER_HALF_OPEN:
            # Judge the probe window on connectivity, the health
            # machine's verdict and signal freshness.
            if not peer.connected or self.health.state == WEDGED:
                br.record_failure("probe: peer unhealthy", now)
            else:
                heard = peer.last_heard
                if (
                    heard is not None
                    and now - heard < self.health.config.stale_degraded
                ):
                    br.record_success(now)
        if self.retracting:
            self._maybe_complete_retraction(now)

    # -- health feed, telemetry, feedback ----------------------------------------

    def feed_health(self) -> None:
        """Pipe the peer's transport state into its health machine."""
        ph = self.health
        peer = self.peer
        if self.bye_sent and not peer.connected and peer.queued == 0:
            # Orderly exit: the goodbye drained and the peer hung up.
            # Pin whatever state the run earned so the post-stream
            # teardown cannot masquerade as a late fault.
            if ph.forced_reason is None:
                ph.force(ph.state, "retired (bye delivered)")
            return
        ph.note_connected(peer.connected)
        if peer.last_heard is not None:
            ph.note_signal(peer.last_heard)
        rtt = peer.last_rtt
        if rtt is not None and rtt != self._last_rtt_fed:
            self._last_rtt_fed = rtt
            ph.note_rtt(rtt)
        ph.note_sheds(peer.dropped_frames)
        ph.evaluate()

    def ingest_telemetry(self, frame: Telemetry) -> None:
        """Fold one pushed TELEMETRY frame into the peer's health."""
        self.telemetry_frames += 1
        payload = frame.payload or {}
        self.last_telemetry = {
            "source": frame.source,
            "instance": frame.instance,
            "seq": frame.seq,
            "sent_at": frame.sent_at,
            "received_at": time.time(),
            "payload": payload,
        }
        ph = self.health
        ph.note_telemetry()
        counters = payload.get("counters") or {}
        dupes = counters.get("duplicates_skipped")
        if isinstance(dupes, (int, float)):
            ph.note_duplicates(int(dupes))
        drift = payload.get("drift_events")
        if isinstance(drift, (int, float)):
            delta = int(drift) - self._drift_reported
            if delta > 0:
                ph.note_drift(delta)
            # Unconditional: a counter that rewound (receiver restarted)
            # re-bases here instead of going deaf until the old
            # high-water mark is passed.
            self._drift_reported = int(drift)
        ph.evaluate()

    def flush_feedback(self) -> None:
        """Ship the proxy's folded observations as one FEEDBACK frame."""
        payload, size = self.proxy.flush()
        envelope = FeedbackEnvelope(
            subscription_id=self.subscription_id, demod_stats=payload
        )
        tracer = self.obs.tracing if self.obs is not None else None
        if tracer is not None:
            trace_id = tracer.start_trace(force=True)
            flush_span = tracer.record(
                "feedback.flush",
                trace_id=trace_id,
                start=tracer.clock(),
                end=tracer.clock(),
                attrs={"records": payload.records, "bytes": size},
            )
            envelope.trace = (trace_id, flush_span.span_id)
        self.send(envelope, size)
        self.feedback_flushes += 1

    # -- dumps -------------------------------------------------------------------

    def series(
        self, counters: Dict[str, float], gauges: Dict[str, float]
    ) -> None:
        """Add this peer's ``broker.*{peer="name"}`` series, read now."""
        label = f'{{peer="{self.name}"}}'
        peer = self.peer
        counters[f"broker.plan_updates{label}"] = self.plan_updates_applied
        counters[f"broker.shipped{label}"] = self.shipped
        counters[f"broker.forks{label}"] = self.forks
        gauges[f"broker.queue_depth{label}"] = peer.queued
        gauges[f"broker.dropped_frames{label}"] = peer.dropped_frames
        gauges[f"broker.heartbeat_rtt{label}"] = peer.last_rtt or 0.0
        gauges[f"broker.connected{label}"] = 1.0 if peer.connected else 0.0
        if self.breaker is not None:
            gauges[f"broker.breaker_state{label}"] = BREAKER_STATE_CODES[
                self.breaker.state
            ]

    def resilience_dump(self) -> Dict[str, object]:
        """Breaker + retraction state for dashboards and dumps."""
        return {
            "breaker": (
                self.breaker.to_dict() if self.breaker is not None else None
            ),
            "bulkhead": (
                self.bulkhead.to_dict()
                if self.bulkhead is not None
                else None
            ),
            **counts(self, self.RESILIENCE_COUNTS),
            "retracting": self.retracting,
            "retracted": self.retracted,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "subscription_id": self.subscription_id,
            "plan_edges": [list(e) for e in self.plan_edges],
            **counts(self),
            "plans_seen": list(self.plans_seen),
            "telemetry_last_seq": (
                self.last_telemetry.get("seq")
                if self.last_telemetry is not None
                else None
            ),
            "health": self.health.to_dict(),
            **self.resilience_dump(),
            "transport": self.peer.to_dict(),
        }
