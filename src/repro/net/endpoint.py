"""Sender/receiver endpoints: the adaptation loop across two processes.

These wire a :class:`~repro.core.partitioned.PartitionedMethod` to the
TCP layer so the paper's whole feedback loop runs between *real OS
processes*:

* :class:`NetSenderEndpoint` — the publisher: a
  :class:`~repro.net.broker.NetBrokerEndpoint` with one subscriber, so
  it shares the broker's one publish path.  Every published event is
  modulated, the continuation ships as a CONT frame, and the
  sender-side observations, folded to one entry per traversed PSE,
  flush as a FEEDBACK frame every ``feedback_period`` messages
  (monitoring traffic pays real bytes, as in the paper).  Inbound PLAN
  frames switch the subscriber's split — adaptation actuation over the
  wire.
* :class:`NetReceiverEndpoint` — owns the demodulator, the
  authoritative Profiling Unit and the (receiver-located)
  Reconfiguration Unit behind a :class:`~repro.net.tcp.FrameServer`.
  Every demodulated message and every ingested feedback batch gives the
  trigger a chance to fire; a recomputed plan that differs from the one
  the sender is running ships back as a PLAN frame on the same
  connection.

Both sides build the *same* partitioned method deterministically (same
handler source → same PSE ids and edges), which is what makes shipping
plans as bare edge sets sound — the paper's assumption that modulator
and demodulator share the program text.

Endpoint state is keyed by subscription, **not** by connection: a
dropped and re-established connection (see ``drop_after``) resumes with
the profiling history, current plan and sequence bookkeeping intact —
no plan state is lost across reconnects.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from collections import defaultdict, deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.partitioned import PartitionedMethod
from repro.errors import TransportError
from repro.core.plan import PartitioningPlan
from repro.core.runtime.feedback import RemoteProfilingProxy, ingest
from repro.core.runtime.triggers import FeedbackTrigger, RateTrigger
from repro.jecho.events import (
    ContinuationEnvelope,
    FeedbackEnvelope,
    PlanEnvelope,
)
from repro.net.broker import NetBrokerEndpoint
from repro.net.framing import Bye, NetEnvelopeCodec, Telemetry
from repro.net.resilience import BreakerConfig
from repro.net.tcp import FrameServer, ServerConnection, TcpPeer, TcpTransport
from repro.obs.flight import wide_event
from repro.obs.health import HealthConfig, HealthMonitor
from repro.obs.metrics import counts, snapshot_delta, zero_counts

__all__ = ["NetSenderEndpoint", "NetReceiverEndpoint"]

#: wire size charged for a plan update (a handful of edge flags)
_PLAN_UPDATE_BYTES = 64.0
#: latency samples kept per PSE: the receiver's quantiles cover the
#: latest window, so its memory does not grow with every delivery
LATENCY_WINDOW = 4096


class NetSenderEndpoint(NetBrokerEndpoint):
    """Modulator side of a live subscription: the broker with one peer.

    Publishing to one subscriber is the smallest case of publishing to
    N, so this is :class:`~repro.net.broker.NetBrokerEndpoint` with the
    given, already-built *peer* attached as its only subscriber.  It
    adds no behaviour, only the read-outs of that one
    :class:`~repro.net.session.PeerSession` that callers use.  The
    caller built the peer and set its queue bound, so no bulkhead is
    put in front of it (see :meth:`NetBrokerEndpoint.subscribe`).
    """

    def __init__(
        self,
        partitioned: PartitionedMethod,
        transport: TcpTransport,
        peer: TcpPeer,
        *,
        plan: Optional[PartitioningPlan] = None,
        sample_period: int = 1,
        feedback_period: int = 8,
        rate_override: Optional[float] = None,
        recalibrate: Optional[Callable[[], float]] = None,
        obs=None,
        health_config: Optional[HealthConfig] = None,
        breaker_config: Optional[BreakerConfig] = None,
        resilience: bool = True,
    ) -> None:
        super().__init__(
            partitioned,
            transport,
            plan=plan,
            sample_period=sample_period,
            feedback_period=feedback_period,
            rate_override=rate_override,
            recalibrate=recalibrate,
            obs=obs,
            health_config=health_config,
            breaker_config=breaker_config,
            resilience=resilience,
        )
        self.peer = peer
        self.session = self._attach(peer, peer.name, plan)

    @property
    def proxy(self) -> RemoteProfilingProxy:
        return self.session.proxy

    @property
    def absorbed(self) -> int:
        return self.session.absorbed

    @property
    def current_plan_edges(self) -> Tuple[Tuple[int, int], ...]:
        with self.lock:
            return self.session.plan_edges


class NetReceiverEndpoint:
    """Demodulator + Profiling Unit + Reconfiguration Unit behind a socket.

    All handler work runs on the server's event-loop thread, so the
    demodulator and the profiling unit need no locking.  ``rate_scale``
    multiplies the measured receiver seconds-per-cycle before recording
    — the live harness uses it to emulate a loaded receiver host
    (paper's perturbation experiments) and force the min-cut away from
    the initial plan, proving a plan ships over the wire.

    ``drop_after`` injects a fault: the connection is hard-dropped
    (TCP reset) right after the Nth continuation frame is processed,
    exactly once.  The sender's reconnect machinery — and the fact that
    endpoint state survives connections — is what the live experiment
    asserts on.
    """

    #: the receiver's counts, plain ints that every telemetry push and
    #: the live result report
    COUNTS = (
        "demodulated", "duplicates_skipped", "feedback_batches",
        "feedback_rejected", "plan_ships", "drops_injected",
        "telemetry_pushes", "telemetry_sent",
    )

    def __init__(
        self,
        partitioned: PartitionedMethod,
        *,
        plan: Optional[PartitioningPlan] = None,
        trigger: Optional[FeedbackTrigger] = None,
        sample_period: int = 1,
        rate_scale: float = 1.0,
        rate_override: Optional[float] = None,
        drop_after: Optional[int] = None,
        codec: Optional[NetEnvelopeCodec] = None,
        name: str = "receiver",
        obs=None,
        telemetry_interval: float = 0.25,
        health_config: Optional[HealthConfig] = None,
    ) -> None:
        """``telemetry_interval`` paces the TELEMETRY push loop started
        by :meth:`start` — every interval the receiver pushes its
        metrics delta, drift and ring-drop counts and health state
        to each connection that has said hello.  0 disables the loop
        (pushes can still be driven manually via :meth:`push_telemetry`)."""
        if rate_scale <= 0:
            raise ValueError("rate_scale must be positive")
        if telemetry_interval < 0:
            raise ValueError("telemetry_interval must be >= 0")
        self.partitioned = partitioned
        self.rate_scale = rate_scale
        self.rate_override = rate_override
        self.drop_after = drop_after
        self.obs = obs
        # Receive-side phase timer, same labeled family as the sender's
        # modulate/ship and the transport's encode/enqueue phases — one
        # table covers the whole message pipeline.
        self._h_phase_demodulate = (
            obs.metrics.histogram(
                'net.publish.phase_seconds{phase="demodulate"}'
            )
            if obs is not None
            else None
        )
        #: cumulative seconds spent building telemetry payloads —
        #: observability cost, surfaced as an ``obs.overhead.*`` gauge
        self.telemetry_encode_seconds = 0.0
        self.profiling = partitioned.make_profiling_unit(
            sample_period=sample_period, obs=obs
        )
        self.demodulator = partitioned.make_demodulator(
            profiling=self.profiling, record_rates=False, obs=obs
        )
        # Adaptation-quality layer (regret + drift): only when the
        # attached Observability opted in via obs.quality_config.
        self.quality = partitioned.make_quality(obs)
        effective_trigger = trigger or RateTrigger(period=10)
        if self.quality is not None and obs.quality_config.feed_trigger:
            from repro.core.runtime.triggers import (
                CompositeTrigger,
                DriftTrigger,
            )

            effective_trigger = CompositeTrigger(
                effective_trigger, DriftTrigger(self.quality.drift)
            )
        self.reconfig = partitioned.make_reconfiguration_unit(
            trigger=effective_trigger,
            location="receiver",
            obs=obs,
            quality=self.quality,
        )
        self.exposer = None
        self.server = FrameServer(
            (codec or NetEnvelopeCodec()).bind(partitioned.schema),
            name=name,
            obs=obs,
        )
        self.server.handler = self._handle
        #: the plan currently believed to run on the sender
        self.sender_plan: Optional[PartitioningPlan] = plan
        zero_counts(self)
        #: monotone idempotency key for shipped plans; burned per ship
        #: *attempt* so a failed attempt's retry uses a strictly fresher
        #: version (the sender ignores versions it has already applied)
        self.plan_version = 0
        self.sender_reported_sent: Optional[int] = None
        self.done = threading.Event()
        #: wall-clock window of demodulation activity (for msgs/s)
        self.first_demod_at: Optional[float] = None
        self.last_demod_at: Optional[float] = None
        #: the latest LATENCY_WINDOW one-way latency samples per PSE id
        #: (same-host wall clocks)
        self.latencies: Dict[str, Deque[float]] = defaultdict(
            partial(deque, maxlen=LATENCY_WINDOW)
        )
        #: per-source high-water sequence marks, keyed by (sender
        #: instance, subscription).  Endpoint-level (survives reconnect)
        #: but per *peer*: two senders' sequence spaces never collide,
        #: and a restarted sender (fresh instance token, sequences
        #: beginning again) is never mistaken for a resumed one — its
        #: first frame must not be dropped as a "duplicate".  O(1)
        #: memory per source, unlike a grow-forever seen-set.
        self._dedupe_high: Dict[Tuple[str, int], int] = {}
        self.name = name
        #: one token per endpoint lifetime, same semantics as
        #: Hello.instance: telemetry from a restarted receiver is
        #: distinguishable from a resumed one.
        self.instance = uuid.uuid4().hex
        self.telemetry_interval = telemetry_interval
        self._telemetry_task: Optional[asyncio.Task] = None
        #: tested by the background loops: on 3.11 the ``wait_for`` in
        #: ``ServerConnection.send`` can swallow stop()'s cancel, and a
        #: ``while True`` loop would then outlive it for good
        self._stopping = False
        self._telemetry_prev: Optional[dict] = None
        #: this process's own health, exposed on /healthz and pushed in
        #: every telemetry report; live.py forces it around injected
        #: wedges so the fault is visible on both ends.
        self.self_health = HealthMonitor(obs=obs, config=health_config)
        self.self_health.peer("self")
        if obs is not None:
            obs.metrics.add_reader(self._read_metrics)

    def _read_metrics(self) -> Dict[str, Dict[str, float]]:
        # telemetry builds walk the whole registry: observability's own
        # cost, in the obs.overhead family beside tracer/profiler time
        seconds = self.telemetry_encode_seconds
        return {"gauges": {"obs.overhead.telemetry_encode_seconds": seconds}}

    def _tracer(self):
        return self.obs.tracing if self.obs is not None else None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        bound = await self.server.start(host, port)
        self._stopping = False
        if self.telemetry_interval > 0 and self._telemetry_task is None:
            self._telemetry_task = asyncio.get_running_loop().create_task(
                self._telemetry_loop()
            )
        return bound

    async def stop(self) -> None:
        self._stopping = True
        task = self._telemetry_task
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        await self.server.stop()
        if self.exposer is not None:
            self.exposer.close()
            self.exposer = None

    # -- telemetry push (event-loop thread) ------------------------------------

    async def _telemetry_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.telemetry_interval)
            await self.push_telemetry()

    def _telemetry_payload(self) -> dict:
        """One push's payload: metrics delta + adaptation counters.

        Counters/histograms travel as deltas against the previous push
        (Prometheus-style reset handling via ``snapshot_delta``) so the
        aggregator can fold per-interval rates without re-diffing; the
        first push carries the full snapshot.
        """
        build_started = time.perf_counter()
        payload: dict = {
            "counters": counts(self),
            "health": self.self_health.peer("self").state,
        }
        if self.obs is not None:
            current = self.obs.metrics.to_dict()
            prev = self._telemetry_prev
            payload["metrics"] = (
                current if prev is None else snapshot_delta(prev, current)
            )
            self._telemetry_prev = current
            payload["drift_events"] = self.obs.flight.count("DriftDetected")
            payload["flight_ring_dropped"] = self.obs.flight.dropped
            tracer = self.obs.tracing
            if tracer is not None:
                payload["tracer_ring_dropped"] = tracer.dropped
        self.telemetry_encode_seconds += (
            time.perf_counter() - build_started
        )
        return payload

    def _greeted(self) -> List[ServerConnection]:
        """Open connections whose client has said hello."""
        return [
            c
            for c in self.server.connections
            if not c.closed and c.hello is not None
        ]

    async def push_telemetry(self) -> int:
        """Push one telemetry report to every greeted connection.

        Returns the number of connections the report went to (0 when no
        open connection has said hello — the payload is then not even
        built)."""
        conns = self._greeted()
        # The push loop running *is* this process's proof of life; an
        # injected wedge pins the state via force() instead.
        self.self_health.peer("self").note_signal()
        self.self_health.evaluate_all()
        if not conns:
            return 0
        self.telemetry_pushes += 1
        envelope = Telemetry(
            source=self.name,
            instance=self.instance,
            seq=self.telemetry_pushes,
            sent_at=time.time(),
            payload=self._telemetry_payload(),
        )
        sent = 0
        for conn in conns:
            try:
                await conn.send(envelope)
                sent += 1
            except TransportError:
                continue  # connection died mid-push; reconnect handles it
        self.telemetry_sent += sent
        return sent

    def expose_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Serve this process's observability over HTTP (OpenMetrics).

        The endpoint stays up until :meth:`stop`; scrape ``/metrics``
        for the OpenMetrics text, ``/metrics.json`` for the full dump
        (what ``python -m repro.tools.obs watch`` polls).
        """
        if self.obs is None:
            raise ValueError("expose_metrics requires an attached obs")
        from repro.obs.exposition import start_http_exposer

        self.exposer = start_http_exposer(
            self.obs.to_dict,
            host=host,
            port=port,
            health_source=lambda: self.self_health.peer("self").to_dict(),
        )
        return self.exposer

    # -- frame routing (event-loop thread) -------------------------------------

    async def _handle(
        self, envelope: object, sent_at: float, conn: ServerConnection
    ) -> None:
        if isinstance(envelope, ContinuationEnvelope):
            await self._handle_continuation(envelope, sent_at, conn)
        elif isinstance(envelope, FeedbackEnvelope):
            self._handle_feedback(envelope)
            await self._maybe_reconfigure(conn, envelope.subscription_id)
        elif isinstance(envelope, Bye):
            self.sender_reported_sent = envelope.sent
            self.done.set()

    def _dedupe_key(
        self, envelope: ContinuationEnvelope, conn: ServerConnection
    ) -> Tuple[str, int]:
        """Dedupe state key: the sending *process* plus the subscription.

        Falls back to the per-connection peername when no hello (or an
        empty instance token) arrived: dedupe then degrades to
        per-connection — it cannot wrongly drop a fresh frame, only miss
        a cross-reconnect duplicate.
        """
        hello = conn.hello
        instance = hello.instance if hello is not None else ""
        return (instance or conn.peername, envelope.subscription_id)

    async def _handle_continuation(
        self,
        envelope: ContinuationEnvelope,
        sent_at: float,
        conn: ServerConnection,
    ) -> None:
        source = self._dedupe_key(envelope, conn)
        if envelope.seq <= self._dedupe_high.get(source, -1):
            # The frame at the head of the sender's queue when a
            # connection dies is retransmitted (at-least-once); frames
            # within one source are FIFO, so a high-water mark per
            # source keeps delivery effectively-once.
            self.duplicates_skipped += 1
            return
        self._dedupe_high[source] = envelope.seq
        started = time.perf_counter()
        outcome = self.demodulator.process(envelope.continuation)
        elapsed = time.perf_counter() - started
        if self._h_phase_demodulate is not None:
            self._h_phase_demodulate.observe(elapsed)
        if outcome.cycles > 0:
            seconds = (
                outcome.cycles * self.rate_override
                if self.rate_override is not None
                else elapsed
            )
            self.profiling.record_receiver_rate(
                seconds * self.rate_scale, outcome.cycles
            )
            if self.quality is not None and outcome.edge is not None:
                # Observed demod seconds in the same (scaled) units the
                # profiling unit derives t_demod predictions from.
                self.quality.observe_demod_time(
                    outcome.edge,
                    seconds * self.rate_scale,
                    self.profiling.messages_seen,
                )
        if self.quality is not None and outcome.edge is not None:
            self.quality.observe_message(outcome.edge, self.profiling)
            self.quality.observe_ship_bytes(
                outcome.edge,
                float(self.partitioned.codec.size(envelope.continuation)),
                self.profiling.messages_seen,
            )
        self.demodulated += 1
        now = time.time()
        if self.first_demod_at is None:
            self.first_demod_at = now
        self.last_demod_at = now
        pse_id = envelope.continuation.slot.pse_id
        if sent_at > 0:
            latency = time.time() - sent_at
            if latency >= 0:
                self.latencies[pse_id].append(latency)
                tracer = self._tracer()
                if tracer is not None:
                    tracer.observe_pse(pse_id, latency=latency)
        if (
            self.drop_after is not None
            and self.drops_injected == 0
            and self.demodulated >= self.drop_after
        ):
            # Fault injection: processed, *then* reset — the experiment
            # loses the connection, not the message.
            self.drops_injected += 1
            conn.abort()
            return
        await self._maybe_reconfigure(conn, envelope.subscription_id)

    def _handle_feedback(self, envelope: FeedbackEnvelope) -> None:
        try:
            ingest(self.profiling, envelope.demod_stats)
        except (ValueError, TypeError) as exc:
            # Malformed, folded with another α or against another cut:
            # merging it would corrupt the unit, and ingest raises before
            # touching it.
            self.feedback_rejected += 1
            wide_event("feedback.rejected", peer=self.name, reason=str(exc))
            return
        self.feedback_batches += 1

    async def _maybe_reconfigure(
        self, conn: ServerConnection, subscription_id: int
    ) -> None:
        """Give the trigger a chance; ship a changed plan as a PLAN frame.

        The plan belongs to the subscription whose CONT or FEEDBACK frame
        triggered the re-plan, and the frame names it.  The publisher
        routes PLAN frames by connection: each subscription's receiver
        owns that subscription's plan, so no other receiver's plan can
        conflict with it.
        """
        plan = self.reconfig.consider(self.profiling)
        if plan is None:
            return
        if (
            self.sender_plan is not None
            and plan.active == self.sender_plan.active
        ):
            return  # the sender already runs this plan; nothing to ship
        previous = self.sender_plan
        self.sender_plan = plan
        # The version is burned per ship *attempt*, not per success: a
        # send that errors after its bytes reached the wire may still be
        # applied by the sender, so reusing the version on the retry
        # would get the retried (possibly different) plan ignored as a
        # duplicate — permanent sender/receiver divergence.
        self.plan_version += 1
        envelope = PlanEnvelope(
            subscription_id=subscription_id,
            plan=plan,
            version=self.plan_version,
        )
        tracer = self._tracer()
        if tracer is not None and self.reconfig.last_trace_ctx is not None:
            ctx = self.reconfig.last_trace_ctx
            now = tracer.clock()
            ship_span = tracer.record(
                "plan.ship",
                trace_id=ctx[0],
                parent_id=ctx[1],
                start=now,
                end=now,
                attrs={"bytes": _PLAN_UPDATE_BYTES, "plan": plan.name},
            )
            envelope.trace = (ctx[0], ship_span.span_id)
        if conn.closed:
            # The triggering connection just dropped (fault injection):
            # ship on the next live one, if any.
            live = [c for c in self.server.connections if not c.closed]
            if not live:
                # No connection to ship on: forget the optimistic update
                # so the next trigger fire re-ships after reconnect.
                self.sender_plan = previous
                return
            conn = live[-1]
        try:
            await conn.send(envelope)
        except TransportError:
            # Revert the optimistic update so the next trigger fire
            # re-ships; the burned version keeps the retry fresh.
            self.sender_plan = previous
            return
        self.plan_ships += 1

    # -- results ----------------------------------------------------------------

    def latency_quantiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p95 one-way latency per PSE over its latest samples."""
        out: Dict[str, Dict[str, float]] = {}
        for pse_id, samples in sorted(self.latencies.items()):
            ordered = sorted(samples)
            n = len(ordered)
            out[pse_id] = {
                "count": n,
                "p50": ordered[int(0.50 * (n - 1))],
                "p95": ordered[int(0.95 * (n - 1))],
            }
        return out
