"""Fan-out broker: one modulator, N heterogeneous subscribers.

The paper's host (JECho) is a multi-client event system; this module
grows :mod:`repro.net` from the strictly two-process sender/receiver
pair into that shape.  A :class:`NetBrokerEndpoint` publishes every
event to many subscribers, each of which runs its **own active PSE**
chosen from the same ConvexCut analysis — a slow peer converges to a
receiver-light split, a fast peer to a sender-light one, and both are
fed from a single shared modulation:

* **Deepest common split** — per message the broker runs the handler
  once under the *union* of all subscriber plans
  (:func:`~repro.core.plan.union_plan`), so execution stops at the
  earliest edge any peer wants.  Subscribers whose plan splits there
  ship the shared continuation as-is; subscribers wanting a deeper
  split *fork*: the shared continuation is cloned through the codec
  (serialize/deserialize, so fork state never aliases shipped state)
  and resumed under that peer's own flag table until it splits again.
* **Per-peer plan cache** — :class:`PlanRuntimeCache` memoizes
  ``PlanRuntime`` flag tables keyed on (handler, active PSE set, plan
  version); a plan switch looks the union's and each peer's runtime up
  once, and every publish until the next switch reads the cached
  split-edge sets.
* **Per-subscriber bounded queues** — each subscriber's
  :class:`~repro.net.tcp.TcpPeer` gets its own ``queue_limit``;
  drop-oldest load leveling sheds a wedged peer's backlog without
  shrinking anyone else's.
* **Per-peer control plane** — every subscriber's receiver owns its
  authoritative Profiling/Reconfiguration Units and ships PLAN frames
  back on its own connection; one :class:`~repro.net.session.PeerSession`
  per peer applies them with version idempotency, and the broker
  rebuilds the union hook lazily.
* **One publish path** — a two-process sender is this broker with one
  subscriber (:class:`~repro.net.endpoint.NetSenderEndpoint`): same
  shared run, same ship, same local completion when a peer's breaker
  refuses the ship or its send fails.
* **Per-peer observability** — labeled gauges/counters
  (``broker.queue_depth{peer="..."}`` etc.) flow through the existing
  OpenMetrics exposition, and fork spans join the shared ``modulate``
  span so a merged trace shows one modulation fanning out to N
  demodulations.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.continuation import ContinuationMessage
from repro.core.partitioned import PartitionedMethod
from repro.core.plan import (
    PartitioningPlan,
    PlanRuntime,
    receiver_heavy_plan,
    sender_heavy_plan,
    union_plan,
)
from repro.core.runtime.feedback import RemoteProfilingProxy
from repro.errors import TransportError
from repro.ir.interpreter import CycleMeter, Edge
from repro.jecho.events import ContinuationEnvelope, PlanEnvelope
from repro.net.framing import Bye, Election, Telemetry
from repro.net.resilience import BreakerConfig, Bulkhead
from repro.net.session import CalibratedRate, PeerSession
from repro.net.tcp import TcpPeer, TcpTransport
from repro.obs.flight import wide_event
from repro.obs.health import HealthConfig, HealthMonitor

__all__ = ["PlanRuntimeCache", "NetBrokerEndpoint"]

#: one traversed PSE edge of a run: (edge, cycles before it, INTER size)
Observation = Tuple[Edge, float, Optional[float]]
#: a subscriber as the publish path sees it: (session, plan runtime,
#: split-edge set of that runtime)
Route = Tuple[PeerSession, PlanRuntime, FrozenSet[Edge]]


class PlanRuntimeCache:
    """Memoized :class:`~repro.core.plan.PlanRuntime` flag tables.

    Applying a plan costs O(#PSE) flag writes; subscribers on the same
    plan, and plans that come back, share one runtime, cached keyed on
    ``(handler name, active edge set, plan version)`` — the version
    rides along so a re-shipped plan under a fresh idempotency key
    reads as a distinct (if equal-valued) entry, mirroring how the
    control plane names plans on the wire.
    LRU-bounded: fan-outs cycle through a handful of live plans, so a
    small cache holds the working set.
    """

    def __init__(self, partitioned: PartitionedMethod, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.partitioned = partitioned
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, PlanRuntime]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def runtime(
        self, plan: PartitioningPlan, version: int = 0
    ) -> PlanRuntime:
        key = (
            self.partitioned.function.name,
            tuple(sorted(plan.active)),
            version,
        )
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        runtime = PlanRuntime(self.partitioned.cut)
        runtime.apply_plan(plan)
        self._entries[key] = runtime
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self.misses += 1
        return runtime


class NetBrokerEndpoint:
    """One modulator publishing to N subscribers with per-peer PSEs.

    The data path is here — the shared run, the forks, the ships — and
    it is the only one in :mod:`repro.net`: a two-process sender is this
    broker with a single subscriber
    (:class:`~repro.net.endpoint.NetSenderEndpoint`).  Each subscriber's
    control plane (PLAN frames, breaker and split retraction, health,
    telemetry, feedback flush) is one
    :class:`~repro.net.session.PeerSession` in ``subscribers``, whose
    plan switch invalidates the cached routes of the shared run.

    ``publish`` runs on the caller's thread; inbound PLAN frames arrive
    on the transport's loop thread and are routed to the subscriber
    whose connection carried them — one lock serializes both around the
    sessions and the shared-modulation hook derived from their plans.
    """

    def __init__(
        self,
        partitioned: PartitionedMethod,
        transport: TcpTransport,
        *,
        plan: Optional[PartitioningPlan] = None,
        sample_period: int = 1,
        feedback_period: int = 8,
        rate_override: Optional[float] = None,
        recalibrate=None,
        queue_limit: Optional[int] = None,
        obs=None,
        health_config: Optional[HealthConfig] = None,
        health_interval: float = 0.0,
        breaker_config: Optional[BreakerConfig] = None,
        resilience: bool = True,
    ) -> None:
        """``rate_override`` records a *calibrated* seconds-per-cycle
        instead of the raw per-message wall clock.  Raw measurements are
        fixed-overhead dominated when the modulator's share of work is
        tiny (an early split leaves it a handful of cycles), which
        inflates the apparent sender rate by orders of magnitude; a rate
        calibrated against the full handler (see
        :func:`repro.net.live._calibrate`) measures the host, not the
        per-message overhead.  Every applied plan marks it stale and the
        next publish refreshes it, through ``recalibrate`` when given
        (see :class:`~repro.net.session.CalibratedRate`).

        With ``resilience`` on, wedged health or send failures trip a
        peer's breaker, and while it is not closed the peer's split is
        *retracted*: its plan becomes the sender-heavy one, its
        continuations complete here instead of shipping, and inbound
        PLAN frames are deferred until the breaker re-closes."""
        if feedback_period < 1:
            raise ValueError("feedback_period must be >= 1")
        if health_interval < 0:
            raise ValueError("health_interval must be >= 0")
        self.partitioned = partitioned
        self.transport = transport
        self.default_plan = plan or receiver_heavy_plan(partitioned.cut)
        self.sample_period = sample_period
        self.feedback_period = feedback_period
        self.rate = CalibratedRate(partitioned, rate_override, recalibrate)
        #: default per-subscriber outbound bound (None → transport's)
        self.queue_limit = queue_limit
        self.obs = obs
        self.cache = PlanRuntimeCache(partitioned)
        self.subscribers: List[PeerSession] = []
        self._by_peer: Dict[TcpPeer, PeerSession] = {}
        self.lock = threading.Lock()
        self.published = 0
        #: shared modulation executions — exactly one per publish, no
        #: matter how many subscribers (the deepest-common-split claim)
        self.shared_runs = 0
        self.shared_cycles_total = 0.0
        self.fork_cycles_total = 0.0
        self.forks = 0
        self.exposer = None
        #: the shared run's union-of-plans hook and, per subscriber, its
        #: plan runtime and split-edge set; rebuilt lazily after any
        #: subscriber's plan switch (None = stale)
        self._union_runtime: Optional[PlanRuntime] = None
        self._routes: Optional[List[Route]] = None
        #: fleet health — one PeerHealth per subscriber, fed from the
        #: transport on every publish and (optionally) by a background
        #: evaluator so staleness keeps ticking while the publisher is
        #: quiet (the drain phase is exactly when wedges surface).
        self.health = HealthMonitor(obs=obs, config=health_config)
        self.health_interval = health_interval
        #: resilience plane: per-subscriber breakers fed by health
        #: transitions (a wedged peer trips) and send failures; on trip
        #: the peer's split is retracted fully sender-side, on recovery
        #: it is re-split.  A closed breaker costs the publish path one
        #: attribute check, so the plane defaults on.
        self.breaker_config = (
            (breaker_config or BreakerConfig()) if resilience else None
        )
        self._retraction_plan = sender_heavy_plan(partitioned.cut)
        #: the last receiver to announce coordinatorship via a relayed
        #: ELECTION frame (None when no election traffic has flowed)
        self.leader: Optional[str] = None
        self.leader_priority: Optional[int] = None
        self.election_frames = 0
        self.elections_relayed = 0
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if obs is not None:
            metrics = obs.metrics
            self._c_published = metrics.counter("broker.published")
            self._c_forks = metrics.counter("broker.forks")
            self._c_absorbed = metrics.counter("broker.absorbed")
            self._c_suppressed = metrics.counter("broker.ships_suppressed")
            self._c_elections = metrics.counter("broker.election_frames")
            # Exact publish-path phase timings, cross-checkable against
            # the sampling profiler's attribution (the encode/enqueue
            # phases live in TcpTransport._deliver, same metric family).
            self._h_phase_modulate = metrics.histogram(
                'net.publish.phase_seconds{phase="modulate"}'
            )
            self._h_phase_fork = metrics.histogram(
                'net.publish.phase_seconds{phase="fork"}'
            )
            self._h_phase_ship = metrics.histogram(
                'net.publish.phase_seconds{phase="ship"}'
            )
            obs.add_section("fleet", self.health.to_dict)
            obs.add_section("resilience", self._resilience_dump)
        else:
            self._c_published = None
            self._c_forks = None
            self._c_absorbed = None
            self._c_suppressed = None
            self._c_elections = None
            self._h_phase_modulate = None
            self._h_phase_fork = None
            self._h_phase_ship = None
        transport.inbound_handler = self._on_inbound
        if health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="broker-health",
                daemon=True,
            )
            self._health_thread.start()

    # -- membership ------------------------------------------------------------

    def subscribe(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        plan: Optional[PartitioningPlan] = None,
        queue_limit: Optional[int] = None,
    ) -> PeerSession:
        """Add a fan-out destination; returns its session.

        The broker builds this peer, so it also bounds it: the peer's
        queue takes ``queue_limit`` and, with the resilience plane on,
        a bulkhead sheds ships once the configured number of frames is
        queued.
        """
        label = name or f"{host}:{port}"
        peer = self.transport.peer(
            host,
            port,
            name=label,
            queue_limit=(
                queue_limit if queue_limit is not None else self.queue_limit
            ),
        )
        sub = self._attach(peer, label, plan)
        config = self.breaker_config
        if config is not None and config.bulkhead_limit is not None:
            sub.bulkhead = Bulkhead(config.bulkhead_limit)
        return sub

    def _attach(
        self, peer: TcpPeer, name: str, plan: Optional[PartitioningPlan]
    ) -> PeerSession:
        """Make an already-built *peer* a subscriber; returns its session."""
        with self.lock:
            if peer in self._by_peer:
                raise TransportError(f"peer {name} is already subscribed")
            sub = PeerSession(
                name,
                peer,
                len(self.subscribers) + 1,
                plan or self.default_plan,
                RemoteProfilingProxy(
                    self.partitioned.cut,
                    sample_period=self.sample_period,
                    obs=self.obs,
                ),
                # looked up per call: harnesses wrap ``transport.send``
                send=lambda envelope, size: self.transport.send(
                    peer, envelope, size
                ),
                monitor=self.health,
                rate=self.rate,
                retraction_plan=self._retraction_plan,
                apply_plan=self._plan_switched,
                breaker_config=self.breaker_config,
                obs=self.obs,
            )
            self.subscribers.append(sub)
            self._by_peer[peer] = sub
            self._routes = None
        return sub

    # -- shared modulation hook --------------------------------------------------

    def _union(self) -> List[Route]:
        """Rebuild the deepest-common-split hook and the routes (lock held).

        Runs once per plan switch, not per publish: the publish path
        then tests the shared split edge against each peer's cached
        split-edge set instead of looking its runtime up again.
        """
        cache = self.cache
        self._union_runtime = cache.runtime(
            union_plan(
                (sub.plan for sub in self.subscribers), name="fanout-union"
            )
        )
        routes: List[Route] = []
        for sub in self.subscribers:
            runtime = cache.runtime(sub.plan, sub.plan_version_applied)
            routes.append((sub, runtime, runtime.split_edge_set()))
        self._routes = routes
        return routes

    def _plan_switched(self, plan: PartitioningPlan) -> None:
        """A session put another plan in force (lock held)."""
        self._routes = None

    # -- publish (caller thread) -------------------------------------------------

    def publish(self, event: object) -> None:
        """Modulate once, ship shared or forked continuations to all."""
        with self.lock:
            subs = self.subscribers
            if not subs:
                raise TransportError("broker has no subscribers")
            self.rate.refresh(event)
            for sub in subs:
                sub.proxy.record_message()
            routes = self._routes
            if routes is None:
                routes = self._union()
            obs = self.obs
            tracer = obs.tracing if obs is not None else None
            span = None
            run_ctx: Optional[Tuple[int, int]] = None
            if tracer is not None:
                trace_id = tracer.start_trace()
                if trace_id is not None:
                    span = tracer.begin("modulate", trace_id=trace_id)
                    run_ctx = (trace_id, span.span_id)
            partitioned = self.partitioned
            gate = subs[0].proxy  # all proxies share the sampling cadence
            meter = CycleMeter()
            observations: List[Observation] = []

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                size: Optional[float] = None
                if gate.should_measure(edge):
                    size = partitioned.measure_inter(edge, env)
                observations.append((edge, meter.cycles, size))

            started = time.perf_counter()
            outcome = partitioned.interpreter.run(
                partitioned.function,
                (event,),
                split_hook=self._union_runtime,
                edge_observer=observer,
                observe_edges=partitioned.pse_edges,
                meter=meter,
                trace_ctx=run_ctx,
            )
            shared_elapsed = time.perf_counter() - started
            if self._h_phase_modulate is not None:
                self._h_phase_modulate.observe(shared_elapsed)
            shared_cycles = meter.cycles
            shared_seconds = self.rate.seconds(shared_cycles, shared_elapsed)
            self.published += 1
            self.shared_runs += 1
            self.shared_cycles_total += shared_cycles
            if self._c_published is not None:
                self._c_published.inc()

            shared_edge: Optional[Edge] = None
            deep: List[Tuple[PeerSession, PlanRuntime]] = []
            if outcome.returned:
                # No forced edge on this path: the whole handler ran at
                # the broker; every subscriber "completed locally".
                for sub in subs:
                    self._replay_shared(sub, observations, None)
                    sub.proxy.record_local_completion()
                    sub.completed_locally += 1
                    if shared_cycles > 0:
                        sub.proxy.record_sender_rate(
                            shared_seconds, shared_cycles
                        )
            else:
                continuation = outcome.continuation
                shared_edge = continuation.edge
                pse = partitioned.cut.pses.get(shared_edge)
                shared_msg = ContinuationMessage.from_continuation(
                    continuation,
                    pse.pse_id if pse is not None else f"forced{shared_edge}",
                )
                # Shallow subscribers first: each send encodes the frame
                # on this thread, so shipped bytes are immune to any
                # mutation a later fork's execution performs on shared
                # values.
                for sub, runtime, splits in routes:
                    if shared_edge in splits:
                        self._replay_shared(sub, observations, shared_edge)
                        self._ship(
                            sub, shared_msg, shared_cycles, shared=True
                        )
                        if shared_cycles > 0:
                            sub.proxy.record_sender_rate(
                                shared_seconds, shared_cycles
                            )
                    else:
                        deep.append((sub, runtime))
                for sub, runtime in deep:
                    self._replay_shared(sub, observations, None)
                    self._fork(
                        sub,
                        runtime,
                        shared_msg,
                        shared_cycles,
                        shared_elapsed,
                        run_ctx,
                    )
            for sub in subs:
                if obs is not None:
                    sub.refresh_gauges()
                sub.feed_health()
                sub.resilience_tick()
            if self.published % self.feedback_period == 0:
                for sub in subs:
                    if sub.proxy.pending > 0:
                        sub.flush_feedback()
            if span is not None:
                span.attrs = (
                    {"outcome": "completed"}
                    if shared_edge is None
                    else {
                        "outcome": "split",
                        "edge": list(shared_edge),
                        "cycles": shared_cycles,
                        "forks": len(deep),
                    }
                )
                tracer.end(span)

    def _replay_shared(
        self,
        sub: PeerSession,
        observations: List[Observation],
        split_edge: Optional[Edge],
    ) -> None:
        """Feed the shared run's edge observations into one peer's proxy.

        The work up to the deepest common split is identical for every
        subscriber, so each proxy sees the same records — only
        ``is_split`` differs (a deep subscriber traverses the shared
        edge without splitting there).
        """
        record = sub.proxy.record_edge_observation
        for edge, work_before, size in observations:
            record(
                edge,
                data_size=size,
                work_before=work_before,
                is_split=(edge == split_edge),
            )

    def _fork(
        self,
        sub: PeerSession,
        runtime: PlanRuntime,
        shared_msg: ContinuationMessage,
        shared_cycles: float,
        shared_elapsed: float,
        run_ctx: Optional[Tuple[int, int]],
    ) -> None:
        """Resume the shared continuation under *sub*'s deeper plan.

        The clone passes through the codec so the fork's environment
        shares no mutable state with the shared message or with other
        forks — exactly what the receiver would have deserialized had
        the wire carried it.
        """
        partitioned = self.partitioned
        codec = partitioned.codec
        clone = codec.decode(codec.encode(shared_msg))
        tracer = self.obs.tracing if self.obs is not None else None
        fork_span = None
        fork_ctx: Optional[Tuple[int, int]] = None
        if tracer is not None and run_ctx is not None:
            fork_span = tracer.begin(
                "fork",
                trace_id=run_ctx[0],
                parent_id=run_ctx[1],
                attrs={"peer": sub.name},
            )
            fork_ctx = (run_ctx[0], fork_span.span_id)
        meter = CycleMeter()
        fork_obs: List[Observation] = []

        def observer(edge: Edge, env: Dict[str, object]) -> None:
            size: Optional[float] = None
            if sub.proxy.should_measure(edge):
                size = partitioned.measure_inter(edge, env)
            fork_obs.append((edge, meter.cycles, size))

        started = time.perf_counter()
        outcome = partitioned.interpreter.resume(
            partitioned.function,
            clone.to_continuation(),
            split_hook=runtime,
            edge_observer=observer,
            observe_edges=partitioned.pse_edges,
            meter=meter,
            trace_ctx=fork_ctx,
        )
        elapsed = time.perf_counter() - started
        if self._h_phase_fork is not None:
            self._h_phase_fork.observe(elapsed)
        self.forks += 1
        self.fork_cycles_total += meter.cycles
        sub.forks += 1
        if self._c_forks is not None:
            self._c_forks.inc()
            sub.count("fork")
        total_cycles = shared_cycles + meter.cycles
        split_edge = (
            outcome.continuation.edge if outcome.split else None
        )
        for edge, fork_work, size in fork_obs:
            sub.proxy.record_edge_observation(
                edge,
                data_size=size,
                work_before=shared_cycles + fork_work,
                is_split=(edge == split_edge),
            )
        if outcome.returned:
            # Possible only when the peer's path holds no forced edge
            # past the shared split; the work finished broker-side.
            sub.proxy.record_local_completion()
            sub.completed_locally += 1
        else:
            pse = partitioned.cut.pses.get(split_edge)
            message = ContinuationMessage.from_continuation(
                outcome.continuation,
                pse.pse_id if pse is not None else f"forced{split_edge}",
            )
            self._ship(sub, message, total_cycles, shared=False)
        if total_cycles > 0:
            sub.proxy.record_sender_rate(
                self.rate.seconds(total_cycles, shared_elapsed + elapsed),
                total_cycles,
            )
        if fork_span is not None:
            fork_span.attrs = {
                "peer": sub.name,
                "cycles": meter.cycles,
                "outcome": "return" if outcome.returned else "split",
            }
            tracer.end(fork_span)

    def _ship(
        self,
        sub: PeerSession,
        message: ContinuationMessage,
        total_cycles: float,
        *,
        shared: bool,
    ) -> None:
        """Send one continuation to one subscriber (lock held).

        Every continuation ends exactly one way: elided (a no-op
        resume), shed by the bulkhead, shipped, or — when the breaker
        does not admit the ship or the send fails — completed here.
        """
        pse = self.partitioned.cut.pses.get(message.edge)
        if pse is not None and pse.noop_resume and not message.variables:
            sub.proxy.record_local_completion()
            sub.elided += 1
            return
        admitted = sub.admits()
        bh = sub.bulkhead
        if admitted and bh is not None and not bh.admit(sub.peer.queued):
            # Admission refused before paying for the encode: the
            # peer's outbound queue already holds `limit` frames, so
            # drop-oldest shedding was imminent anyway.
            sub.ships_suppressed += 1
            sub.proxy.record_local_completion()
            if self._c_suppressed is not None:
                self._c_suppressed.inc()
            wide_event(
                "breaker.suppress", peer=sub.name, reason="bulkhead full"
            )
            if sub.breaker is not None:
                sub.breaker.record_failure("bulkhead full")
            return
        sub.proxy.record_mod_total(total_cycles)
        if admitted:
            ship_started = (
                time.perf_counter()
                if self._h_phase_ship is not None
                else None
            )
            size = float(self.partitioned.codec.size(message))
            envelope = ContinuationEnvelope(
                continuation=message, subscription_id=sub.subscription_id
            )
            if self.obs is not None:
                tracer = self.obs.tracing
                if tracer is not None:
                    tracer.observe_pse(str(message.pse_id), size=size)
            try:
                self.transport.send(sub.peer, envelope, size)
            except TransportError as exc:
                # A failing send is a breaker signal, and the message
                # must not be lost: it completes here below.
                if sub.breaker is not None:
                    sub.breaker.record_failure(f"send failed: {exc}")
            else:
                if ship_started is not None:
                    self._h_phase_ship.observe(
                        time.perf_counter() - ship_started
                    )
                sub.shipped += 1
                if shared:
                    sub.shared_ships += 1
                if self.obs is not None:
                    sub.count("ship")
                return
        self._complete_locally(sub, message)

    def _complete_locally(
        self, sub: PeerSession, message: ContinuationMessage
    ) -> None:
        """Run a continuation's tail here instead of at its peer.

        Resumed with no split hook, it runs to the end of the handler,
        receiver-only natives included: both sides build the same
        partitioned method from the same program text, so resuming here
        is the receiver's work minus the bytes.  The resume runs on a
        codec clone — the shared message may still ship to other peers.
        """
        partitioned = self.partitioned
        codec = partitioned.codec
        clone = codec.decode(codec.encode(message))
        partitioned.interpreter.resume(
            partitioned.function, clone.to_continuation()
        )
        sub.absorbed += 1
        sub.completed_locally += 1
        if self._c_absorbed is not None:
            self._c_absorbed.inc()

    def _health_loop(self) -> None:
        """Background evaluator: staleness ticks even when idle."""
        while not self._health_stop.wait(self.health_interval):
            with self.lock:
                for sub in self.subscribers:
                    sub.feed_health()
                    sub.resilience_tick()

    def _resilience_dump(self) -> Dict[str, object]:
        return {
            "retractions": self.retractions,
            "resplits": self.resplits,
            "leader": self.leader,
            "leader_priority": self.leader_priority,
            "election_frames": self.election_frames,
            "elections_relayed": self.elections_relayed,
            "peers": {
                sub.name: sub.resilience_dump() for sub in self.subscribers
            },
        }

    # -- control plane (transport loop thread) -----------------------------------

    def _on_inbound(self, envelope: object, peer: TcpPeer) -> None:
        if isinstance(envelope, Election):
            self._relay_election(envelope, peer)
            return
        with self.lock:
            sub = self._by_peer.get(peer)
            if sub is None:
                return
            if isinstance(envelope, Telemetry):
                sub.ingest_telemetry(envelope)
            elif isinstance(envelope, PlanEnvelope):
                sub.on_plan(envelope)

    def _relay_election(self, envelope: Election, peer: TcpPeer) -> None:
        """Fan an ELECTION frame out to the other receivers.

        Receivers cannot see each other directly — their only shared
        vertex is this broker — so the bully protocol's broadcasts are
        relayed here: every inbound announcement goes to every *other*
        subscriber.  The broker also shadows the outcome (``leader``)
        for the fleet table of ``obs watch``.
        """
        with self.lock:
            self.election_frames += 1
            if self._c_elections is not None:
                self._c_elections.inc()
            if envelope.op == "coordinator":
                if self.leader != envelope.member:
                    wide_event(
                        "election.leader",
                        leader=envelope.member,
                        priority=envelope.priority,
                        term=envelope.term,
                    )
                self.leader = envelope.member
                self.leader_priority = envelope.priority
            for sub in self.subscribers:
                if sub.peer is peer:
                    continue
                try:
                    self.transport.send(sub.peer, envelope, 64.0)
                    self.elections_relayed += 1
                except TransportError:
                    pass

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the background health evaluator (idempotent)."""
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=2.0)
            self._health_thread = None

    def finish(self) -> None:
        """Flush profiling tails and say goodbye to every subscriber."""
        with self.lock:
            for sub in self.subscribers:
                if sub.proxy.pending > 0:
                    sub.flush_feedback()
                self.transport.send(
                    sub.peer, Bye(sent=sub.shipped), 8.0
                )
                sub.bye_sent = True

    def expose_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Serve this process's observability over HTTP (OpenMetrics)."""
        if self.obs is None:
            raise ValueError("expose_metrics requires an attached obs")
        from repro.obs.exposition import start_http_exposer

        self.exposer = start_http_exposer(
            self.obs.to_dict,
            host=host,
            port=port,
            health_source=self.health.to_dict,
        )
        return self.exposer

    def close_exposer(self) -> None:
        if self.exposer is not None:
            self.exposer.close()
            self.exposer = None

    # -- results -----------------------------------------------------------------

    def _total(self, counter: str) -> int:
        return sum(getattr(sub, counter) for sub in self.subscribers)

    @property
    def plan_updates_applied(self) -> int:
        return self._total("plan_updates_applied")

    @property
    def retractions(self) -> int:
        return self._total("retractions")

    @property
    def resplits(self) -> int:
        return self._total("resplits")

    def to_dict(self) -> Dict[str, object]:
        with self.lock:
            return {
                "published": self.published,
                "shared_runs": self.shared_runs,
                "forks": self.forks,
                "shared_cycles_total": self.shared_cycles_total,
                "fork_cycles_total": self.fork_cycles_total,
                "plan_updates_applied": self.plan_updates_applied,
                "recalibrations": self.rate.recalibrations,
                "telemetry_frames": self._total("telemetry_frames"),
                "retractions": self.retractions,
                "resplits": self.resplits,
                "leader": self.leader,
                "election_frames": self.election_frames,
                "elections_relayed": self.elections_relayed,
                "fleet": self.health.to_dict(),
                "plan_cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                },
                "subscribers": [
                    sub.to_dict() for sub in self.subscribers
                ],
            }
