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
  earliest edge any peer wants.  Subscribers whose plans split at the
  same edges form one group.  A group whose plan splits there ships the
  shared continuation as-is; a group wanting a deeper split *forks*
  once: the shared continuation is cloned through the codec
  (serialize/deserialize, so fork state never aliases shipped state),
  resumed until the group's split edges stop it again, and that
  one message ships to every member.  Each distinct message is sized
  once, whatever the number of peers it ships to.
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
  rebuilds the union's split edges lazily.
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
from repro.core.partitioned import (
    Observation,
    PartitionedMethod,
    open_span,
    record_sender_run,
)
from repro.core.plan import (
    PartitioningPlan,
    PlanRuntime,
    receiver_heavy_plan,
    sender_heavy_plan,
    union_plan,
)
from repro.core.runtime.feedback import RemoteProfilingProxy
from repro.errors import TransportError
from repro.ir.interpreter import Edge
from repro.jecho.events import ContinuationEnvelope, PlanEnvelope
from repro.net.framing import Bye, Telemetry
from repro.net.resilience import BreakerConfig, Bulkhead
from repro.net.session import CalibratedRate, PeerSession
from repro.net.tcp import TcpPeer, TcpTransport
from repro.obs.flight import wide_event
from repro.obs.health import HealthConfig, HealthMonitor
from repro.obs.metrics import counts, zero_counts

__all__ = ["PlanRuntimeCache", "NetBrokerEndpoint"]

#: the subscribers whose plans split at the same edges, as the publish
#: path sees them: (split-edge set, the members' sessions in
#: subscription order)
Route = Tuple[FrozenSet[Edge], List[PeerSession]]


class PlanRuntimeCache:
    """Memoized :class:`~repro.core.plan.PlanRuntime` split-edge sets.

    Applying a plan validates it against the cut and builds its split
    set; subscribers on the same plan, and plans that come back, share
    one runtime, cached keyed on
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
        # benchmarks/pipeline/harness.py reads hits and misses
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
    sessions and the shared run's split edges derived from their plans.
    """

    #: the broker's own counts; ``shared_runs`` is exactly one per
    #: publish, however many subscribers (the deepest-common-split claim),
    #: and ``forks`` one per distinct deeper split per publish
    COUNTS = ("published", "shared_runs", "forks")
    #: ``broker.<series>`` → the session count it sums over subscribers
    SUMMED = {
        "plan_updates": "plan_updates_applied",
        "telemetry_frames": "telemetry_frames",
        "retractions": "retractions",
        "resplits": "resplits",
        "absorbed": "absorbed",
        "ships_suppressed": "ships_suppressed",
    }

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
        zero_counts(self)
        self.exposer = None
        #: the shared run's union-of-plans split edges and the routes;
        #: rebuilt lazily after any subscriber's plan switch
        #: (``_routes`` None = stale)
        self._union_splits: FrozenSet[Edge] = frozenset()
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
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if obs is not None:
            metrics = obs.metrics
            metrics.add_reader(self._read_metrics)
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

    # -- shared modulation split ------------------------------------------------

    def _union(self) -> List[Route]:
        """Rebuild the deepest common split and the routes (lock held).

        Runs once per plan switch, not per publish: the publish path
        then tests the shared split edge against each group's cached
        split-edge set instead of looking runtimes up again.  Peers with
        equal split-edge sets share a route, so they share its fork.
        """
        cache = self.cache
        self._union_splits = cache.runtime(
            union_plan(
                (sub.plan for sub in self.subscribers), name="fanout-union"
            )
        ).split_edges
        groups: Dict[FrozenSet[Edge], Route] = {}
        for sub in self.subscribers:
            splits = cache.runtime(sub.plan, sub.plan_version_applied).split_edges
            if splits in groups:
                groups[splits][1].append(sub)
            else:
                groups[splits] = (splits, [sub])
        self._routes = routes = list(groups.values())
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
            span = run_ctx = None
            if tracer is not None:
                span, run_ctx = open_span(
                    tracer, "modulate", None, new_trace=True
                )
            partitioned = self.partitioned
            started = time.perf_counter()
            # all proxies share the sampling cadence, so one gates the run
            _outcome, shared_msg, observations, shared_cycles = (
                partitioned.run(
                    (event,),
                    self._union_splits,
                    subs[0].proxy.should_measure,
                    run_ctx,
                )
            )
            shared_elapsed = time.perf_counter() - started
            if self._h_phase_modulate is not None:
                self._h_phase_modulate.observe(shared_elapsed)
            shared_seconds = self.rate.seconds(shared_cycles, shared_elapsed)
            self.published += 1
            self.shared_runs += 1
            # Shallow groups first: each send encodes the frame on this
            # thread, so shipped bytes are immune to any mutation a later
            # fork's execution performs on shared values.  The work up to
            # the deepest common split is identical for every subscriber,
            # so each proxy records the same observations.
            deep: List[Route] = []
            for splits, members in routes:
                if shared_msg is not None and shared_msg.edge not in splits:
                    for sub in members:
                        record_sender_run(sub.proxy, observations, None)
                    deep.append((splits, members))
                else:
                    self._ship(
                        members,
                        observations,
                        shared_msg,
                        shared_cycles,
                        shared_seconds,
                    )
            for splits, members in deep:
                self._fork(
                    splits,
                    members,
                    shared_msg,
                    shared_cycles,
                    shared_elapsed,
                    run_ctx,
                )
            for sub in subs:
                sub.feed_health()
                sub.resilience_tick()
            if self.published % self.feedback_period == 0:
                for sub in subs:
                    if sub.proxy.pending > 0:
                        sub.flush_feedback()
            if span is not None:
                partitioned.end_span(
                    tracer,
                    span,
                    observations,
                    shared_cycles,
                    "completed" if shared_msg is None else "split",
                    shared_msg,
                    forks=len(deep),
                )

    def _fork(
        self,
        splits: FrozenSet[Edge],
        members: List[PeerSession],
        shared_msg: ContinuationMessage,
        shared_cycles: float,
        shared_elapsed: float,
        run_ctx: Optional[Tuple[int, int]],
    ) -> None:
        """Resume the shared continuation once under *members*' deeper
        plan, and ship the result to each of them.

        The members' plans split at the same edges, so one resume is
        what each member's dedicated modulator would have run; all
        proxies share the sampling cadence, so the first member's gates
        it.  The resume runs on a codec clone, so the fork's environment
        shares no mutable state with the shared message or with other
        forks — exactly what the receiver would have deserialized had
        the wire carried it.
        """
        partitioned = self.partitioned
        clone = partitioned.clone(shared_msg)
        tracer = self.obs.tracing if self.obs is not None else None
        span = fork_ctx = None
        if tracer is not None:
            span, fork_ctx = open_span(tracer, "fork", run_ctx)
        started = time.perf_counter()
        _outcome, message, observations, total_cycles = partitioned.run(
            clone,
            splits,
            members[0].proxy.should_measure,
            fork_ctx,
            shared_cycles,
        )
        elapsed = time.perf_counter() - started
        if self._h_phase_fork is not None:
            self._h_phase_fork.observe(elapsed)
        self.forks += 1
        for sub in members:
            sub.forks += 1
        self._ship(
            members,
            observations,
            message,
            total_cycles,
            self.rate.seconds(total_cycles, shared_elapsed + elapsed),
            forked=True,
        )
        if span is not None:
            partitioned.end_span(
                tracer,
                span,
                observations,
                total_cycles - shared_cycles,
                "completed" if message is None else "split",
                message,
                peers=[sub.name for sub in members],
            )

    def _ship(
        self,
        members: List[PeerSession],
        observations: List[Observation],
        message: Optional[ContinuationMessage],
        total_cycles: float,
        seconds: float,
        forked: bool = False,
    ) -> None:
        """Record one sender-side run for each of *members* and end the
        run's message for each (lock held).

        *message* is a fork's when ``forked``, else the shared run's;
        *total_cycles* counts from the top of the handler.  For each
        member the message ends exactly one way: completed by the run (no
        forced edge on its path), elided (a no-op resume), shed by the
        bulkhead, shipped, or — when the breaker does not admit the ship
        or the send fails — completed here.  Only a shipped message
        leaves a modulator total for the peer's demodulator total to pair
        with; every other end is a local completion.  The message is
        sized once, at its first ship.
        """
        partitioned = self.partitioned
        split_edge = None if message is None else message.edge
        elided = message is not None and partitioned.elides(message)
        size: Optional[float] = None
        for sub in members:
            proxy = sub.proxy
            record_sender_run(proxy, observations, split_edge)
            proxy.record_sender_rate(seconds, total_cycles)
            if message is None:
                proxy.record_local_completion()
                sub.completed_locally += 1
                continue
            if elided:
                proxy.record_local_completion()
                sub.elided += 1
                continue
            admitted = sub.admits()
            bh = sub.bulkhead
            if admitted and bh is not None and not bh.admit(sub.peer.queued):
                # Admission refused before paying for the encode: the
                # peer's outbound queue already holds `limit` frames, so
                # drop-oldest shedding was imminent anyway.
                sub.ships_suppressed += 1
                proxy.record_local_completion()
                wide_event(
                    "breaker.suppress", peer=sub.name, reason="bulkhead full"
                )
                if sub.breaker is not None:
                    sub.breaker.record_failure("bulkhead full")
                continue
            if admitted:
                ship_started = (
                    time.perf_counter()
                    if self._h_phase_ship is not None
                    else None
                )
                if size is None:
                    size = float(partitioned.codec.size(message))
                envelope = ContinuationEnvelope(
                    continuation=message, subscription_id=sub.subscription_id
                )
                if self.obs is not None:
                    tracer = self.obs.tracing
                    if tracer is not None:
                        tracer.observe_pse(message.slot.pse_id, size=size)
                try:
                    self.transport.send(sub.peer, envelope, size)
                except TransportError as exc:
                    # A failing send is a breaker signal, and the message
                    # must not be lost: it completes here below.
                    if sub.breaker is not None:
                        sub.breaker.record_failure(f"send failed: {exc}")
                else:
                    proxy.record_mod_total(total_cycles)
                    if ship_started is not None:
                        self._h_phase_ship.observe(
                            time.perf_counter() - ship_started
                        )
                    sub.shipped += 1
                    if not forked:
                        sub.shared_ships += 1
                    continue
            # Completed here instead of at its peer: resumed with no
            # split edges, it runs to the end of the handler, receiver-only
            # natives included.  Both sides build the same partitioned
            # method from the same program text, so this is the
            # receiver's work minus the bytes.  It runs on a codec clone,
            # because the message may still ship to other peers.
            partitioned.run(partitioned.clone(message))
            proxy.record_local_completion()
            sub.absorbed += 1
            sub.completed_locally += 1

    def _health_loop(self) -> None:
        """Background evaluator: staleness ticks even when idle."""
        while not self._health_stop.wait(self.health_interval):
            with self.lock:
                for sub in self.subscribers:
                    sub.feed_health()
                    sub.resilience_tick()

    def _resilience_dump(self) -> Dict[str, object]:
        return {
            "retractions": self._total("retractions"),
            "resplits": self._total("resplits"),
            "peers": {
                sub.name: sub.resilience_dump() for sub in self.subscribers
            },
        }

    # -- control plane (transport loop thread) -----------------------------------

    def _on_inbound(self, envelope: object, peer: TcpPeer) -> None:
        with self.lock:
            sub = self._by_peer.get(peer)
            if sub is None:
                return
            if isinstance(envelope, Telemetry):
                sub.ingest_telemetry(envelope)
            elif isinstance(envelope, PlanEnvelope):
                sub.on_plan(envelope)

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

    def _read_metrics(self) -> Dict[str, Dict[str, float]]:
        """The ``broker.*`` series, read off the counts at dump time."""
        counters = {
            f"broker.{count}": getattr(self, count)
            for count in ("published", "forks")
        }
        for series, count in self.SUMMED.items():
            counters[f"broker.{series}"] = self._total(count)
        gauges: Dict[str, float] = {}
        for sub in list(self.subscribers):
            sub.series(counters, gauges)
        return {"counters": counters, "gauges": gauges}

    def to_dict(self) -> Dict[str, object]:
        with self.lock:
            return {
                **counts(self),
                **{c: self._total(c) for c in self.SUMMED.values()},
                "recalibrations": self.rate.recalibrations,
                "fleet": self.health.to_dict(),
                "plan_cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                },
                "subscribers": [
                    sub.to_dict() for sub in self.subscribers
                ],
            }
