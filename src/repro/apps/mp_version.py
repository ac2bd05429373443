"""Method Partitioning as a pipeline :class:`~repro.apps.harness.Version`.

Wires a :class:`~repro.core.PartitionedMethod` into the experiment harness
with the full adaptation loop of the paper:

* the modulator runs on the sender host (cycles paid there); INTER-set
  sizes and work counts are profiled on both sides;
* seconds-per-cycle rates are measured from *simulated* service times, so
  host speed and perturbation load flow into the execution-time model;
* the Reconfiguration Unit (receiver-located by default) re-runs min-cut
  when its trigger fires, and the new plan travels back over the feedback
  link with real latency before the modulator's flags flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.harness import ReceiverShare, SenderShare, Version
from repro.core.partitioned import PartitionedMethod
from repro.core.plan import PartitioningPlan
from repro.core.runtime.triggers import (
    CompositeTrigger,
    DriftTrigger,
    FeedbackTrigger,
    RateTrigger,
)
from repro.simnet.cluster import Testbed
from repro.simnet.simulator import Simulator

#: Wire size of a plan update: a handful of edge flags.
_PLAN_UPDATE_BYTES = 64.0


class MethodPartitioningVersion(Version):
    """The adaptive implementation of the paper's evaluations."""

    name = "Method Partitioning"

    def __init__(
        self,
        partitioned: PartitionedMethod,
        *,
        plan: Optional[PartitioningPlan] = None,
        trigger: Optional[FeedbackTrigger] = None,
        sample_period: int = 1,
        ewma_alpha: float = 0.4,
        adaptive: bool = True,
        location: str = "receiver",
        feedback_period: Optional[int] = None,
        obs=None,
    ) -> None:
        """``location`` places the Reconfiguration Unit (paper section 2.5):
        ``"sender"`` re-selects plans right after each modulator run and
        flips the flags locally (zero feedback latency — best when the
        modulator's own measurements dominate, as in the data-size model);
        ``"receiver"`` re-selects after each demodulator run and ships the
        plan back over the feedback link with real latency.

        ``feedback_period`` (receiver location only) makes profiling
        distribution explicit: the modulator records into a
        :class:`RemoteProfilingProxy` and its observations travel to the
        receiver-side unit as a feedback message every N messages, paying
        bytes and latency.  ``None`` keeps the default instantly-shared
        unit (equivalent to flushing every message at zero cost).
        """
        if location not in ("sender", "receiver"):
            raise ValueError("location must be 'sender' or 'receiver'")
        if feedback_period is not None and location != "receiver":
            raise ValueError(
                "feedback_period applies to receiver-located "
                "reconfiguration only"
            )
        self.partitioned = partitioned
        self.location = location
        self.feedback_period = feedback_period
        self.obs = obs
        if obs is not None:
            partitioned.interpreter.attach_observability(obs)
        self.profiling = partitioned.make_profiling_unit(
            sample_period=sample_period, ewma_alpha=ewma_alpha, obs=obs
        )
        self.sender_proxy = None
        modulator_profiling = self.profiling
        if feedback_period is not None:
            from repro.core.runtime.feedback import RemoteProfilingProxy

            self.sender_proxy = RemoteProfilingProxy(
                partitioned.cut,
                ewma_alpha=ewma_alpha,
                sample_period=sample_period,
                obs=obs,
            )
            modulator_profiling = self.sender_proxy
        # Rates come from simulated service times (see on_*_done), so the
        # modulator/demodulator must not record their own cycle-based rates.
        self.modulator = partitioned.make_modulator(
            plan=plan,
            profiling=modulator_profiling,
            record_rates=False,
            obs=obs,
        )
        self.demodulator = partitioned.make_demodulator(
            profiling=self.profiling, record_rates=False, obs=obs
        )
        self.adaptive = adaptive
        # Adaptation-quality layer (regret + drift): built only when the
        # attached Observability opted in via obs.quality_config.
        self.quality = partitioned.make_quality(obs)
        effective_trigger = trigger or RateTrigger(period=10)
        if (
            self.quality is not None
            and obs.quality_config.feed_trigger
            and adaptive
        ):
            # Detected model drift forces a recompute alongside whatever
            # the configured trigger would do.
            effective_trigger = CompositeTrigger(
                effective_trigger, DriftTrigger(self.quality.drift)
            )
        self.reconfig = (
            partitioned.make_reconfiguration_unit(
                trigger=effective_trigger,
                location=location,
                obs=obs,
                quality=self.quality,
            )
            if adaptive
            else None
        )
        self.plan_updates_applied = 0
        self.feedback_bytes = 0.0
        self.feedback_messages = 0
        # Simulation context captured in prepare(); span bookkeeping for
        # retiming modulate/demodulate spans to host-execution windows.
        # The producer/consumer generators are strictly sequential per
        # side, so at most one span per side is pending at any time.
        self._sender_host: Optional[str] = None
        self._receiver_host: Optional[str] = None
        self._link_name: Optional[str] = None
        self._feedback_link_name: Optional[str] = None
        self._pending_mod_span = None
        self._pending_demod_span = None
        self._pending_ship_end: Optional[float] = None

    def _tracer(self):
        obs = self.obs
        return obs.tracing if obs is not None else None

    def prepare(self, sim: Simulator, testbed: Testbed) -> None:
        self._sender_host = testbed.sender.name
        self._receiver_host = testbed.receiver.name
        self._link_name = testbed.link.name
        self._feedback_link_name = testbed.feedback_link.name
        if self.obs is not None:
            # Aligns an attached tracer's clock to simulated time.
            sim.attach_observability(self.obs)
            testbed.sender.attach_observability(self.obs)
            testbed.receiver.attach_observability(self.obs)
            testbed.link.attach_observability(self.obs)
            testbed.feedback_link.attach_observability(self.obs)

    # -- Version interface -----------------------------------------------------

    def sender_share(self, event: object) -> SenderShare:
        result = self.modulator.process(event)
        self._pending_mod_span = result.span
        if result.completed:
            return SenderShare(
                payload=None, size=0.0, cycles=result.cycles, info=None
            )
        if result.message is None:  # filtered at the sender
            return SenderShare(
                payload=None, size=0.0, cycles=result.cycles, info=None
            )
        size = float(self.partitioned.codec.size(result.message))
        if self.quality is not None:
            # Hindsight pricing of the split this message actually took,
            # plus the wire-bytes drift channel (predicted INTER size vs.
            # the continuation's real serialized size).
            self.quality.observe_message(result.edge, self.profiling)
            self.quality.observe_ship_bytes(
                result.edge, size, self.profiling.messages_seen
            )
        tracer = self.obs.tracing if self.obs is not None else None
        if tracer is not None:
            tracer.observe_pse(result.message.slot.pse_id, size=size)
        return SenderShare(
            payload=result.message,
            size=size,
            cycles=result.cycles,
            info=result.edge,
        )

    def receiver_share(self, payload: object) -> ReceiverShare:
        outcome = self.demodulator.process(payload)
        self._pending_demod_span = outcome.span
        return ReceiverShare(cycles=outcome.cycles, info=outcome.edge)

    def on_sender_done(
        self,
        share: SenderShare,
        service_time: float,
        sim: Simulator,
        testbed: Testbed,
    ) -> None:
        recorder = self.sender_proxy or self.profiling
        if share.cycles > 0:
            recorder.record_sender_rate(service_time, share.cycles)
        if (
            self.quality is not None
            and share.info is not None
            and share.cycles > 0
        ):
            self.quality.observe_mod_time(
                share.info, service_time, self.profiling.messages_seen
            )
        span = self._pending_mod_span
        if span is not None:
            self._pending_mod_span = None
            # Snap the modulate span to the host's actual service window.
            self._tracer().retime(
                span,
                sim.now - service_time,
                sim.now,
                host=self._sender_host,
            )
        if self.sender_proxy is not None:
            self._maybe_flush_feedback(sim, testbed)
        if self.location == "sender":
            self._maybe_reconfigure(sim, testbed)

    def _maybe_flush_feedback(self, sim: Simulator, testbed: Testbed) -> None:
        """Ship the folded sender-side observations over the feedback link."""
        proxy = self.sender_proxy
        if proxy.messages_seen == 0 or (
            proxy.messages_seen % self.feedback_period != 0
        ):
            return
        if proxy.pending == 0:
            return
        from repro.core.runtime.feedback import ingest

        payload, size = proxy.flush()
        self.feedback_bytes += size
        self.feedback_messages += 1
        # Sender-side observations travel WITH the data (forward link),
        # sharing its bandwidth — monitoring traffic is not free.
        arrival = testbed.link.delivery_time(size)
        tracer = self._tracer()
        ingest_ctx = None
        if tracer is not None:
            trace_id = tracer.start_trace(force=True)
            flush_span = tracer.record(
                "feedback.flush",
                trace_id=trace_id,
                start=sim.now,
                end=sim.now,
                host=self._sender_host,
                attrs={"records": payload.records, "bytes": size},
            )
            ship_span = tracer.record(
                "feedback.ship",
                trace_id=trace_id,
                parent_id=flush_span.span_id,
                start=sim.now,
                end=arrival,
                host=self._link_name,
                attrs={"bytes": size},
            )
            ingest_ctx = (trace_id, ship_span.span_id)

        def _ingest(_v, p=payload, ctx=ingest_ctx, at=arrival):
            if ctx is not None:
                # Clamp to the ship span's end: rescheduling through the
                # event heap can round the fire time fractionally early.
                t = max(sim.now, at)
                tracer.record(
                    "feedback.ingest",
                    trace_id=ctx[0],
                    parent_id=ctx[1],
                    start=t,
                    end=t,
                    host=self._receiver_host,
                    attrs={"records": p.records},
                )
            ingest(self.profiling, p)

        sim.schedule(arrival - sim.now, _ingest, None)

    def on_receiver_done(
        self,
        share: ReceiverShare,
        service_time: float,
        sim: Simulator,
        testbed: Testbed,
    ) -> None:
        if share.cycles > 0:
            self.profiling.record_receiver_rate(service_time, share.cycles)
        if (
            self.quality is not None
            and share.info is not None
            and share.cycles > 0
        ):
            self.quality.observe_demod_time(
                share.info, service_time, self.profiling.messages_seen
            )
        span = self._pending_demod_span
        if span is not None:
            self._pending_demod_span = None
            tracer = self._tracer()
            # The demodulator cannot start before the message arrived;
            # clamping absorbs the rounding in ``now - service_time``.
            start = sim.now - service_time
            if self._pending_ship_end is not None:
                start = max(start, self._pending_ship_end)
                self._pending_ship_end = None
            tracer.retime(
                span,
                start,
                sim.now,
                host=self._receiver_host,
            )
            pse_id = span.attrs.get("pse") if span.attrs else None
            if pse_id is not None:
                tracer.observe_pse(pse_id, latency=service_time)
        if self.location == "receiver":
            self._maybe_reconfigure(sim, testbed)

    def on_transfer(
        self,
        size: float,
        seconds: float,
        payload: object = None,
        sent_at: float = None,
    ) -> None:
        model = self.partitioned.cut.cost_model
        observe = getattr(model, "observe_transfer", None)
        if observe is not None:
            observe(size, seconds)
        tracer = self._tracer()
        if tracer is not None and payload is not None:
            ctx = getattr(payload, "trace", None)
            if ctx is not None:
                # The tracer's clock is the simulator's now (prepare()),
                # so the transfer window closes at pickup.  ``sent_at`` is
                # the exact departure time; deriving it as now - seconds
                # reintroduces rounding below the modulate span's end.
                now = tracer.clock()
                start = sent_at if sent_at is not None else now - seconds
                span = tracer.record(
                    "ship",
                    trace_id=ctx[0],
                    parent_id=ctx[1],
                    start=start,
                    end=now,
                    host=self._link_name,
                    attrs={"bytes": size},
                )
                # Re-parent the demodulate span under the ship span.
                payload.trace = (ctx[0], span.span_id)
                self._pending_ship_end = now

    def _maybe_reconfigure(self, sim: Simulator, testbed: Testbed) -> None:
        if self.reconfig is None:
            return
        plan = self.reconfig.consider(self.profiling)
        if plan is None:
            return
        if (
            self.modulator.plan_runtime.current_plan is not None
            and plan.active == self.modulator.plan_runtime.current_plan.active
        ):
            return  # nothing to change; no update shipped
        if self.location == "sender":
            # Co-located with the modulator: flip the flags directly.
            self.modulator.apply_plan(plan)
        else:
            # The new plan travels to the sender over the feedback link.
            arrival = testbed.feedback_link.delivery_time(_PLAN_UPDATE_BYTES)
            self.feedback_bytes += _PLAN_UPDATE_BYTES
            tracer = self._tracer()
            apply_ctx = None
            if tracer is not None and self.reconfig.last_trace_ctx is not None:
                ctx = self.reconfig.last_trace_ctx
                ship_span = tracer.record(
                    "plan.ship",
                    trace_id=ctx[0],
                    parent_id=ctx[1],
                    start=sim.now,
                    end=arrival,
                    host=self._feedback_link_name,
                    attrs={"bytes": _PLAN_UPDATE_BYTES},
                )
                apply_ctx = (ctx[0], ship_span.span_id)

            def _apply(_v, p=plan, ctx=apply_ctx, at=arrival):
                if ctx is not None:
                    t = max(sim.now, at)
                    tracer.record(
                        "plan.apply",
                        trace_id=ctx[0],
                        parent_id=ctx[1],
                        start=t,
                        end=t,
                        host=self._sender_host,
                        attrs={"plan": p.name},
                    )
                self.modulator.apply_plan(p)

            sim.schedule(arrival - sim.now, _apply, None)
        self.plan_updates_applied += 1
