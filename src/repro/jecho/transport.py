"""Transports: how envelopes move from sender to receiver.

* :class:`LocalTransport` — synchronous in-process delivery; the examples
  and tests use it to exercise the full modulator/demodulator path without
  a simulator.
* :class:`SimLinkTransport` — delivery through a :class:`repro.simnet.Link`
  with sizes paid on the simulated network; used by the experiment
  harnesses.

Both count messages and bytes so experiments can report traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConnectionLostError, TransportError
from repro.jecho.events import envelope_trace, set_envelope_trace
from repro.simnet.link import Link
from repro.simnet.simulator import Simulator

#: A delivery target: any callable accepting the envelope.
Destination = Callable[[object], None]


class Transport:
    """Base transport with traffic accounting.

    Transport-layer failures raise the typed hierarchy from
    :mod:`repro.errors`: :class:`~repro.errors.TransportError` for
    invalid use, :class:`~repro.errors.ConnectionLostError` for sends on
    a closed transport, :class:`~repro.errors.SendTimeoutError` for
    timed-out sends (networked transports).  Exceptions raised *by the
    destination handler* are application errors and propagate unchanged.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.closed = False
        self.obs = None
        self._h_sizes = None
        #: host lane for ship spans in the trace timeline
        self._trace_host: Optional[str] = None
        #: name of the last attach, so re-attachment can tell whether
        #: ``_trace_host`` was attach-derived or subclass-pinned
        self._obs_name: Optional[str] = None

    def attach_observability(self, obs, *, name: str = "transport") -> None:
        """Report this transport under ``<name>.*``.

        The counts are read when the registry is dumped; only the size
        histogram, which exposes per-message wire overhead, is an
        instrument.  Re-attaching to the same registry changes nothing;
        a new registry counts from zero and the old one keeps its values.
        """
        if self.obs is not None and self.obs is not obs:
            self.obs.metrics.remove_reader(self._read_metrics)
        self.obs = obs
        self._h_sizes = obs.metrics.histogram(f"{name}.message_bytes")
        if self._trace_host is None or self._trace_host == self._obs_name:
            # attach-derived lane (not pinned by a subclass): follow the
            # new name instead of keeping a stale label forever
            self._trace_host = name
        self._obs_name = name
        obs.metrics.add_reader(self._read_metrics)

    def _read_metrics(self) -> Dict[str, Dict[str, float]]:
        name = self._obs_name
        sent = {"messages": self.messages_sent, "bytes": self.bytes_sent}
        return {"counters": {f"{name}.{k}": v for k, v in sent.items()}}

    def close(self) -> None:
        """Release the transport; subsequent sends raise
        :class:`~repro.errors.ConnectionLostError`."""
        self.closed = True

    def send(self, destination: Destination, envelope: object, size: float) -> None:
        if self.closed:
            raise ConnectionLostError(
                f"send on closed transport {type(self).__name__}"
            )
        if size < 0:
            raise TransportError(f"negative message size {size!r}")
        self.messages_sent += 1
        self.bytes_sent += size
        if self._h_sizes is not None:
            self._h_sizes.observe(size)
        tracer = self.obs.tracing if self.obs is not None else None
        if tracer is not None:
            ctx = envelope_trace(envelope)
            if ctx is not None:
                span = tracer.begin(
                    "ship",
                    trace_id=ctx[0],
                    parent_id=ctx[1],
                    host=self._trace_host or "wire",
                    attrs={"bytes": size},
                )
                # Re-parent the receiver side under the ship span so the
                # trace reads modulate → ship → demodulate.
                set_envelope_trace(envelope, (ctx[0], span.span_id))
                self._deliver(destination, envelope, size)
                tracer.end(span, end=self._wire_end())
                return
        self._deliver(destination, envelope, size)

    def _wire_end(self) -> Optional[float]:
        """When delivery is scheduled for later, the arrival instant;
        None means "close at clock() now" (synchronous delivery)."""
        return None

    def _deliver(
        self, destination: Destination, envelope: object, size: float
    ) -> None:
        raise NotImplementedError


class LocalTransport(Transport):
    """Immediate, zero-latency delivery (same process).

    With tracing on, the ship span *encloses* the handler's spans (the
    destination runs synchronously inside it) — correct nesting for a
    zero-latency hop.
    """

    def _deliver(
        self, destination: Destination, envelope: object, size: float
    ) -> None:
        destination(envelope)


class SimLinkTransport(Transport):
    """Delivery over a simulated link; arrival is scheduled on the DES."""

    def __init__(self, sim: Simulator, link: Link) -> None:
        super().__init__()
        self.sim = sim
        self.link = link
        self._trace_host = link.name
        self._last_arrival: Optional[float] = None

    def _wire_end(self) -> Optional[float]:
        return self._last_arrival

    def _deliver(
        self, destination: Destination, envelope: object, size: float
    ) -> None:
        arrival = self.link.delivery_time(size)
        self._last_arrival = arrival
        self.sim.schedule(arrival - self.sim.now, destination, envelope)
