"""Real-network transport for the Method Partitioning runtime.

The paper evaluates over JECho on a live LAN/WLAN testbed; this package
is the reproduction's equivalent — envelopes crossing actual sockets
instead of an in-process callback or a simulated link:

* :mod:`repro.net.framing` — length-prefixed frames over the
  :mod:`repro.serialization` wire format, plus the envelope codec that
  maps every JECho envelope kind (data, continuation, feedback,
  plan-ship) and the transport control frames (hello, heartbeat, bye)
  to frame payloads;
* :mod:`repro.net.tcp` — an asyncio TCP :class:`~repro.jecho.Transport`
  with per-peer connection pooling, connect/send timeouts, exponential
  backoff with jitter on reconnect, bounded outbound queues with
  drop-oldest backpressure, and heartbeats, plus the frame server the
  receiving side listens with;
* :mod:`repro.net.endpoint` — sender/receiver endpoints wiring a
  :class:`~repro.core.partitioned.PartitionedMethod` to the transport:
  the full adaptation loop (profiling feedback, trigger, min-cut
  recompute, plan shipped back over the wire) across two OS processes;
* :mod:`repro.net.broker` — the one publish path: one modulator
  publishing to N subscribers, each on its own active PSE, with
  modulation shared up to the deepest common split and forked per peer
  (the endpoint's sender is this broker with N = 1);
* :mod:`repro.net.session` — the sans-I/O per-peer control plane of
  every subscriber: PLAN dedupe/defer/apply, breaker-driven retraction
  and re-split, health feed, telemetry ingest, feedback flush;
* :mod:`repro.net.live` — the runnable per-process halves of the live
  harness (``python -m repro.net.live publisher|receiver``; a
  two-process run is a publisher with one ``--ports`` entry),
  orchestrated by :mod:`repro.tools.liveexp`.
"""

from repro.net.framing import (
    FrameDecoder,
    KIND_BYE,
    KIND_CONT,
    KIND_EVENT,
    KIND_FEEDBACK,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_PLAN,
    NetEnvelopeCodec,
    PROTOCOL_VERSION,
    encode_frame,
)
from repro.net.tcp import FrameServer, TcpPeer, TcpTransport
from repro.net.endpoint import NetReceiverEndpoint, NetSenderEndpoint
from repro.net.broker import NetBrokerEndpoint, PlanRuntimeCache
from repro.net.session import PeerSession

__all__ = [
    "NetSenderEndpoint",
    "NetReceiverEndpoint",
    "NetBrokerEndpoint",
    "PeerSession",
    "PlanRuntimeCache",
    "FrameDecoder",
    "encode_frame",
    "NetEnvelopeCodec",
    "PROTOCOL_VERSION",
    "KIND_HELLO",
    "KIND_EVENT",
    "KIND_CONT",
    "KIND_FEEDBACK",
    "KIND_PLAN",
    "KIND_HEARTBEAT",
    "KIND_BYE",
    "TcpTransport",
    "TcpPeer",
    "FrameServer",
]
