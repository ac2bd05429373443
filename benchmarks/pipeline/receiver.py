"""The receiving process: N ``NetReceiverEndpoint`` on one event loop.

Started by ``run.py`` as a child.  It builds the workload's handler
around counting sinks, listens on ephemeral ports (announced on stdout
as ``LISTENING p1,p2,...``), answers control requests from the parent
(see ``control.py``) and, once every sender said Bye, writes what it
counted to ``--out`` and exits 0.  Diagnostics go to stderr, which the
parent redirects to ``results/<workload>.receiver.stderr``.
"""

from __future__ import annotations

import argparse
import asyncio
import faulthandler
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List

from paths import ensure_src_on_path

ensure_src_on_path()

import repro.net.endpoint as endpoint_module  # noqa: E402
from control import (  # noqa: E402
    MODE_SHIFT,
    MODE_TRACE,
    OFF_ACK,
    OFF_CPU,
    OFF_DELIVERED,
    OFF_MODE,
    OFF_REQUEST,
    ControlBlock,
)
from repro.core.runtime.triggers import RateTrigger  # noqa: E402
from repro.jecho.events import ContinuationEnvelope  # noqa: E402
from repro.net.endpoint import NetReceiverEndpoint  # noqa: E402
from repro.net.framing import FrameDecoder, NetEnvelopeCodec  # noqa: E402
from repro.net.tcp import ServerConnection  # noqa: E402
import stats  # noqa: E402
from spans import Seams, SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    SENSOR_RATE,
    SHIFT_EVERY,
    SHIFT_SCALES,
    Sink,
    Workload,
    build_partitioned,
    positional_plan,
)

#: deliveries between refreshes of the CPU time in the control block
#: (a clock_gettime syscall each; cheap enough at this spacing)
CPU_EVERY = 8
#: how often the control block is polled
POLL_SECONDS = 0.01
#: how long an endpoint gets to stop before the child moves on
STOP_SECONDS = 2.0
#: a child older than this gives up: no run lasts a quarter as long
DEADLINE_SECONDS = 150.0
#: a trigger period no run reaches: the plan of a static workload stays
NEVER = 10**9


class Receiver:
    """Endpoints, sinks and the traced seams of one child process."""

    def __init__(self, workload: Workload, control: ControlBlock) -> None:
        self.workload = workload
        self.control = control
        self.delivered = 0
        self.shifting = False
        self._shift_count = 0
        #: (global delivery index, new rate_scale) per toggle
        self.shifts: List[List[float]] = []
        self.sinks: List[Sink] = []
        self.endpoints: List[NetReceiverEndpoint] = []
        self.recorder = SpanRecorder()
        self.seams = Seams(self.recorder)
        #: counts taken at the traced seams (plain numbers, no spans)
        self.traced: Dict[str, float] = {
            "feeds": 0,
            "frames_fed": 0,
            "considers_fired": 0,
            "consider_fired_s": 0.0,
        }
        self.transit: List[float] = []
        self._compactions: Dict[int, int] = {}
        for index, position in enumerate(workload.subscribers):
            sink = Sink(workload.handler, time.time, self._on_delivery)
            partitioned = build_partitioned(workload, sink)
            endpoint = NetReceiverEndpoint(
                partitioned,
                plan=positional_plan(partitioned.cut, position),
                trigger=RateTrigger(NEVER if workload.static else 10),
                rate_scale=1.0 if workload.static else SHIFT_SCALES[0],
                rate_override=None if workload.static else SENSOR_RATE,
                codec=NetEnvelopeCodec(partitioned.serializer_registry),
                name=f"receiver{index}",
            )
            self.sinks.append(sink)
            self.endpoints.append(endpoint)

    # -- the sink's side effects --------------------------------------------------

    def _on_delivery(self, sink: Sink) -> None:
        self.delivered += 1
        self.control.write_u64(OFF_DELIVERED, self.delivered)
        if not self.delivered % CPU_EVERY:
            self.control.write_f64(OFF_CPU, time.process_time())
        if self.shifting:
            self._shift_count += 1
            if self._shift_count % SHIFT_EVERY == 0:
                endpoint = self.endpoints[0]
                scale = (
                    SHIFT_SCALES[1]
                    if endpoint.rate_scale == SHIFT_SCALES[0]
                    else SHIFT_SCALES[0]
                )
                endpoint.rate_scale = scale
                # the delivery in hand is the first priced at the new scale
                self.shifts.append([sink.count - 1, scale])

    # -- traced seams ----------------------------------------------------------------

    def install_seams(self) -> None:
        seams = self.seams
        traced = self.traced

        def after_feed(frames, _duration, decoder, _data):
            traced["feeds"] += 1
            traced["frames_fed"] += len(frames)
            self._compactions[id(decoder)] = decoder.compactions

        def before_handle(envelope, sent_at, _conn):
            if sent_at > 0 and isinstance(envelope, ContinuationEnvelope):
                self.transit.append(time.time() - sent_at)

        def after_consider(plan, duration, _profiling):
            if plan is not None:
                traced["considers_fired"] += 1
                traced["consider_fired_s"] += duration

        seams.wrap(FrameDecoder, "feed", "framing.feed", after=after_feed)
        seams.wrap_async(ServerConnection, "send", "conn.send")
        seams.wrap(endpoint_module, "ingest", "runtime.ingest")
        for endpoint in self.endpoints:
            codec = endpoint.server.codec
            seams.wrap(codec, "decode", "codec.decode")
            seams.wrap(
                codec._serializer, "deserialize", "serializer.deserialize"
            )
            seams.wrap_async(
                endpoint.server,
                "handler",
                "handler",
                root=True,
                before=before_handle,
            )
            seams.wrap(
                endpoint.demodulator, "process", "demodulator.process"
            )
            seams.wrap(
                endpoint.reconfig,
                "consider",
                "reconfig.consider",
                after=after_consider,
            )

    # -- control requests ---------------------------------------------------------------

    def serve_request(self, number: int) -> None:
        mode = self.control.read_u64(OFF_MODE)
        want_trace = bool(mode & MODE_TRACE)
        if want_trace and not self.seams.installed:
            self.install_seams()
        elif not want_trace:
            self.seams.remove()
        self.shifting = bool(mode & MODE_SHIFT)
        self.control.write_f64(OFF_CPU, time.process_time())
        self.control.write_u64(OFF_ACK, number)

    # -- results ------------------------------------------------------------------------------

    def result(self) -> Dict[str, object]:
        subs = []
        for sink, endpoint in zip(self.sinks, self.endpoints):
            subs.append(
                {
                    "delivered": sink.count,
                    "demodulated": endpoint.demodulated,
                    "duplicates_skipped": endpoint.duplicates_skipped,
                    "feedback_batches": endpoint.feedback_batches,
                    "plan_ships": endpoint.plan_ships,
                    "reconfigurations": len(endpoint.reconfig.history),
                    "sender_reported_sent": endpoint.sender_reported_sent,
                    "frames_received": endpoint.server.frames_received,
                    "framing_errors": endpoint.server.framing_errors,
                }
            )
        self.traced["compactions"] = sum(self._compactions.values())
        transit_p50 = stats.median(self.transit) if self.transit else 0.0
        return {
            "workload": self.workload.name,
            "subscribers": subs,
            "shifts": self.shifts,
            "cpu_s": time.process_time(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "traced": self.traced,
            "transit_us_p50": transit_p50 * 1e6,
            "spans": self.recorder.to_dict(),
        }


async def serve(receiver: Receiver, deadline: float) -> bool:
    """Listen, poll the control block, return once every sender left."""
    ports = []
    for endpoint in receiver.endpoints:
        _, port = await endpoint.start("127.0.0.1", 0)
        ports.append(str(port))
    print("LISTENING " + ",".join(ports), flush=True)
    parent = os.getppid()
    control = receiver.control
    served = control.read_u64(OFF_ACK)
    finished = True
    while not all(e.done.is_set() for e in receiver.endpoints):
        number = control.read_u64(OFF_REQUEST)
        if number != served:
            receiver.serve_request(number)
            served = number
        if os.getppid() != parent or time.monotonic() > deadline:
            print("receiver: parent gone or deadline passed",
                  file=sys.stderr, flush=True)
            finished = False
            break
        await asyncio.sleep(POLL_SECONDS)
    receiver.seams.remove()
    for endpoint in receiver.endpoints:
        # NetReceiverEndpoint.stop() cancels its telemetry task and awaits
        # it; on Python 3.11 a cancel that lands while the task's push is
        # inside wait_for(writer.drain()) is swallowed, the task goes back
        # to sleep and stop() never returns (about 1 shutdown in 40 with
        # four endpoints).  A src/ wart for a bugfix PR; bounded here.
        began = time.monotonic()
        try:
            await asyncio.wait_for(endpoint.stop(), STOP_SECONDS)
        except asyncio.TimeoutError:
            pass
        if time.monotonic() - began >= STOP_SECONDS:
            print(f"receiver: {endpoint.name}.stop() hung on its telemetry "
                  f"task and was cut off after {STOP_SECONDS} s",
                  file=sys.stderr, flush=True)
    return finished


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--control", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    # the parent asks for the stacks when this process outstays its Bye
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    control = ControlBlock(args.control)
    try:
        receiver = Receiver(BY_NAME[args.workload], control)
        finished = asyncio.run(
            serve(receiver, time.monotonic() + DEADLINE_SECONDS)
        )
        for index, sink in enumerate(receiver.sinks):
            with open(f"{args.out}.{index}.digests", "wb") as handle:
                sink.digests.tofile(handle)
            with open(f"{args.out}.{index}.stamps", "wb") as handle:
                sink.stamps.tofile(handle)
        args.out.write_text(json.dumps(receiver.result()))
    finally:
        control.close()
    return 0 if finished else 3


if __name__ == "__main__":
    sys.exit(main())
