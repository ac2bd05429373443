"""The five workloads: what each builds, generates and expects.

Every workload runs the same load shape (see ``run.py``); they differ
in which layer's cost dominates a message.  ``why`` is the reason the
workload exists and is copied into ``BENCHMARK.json``.

The seed drives event *content and order* only: the program under test
is handed the generated events and nothing else.  Both processes build
the same partitioned handler from the same source, so plans travel as
bare edge sets, exactly as in ``repro.net.live``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import reference
from repro.apps.imagestream.app import build_partitioned_push
from repro.apps.imagestream.data import ImageFrame
from repro.apps.sensor.data import SensorReading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.core.partitioned import PartitionedMethod
from repro.core.plan import PartitioningPlan, receiver_heavy_plan
from repro.ir.registry import default_registry
from repro.serialization import SerializerRegistry

#: same calibrated seconds-per-cycle on both sides of ``sensor_shift``:
#: a per-process timed calibration makes the plan choice bimodal across
#: runs (see README, "hazards"), a constant leaves it to profiled cycles
SENSOR_RATE = 2e-8
SENSOR_SAMPLES = 64
SENSOR_STAGES = 20
#: ``sensor_shift`` toggles the receiver's rate_scale between these
#: every SHIFT_EVERY demodulated messages of the paced phase
SHIFT_SCALES = (4.0, 0.25)
SHIFT_EVERY = 300
#: 256 x 256 = 65 KB.  262 KB frames (512 x 512) were sized first: their
#: throughput swung 35 % run to run with the host's memory traffic,
#: 65 KB ones 7 %
FRAME_EDGE = 256

#: the arithmetic handler of ``benchmarks/test_dispatch_overhead.py``
ARITH_SOURCE = """
def handle(x):
    acc = 0
    i = 0
    while i < N_ITERS:
        a = i * 3 + x
        b = a % 7
        acc = acc + a - b
        i = i + 1
    emit(acc)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which handler: "sensor", "arith" or "image"
    handler: str
    #: open-loop rate of the paced phase, messages per second
    paced_rate: float
    #: closed-loop bound on published - delivered
    window: int = 32
    #: False keeps the adaptation loop live (RateTrigger(10))
    static: bool = True
    #: one entry per subscriber: where on each path its plan splits
    #: ("first", "middle" or "last"); more than one means the broker
    subscribers: Tuple[str, ...] = ("first",)
    #: loop iterations of the arithmetic handler
    n_iters: int = 0
    #: distinct pre-generated events the seed orders
    pool_size: int = 256

    @property
    def fanout(self) -> int:
        return len(self.subscribers)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="sensor_shift",
        why="adaptation loop live on the sensor chain: the only load "
        "where profiling, feedback, trigger, min-cut and PLAN ship do "
        "real work",
        handler="sensor",
        paced_rate=400.0,
        static=False,
    ),
    Workload(
        name="small_flood",
        why="trivial handler and 120-byte frames: every layer's fixed "
        "per-message cost dominates, handler compute is about zero",
        handler="arith",
        paced_rate=2000.0,
        n_iters=2,
    ),
    Workload(
        name="dispatch_bound",
        why="150-iteration arithmetic loop: IR dispatch is most of a "
        "message, so a backend change shows here and a wire change "
        "should not",
        handler="arith",
        paced_rate=400.0,
        n_iters=150,
    ),
    Workload(
        name="bulk_frames",
        why="65 KB pass-through frames: per-byte cost (serialize, copy, "
        "decode) dominates, the opposite use of net from small_flood",
        handler="image",
        paced_rate=300.0,
        window=16,
        pool_size=16,
    ),
    Workload(
        name="fanout4_mixed",
        why="sensor chain through the broker to 4 receivers on mixed "
        "splits: the only path through net.broker (shared run, forks, "
        "4 ships per publish)",
        handler="sensor",
        paced_rate=200.0,
        subscribers=("middle", "middle", "last", "last"),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# -- sinks ----------------------------------------------------------------------


class Sink:
    """The handler's receiver-pinned native: counts, stamps, digests.

    Keeps one timestamp and one 64-bit digest per delivery — never the
    delivered value.  ``on_delivery(total)`` lets the owning process
    publish its running total (the receiver's shared counter).
    """

    def __init__(
        self,
        handler: str,
        clock: Callable[[], float],
        on_delivery: Optional[Callable[["Sink"], None]] = None,
    ) -> None:
        self.count = 0
        self.stamps = array("d")
        self.digests = array("Q")
        self._clock = clock
        self._on_delivery = on_delivery
        self._digest = {
            "sensor": reference.digest_floats,
            "arith": reference.digest_int,
            "image": self._digest_frame,
        }[handler]

    def _digest_frame(self, frame: ImageFrame) -> int:
        return reference.digest_frame(
            frame.width,
            frame.height,
            frame.pixels,
            reference.frame_check_is_full(self.count),
        )

    def __call__(self, result: object) -> None:
        self.stamps.append(self._clock())
        self.digests.append(self._digest(result))
        self.count += 1
        if self._on_delivery is not None:
            self._on_delivery(self)

    def reset(self) -> None:
        self.count = 0
        del self.stamps[:]
        del self.digests[:]


# -- building the program ----------------------------------------------------------


def build_partitioned(workload: Workload, sink: Sink) -> PartitionedMethod:
    """Partition the workload's handler around *sink*.

    No ``backend=`` is passed anywhere: the benchmark measures the
    library's default backend.
    """
    if workload.handler == "sensor":
        partitioned, _ = build_partitioned_process(
            n_stages=SENSOR_STAGES, sink=sink
        )
        return partitioned
    if workload.handler == "image":
        partitioned, _ = build_partitioned_push(
            display_size=FRAME_EDGE, display=sink
        )
        return partitioned
    registry = default_registry()
    registry.register_function(
        "emit", sink, receiver_only=True, pure=False
    )
    partitioner = MethodPartitioner(registry, SerializerRegistry())
    return partitioner.partition(
        ARITH_SOURCE,
        DataSizeCostModel(),
        constants={"N_ITERS": workload.n_iters},
    )


def positional_plan(cut, position: str) -> PartitioningPlan:
    """Per TargetPath, activate its first, middle or last PSE."""
    if position == "first":
        return receiver_heavy_plan(cut)
    active = set()
    for path, edges in cut.path_pse_edges:
        order = {e: i for i, e in enumerate(path.edges)}
        ranked = sorted(edges, key=lambda e: order.get(e, 1 << 30))
        if ranked:
            pick = len(ranked) // 2 if position == "middle" else -1
            active.add(ranked[pick])
    return PartitioningPlan(active=frozenset(active), name=position)


# -- generating events and what they must deliver -------------------------------------


def make_pool(
    workload: Workload, seed: int
) -> Tuple[List[object], List[Tuple[int, int]]]:
    """``pool_size`` events from *seed* and each one's expected digests.

    Digests come as ``(usual, full)`` pairs; they differ only for
    frames, whose every Nth delivery is checked in full.
    """
    rng = random.Random(seed)
    events: List[object] = []
    digests: List[Tuple[int, int]] = []
    for index in range(workload.pool_size):
        if workload.handler == "sensor":
            samples = [rng.uniform(-1.0, 1.0) for _ in range(SENSOR_SAMPLES)]
            events.append(SensorReading(samples, seq=index))
            d = reference.digest_floats(
                reference.sensor_reference(samples, SENSOR_STAGES)
            )
            digests.append((d, d))
        elif workload.handler == "arith":
            x = rng.randrange(1 << 20)
            events.append(x)
            d = reference.digest_int(
                reference.arith_reference(x, workload.n_iters)
            )
            digests.append((d, d))
        else:
            pixels = rng.randbytes(FRAME_EDGE * FRAME_EDGE)
            events.append(ImageFrame(FRAME_EDGE, FRAME_EDGE, pixels))
            out = reference.image_reference(
                FRAME_EDGE, FRAME_EDGE, pixels, FRAME_EDGE
            )
            digests.append(
                (
                    reference.digest_frame(*out, full=False),
                    reference.digest_frame(*out, full=True),
                )
            )
    return events, digests


def count_wrong(
    workload: Workload,
    delivered: Sequence[int],
    order: Sequence[int],
    pool_digests: Sequence[Tuple[int, int]],
) -> int:
    """Deliveries whose digest differs from the reference's.

    Delivery ``i`` of a subscriber must be the result of published
    message ``i`` (one connection, FIFO), which carried pooled event
    ``order[i]``.
    """
    wrong = 0
    for i, got in enumerate(delivered):
        usual, full = pool_digests[order[i % len(order)]]
        is_full = workload.handler == "image" and (
            reference.frame_check_is_full(i)
        )
        if got != (full if is_full else usual):
            wrong += 1
    return wrong
