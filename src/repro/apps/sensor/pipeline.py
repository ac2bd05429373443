"""The sensor-processing handler: a chain of stages.

The handler is a straight-line chain of processing stages ending in a
receiver-pinned ``deliver``.  Every stage boundary is a candidate split
under the execution-time cost model, which is how the paper's sensor
handler ends up with 21 PSEs "almost all along the same path": Method
Partitioning can place the split at *any* stage boundary — the
fine-grained "loop distribution" that lets it out-balance the manual
Divided version.

Stage costs rise linearly along the chain (later stages are heavier), so
the stage-count midpoint is *not* the work midpoint — the Divided version
splits at stage count, Method Partitioning finds the work balance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.apps.sensor.data import SensorReading
from repro.core.api import MethodPartitioner
from repro.core.costmodels import ExecutionTimeCostModel, NetworkParameters
from repro.core.partitioned import PartitionedMethod
from repro.ir.interpreter import DEFAULT_BACKEND
from repro.ir.registry import FunctionRegistry, default_registry
from repro.serialization import SerializerRegistry

#: number of processing stages in the chain
N_STAGES = 20
#: base cycles per sample per stage
STAGE_CYCLES_PER_SAMPLE = 10.0
#: how much heavier the last stage is than the first (1.0 = uniform)
STAGE_COST_SLOPE = 1.0
#: cycles for the final delivery call
DELIVER_CYCLES = 20.0


def stage_weight(k: int, n_stages: int = N_STAGES) -> float:
    """Relative cost of stage *k*: rises linearly from 1 to 1+slope."""
    if n_stages <= 1:
        return 1.0
    return 1.0 + STAGE_COST_SLOPE * k / (n_stages - 1)


def total_work_cycles(
    n_samples: int, n_stages: int = N_STAGES
) -> float:
    """Total handler cycles for one reading (all stages)."""
    return sum(
        n_samples * STAGE_CYCLES_PER_SAMPLE * stage_weight(k, n_stages)
        for k in range(n_stages)
    )


def stage(data: List[float], k: int) -> List[float]:
    """One real processing stage: a smoothing/offset pass over the block."""
    g = 0.98 - 0.0005 * k
    b = 0.001 * (k + 1)
    return [g * x + b for x in data]


def stage_cycles(data: List[float], k: int) -> float:
    return len(data) * STAGE_CYCLES_PER_SAMPLE * stage_weight(k)


def extract(reading: SensorReading) -> List[float]:
    """Pull the sample block out of a reading."""
    return reading.samples


def finalize(data: List[float]) -> List[float]:
    """Reduce the processed block to a small summary [min, max, mean]."""
    return [min(data), max(data), sum(data) / len(data)]


class DeliverySink:
    """The client's result consumer — receiver-pinned."""

    def __init__(self) -> None:
        self.results: List[List[float]] = []

    def __call__(self, result: List[float]) -> None:
        self.results.append(result)

    def clear(self) -> None:
        self.results.clear()


def make_sensor_handler_source(n_stages: int = N_STAGES) -> str:
    """Generate the chain handler for *n_stages* stages."""
    lines = [
        "def process(event):",
        "    if isinstance(event, SensorReading):",
        "        d = extract(event)",
    ]
    for k in range(n_stages):
        lines.append(f"        d = stage(d, {k})")
    lines.append("        r = finalize(d)")
    lines.append("        deliver(r)")
    return "\n".join(lines) + "\n"


def build_sensor_registries(
    sink: Optional[DeliverySink] = None,
) -> Tuple[FunctionRegistry, SerializerRegistry, DeliverySink]:
    sink = sink or DeliverySink()
    registry = default_registry()
    registry.register_class(SensorReading)
    registry.register_function("extract", extract, pure=True,
                               cycle_cost=lambda r: 5.0)
    registry.register_function("stage", stage, pure=True,
                               cycle_cost=stage_cycles)
    registry.register_function(
        "finalize", finalize, pure=True,
        cycle_cost=lambda d: len(d) * 2.0,
    )
    registry.register_function(
        "deliver", sink, receiver_only=True, pure=False,
        cycle_cost=lambda r: DELIVER_CYCLES,
    )
    serializer_registry = SerializerRegistry()
    serializer_registry.register(SensorReading, fields=("samples", "seq"))
    return registry, serializer_registry, sink


def build_partitioned_process(
    *,
    n_stages: int = N_STAGES,
    sink: Optional[DeliverySink] = None,
    network: Optional[NetworkParameters] = None,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[PartitionedMethod, DeliverySink]:
    """Partition the sensor handler under the execution-time cost model."""
    registry, serializer_registry, sink = build_sensor_registries(sink)
    partitioner = MethodPartitioner(
        registry, serializer_registry, backend=backend
    )
    # n (units) is the stream length: eq. 3's dominant term is n·max, and
    # the α + σβ + σ·min end effects amortize over the whole stream — "the
    # dominant factor in equation (3) is n·max(T_mod(1), T_demod(1))".
    model = ExecutionTimeCostModel(
        network
        or NetworkParameters(alpha=0.0002, beta=0.0004, units=100)
    )
    partitioned = partitioner.partition(
        make_sensor_handler_source(n_stages), model
    )
    return partitioned, sink
