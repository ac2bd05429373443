"""The four Table 3/4 implementations of the sensor application.

* :class:`ConsumerVersion` — all processing inside the consumer.
* :class:`ProducerVersion` — all processing inside the producer.
* :class:`DividedVersion` — a fixed split "into two roughly equal parts
  that run in parallel on producer and consumer"; equal in *stage count*,
  which (stage costs rising along the chain) is not equal in work — the
  imbalance Method Partitioning's finer placement beats.
* :func:`make_mp_sensor_version` — the adaptive Method Partitioning
  implementation under the execution-time cost model.

All versions perform the same real stage computations and pay cycles from
the same cost functions, so differences isolate split placement and
adaptivity.
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.harness import ReceiverShare, SenderShare, Version
from repro.apps.mp_version import MethodPartitioningVersion
from repro.apps.sensor.data import SensorReading
from repro.apps.sensor.pipeline import (
    DELIVER_CYCLES,
    N_STAGES,
    DeliverySink,
    build_partitioned_process,
    extract,
    finalize,
    stage,
    stage_cycles,
)
from repro.core.costmodels import NetworkParameters
from repro.core.runtime.triggers import CompositeTrigger, DiffTrigger, RateTrigger
from repro.ir.interpreter import DEFAULT_BACKEND
from repro.serialization import SerializerRegistry, measure_size

#: sender-side dispatch/type-check cycles in the manual versions
_DISPATCH_CYCLES = 5.0
_EXTRACT_CYCLES = 5.0
_FINALIZE_CYCLES_PER_SAMPLE = 2.0


def _reading_registry() -> SerializerRegistry:
    registry = SerializerRegistry()
    registry.register(SensorReading, fields=("samples", "seq"))
    return registry


def _run_stages(data: List[float], first: int, last: int) -> "tuple[List[float], float]":
    """Run stages [first, last) for real; return (data, cycles)."""
    cycles = 0.0
    for k in range(first, last):
        cycles += stage_cycles(data, k)
        data = stage(data, k)
    return data, cycles


class ConsumerVersion(Version):
    """Ship the raw reading; every stage runs at the consumer."""

    name = "Consumer Version"

    def __init__(
        self,
        *,
        n_stages: int = N_STAGES,
        sink: Optional[DeliverySink] = None,
    ) -> None:
        self.n_stages = n_stages
        self.sink = sink or DeliverySink()
        self._sreg = _reading_registry()

    def sender_share(self, event: object) -> SenderShare:
        if not isinstance(event, SensorReading):
            return SenderShare(payload=None, size=0.0, cycles=_DISPATCH_CYCLES)
        size = float(measure_size(event, self._sreg))
        return SenderShare(payload=event, size=size, cycles=_DISPATCH_CYCLES)

    def receiver_share(self, payload: SensorReading) -> ReceiverShare:
        data = extract(payload)
        data, cycles = _run_stages(data, 0, self.n_stages)
        result = finalize(data)
        self.sink(result)
        cycles += (
            _EXTRACT_CYCLES
            + len(data) * _FINALIZE_CYCLES_PER_SAMPLE
            + DELIVER_CYCLES
        )
        return ReceiverShare(cycles=cycles)


class ProducerVersion(Version):
    """Every stage runs at the producer; ship the small result."""

    name = "Producer Version"

    def __init__(
        self,
        *,
        n_stages: int = N_STAGES,
        sink: Optional[DeliverySink] = None,
    ) -> None:
        self.n_stages = n_stages
        self.sink = sink or DeliverySink()
        self._sreg = _reading_registry()

    def sender_share(self, event: object) -> SenderShare:
        if not isinstance(event, SensorReading):
            return SenderShare(payload=None, size=0.0, cycles=_DISPATCH_CYCLES)
        data = extract(event)
        data, cycles = _run_stages(data, 0, self.n_stages)
        result = finalize(data)
        cycles += (
            _DISPATCH_CYCLES
            + _EXTRACT_CYCLES
            + len(data) * _FINALIZE_CYCLES_PER_SAMPLE
        )
        size = float(measure_size(result, self._sreg))
        return SenderShare(payload=result, size=size, cycles=cycles)

    def receiver_share(self, payload: List[float]) -> ReceiverShare:
        self.sink(payload)
        return ReceiverShare(cycles=DELIVER_CYCLES)


class DividedVersion(Version):
    """A fixed split at the stage-count midpoint."""

    name = "Divided Version"

    def __init__(
        self,
        *,
        n_stages: int = N_STAGES,
        split_stage: Optional[int] = None,
        sink: Optional[DeliverySink] = None,
    ) -> None:
        self.n_stages = n_stages
        self.split_stage = (
            split_stage if split_stage is not None else n_stages // 2
        )
        self.sink = sink or DeliverySink()
        self._sreg = _reading_registry()

    def sender_share(self, event: object) -> SenderShare:
        if not isinstance(event, SensorReading):
            return SenderShare(payload=None, size=0.0, cycles=_DISPATCH_CYCLES)
        data = extract(event)
        data, cycles = _run_stages(data, 0, self.split_stage)
        cycles += _DISPATCH_CYCLES + _EXTRACT_CYCLES
        size = float(measure_size(data, self._sreg))
        return SenderShare(payload=data, size=size, cycles=cycles)

    def receiver_share(self, payload: List[float]) -> ReceiverShare:
        data, cycles = _run_stages(payload, self.split_stage, self.n_stages)
        result = finalize(data)
        self.sink(result)
        cycles += len(data) * _FINALIZE_CYCLES_PER_SAMPLE + DELIVER_CYCLES
        return ReceiverShare(cycles=cycles)


def make_mp_sensor_version(
    *,
    n_stages: int = N_STAGES,
    sink: Optional[DeliverySink] = None,
    network: Optional[NetworkParameters] = None,
    sample_period: int = 1,
    adaptive: bool = True,
    obs=None,
    backend: str = DEFAULT_BACKEND,
) -> MethodPartitioningVersion:
    """The Method Partitioning implementation for Tables 3-4 / Figs 7-8.

    Load changes surface in the profiled side rates, so a diff trigger on
    them drives re-balancing; a rate trigger is the safety net.
    """
    partitioned, sink = build_partitioned_process(
        n_stages=n_stages, sink=sink, network=network, backend=backend
    )
    trigger = CompositeTrigger(
        DiffTrigger(threshold=0.2, min_interval=2), RateTrigger(period=25)
    )
    version = MethodPartitioningVersion(
        partitioned,
        trigger=trigger,
        sample_period=sample_period,
        ewma_alpha=0.4,
        adaptive=adaptive,
        location="receiver",
        obs=obs,
    )
    version.sink = sink
    return version
