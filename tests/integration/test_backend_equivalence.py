"""Differential suite: the codegen backend is byte-identical to the tree
walker.

Every sample application handler is pushed through a modulator/demodulator
pair under both execution backends, across every usable partitioning plan
— including a single-edge plan for each non-poisoned PSE, so resume from a
continuation is exercised at every split point.  Compared per message:

* every :class:`ModulatorResult` field (completed/value/edge/cycles/elided),
* the encoded continuation **bytes** (covers variable values *and* dict
  ordering),
* every :class:`DemodulatorResult` field after resuming,
* the receiver-pinned sink logs,
* the interpreter's observability counters,
* the full span sequence of an attached tracer (names, ids, parentage,
  attributes) — timestamps excluded, since only those may differ.
"""

from __future__ import annotations

import pytest

from repro.apps.harness import run_pipeline
from repro.apps.imagestream.app import build_partitioned_push
from repro.apps.imagestream.data import scenario_stream
from repro.apps.imagestream.versions import make_mp_image_version
from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.apps.sensor.versions import make_mp_sensor_version
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.core.plan import (
    PartitioningPlan,
    receiver_heavy_plan,
    sender_heavy_plan,
    static_optimal_plan,
    validate_plan,
)
from repro.errors import InvalidPlanError
from repro.obs import Observability
from repro.serialization import SerializerRegistry
from repro.simnet import Simulator, intel_pair, wireless_testbed
from tests.conftest import PUSH_SOURCE, ImageData

BACKENDS = ("tree", "codegen")


def _all_plans(cut):
    """The named plans plus one single-edge plan per usable PSE."""
    plans = [
        sender_heavy_plan(cut),
        static_optimal_plan(cut),
        receiver_heavy_plan(cut),
    ]
    for edge in sorted(cut.pses):
        plan = PartitioningPlan(active=frozenset({edge}), name=f"only-{edge}")
        try:
            validate_plan(cut, plan)
        except InvalidPlanError:
            continue
        plans.append(plan)
    return plans


def _span_signature(obs):
    """The tracer's span sequence minus timestamps (wall-clock here)."""
    return [
        (
            span["trace"],
            span["span"],
            span["parent"],
            span["name"],
            span["host"],
            tuple(sorted((span.get("attrs") or {}).items())),
        )
        for span in obs.tracing.to_dict()["spans"]
    ]


def _trace(partitioned, events):
    """Full observable behaviour of one backend build over all plans."""
    obs = Observability()
    obs.enable_tracing(sampling_rate=1.0)
    partitioned.interpreter.attach_observability(obs)
    log = []
    for plan in _all_plans(partitioned.cut):
        profiling = partitioned.make_profiling_unit(sample_period=1)
        modulator = partitioned.make_modulator(
            plan=plan, profiling=profiling, obs=obs
        )
        demodulator = partitioned.make_demodulator(
            profiling=profiling, obs=obs
        )
        for event in events:
            mres = modulator.process(event)
            entry = {
                "plan": plan.name,
                "completed": mres.completed,
                "value": mres.value,
                "edge": mres.edge,
                "cycles": mres.cycles,
                "elided": mres.elided,
                "wire": None,
                "demod": None,
            }
            if mres.message is not None:
                entry["wire"] = partitioned.codec.encode(mres.message)
                dres = demodulator.process(mres.message)
                entry["demod"] = (dres.value, dres.edge, dres.cycles)
            log.append(entry)
    counters = obs.metrics.to_dict()["counters"]
    return log, counters, _span_signature(obs)


def _assert_equivalent(build, events, snapshot_sink):
    traces = {}
    sinks = {}
    for backend in BACKENDS:
        partitioned, sink = build(backend)
        assert partitioned.interpreter.backend == backend
        traces[backend] = _trace(partitioned, events)
        sinks[backend] = snapshot_sink(sink)
    tree_log, tree_counters, tree_spans = traces["tree"]
    log, counters, spans = traces["codegen"]
    assert any(span[3] == "modulate" for span in tree_spans)
    assert len(tree_log) == len(log)
    for tree_entry, entry in zip(tree_log, log):
        assert tree_entry == entry
    assert tree_counters == counters
    # identical span sequences: names, trace/span ids, parentage, attrs
    assert tree_spans == spans
    assert sinks["tree"] == sinks["codegen"]


# -- the paper's running example (Appendix A push, data-size model) ----------


def _build_paper_push(backend):
    from repro.ir.registry import default_registry

    log = []
    registry = default_registry()
    registry.register_class(ImageData)
    registry.register_function(
        "display_image", log.append, receiver_only=True, pure=False
    )
    serializer_registry = SerializerRegistry()
    serializer_registry.register(ImageData, fields=("width", "buff"))
    partitioner = MethodPartitioner(
        registry, serializer_registry, backend=backend
    )
    return partitioner.partition(PUSH_SOURCE, DataSizeCostModel()), log


def test_paper_push_equivalence():
    events = [
        ImageData(None, 60, 60),
        ImageData(None, 100, 100),
        ImageData(None, 200, 200),
        "not-an-image",  # isinstance-False path: completes in the sender
    ]
    _assert_equivalent(
        _build_paper_push,
        events,
        lambda log: [(img.width, img.buff) for img in log],
    )


# -- the imagestream application (Table 2 handler) ---------------------------


def test_imagestream_equivalence():
    events = scenario_stream("mixed", 6, seed=5) + ["bogus"]
    _assert_equivalent(
        lambda backend: build_partitioned_push(backend=backend),
        events,
        lambda sink: [(f.width, f.height, f.pixels) for f in sink.frames],
    )


# -- the sensor application (Tables 3-4 handler, 21 PSEs) --------------------


def test_sensor_equivalence():
    events = [make_reading(i) for i in range(3)] + ["bogus"]
    _assert_equivalent(
        lambda backend: build_partitioned_process(backend=backend),
        events,
        lambda sink: list(sink.results),
    )


# -- full simulated pipelines (adaptation loop included) ---------------------


def test_sensor_pipeline_backend_parity():
    """The whole adaptive pipeline — profiling, triggers, plan switches —
    is deterministic and backend-independent."""
    outcomes = {}
    for backend in BACKENDS:
        sim = Simulator()
        testbed = intel_pair(sim, seed=3)
        version = make_mp_sensor_version(backend=backend)
        result = run_pipeline(testbed, version, [make_reading(i) for i in range(40)])
        outcomes[backend] = (
            result.n_delivered,
            result.bytes_sent,
            result.avg_processing_time,
            version.plan_updates_applied,
            version.sink.results,
        )
    assert outcomes["tree"] == outcomes["codegen"]


def test_imagestream_pipeline_backend_parity():
    frames = scenario_stream("mixed", 40, seed=11)
    outcomes = {}
    for backend in BACKENDS:
        sim = Simulator()
        testbed = wireless_testbed(sim)
        version = make_mp_image_version(backend=backend)
        result = run_pipeline(testbed, version, list(frames))
        outcomes[backend] = (
            result.n_delivered,
            result.bytes_sent,
            result.avg_processing_time,
            version.plan_updates_applied,
            [(f.width, f.height, f.pixels) for f in version.display.frames],
        )
    assert outcomes["tree"] == outcomes["codegen"]
