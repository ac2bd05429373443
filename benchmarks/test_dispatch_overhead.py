"""Dispatch-overhead microbenchmark: both execution backends.

Measures messages/sec of a full modulator + demodulator round over a
dispatch-bound handler — arithmetic-heavy IR with cheap natives, so the
interpreter's per-instruction dispatch dominates and the codegen
backend's advantage is isolated.  Two series: the tree walker and the
source-codegen backend (the default).  Emits a
machine-readable summary to ``benchmarks/results/BENCH_dispatch.json``
for CI artifact upload.

Marked ``bench``: not part of the tier-1 suite (``testpaths`` covers
``tests/`` only); run explicitly with ``pytest benchmarks/ -m bench``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.ir.registry import default_registry
from repro.serialization import SerializerRegistry

pytestmark = pytest.mark.bench

#: arithmetic-heavy handler: ~10 IR instructions per loop iteration, one
#: receiver-pinned emit at the end (so a split always happens)
HANDLER_SOURCE = """
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

N_ITERS = 150
N_MESSAGES = 150
ROUNDS = 5
#: codegen over the tree walker; the product of the two gates this one
#: replaced (a retired closure backend ≥ 2.0x tree, codegen ≥ 1.4x it)
MIN_SPEEDUP = 2.8


def _build(backend):
    sink = []
    registry = default_registry()
    registry.register_function(
        "emit", sink.append, receiver_only=True, pure=False
    )
    partitioner = MethodPartitioner(
        registry, SerializerRegistry(), backend=backend
    )
    partitioned = partitioner.partition(
        HANDLER_SOURCE, DataSizeCostModel(), constants={"N_ITERS": N_ITERS}
    )
    return partitioned, sink


def _throughput(backend):
    """Best-of-ROUNDS messages/sec for one backend; returns (rate, sink)."""
    partitioned, sink = _build(backend)
    modulator = partitioned.make_modulator()
    demodulator = partitioned.make_demodulator()

    def round_trip(value):
        result = modulator.process(value)
        if result.message is not None:
            demodulator.process(result.message)

    round_trip(0)  # warm-up: compile, mask build, plan resolution
    sink.clear()
    best = 0.0
    for _ in range(ROUNDS):
        del sink[:]
        start = time.perf_counter()
        for i in range(N_MESSAGES):
            round_trip(i)
        elapsed = time.perf_counter() - start
        best = max(best, N_MESSAGES / elapsed)
    return best, list(sink)


def test_codegen_dispatch_speedup(results_dir, record_result):
    tree_rate, tree_sink = _throughput("tree")
    codegen_rate, codegen_sink = _throughput("codegen")
    # identical results first — a fast wrong answer is no speedup
    assert codegen_sink == tree_sink
    speedup = codegen_rate / tree_rate

    payload = {
        "benchmark": "dispatch_overhead",
        "handler_iters": N_ITERS,
        "n_messages": N_MESSAGES,
        "rounds": ROUNDS,
        "backends": {
            "tree": {"messages_per_sec": round(tree_rate, 1)},
            "codegen": {"messages_per_sec": round(codegen_rate, 1)},
        },
        "codegen_speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }
    (results_dir / "BENCH_dispatch.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_result(
        "dispatch_overhead",
        (
            f"tree walker:      {tree_rate:10.1f} msg/s\n"
            f"source-codegen:   {codegen_rate:10.1f} msg/s\n"
            f"codegen speedup:  {speedup:10.2f}x"
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"codegen backend only {speedup:.2f}x over tree "
        f"(required {MIN_SPEEDUP}x)"
    )
