"""A continuation encoded in one process resumes in another whose hash
seed differs.

Sets iterate in an order that depends on ``PYTHONHASHSEED``, which every
process draws anew, so an INTER set's own order differs between a
publisher and its receiver.  The wire carries values by position, so the
order must come from the program text alone: the receiver's resumed run
must compute what the handler computes when run whole.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

#: run as ``python -c SCRIPT encode`` (prints one frame per line) or
#: ``python -c SCRIPT decode`` (reads them, prints the resumed and the
#: reference results per handler)
SCRIPT = r"""
import json
import sys

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.core.plan import PartitioningPlan
from repro.ir.registry import default_registry
from repro.jecho.events import ContinuationEnvelope
from repro.net.framing import NetEnvelopeCodec
from repro.serialization import SerializerRegistry

ARITH = '''
def handle(x):
    acc = 0
    i = 0
    while i < N_ITERS:
        a = i * 3 + x
        b = a % 7
        acc = acc + a - b
        i = i + 1
    emit(acc)
'''


def arith():
    emitted = []
    registry = default_registry()
    registry.register_function(
        "emit", emitted.append, receiver_only=True, pure=False
    )
    partitioned = MethodPartitioner(registry, SerializerRegistry()).partition(
        ARITH, DataSizeCostModel(), constants={"N_ITERS": 2}
    )
    return partitioned, emitted, list(range(-3, 5))


def sensor():
    partitioned, sink = build_partitioned_process(n_stages=6)
    return partitioned, sink.results, [make_reading(i, 8) for i in range(4)]


HANDLERS = {"arith": arith, "sensor": sensor}

if sys.argv[1] == "encode":
    for name, build in HANDLERS.items():
        partitioned, _, events = build()
        codec = NetEnvelopeCodec(partitioned.serializer_registry)
        for edge in sorted(partitioned.cut.pses):
            modulator = partitioned.make_modulator(
                plan=PartitioningPlan(active=frozenset({edge}))
            )
            for index, event in enumerate(events):
                message = modulator.process(event).message
                if message is not None:
                    _, payload = codec.encode(ContinuationEnvelope(message, 1))
                    print(name, index, payload.hex())
else:
    built = {name: build() for name, build in HANDLERS.items()}
    resumed = {name: [] for name in HANDLERS}
    reference = {name: [] for name in HANDLERS}
    for line in sys.stdin:
        name, index, payload = line.split()
        partitioned, results, events = built[name]
        codec = NetEnvelopeCodec(partitioned.serializer_registry).bind(
            partitioned.schema
        )
        envelope, _ = codec.decode(0x11, bytes.fromhex(payload))
        partitioned.make_demodulator().process(envelope.continuation)
        resumed[name].append(results.pop())
        partitioned.run_reference(events[int(index)])
        reference[name].append(results.pop())
    print(json.dumps({"resumed": resumed, "reference": reference}))
"""


def _run(seed: int, role: str, stdin: str = "") -> str:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, role],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return done.stdout


def test_a_frame_encoded_under_one_seed_resumes_under_another():
    frames = _run(1, "encode")
    handlers = {line.split()[0] for line in frames.splitlines()}
    assert handlers == {"arith", "sensor"}
    result = json.loads(_run(2, "decode", frames))
    assert result["resumed"] == result["reference"]
    assert len(result["resumed"]["arith"]) >= 8
