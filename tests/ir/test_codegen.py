"""Unit tests for the source-codegen backend.

Differential coverage at the application level lives in
``tests/integration/test_backend_equivalence.py``; here we pin the
generated source itself (golden test), the cache, the shapes both
backends refuse, split/resume entry-point promotion, and error-message
parity against the tree walker.
"""

import pytest

from repro.core.api import MethodPartitioner
from repro.core.continuation import ContinuationSchema
from repro.core.costmodels import DataSizeCostModel
from repro.errors import InterpreterError
from repro.ir import codegen
from repro.ir.builder import lower_function
from repro.ir.codegen import codegen_function, generate_source
from repro.ir.interpreter import CycleMeter, Interpreter
from repro.ir.registry import default_registry
from repro.serialization import SerializerRegistry


@pytest.fixture
def registry():
    registry = default_registry()
    registry.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    registry.register_function(
        "emit", lambda v: None, receiver_only=True, pure=False
    )
    return registry


SIMPLE = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"

#: loop + comparison + binop + native invoke + return: one of everything
#: the hot path needs, small enough to pin as a golden source.
LOOP_SOURCE = (
    "def f(a):\n"
    "    total = 0\n"
    "    i = 0\n"
    "    while i < a:\n"
    "        total = total + i\n"
    "        i = i + 1\n"
    "    emit(total)\n"
    "    return total\n"
)

#: the UG edge between the two loop-body assignments of LOOP_SOURCE
LOOP_EDGE = (6, 7)
LOOP_SPLIT = frozenset({LOOP_EDGE})

#: a split point at LOOP_EDGE handing over the loop's state
LOOP_SLOT = ContinuationSchema(
    "f", [(LOOP_EDGE, "pse0", ("total", "i", "a"), False)]
).slots[0]


def _both_errors(registry, source, args):
    """Run *source* under tree and codegen; return the two error messages."""
    fn = lower_function(source, registry)
    messages = []
    for backend in ("tree", "codegen"):
        interp = Interpreter(registry, backend=backend)
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, args)
        messages.append(str(exc_info.value))
    return messages


# -- caching -----------------------------------------------------------------


def test_codegen_is_cached_per_function(registry):
    fn = lower_function(SIMPLE, registry)
    first = codegen_function(fn, registry)
    second = codegen_function(fn, registry)
    assert first is second


def test_registry_change_invalidates_cache(registry):
    fn = lower_function(SIMPLE, registry)
    first = codegen_function(fn, registry)
    registry.register_function("late", lambda: None)
    second = codegen_function(fn, registry)
    assert first is not second


def test_distinct_registries_do_not_share_code(registry):
    fn = lower_function(SIMPLE, registry)
    first = codegen_function(fn, registry)
    other = default_registry()
    assert codegen_function(fn, other) is not first
    assert codegen_function(fn, registry) is not first


def test_interpreter_accepts_codegen_backend(registry):
    assert Interpreter(registry).backend == "codegen"  # the default
    assert Interpreter(registry, backend="codegen").backend == "codegen"


# -- execution parity on the unit level --------------------------------------


def test_codegen_result_and_meter_match_tree(registry):
    fn = lower_function("def f(a):\n    return costly(a) + 1\n", registry)
    outcomes = {}
    for backend in ("tree", "codegen"):
        meter = CycleMeter()
        outcome = Interpreter(registry, backend=backend).run(
            fn, [3], meter=meter
        )
        outcomes[backend] = (
            outcome.value,
            meter.cycles,
            meter.instructions,
        )
    assert outcomes["tree"] == outcomes["codegen"]


def test_unregistered_call_on_dead_branch_still_runs(registry):
    # Call targets must stay late-bound: generate fine, run dead branches
    # fine, raise only when the unregistered call is actually reached.
    source = (
        "def f(a):\n"
        "    if a:\n"
        "        return ghost(a)\n"
        "    return 0\n"
    )
    registry.register_function("ghost", lambda x: x)
    fn = lower_function(source, registry)
    bare = default_registry()
    for backend in ("tree", "codegen"):
        interp = Interpreter(bare, backend=backend)
        assert interp.run(fn, [0]).value == 0
        with pytest.raises(InterpreterError, match="ghost"):
            interp.run(fn, [1])


# -- split / resume ----------------------------------------------------------


def test_split_and_resume_match_tree(registry):
    fn = lower_function(LOOP_SOURCE, registry)
    results = {}
    for backend in ("tree", "codegen"):
        interp = Interpreter(registry, backend=backend)
        meter = CycleMeter()
        outcome = interp.run(fn, [3], split_edges=LOOP_SPLIT, meter=meter)
        assert outcome.split, backend
        cont = outcome.continuation
        env = dict(cont.variables)  # the resume runs on cont.variables
        resumed = interp.resume(fn, cont, meter=meter)
        results[backend] = (
            cont.edge,
            env,
            LOOP_SLOT.pack(env).body(),  # the order the schema fixes
            resumed.value,
            meter.cycles,
            meter.instructions,
        )
    assert results["tree"] == results["codegen"]


def test_resume_promotes_entry_point(registry):
    # A resume start pc that is not a block leader must be promoted (the
    # variant is re-emitted with the extra entry), not mis-dispatched.
    fn = lower_function(LOOP_SOURCE, registry)
    interp = Interpreter(registry, backend="codegen")
    outcome = interp.run(fn, [3], split_edges=LOOP_SPLIT)
    artifact = codegen_function(fn, registry)
    resume_pc = outcome.continuation.edge[1]
    assert all(
        resume_pc not in variant.leaders
        for variant in artifact._variants.values()
    )
    resumed = interp.resume(fn, outcome.continuation)
    assert resumed.returned
    assert resume_pc in artifact._extra_entries
    assert all(
        resume_pc in variant.leaders
        for variant in artifact._variants.values()
    )


def test_observed_edges_see_flushed_meter(registry):
    # Per-PSE cycle attribution reads meter.cycles mid-execution (the
    # modulator's observer); the codegen local accumulator must be flushed
    # before every observer call.
    fn = lower_function(LOOP_SOURCE, registry)
    readings = {}
    for backend in ("tree", "codegen"):
        meter = CycleMeter()
        seen = []
        Interpreter(registry, backend=backend).run(
            fn,
            [4],
            edge_observer=lambda edge, env: seen.append(
                (edge, meter.cycles, meter.instructions, sorted(env))
            ),
            observe_edges=frozenset({LOOP_EDGE}),
            meter=meter,
        )
        readings[backend] = seen
    assert readings["tree"] == readings["codegen"]
    assert len(readings["codegen"]) == 4  # one per loop iteration


# -- shapes both backends refuse ---------------------------------------------


@pytest.mark.parametrize("backend", ["tree", "codegen"])
def test_observer_without_edge_set_is_refused(registry, backend):
    fn = lower_function(SIMPLE, registry)
    interp = Interpreter(registry, backend=backend)
    edges = []
    with pytest.raises(TypeError, match="f: an edge observer needs"):
        interp.run(fn, [1], edge_observer=lambda edge, env: edges.append(edge))
    assert edges == []  # refused before the run, not part-way through


@pytest.mark.parametrize("backend", ["tree", "codegen"])
def test_cycle_meter_subclass_is_refused(registry, backend):
    class TracingMeter(CycleMeter):
        pass

    fn = lower_function(SIMPLE, registry)
    interp = Interpreter(registry, backend=backend)
    meter = TracingMeter()
    with pytest.raises(TypeError, match="must be a CycleMeter, not TracingMeter"):
        interp.run(fn, [1], meter=meter)
    assert meter.instructions == 0


def test_source_generation_failure_raises_at_partition_time(
    registry, monkeypatch
):
    def broken(self):
        raise SyntaxError("synthetic")

    monkeypatch.setattr(codegen._Emitter, "generate", broken)
    message = "f: code generation failed: SyntaxError: synthetic"
    partitioner = MethodPartitioner(registry, SerializerRegistry())
    with pytest.raises(InterpreterError, match=message):
        partitioner.partition(LOOP_SOURCE, DataSizeCostModel())
    # no tree walker retries the run either
    fn = lower_function(SIMPLE, registry)
    with pytest.raises(InterpreterError, match=message):
        Interpreter(registry).run(fn, [1])
    assert Interpreter(registry, backend="tree").run(fn, [1]).value == 4


# -- error-message parity ----------------------------------------------------


@pytest.mark.parametrize(
    "source,args",
    [
        # variable used before assignment (UnboundLocalError translation)
        ("def f(a):\n    if a:\n        x = 1\n    return x\n", [0]),
        # BinOp type failure
        ("def f(a):\n    return a + 'no'\n", [1]),
        # division by zero
        ("def f(a):\n    return 1 // a\n", [0]),
        # Compare type failure
        ("def f(a):\n    return a < 'no'\n", [1]),
        # UnaryOp type failure
        ("def f(a):\n    return -a\n", ["no"]),
        # call raising inside a native
        ("def f(a):\n    return costly(a, a)\n", [1]),
        # attribute access failure
        ("def f(a):\n    return a.missing\n", [1]),
        # indexing failure
        ("def f(a):\n    return a[5]\n", [[1]]),
    ],
)
def test_error_messages_match_tree_walker(registry, source, args):
    tree_msg, codegen_msg = _both_errors(registry, source, args)
    assert tree_msg == codegen_msg


def test_max_steps_message_matches(registry):
    fn = lower_function("def f(a):\n    while True:\n        a += 1\n", registry)
    messages = []
    for backend in ("tree", "codegen"):
        interp = Interpreter(registry, max_steps=100, backend=backend)
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, [0])
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]


# -- the golden generated source ----------------------------------------------

GOLDEN = '''\
# generated by repro.ir.codegen for 'f'
# split=[(6, 7)] observe=[(6, 7)] metered=True
def _mp_exec(env, _start, meter, _observer, _max_steps):
    _n = 0
    _cy = 0.0
    _fn = 0
    try:
        _ic = meter.instr_cycles
        _dc = meter.default_call_cycles
        if 'a' in env:
            _mp_a = env['a']
        if 'total' in env:
            _mp_total = env['total']
        if 'i' in env:
            _mp_i = env['i']
        if '$t1' in env:
            _mp__x24t1 = env['$t1']
        _pc = _start
        while True:
            if _n > _max_steps:
                raise _IE('f: exceeded ' + str(_max_steps) + ' steps (infinite loop?)')
            if _pc < 3:
                # block 0
                # 0: a := @parameter0
                _n += 1; _cy += _ic
                try:
                    _mp_a
                except UnboundLocalError:
                    raise _IE("f: parameter 'a' unbound") from None
                # 1: total = 0
                _n += 1; _cy += _ic
                _mp_total = 0
                # 2: i = 0
                _n += 1; _cy += _ic
                _mp_i = 0
                _pc = 3
                continue
            else:
                if _pc < 9:
                    # block 3
                    # 3: nop  # Lhead1
                    _n += 1; _cy += _ic
                    # 4: $t1 = i < a
                    _n += 1; _cy += _ic
                    try:
                        _mp__x24t1 = _mp_i < _mp_a
                    except TypeError as _exc:
                        raise _IE('f: i < a failed: ' + str(_exc)) from _exc
                    # 5: if not $t1 goto Lend2
                    _n += 1; _cy += _ic
                    if not _mp__x24t1:
                        _pc = 9
                        continue
                    # 6: total = total + i
                    _n += 1; _cy += _ic
                    try:
                        _mp_total = _mp_total + _mp_i
                    except (TypeError, ZeroDivisionError) as _exc:
                        raise _IE('f: total + i failed: ' + str(_exc)) from _exc
                    _loc = locals()
                    _env = {_o: _loc[_k] for _k, _o in _VARS if _k in _loc}
                    del _loc
                    meter.cycles += _cy; _cy = 0.0
                    meter.instructions += _n - _fn; _fn = _n
                    _observer((6, 7), _env)
                    return ('s', (6, 7), _env), _n
                    # 7: i = i + 1
                    _n += 1; _cy += _ic
                    try:
                        _mp_i = _mp_i + 1
                    except (TypeError, ZeroDivisionError) as _exc:
                        raise _IE('f: i + 1 failed: ' + str(_exc)) from _exc
                    # 8: goto Lhead1
                    _n += 1; _cy += _ic
                    _pc = 3
                    continue
                else:
                    # block 9
                    # 9: nop  # Lend2
                    _n += 1; _cy += _ic
                    # 10: invoke emit(total)
                    _n += 1; _cy += _ic
                    _a0 = _mp_total
                    _cy += _dc
                    try:
                        _F0(_a0)
                    except _IE:
                        raise
                    except Exception as _exc:
                        raise _IE('f: call emit(...) raised ' + type(_exc).__name__ + ': ' + str(_exc)) from _exc
                    # 11: return total
                    _n += 1; _cy += _ic
                    return ('r', _mp_total), _n
    except UnboundLocalError as _exc:
        raise _TR(_exc) from None
    finally:
        meter.cycles += _cy
        meter.instructions += _n - _fn
'''


def test_generated_source_golden(registry):
    fn = lower_function(LOOP_SOURCE, registry)
    source = generate_source(
        fn,
        registry,
        split_edges=frozenset({LOOP_EDGE}),
        observe_edges=frozenset({LOOP_EDGE}),
        metered=True,
    )
    assert source == GOLDEN


def test_unmetered_source_carries_no_meter_code(registry):
    fn = lower_function(LOOP_SOURCE, registry)
    source = generate_source(fn, registry, metered=False)
    assert "_cy" not in source
    assert "meter.cycles" not in source
    # ...and unwatched edges generate no observer/split code at all
    assert "_observer" not in source.replace(
        "def _mp_exec(env, _start, meter, _observer, _max_steps):",
        "",
    )


def test_watched_edges_leave_no_cyclic_garbage():
    """``locals()`` is the frame's cached dict, which from the second
    watched edge on would contain ``_loc`` itself — a cycle pinning every
    register value until the cyclic GC runs.  Refcounting alone must
    free a modulate call's frame."""
    import gc

    from repro.apps.sensor.data import make_reading
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import PartitioningPlan

    partitioned, _sink = build_partitioned_process(
        n_stages=6, backend="codegen"
    )
    # Split late on every path, so that observed edges precede the split.
    late = PartitioningPlan(
        active=frozenset(
            max(edges) for _path, edges in partitioned.cut.path_pse_edges
        ),
        name="late",
    )
    profiling = partitioned.make_profiling_unit()  # observes every PSE edge
    modulator = partitioned.make_modulator(plan=late, profiling=profiling)
    reading = make_reading(0, 8)
    assert modulator.process(reading).message is not None  # it does split
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            modulator.process(reading)
        assert gc.collect() == 0
    finally:
        gc.enable()
