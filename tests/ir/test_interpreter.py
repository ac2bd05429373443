"""Unit tests for the IR interpreter: hooks, metering, continuations,
errors."""

import pytest

from repro.core.continuation import ContinuationSchema
from repro.errors import InterpreterError
from repro.ir.builder import lower_function
from repro.ir.interpreter import Continuation, CycleMeter, Interpreter
from repro.ir.registry import default_registry


@pytest.fixture
def registry():
    registry = default_registry()
    registry.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    return registry


@pytest.fixture
def interp(registry):
    return Interpreter(registry)


SIMPLE = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"

#: SIMPLE's UG edges, in execution order
EDGES = [(0, 1), (1, 2), (2, 3)]


def test_run_returns_value(interp, registry):
    fn = lower_function(SIMPLE, registry)
    outcome = interp.run(fn, [5])
    assert outcome.returned and not outcome.split
    assert outcome.value == 12


def test_wrong_arity_raises(interp, registry):
    fn = lower_function(SIMPLE, registry)
    with pytest.raises(InterpreterError, match="expected 1 arguments"):
        interp.run(fn, [1, 2])


def test_undefined_variable_raises(interp, registry):
    fn = lower_function("def f(a):\n    if a:\n        x = 1\n    return x\n", registry)
    with pytest.raises(InterpreterError, match="used before assignment"):
        interp.run(fn, [0])


def test_division_by_zero_wrapped(interp, registry):
    fn = lower_function("def f(a):\n    return 1 // a\n", registry)
    with pytest.raises(InterpreterError):
        interp.run(fn, [0])


def test_max_steps_guard(registry):
    fn = lower_function("def f(a):\n    while True:\n        a += 1\n", registry)
    tiny = Interpreter(registry, max_steps=100)
    with pytest.raises(InterpreterError, match="steps"):
        tiny.run(fn, [0])


def test_meter_counts_instructions(interp, registry):
    fn = lower_function(SIMPLE, registry)
    meter = CycleMeter()
    interp.run(fn, [1], meter=meter)
    assert meter.instructions == len(fn.instrs)
    assert meter.cycles == pytest.approx(len(fn.instrs))


def test_meter_charges_call_costs(interp, registry):
    fn = lower_function("def f(a):\n    return costly(a)\n", registry)
    meter = CycleMeter()
    interp.run(fn, [3], meter=meter)
    # 3 instructions (identity, assign-call folded into return path) plus
    # the registered 100-cycle call cost.
    assert meter.cycles > 100.0


def test_meter_default_call_cost(interp, registry):
    fn = lower_function("def f(a):\n    return len(a)\n", registry)
    meter = CycleMeter(default_call_cycles=7.0)
    interp.run(fn, [[1, 2]], meter=meter)
    assert meter.cycles == pytest.approx(meter.instructions + 7.0)


def test_meter_reset():
    meter = CycleMeter()
    meter.charge(5)
    meter.charge_instr()
    meter.reset()
    assert meter.cycles == 0.0 and meter.instructions == 0


def test_edge_observer_sees_all_edges(interp, registry):
    fn = lower_function(SIMPLE, registry)
    seen = []
    interp.run(
        fn,
        [1],
        edge_observer=lambda e, env: seen.append(e),
        observe_edges=frozenset(EDGES),
    )
    # straight-line: edges (0,1), (1,2), (2,3)
    assert seen == EDGES


def test_split_captures_live_vars(interp, registry):
    fn = lower_function(SIMPLE, registry)
    outcome = interp.run(fn, [5], split_edges=frozenset({(1, 2)}))
    assert outcome.split
    cont = outcome.continuation
    assert cont.edge == (1, 2)
    # the run's whole environment there: the schema picks INTER from it
    assert cont.variables == {"a": 5, "b": 6}
    assert cont.function == "f"


def test_resume_completes_from_continuation(interp, registry):
    fn = lower_function(SIMPLE, registry)
    cont = interp.run(fn, [5], split_edges=frozenset({(1, 2)})).continuation
    outcome = interp.resume(fn, cont)
    assert outcome.returned
    assert outcome.value == 12


def test_resume_runs_on_the_mapping_it_is_given(registry):
    fn = lower_function(SIMPLE, registry)
    env = {"b": 6}
    cont = Continuation(function="f", edge=(1, 2), variables=env)
    assert Interpreter(registry, backend="tree").resume(fn, cont).value == 12
    # no copy: the resumed run assigned into the very mapping handed over
    assert cont.variables is env
    assert env == {"b": 6, "c": 12, "$return": 12}


def test_split_then_resume_equals_direct(interp, registry):
    fn = lower_function(SIMPLE, registry)
    direct = interp.run(fn, [9]).value
    for edge in EDGES:
        outcome = interp.run(fn, [9], split_edges=frozenset({edge}))
        assert outcome.split
        resumed = interp.resume(fn, outcome.continuation)
        assert resumed.value == direct


def test_resume_wrong_function_rejected(interp, registry):
    fn = lower_function(SIMPLE, registry)
    cont = Continuation(function="other", edge=(1, 2), variables={})
    with pytest.raises(InterpreterError, match="resumed against"):
        interp.resume(fn, cont)


def test_resume_out_of_range_rejected(interp, registry):
    fn = lower_function(SIMPLE, registry)
    cont = Continuation(function="f", edge=(0, 999), variables={})
    with pytest.raises(InterpreterError, match="out of range"):
        interp.resume(fn, cont)


def test_split_captures_only_requested_vars(interp, registry):
    fn = lower_function(SIMPLE, registry)
    outcome = interp.run(fn, [5], split_edges=frozenset({(2, 3)}))
    schema = ContinuationSchema("f", [((2, 3), "pse0", ("c",), False)])
    message = schema.by_edge[(2, 3)].pack(outcome.continuation.variables)
    assert message.variables == {"c": 12}


def test_observer_called_before_split(interp, registry):
    fn = lower_function(SIMPLE, registry)
    seen = []
    interp.run(
        fn,
        [1],
        split_edges=frozenset({(1, 2)}),
        edge_observer=lambda e, env: seen.append(e),
        observe_edges=frozenset(EDGES),
    )
    # the split edge itself is observed
    assert (1, 2) in seen
    # edges after the split are not
    assert (2, 3) not in seen


def test_cast_expression(registry):
    """Cast is produced for hand-built Jimple-style IR (paper Figure 4)."""
    from repro.ir.function import IRFunction
    from repro.ir.instructions import Assign, Identity, Return
    from repro.ir.values import Cast, Var

    class Payload:
        pass

    registry.register_class(Payload, name="Payload")
    fn = IRFunction(
        name="casting",
        params=(Var("e"),),
        instrs=[
            Identity(Var("e"), "@parameter0", 0),
            Assign(Var("p"), Cast("Payload", Var("e"))),
            Return(Var("p")),
        ],
        labels={},
    ).finalize()
    interp = Interpreter(registry)
    payload = Payload()
    assert interp.run(fn, [payload]).value is payload
    with pytest.raises(InterpreterError, match="cast"):
        interp.run(fn, ["not a payload"])
