"""Unit tests for the interpreter's default, compiled execution path.

``Interpreter(registry)`` with no ``backend=`` compiles each IR function
to generated Python code (:data:`repro.ir.interpreter.DEFAULT_BACKEND`).
These tests go through that public entry point: the compile is cached
per function, invalidated by registry changes, and its results, meter
readings and error messages match the tree walker.  The codegen module's
own unit tests live in ``tests/ir/test_codegen.py``.
"""

import pytest

from repro.errors import InterpreterError
from repro.ir import codegen
from repro.ir.builder import lower_function
from repro.ir.interpreter import CycleMeter, Interpreter
from repro.ir.registry import default_registry


@pytest.fixture
def registry():
    registry = default_registry()
    registry.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    return registry


@pytest.fixture
def compiles(monkeypatch):
    """Count the source generations the default interpreter performs."""
    calls = []
    generate = codegen._Emitter.generate

    def counting(self):
        calls.append(self)
        return generate(self)

    monkeypatch.setattr(codegen._Emitter, "generate", counting)
    return calls


SIMPLE = "def f(a):\n    b = a + 1\n    c = b * 2\n    return c\n"


def _both_errors(registry, source, args):
    """Run *source* on the tree walker and the default backend; return
    the two error messages."""
    fn = lower_function(source, registry)
    messages = []
    for interp in (Interpreter(registry, backend="tree"), Interpreter(registry)):
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, args)
        messages.append(str(exc_info.value))
    return messages


# -- caching -----------------------------------------------------------------


def test_compile_is_cached_per_function(registry, compiles):
    fn = lower_function(SIMPLE, registry)
    assert Interpreter(registry).run(fn, [1]).value == 4
    assert len(compiles) == 1
    # a second run, and a second interpreter, reuse the compiled code
    assert Interpreter(registry).run(fn, [2]).value == 6
    assert len(compiles) == 1


def test_registry_change_invalidates_cache(registry, compiles):
    fn = lower_function(SIMPLE, registry)
    interp = Interpreter(registry)
    interp.run(fn, [1])
    registry.register_function("late", lambda: None)
    assert interp.run(fn, [1]).value == 4
    assert len(compiles) == 2


def test_distinct_registries_do_not_share_code(registry, compiles):
    fn = lower_function(SIMPLE, registry)
    Interpreter(registry).run(fn, [1])
    other = default_registry()
    other.register_function(
        "costly", lambda x: x * 2, cycle_cost=lambda x: 100.0
    )
    assert Interpreter(other).run(fn, [1]).value == 4
    assert len(compiles) == 2
    # ...and flipping back re-uses nothing stale
    assert Interpreter(registry).run(fn, [1]).value == 4
    assert len(compiles) == 3


def test_interpreter_rejects_unknown_backend(registry):
    for name in ("sourcegen", "jit", "compiled"):  # "compiled" is retired
        with pytest.raises(ValueError, match="unknown interpreter backend"):
            Interpreter(registry, backend=name)


# -- execution parity on the unit level --------------------------------------


def test_compiled_result_and_meter_match_tree(registry):
    fn = lower_function("def f(a):\n    return costly(a) + 1\n", registry)
    outcomes = []
    for interp in (Interpreter(registry, backend="tree"), Interpreter(registry)):
        meter = CycleMeter()
        outcome = interp.run(fn, [3], meter=meter)
        outcomes.append((outcome.value, meter.cycles, meter.instructions))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 7


def test_unregistered_call_on_dead_branch_still_runs(registry):
    # The tree walker resolves call targets lazily at each execution; the
    # compiled path must preserve that when the execution registry lacks
    # a name the lowering registry had: compile fine, run dead branches
    # fine, raise only when the call is actually reached.
    source = (
        "def f(a):\n"
        "    if a:\n"
        "        return ghost(a)\n"
        "    return 0\n"
    )
    registry.register_function("ghost", lambda x: x)
    fn = lower_function(source, registry)
    bare = default_registry()
    for interp in (Interpreter(bare, backend="tree"), Interpreter(bare)):
        assert interp.run(fn, [0]).value == 0
        with pytest.raises(InterpreterError, match="ghost"):
            interp.run(fn, [1])


# -- error-message parity ----------------------------------------------------


@pytest.mark.parametrize(
    "source,args",
    [
        # variable used before assignment
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
    ],
)
def test_error_messages_match_tree_walker(registry, source, args):
    tree_msg, compiled_msg = _both_errors(registry, source, args)
    assert tree_msg == compiled_msg


def test_max_steps_message_matches(registry):
    fn = lower_function("def f(a):\n    while True:\n        a += 1\n", registry)
    messages = []
    for interp in (
        Interpreter(registry, max_steps=100, backend="tree"),
        Interpreter(registry, max_steps=100),
    ):
        with pytest.raises(InterpreterError) as exc_info:
            interp.run(fn, [0])
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]
