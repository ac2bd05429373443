"""IR interpreter with continuation, profiling, and metering hooks.

The interpreter is the execution substrate that replaces the JVM of the
paper's prototype.  It executes an :class:`~repro.ir.function.IRFunction`
instruction by instruction and exposes the three hooks Method Partitioning
needs:

* **Split edges** — after executing instruction ``out`` and determining the
  next instruction ``in``, the interpreter stops if the edge ``(out, in)``
  is in the run's split-edge set (the plan's active Potential Split Edges)
  and returns its environment there as a :class:`Continuation`: the
  modulator half of the paper's Remote Continuation.  Which of those
  variables cross the wire, and in what order, is the continuation
  schema's business (:mod:`repro.core.continuation`).  Resuming from a
  continuation (the demodulator half) starts execution at ``in`` with
  the handed-over variables as the environment.
* **Edge observer** — invoked on each traversed edge of a given edge set;
  the Runtime Profiling Unit uses it (flag-gated) to measure data sizes
  and timings per PSE.
* **Cycle meter** — accumulates an abstract cycle count per executed
  instruction, so the same handler can be executed on simulated hosts with
  different speeds and loads (see :mod:`repro.simnet`).

The interpreter itself never decides *where* to split — that is the
partitioning plan's job (:mod:`repro.core.plan`).
"""

from __future__ import annotations

import operator as _op
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.errors import InterpreterError
from repro.ir.function import IRFunction
from repro.ir.instructions import (
    Assign,
    Goto,
    Identity,
    If,
    Instr,
    Invoke,
    Nop,
    Return,
    SetAttr,
    SetItem,
)
from repro.ir.registry import FunctionRegistry
from repro.ir.values import (
    BinOp,
    BuildDict,
    BuildList,
    BuildTuple,
    Call,
    Cast,
    Compare,
    Const,
    Expr,
    GetAttr,
    GetItem,
    IsInstance,
    New,
    Operand,
    OperandExpr,
    UnaryOp,
)

#: A UG edge as a pair of instruction indices (out, in).
Edge = Tuple[int, int]

_BIN_FUNCS: Dict[str, Callable] = {
    "+": _op.add,
    "-": _op.sub,
    "*": _op.mul,
    "/": _op.truediv,
    "//": _op.floordiv,
    "%": _op.mod,
    "**": _op.pow,
    "<<": _op.lshift,
    ">>": _op.rshift,
    "&": _op.and_,
    "|": _op.or_,
    "^": _op.xor,
}

_CMP_FUNCS: Dict[str, Callable] = {
    "==": _op.eq,
    "!=": _op.ne,
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
    "is": lambda a, b: a is b,
    "is not": lambda a, b: a is not b,
    "in": lambda a, b: a in b,
    "not in": lambda a, b: a not in b,
}

_UNARY_FUNCS: Dict[str, Callable] = {
    "-": _op.neg,
    "+": _op.pos,
    "not": _op.not_,
    "~": _op.invert,
}


@dataclass
class CycleMeter:
    """Accumulates abstract CPU cycles and instruction counts.

    Base cost is one cycle per instruction; calls and constructions add the
    cost reported by their registry entry's ``cycle_cost`` (or
    ``default_call_cycles`` when absent).  The scale is arbitrary — only
    ratios matter when the simulator converts cycles to time via host speed.
    """

    instr_cycles: float = 1.0
    default_call_cycles: float = 10.0
    cycles: float = 0.0
    instructions: int = 0

    def charge_instr(self) -> None:
        self.cycles += self.instr_cycles
        self.instructions += 1

    def charge(self, cycles: float) -> None:
        self.cycles += cycles

    def reset(self) -> None:
        self.cycles = 0.0
        self.instructions = 0


@dataclass
class Continuation:
    """The modulator→demodulator hand-over record (paper section 2.4).

    ``edge`` identifies the PSE where processing stopped; ``variables`` maps
    variable names to their values: at a split, the whole environment
    of the run there, from which the schema packs the edge's INTER set;
    to resume, the environment to resume on.  ``function`` names the
    handler so the demodulator can locate the right program to resume.
    """

    function: str
    edge: Edge
    variables: Dict[str, object]


@dataclass
class Outcome:
    """Result of running a handler (or handler half)."""

    #: "return" when the function completed, "split" when it stopped at a PSE.
    kind: str
    value: object = None
    continuation: Optional[Continuation] = None

    @property
    def returned(self) -> bool:
        return self.kind == "return"

    @property
    def split(self) -> bool:
        return self.kind == "split"


_NO_EDGES: FrozenSet[Edge] = frozenset()

#: The backend every partitioned method runs on unless a test asks for
#: the reference tree walker.
DEFAULT_BACKEND = "codegen"


class Interpreter:
    """Executes IR functions against a function registry.

    Two execution backends share this front end:

    * ``"codegen"`` (:data:`DEFAULT_BACKEND`) — each function is lowered
      once to generated Python source compiled with ``compile()``/``exec``
      (:mod:`repro.ir.codegen`); registers become real locals and split
      checks are inlined per active plan.
    * ``"tree"`` — the tree-walking evaluator below; the reference
      semantics the differential equivalence suite compares against.

    Both refuse the same shapes: an edge observer without the edge set
    it watches, and a meter that is not exactly a :class:`CycleMeter`
    (generated code writes its fields instead of calling its methods).
    """

    def __init__(
        self,
        registry: FunctionRegistry,
        *,
        max_steps: int = 50_000_000,
        obs=None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if backend not in ("codegen", "tree"):
            raise ValueError(
                f"unknown interpreter backend {backend!r}; "
                f"expected 'codegen' or 'tree'"
            )
        self.registry = registry
        self.max_steps = max_steps
        self.backend = backend
        self._codegen = None  # lazy import of repro.ir.codegen
        self.obs = None
        self._c_instructions = None
        self._c_executions = None
        self._c_captured = None
        self._c_restored = None
        if obs is not None:
            self.attach_observability(obs)

    def attach_observability(self, obs) -> None:
        """Attach a metrics registry; counter objects are cached so the
        execution loop never does a name lookup."""
        self.obs = obs
        self._c_instructions = obs.metrics.counter("interp.instructions")
        self._c_executions = obs.metrics.counter("interp.executions")
        self._c_captured = obs.metrics.counter(
            "interp.continuations_captured"
        )
        self._c_restored = obs.metrics.counter(
            "interp.continuations_restored"
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        fn: IRFunction,
        args: Sequence[object],
        *,
        split_edges: FrozenSet[Edge] = _NO_EDGES,
        edge_observer: Optional[Callable[[Edge, Dict[str, object]], None]] = None,
        observe_edges: Optional[FrozenSet[Edge]] = None,
        meter: Optional[CycleMeter] = None,
    ) -> Outcome:
        """Run *fn* from the top with *args* bound to its parameters.

        The run stops at the first traversed edge in ``split_edges``.
        ``edge_observer`` is called on each traversed edge in
        ``observe_edges`` (typically the handler's PSE set), which it
        requires.
        """
        if len(args) != len(fn.params):
            raise InterpreterError(
                f"{fn.name}: expected {len(fn.params)} arguments, "
                f"got {len(args)}"
            )
        env: Dict[str, object] = {}
        for param, value in zip(fn.params, args):
            env[param.name] = value
        return self._execute(
            fn, env, 0, split_edges, edge_observer, observe_edges, meter
        )

    def resume(
        self,
        fn: IRFunction,
        continuation: Continuation,
        *,
        split_edges: FrozenSet[Edge] = _NO_EDGES,
        edge_observer: Optional[Callable[[Edge, Dict[str, object]], None]] = None,
        observe_edges: Optional[FrozenSet[Edge]] = None,
        meter: Optional[CycleMeter] = None,
    ) -> Outcome:
        """Resume *fn* at a continuation's PSE with its variables restored.

        This is the demodulator half of Remote Continuation: execution jumps
        to the edge's *in* node with only the handed-over variables in scope.
        The run executes on ``continuation.variables`` itself (a
        :class:`~repro.core.continuation.ContinuationMessage` hands out
        a fresh dict on every read): resuming one :class:`Continuation`
        twice takes a copy of its variables per resume.
        """
        if continuation.function != fn.name:
            raise InterpreterError(
                f"continuation for {continuation.function!r} resumed against "
                f"{fn.name!r}"
            )
        _, in_node = continuation.edge
        if not (0 <= in_node < len(fn.instrs)):
            raise InterpreterError(
                f"{fn.name}: continuation edge {continuation.edge} out of range"
            )
        if self._c_restored is not None:
            self._c_restored.inc()
        return self._execute(
            fn,
            continuation.variables,
            in_node,
            split_edges,
            edge_observer,
            observe_edges,
            meter,
        )

    def prepare(self, fn: IRFunction) -> None:
        """Generate *fn*'s code now (the codegen backend), so that a
        construct it cannot generate fails here, not at the first run."""
        if self.backend == "codegen":
            from repro.ir.codegen import codegen_function

            codegen_function(fn, self.registry).variant(
                _NO_EDGES, _NO_EDGES, True
            )

    # -- core loop ---------------------------------------------------------------

    def _execute(
        self,
        fn: IRFunction,
        env: Dict[str, object],
        start_pc: int,
        split_edges: FrozenSet[Edge],
        edge_observer: Optional[Callable[[Edge, Dict[str, object]], None]],
        observe_edges: Optional[FrozenSet[Edge]],
        meter: Optional[CycleMeter],
    ) -> Outcome:
        if edge_observer is not None and observe_edges is None:
            raise TypeError(
                f"{fn.name}: an edge observer needs the observe_edges it "
                f"watches"
            )
        if meter is not None and type(meter) is not CycleMeter:
            raise TypeError(
                f"{fn.name}: the meter must be a CycleMeter, not "
                f"{type(meter).__name__}"
            )
        if self._c_executions is not None:
            self._c_executions.inc()
        if self.backend == "codegen":
            codegen_function = self._codegen
            if codegen_function is None:
                from repro.ir.codegen import codegen_function

                self._codegen = codegen_function
            outcome, steps = codegen_function(fn, self.registry).execute(
                env,
                start_pc,
                split_edges,
                edge_observer,
                observe_edges,
                meter,
                self.max_steps,
            )
            if outcome.split:
                if self._c_captured is not None:
                    self._c_captured.inc()
                    self._c_instructions.inc(steps)
            elif self._c_instructions is not None:
                self._c_instructions.inc(steps)
            return outcome
        instrs = fn.instrs
        n = len(instrs)
        pc = start_pc
        steps = 0
        while True:
            steps += 1
            if steps > self.max_steps:
                raise InterpreterError(
                    f"{fn.name}: exceeded {self.max_steps} steps "
                    f"(infinite loop?)"
                )
            instr = instrs[pc]
            if meter is not None:
                meter.charge_instr()
            next_pc = self._step(fn, instr, pc, env, meter)
            if next_pc is None:  # Return executed
                if self._c_instructions is not None:
                    self._c_instructions.inc(steps)
                return Outcome(kind="return", value=env.get("$return"))
            if next_pc >= n:
                raise InterpreterError(
                    f"{fn.name}: fell off the end at instruction {pc}"
                )
            edge: Edge = (pc, next_pc)
            if edge_observer is not None and edge in observe_edges:
                edge_observer(edge, env)
            if edge in split_edges:
                if self._c_captured is not None:
                    self._c_captured.inc()
                    self._c_instructions.inc(steps)
                return Outcome(
                    kind="split", continuation=Continuation(fn.name, edge, env)
                )
            pc = next_pc

    def _step(
        self,
        fn: IRFunction,
        instr: Instr,
        pc: int,
        env: Dict[str, object],
        meter: Optional[CycleMeter],
    ) -> Optional[int]:
        """Execute one instruction; return next pc, or None on Return."""
        if isinstance(instr, Assign):
            env[instr.target.name] = self._eval(fn, instr.expr, env, meter)
            return pc + 1
        if isinstance(instr, If):
            taken = bool(self._operand(fn, instr.cond, env))
            if instr.negate:
                taken = not taken
            return instr.target_index if taken else pc + 1
        if isinstance(instr, Goto):
            return instr.target_index
        if isinstance(instr, Return):
            env["$return"] = (
                self._operand(fn, instr.value, env)
                if instr.value is not None
                else None
            )
            return None
        if isinstance(instr, Identity):
            # Parameter already bound by run(); Identity re-binds explicitly
            # so that resumed executions starting mid-function never re-run it.
            if instr.target.name not in env:
                raise InterpreterError(
                    f"{fn.name}: parameter {instr.target.name!r} unbound"
                )
            return pc + 1
        if isinstance(instr, Invoke):
            self._eval(fn, instr.call, env, meter)
            return pc + 1
        if isinstance(instr, SetAttr):
            obj = self._operand(fn, instr.obj, env)
            value = self._operand(fn, instr.value, env)
            try:
                setattr(obj, instr.attr, value)
            except AttributeError as exc:
                raise InterpreterError(
                    f"{fn.name}: cannot set {instr.attr!r} on {type(obj).__name__}"
                ) from exc
            return pc + 1
        if isinstance(instr, SetItem):
            obj = self._operand(fn, instr.obj, env)
            index = self._operand(fn, instr.index, env)
            value = self._operand(fn, instr.value, env)
            try:
                obj[index] = value
            except (TypeError, KeyError, IndexError) as exc:
                raise InterpreterError(
                    f"{fn.name}: item assignment failed on "
                    f"{type(obj).__name__}: {exc}"
                ) from exc
            return pc + 1
        if isinstance(instr, Nop):
            return pc + 1
        raise InterpreterError(
            f"{fn.name}: unknown instruction {type(instr).__name__}"
        )

    # -- evaluation ---------------------------------------------------------------

    def _operand(self, fn: IRFunction, operand: Operand, env: Dict[str, object]):
        if isinstance(operand, Const):
            return operand.value
        try:
            return env[operand.name]
        except KeyError:
            raise InterpreterError(
                f"{fn.name}: variable {operand.name!r} used before assignment"
            ) from None

    def _eval(
        self,
        fn: IRFunction,
        expr: Expr,
        env: Dict[str, object],
        meter: Optional[CycleMeter],
    ):
        if isinstance(expr, OperandExpr):
            return self._operand(fn, expr.operand, env)
        if isinstance(expr, BinOp):
            left = self._operand(fn, expr.left, env)
            right = self._operand(fn, expr.right, env)
            try:
                return _BIN_FUNCS[expr.op](left, right)
            except (TypeError, ZeroDivisionError) as exc:
                raise InterpreterError(
                    f"{fn.name}: {expr!r} failed: {exc}"
                ) from exc
        if isinstance(expr, Compare):
            left = self._operand(fn, expr.left, env)
            right = self._operand(fn, expr.right, env)
            try:
                return _CMP_FUNCS[expr.op](left, right)
            except TypeError as exc:
                raise InterpreterError(
                    f"{fn.name}: {expr!r} failed: {exc}"
                ) from exc
        if isinstance(expr, UnaryOp):
            value = self._operand(fn, expr.operand, env)
            unary = _UNARY_FUNCS.get(expr.op)
            if unary is None:
                raise InterpreterError(
                    f"{fn.name}: unknown unary op {expr.op!r}"
                )
            try:
                return unary(value)
            except TypeError as exc:
                raise InterpreterError(
                    f"{fn.name}: {expr!r} failed: {exc}"
                ) from exc
        if isinstance(expr, Call):
            entry = self.registry.function(expr.func)
            args = [self._operand(fn, a, env) for a in expr.args]
            if meter is not None:
                if entry.cycle_cost is not None:
                    meter.charge(entry.cycle_cost(*args))
                else:
                    meter.charge(meter.default_call_cycles)
            try:
                return entry.fn(*args)
            except InterpreterError:
                raise
            except Exception as exc:
                raise InterpreterError(
                    f"{fn.name}: call {expr.func}(...) raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        if isinstance(expr, New):
            entry = self.registry.cls(expr.cls)
            args = [self._operand(fn, a, env) for a in expr.args]
            if meter is not None:
                if entry.cycle_cost is not None:
                    meter.charge(entry.cycle_cost(*args))
                else:
                    meter.charge(meter.default_call_cycles)
            try:
                return entry.cls(*args)
            except Exception as exc:
                raise InterpreterError(
                    f"{fn.name}: new {expr.cls}(...) raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        if isinstance(expr, IsInstance):
            value = self._operand(fn, expr.operand, env)
            entry = self.registry.cls(expr.cls)
            return isinstance(value, entry.cls)
        if isinstance(expr, Cast):
            value = self._operand(fn, expr.operand, env)
            entry = self.registry.cls(expr.cls)
            if not isinstance(value, entry.cls):
                raise InterpreterError(
                    f"{fn.name}: cast of {type(value).__name__} to "
                    f"{expr.cls} failed"
                )
            return value
        if isinstance(expr, GetAttr):
            obj = self._operand(fn, expr.obj, env)
            try:
                return getattr(obj, expr.attr)
            except AttributeError as exc:
                raise InterpreterError(
                    f"{fn.name}: {type(obj).__name__} has no attribute "
                    f"{expr.attr!r}"
                ) from exc
        if isinstance(expr, GetItem):
            obj = self._operand(fn, expr.obj, env)
            index = self._operand(fn, expr.index, env)
            try:
                return obj[index]
            except (TypeError, KeyError, IndexError) as exc:
                raise InterpreterError(
                    f"{fn.name}: indexing failed: {exc}"
                ) from exc
        if isinstance(expr, BuildList):
            return [self._operand(fn, item, env) for item in expr.items]
        if isinstance(expr, BuildTuple):
            return tuple(self._operand(fn, item, env) for item in expr.items)
        if isinstance(expr, BuildDict):
            return {
                self._operand(fn, k, env): self._operand(fn, v, env)
                for k, v in expr.items
            }
        raise InterpreterError(
            f"{fn.name}: unknown expression {type(expr).__name__}"
        )
