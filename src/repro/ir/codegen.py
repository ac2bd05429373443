"""Source-codegen backend for the IR interpreter.

The tree walker (:class:`~repro.ir.interpreter.Interpreter`) dispatches
every instruction and evaluates every operand through the register dict:
one ``x = y + z`` costs a handful of Python calls.  This module lowers an
:class:`~repro.ir.function.IRFunction` to **generated Python source** that
is compiled once with :func:`compile`/``exec``, the counterpart of the
paper's compiler-generated modulator and demodulator classes:

* IR registers become real Python locals (``LOAD_FAST`` instead of dict
  lookups); register names that are not valid identifiers (Jimple-style
  temps like ``$t3``) are mangled reversibly,
* basic blocks become straight-line Python code; control transfers go
  through a binary dispatch tree over block leaders, so a loop iteration
  pays one ``O(log blocks)`` dispatch instead of one dispatch per
  instruction,
* constants, operator applications, and registry entries are baked into
  the generated code object's globals,
* split checks are inlined at the exact UG edges of the active plan: the
  generated source is *specialized per (split set, observe set, metered)*
  — unwatched edges have no code at all, watched edges carry the observer
  call and the split's return of the environment.  Specializations are
  cached; plans change rarely relative to message traffic.

The metering protocol is preserved so ConvexCut's cost model and the
profiling units see identical observations: one ``instr_cycles`` charge per
executed instruction (accumulated in a local and flushed in a ``finally``
so mid-block errors leave the meter exactly as the tree-walker would) and
per-call ``cycle_cost(*args)``/``default_call_cycles`` charges in the same
order as the tree walker.

Semantics are identical to the tree-walking backend — same
:class:`~repro.ir.interpreter.Outcome` values and split environments,
same cycle-meter charges, same :class:`~repro.errors.InterpreterError`
messages.  The differential suite in
``tests/integration/test_backend_equivalence.py`` enforces this.

There is no runtime fallback to the tree walker.  The interpreter
refuses the shapes generated code cannot reproduce (an observer without
its edge set, a meter that is not exactly a
:class:`~repro.ir.interpreter.CycleMeter`) on both backends, and a
source-generation failure raises :class:`~repro.errors.InterpreterError`
naming the function — at partition time, since building a
:class:`~repro.core.partitioned.PartitionedMethod` emits one variant.
"""

from __future__ import annotations

import math as _math
import re
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

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
from repro.ir.interpreter import (
    Continuation,
    CycleMeter,
    Edge,
    Outcome,
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

_EMPTY_EDGES: FrozenSet[Edge] = frozenset()

#: Always empty: ``benchmarks/pipeline/harness.py`` still reads it.
fallback_counts: Dict[str, int] = {}


# -- name mangling -------------------------------------------------------------

#: matches a mangled register name quoted inside an UnboundLocalError message.
_MANGLED_RE = re.compile(r"'(_mp_[A-Za-z0-9_]*)'")


def _mangle(name: str) -> str:
    """Map an IR register name to a valid, reversible Python identifier.

    ``_`` is the escape character (doubled for a literal underscore) so
    Jimple temps like ``$t3`` (→ ``_mp__x24t3``) can never collide with a
    plain name that happens to spell the escape sequence.
    """
    out = ["_mp_"]
    for ch in name:
        if ch == "_":
            out.append("__")
        elif ch.isascii() and ch.isalnum():
            out.append(ch)
        else:
            out.append("_x%02x" % ord(ch))
    return "".join(out)


def _lit(value: object) -> str:
    """A Python source literal for a baked constant."""
    if isinstance(value, float) and not _math.isfinite(value):
        raise _Unsupported("non-finite float has no source literal")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    raise _Unsupported(f"constant {value!r} has no source literal")


class _Unsupported(Exception):
    """Raised during emission when an IR shape cannot be generated."""


# -- the emitter ---------------------------------------------------------------

_BIN_TOKENS = {
    "+", "-", "*", "/", "//", "%", "**", "<<", ">>", "&", "|", "^",
}
_CMP_TOKENS = {
    "==", "!=", "<", "<=", ">", ">=", "is", "is not", "in", "not in",
}
_UNARY_TOKENS = {"-", "+", "not", "~"}


class _Emitter:
    """Lowers one IRFunction + one edge specialization to Python source."""

    def __init__(
        self,
        fn: IRFunction,
        registry: FunctionRegistry,
        *,
        split_edges: FrozenSet[Edge],
        observe_edges: FrozenSet[Edge],
        metered: bool,
        entry_pcs: FrozenSet[int],
    ) -> None:
        self.fn = fn
        self.registry = registry
        self.split_edges = split_edges
        self.observe_edges = observe_edges
        self.metered = metered
        self.entry_pcs = entry_pcs
        self.lines: List[str] = []
        self.glb: Dict[str, object] = {"_IE": InterpreterError, "_REG": registry}
        self._gseq = 0
        self.vars: List[str] = []  # original register names, stable order
        self._var_set: Set[str] = set()
        self.leaders: FrozenSet[int] = frozenset()

    # -- small helpers ---------------------------------------------------------

    def _emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def _bake(self, prefix: str, obj: object) -> str:
        name = f"_{prefix}{self._gseq}"
        self._gseq += 1
        self.glb[name] = obj
        return name

    def _note_var(self, name: str) -> None:
        if name not in self._var_set:
            self._var_set.add(name)
            self.vars.append(name)

    def _operand(self, operand: Operand) -> str:
        """Source expression for an operand (const literal or mangled local)."""
        if isinstance(operand, Const):
            try:
                return _lit(operand.value)
            except _Unsupported:
                return self._bake("K", operand.value)
        self._note_var(operand.name)
        return _mangle(operand.name)

    def _watched(self, edge: Edge) -> bool:
        return edge in self.split_edges or edge in self.observe_edges

    # -- edge / transfer emission ----------------------------------------------

    def _emit_edge(self, indent: int, edge: Edge) -> None:
        """Observer call and/or split return at a watched UG edge."""
        u, v = edge
        self._emit(indent, "_loc = locals()")
        self._emit(
            indent,
            "_env = {_o: _loc[_k] for _k, _o in _VARS if _k in _loc}",
        )
        # locals() is the frame's cached dict: left bound, _loc would be
        # a member of itself from the next watched edge on, and every
        # register value would wait for the cyclic GC.
        self._emit(indent, "del _loc")
        if edge in self.observe_edges:
            if self.metered:
                # Observers read meter.cycles mid-execution (per-PSE cycle
                # attribution); flush the local accumulator first.
                self._emit(indent, "meter.cycles += _cy; _cy = 0.0")
                self._emit(indent, "meter.instructions += _n - _fn; _fn = _n")
            self._emit(indent, f"_observer(({u}, {v}), _env)")
        if edge in self.split_edges:
            self._emit(
                indent,
                f"return ('s', ({u}, {v}), _env), _n",
            )

    def _emit_transfer(self, indent: int, u: int, v: int, *, inline: bool) -> None:
        """Move control from pc *u* to pc *v* (observer/split code included).

        ``inline=True`` means *v* is the next textual instruction of the
        same block, so no dispatch jump is emitted.
        """
        n = len(self.fn.instrs)
        if v >= n or v < 0:
            if v >= n:
                self._emit(
                    indent,
                    f"raise _IE({_lit(self.fn.name + ': fell off the end at instruction ' + str(u))})",
                )
                return
            raise _Unsupported(f"unresolved branch target at pc {u}")
        if self._watched((u, v)):
            self._emit_edge(indent, (u, v))
            if (u, v) in self.split_edges:
                return  # the split return already left the function
        if not inline:
            self._emit(indent, f"_pc = {v}")
            self._emit(indent, "continue")

    # -- instruction emission --------------------------------------------------

    def _charge_lines(self, indent: int) -> None:
        if self.metered:
            self._emit(indent, "_n += 1; _cy += _ic")
        else:
            self._emit(indent, "_n += 1")

    def _emit_call_like(
        self,
        indent: int,
        target: Optional[str],
        func_src: str,
        cost_src: Optional[str],
        args: Tuple[Operand, ...],
        prefix: str,
        *,
        reraise_interp: bool,
        lazy_entry: Optional[str] = None,
    ) -> None:
        """Shared emission for Call/Invoke/New.

        ``lazy_entry`` is source for a registry lookup bound to ``_en``
        before the argument loads, mirroring the tree-walker's
        lookup-before-operands order for unregistered names.
        """
        if lazy_entry is not None:
            self._emit(indent, f"_en = {lazy_entry}")
        # Hoist Var operands out of the try so an unbound argument raises
        # used-before-assignment, not a wrapped call error.
        arg_srcs: List[str] = []
        for i, a in enumerate(args):
            src = self._operand(a)
            if isinstance(a, Const):
                arg_srcs.append(src)
            else:
                self._emit(indent, f"_a{i} = {src}")
                arg_srcs.append(f"_a{i}")
        call_args = ", ".join(arg_srcs)
        if self.metered:
            if lazy_entry is not None:
                self._emit(indent, "_cs = _en.cycle_cost")
                self._emit(
                    indent,
                    f"_cy += _dc if _cs is None else _cs({call_args})",
                )
            elif cost_src is not None:
                self._emit(indent, f"_cy += {cost_src}({call_args})")
            else:
                self._emit(indent, "_cy += _dc")
        self._emit(indent, "try:")
        assign = f"{target} = " if target is not None else ""
        self._emit(indent + 1, f"{assign}{func_src}({call_args})")
        if reraise_interp:
            self._emit(indent, "except _IE:")
            self._emit(indent + 1, "raise")
        self._emit(indent, "except Exception as _exc:")
        self._emit(
            indent + 1,
            f"raise _IE({_lit(prefix)} + type(_exc).__name__ + ': ' + str(_exc)) from _exc",
        )

    def _emit_assign_expr(self, indent: int, target: str, expr: Expr) -> None:
        fname = self.fn.name

        if isinstance(expr, OperandExpr):
            self._emit(indent, f"{target} = {self._operand(expr.operand)}")
            return

        if isinstance(expr, (BinOp, Compare)):
            if isinstance(expr, BinOp):
                if expr.op not in _BIN_TOKENS:
                    raise _Unsupported(f"binary op {expr.op!r}")
                catch = "(TypeError, ZeroDivisionError)"
            else:
                if expr.op not in _CMP_TOKENS:
                    raise _Unsupported(f"compare op {expr.op!r}")
                catch = "TypeError"
            left = self._operand(expr.left)
            right = self._operand(expr.right)
            prefix = f"{fname}: {expr!r} failed: "
            self._emit(indent, "try:")
            self._emit(indent + 1, f"{target} = {left} {expr.op} {right}")
            self._emit(indent, f"except {catch} as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(prefix)} + str(_exc)) from _exc",
            )
            return

        if isinstance(expr, UnaryOp):
            if expr.op not in _UNARY_TOKENS:
                message = f"{fname}: unknown unary op {expr.op!r}"
                self._emit(indent, f"raise _IE({_lit(message)})")
                return
            src = self._operand(expr.operand)
            prefix = f"{fname}: {expr!r} failed: "
            op = expr.op + (" " if expr.op == "not" else "")
            self._emit(indent, "try:")
            self._emit(indent + 1, f"{target} = {op}{src}")
            self._emit(indent, "except TypeError as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(prefix)} + str(_exc)) from _exc",
            )
            return

        if isinstance(expr, Call):
            prefix = f"{fname}: call {expr.func}(...) raised "
            if self.registry.has_function(expr.func):
                entry = self.registry.function(expr.func)
                func_src = self._bake("F", entry.fn)
                cost_src = (
                    self._bake("C", entry.cycle_cost)
                    if entry.cycle_cost is not None
                    else None
                )
                self._emit_call_like(
                    indent, target, func_src, cost_src, expr.args, prefix,
                    reraise_interp=True,
                )
            else:
                self._emit_call_like(
                    indent, target, "_en.fn", None, expr.args, prefix,
                    reraise_interp=True,
                    lazy_entry=f"_REG.function({_lit(expr.func)})",
                )
            return

        if isinstance(expr, New):
            prefix = f"{fname}: new {expr.cls}(...) raised "
            if self.registry.has_class(expr.cls):
                entry = self.registry.cls(expr.cls)
                func_src = self._bake("N", entry.cls)
                cost_src = (
                    self._bake("C", entry.cycle_cost)
                    if entry.cycle_cost is not None
                    else None
                )
                self._emit_call_like(
                    indent, target, func_src, cost_src, expr.args, prefix,
                    reraise_interp=False,
                )
            else:
                self._emit_call_like(
                    indent, target, "_en.cls", None, expr.args, prefix,
                    reraise_interp=False,
                    lazy_entry=f"_REG.cls({_lit(expr.cls)})",
                )
            return

        if isinstance(expr, IsInstance):
            src = self._operand(expr.operand)
            if self.registry.has_class(expr.cls):
                cls_src = self._bake("T", self.registry.cls(expr.cls).cls)
                self._emit(indent, f"{target} = isinstance({src}, {cls_src})")
            else:
                self._emit(indent, f"_o = {src}")
                self._emit(
                    indent,
                    f"{target} = isinstance(_o, _REG.cls({_lit(expr.cls)}).cls)",
                )
            return

        if isinstance(expr, Cast):
            src = self._operand(expr.operand)
            self._emit(indent, f"_o = {src}")
            if self.registry.has_class(expr.cls):
                cls_src = self._bake("T", self.registry.cls(expr.cls).cls)
            else:
                cls_src = f"_REG.cls({_lit(expr.cls)}).cls"
            self._emit(indent, f"if not isinstance(_o, {cls_src}):")
            pre = f"{fname}: cast of "
            suf = f" to {expr.cls} failed"
            self._emit(
                indent + 1,
                f"raise _IE({_lit(pre)} + type(_o).__name__ + {_lit(suf)})",
            )
            self._emit(indent, f"{target} = _o")
            return

        if isinstance(expr, GetAttr):
            src = self._operand(expr.obj)
            self._emit(indent, f"_o = {src}")
            if expr.attr.isidentifier():
                access = f"_o.{expr.attr}"
            else:
                access = f"getattr(_o, {_lit(expr.attr)})"
            pre = f"{fname}: "
            suf = f" has no attribute {expr.attr!r}"
            self._emit(indent, "try:")
            self._emit(indent + 1, f"{target} = {access}")
            self._emit(indent, "except AttributeError as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(pre)} + type(_o).__name__ + {_lit(suf)}) from _exc",
            )
            return

        if isinstance(expr, GetItem):
            obj = self._operand(expr.obj)
            idx = self._operand(expr.index)
            prefix = f"{fname}: indexing failed: "
            self._emit(indent, "try:")
            self._emit(indent + 1, f"{target} = {obj}[{idx}]")
            self._emit(indent, "except (TypeError, KeyError, IndexError) as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(prefix)} + str(_exc)) from _exc",
            )
            return

        if isinstance(expr, BuildList):
            items = ", ".join(self._operand(i) for i in expr.items)
            self._emit(indent, f"{target} = [{items}]")
            return

        if isinstance(expr, BuildTuple):
            items = ", ".join(self._operand(i) for i in expr.items)
            if len(expr.items) == 1:
                items += ","
            self._emit(indent, f"{target} = ({items})")
            return

        if isinstance(expr, BuildDict):
            inner = ", ".join(
                f"{self._operand(k)}: {self._operand(v)}"
                for k, v in expr.items
            )
            self._emit(indent, f"{target} = {{{inner}}}")
            return

        raise _Unsupported(f"expression {type(expr).__name__}")

    def _emit_instr(self, indent: int, pc: int, instr: Instr) -> None:
        fname = self.fn.name
        self._emit(indent, f"# {pc}: {instr!r}".replace("\n", " "))
        self._charge_lines(indent)

        if isinstance(instr, Assign):
            self._note_var(instr.target.name)
            self._emit_assign_expr(indent, _mangle(instr.target.name), instr.expr)
            return

        if isinstance(instr, Invoke):
            expr = instr.call
            prefix = f"{fname}: call {expr.func}(...) raised "
            if self.registry.has_function(expr.func):
                entry = self.registry.function(expr.func)
                func_src = self._bake("F", entry.fn)
                cost_src = (
                    self._bake("C", entry.cycle_cost)
                    if entry.cycle_cost is not None
                    else None
                )
                self._emit_call_like(
                    indent, None, func_src, cost_src, expr.args, prefix,
                    reraise_interp=True,
                )
            else:
                self._emit_call_like(
                    indent, None, "_en.fn", None, expr.args, prefix,
                    reraise_interp=True,
                    lazy_entry=f"_REG.function({_lit(expr.func)})",
                )
            return

        if isinstance(instr, Identity):
            self._note_var(instr.target.name)
            name = _mangle(instr.target.name)
            message = f"{fname}: parameter {instr.target.name!r} unbound"
            self._emit(indent, "try:")
            self._emit(indent + 1, name)
            self._emit(indent, "except UnboundLocalError:")
            self._emit(indent + 1, f"raise _IE({_lit(message)}) from None")
            return

        if isinstance(instr, SetAttr):
            obj = self._operand(instr.obj)
            val = self._operand(instr.value)
            self._emit(indent, f"_o = {obj}")
            self._emit(indent, f"_v = {val}")
            if instr.attr.isidentifier():
                assign = f"_o.{instr.attr} = _v"
            else:
                assign = f"setattr(_o, {_lit(instr.attr)}, _v)"
            pre = f"{fname}: cannot set {instr.attr!r} on "
            self._emit(indent, "try:")
            self._emit(indent + 1, assign)
            self._emit(indent, "except AttributeError as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(pre)} + type(_o).__name__) from _exc",
            )
            return

        if isinstance(instr, SetItem):
            obj = self._operand(instr.obj)
            idx = self._operand(instr.index)
            val = self._operand(instr.value)
            self._emit(indent, f"_o = {obj}")
            self._emit(indent, f"_i = {idx}")
            self._emit(indent, f"_v = {val}")
            pre = f"{fname}: item assignment failed on "
            self._emit(indent, "try:")
            self._emit(indent + 1, "_o[_i] = _v")
            self._emit(indent, "except (TypeError, KeyError, IndexError) as _exc:")
            self._emit(
                indent + 1,
                f"raise _IE({_lit(pre)} + type(_o).__name__ + ': ' + str(_exc)) from _exc",
            )
            return

        if isinstance(instr, Nop):
            return

        if isinstance(instr, (Return, Goto, If)):
            # charge emitted above; control flow belongs to the block walker
            return

        raise _Unsupported(f"instruction {type(instr).__name__}")

    # -- block / dispatch emission ---------------------------------------------

    def _compute_leaders(self) -> List[int]:
        n = len(self.fn.instrs)
        leaders: Set[int] = {0}
        for pc, instr in enumerate(self.fn.instrs):
            if isinstance(instr, Goto):
                leaders.add(instr.target_index)
            elif isinstance(instr, If):
                leaders.add(instr.target_index)
        leaders |= {pc for pc in self.entry_pcs if 0 <= pc < n}
        leaders.discard(-1)
        return sorted(p for p in leaders if 0 <= p < n)

    def _emit_block(self, indent: int, leader: int, leaders: List[int]) -> None:
        n = len(self.fn.instrs)
        idx = leaders.index(leader)
        end = leaders[idx + 1] if idx + 1 < len(leaders) else n
        pc = leader
        while pc < end:
            instr = self.fn.instrs[pc]
            self._emit_instr(indent, pc, instr)
            if isinstance(instr, Return):
                if instr.value is None:
                    self._emit(indent, "return ('r', None), _n")
                else:
                    self._emit(
                        indent, f"return ('r', {self._operand(instr.value)}), _n"
                    )
                return
            if isinstance(instr, Goto):
                self._emit_transfer(indent, pc, instr.target_index, inline=False)
                return
            if isinstance(instr, If):
                cond = instr.cond
                if isinstance(cond, Const):
                    taken = bool(cond.value) != bool(instr.negate)
                    if taken:
                        self._emit_transfer(
                            indent, pc, instr.target_index, inline=False
                        )
                        return
                    # fall through to pc + 1 below
                else:
                    neg = "not " if instr.negate else ""
                    self._emit(indent, f"if {neg}{self._operand(cond)}:")
                    self._emit_transfer(
                        indent + 1, pc, instr.target_index, inline=False
                    )
            # fallthrough edge (pc, pc + 1)
            nxt = pc + 1
            if nxt >= n:
                self._emit_transfer(indent, pc, nxt, inline=False)  # raises
                return
            if nxt == end:
                self._emit_transfer(indent, pc, nxt, inline=False)
                return
            self._emit_transfer(indent, pc, nxt, inline=True)
            pc = nxt

    def _emit_dispatch(
        self, indent: int, leaders: List[int], lo: int, hi: int
    ) -> None:
        if hi - lo == 1:
            self._emit(indent, f"# block {leaders[lo]}")
            self._emit_block(indent, leaders[lo], leaders)
            return
        mid = (lo + hi) // 2
        self._emit(indent, f"if _pc < {leaders[mid]}:")
        self._emit_dispatch(indent + 1, leaders, lo, mid)
        self._emit(indent, "else:")
        self._emit_dispatch(indent + 1, leaders, mid, hi)

    # -- top level -------------------------------------------------------------

    def generate(self) -> Tuple[str, Dict[str, object], FrozenSet[int]]:
        fn = self.fn
        leaders = self._compute_leaders()
        self.leaders = frozenset(leaders)

        # Pre-register every variable the function touches so entry binding
        # and the _VARS demangle table are complete and stably ordered.
        for param in fn.params:
            self._note_var(param.name)
        for instr in fn.instrs:
            for v in instr.defs():
                self._note_var(v.name)
            for v in instr.uses():
                self._note_var(v.name)

        body: List[str] = []
        self.lines = body
        self._emit(0, f"# generated by repro.ir.codegen for {fn.name!r}")
        self._emit(
            0,
            f"# split={sorted(self.split_edges)} "
            f"observe={sorted(self.observe_edges)} metered={self.metered}",
        )
        self._emit(
            0,
            "def _mp_exec(env, _start, meter, _observer, _max_steps):",
        )
        self._emit(1, "_n = 0")
        if self.metered:
            self._emit(1, "_cy = 0.0")
            self._emit(1, "_fn = 0")
        self._emit(1, "try:")
        if self.metered:
            self._emit(2, "_ic = meter.instr_cycles")
            self._emit(2, "_dc = meter.default_call_cycles")
        for name in self.vars:
            self._emit(2, f"if {_lit(name)} in env:")
            self._emit(3, f"{_mangle(name)} = env[{_lit(name)}]")
        self._emit(2, "_pc = _start")
        self._emit(2, "while True:")
        steps_msg_pre = f"{fn.name}: exceeded "
        self._emit(3, "if _n > _max_steps:")
        self._emit(
            4,
            f"raise _IE({_lit(steps_msg_pre)} + str(_max_steps)"
            f" + ' steps (infinite loop?)')",
        )
        self._emit_dispatch(3, leaders, 0, len(leaders))
        self._emit(1, "except UnboundLocalError as _exc:")
        self._emit(2, "raise _TR(_exc) from None")
        if self.metered:
            self._emit(1, "finally:")
            self._emit(2, "meter.cycles += _cy")
            self._emit(2, "meter.instructions += _n - _fn")

        self.glb["_VARS"] = tuple((_mangle(v), v) for v in self.vars)
        self.glb["_TR"] = _make_translator(
            fn.name, {_mangle(v): v for v in self.vars}
        )
        return "\n".join(body) + "\n", self.glb, self.leaders


def _make_translator(
    fname: str, demangle: Dict[str, str]
) -> Callable[[BaseException], InterpreterError]:
    """Translate an UnboundLocalError on a mangled register back into the
    tree-walker's used-before-assignment InterpreterError."""

    def translate(exc: BaseException) -> InterpreterError:
        match = _MANGLED_RE.search(str(exc))
        if match is not None:
            orig = demangle.get(match.group(1))
            if orig is not None:
                return InterpreterError(
                    f"{fname}: variable {orig!r} used before assignment"
                )
        raise exc

    return translate


def generate_source(
    fn: IRFunction,
    registry: FunctionRegistry,
    *,
    split_edges: FrozenSet[Edge] = _EMPTY_EDGES,
    observe_edges: FrozenSet[Edge] = _EMPTY_EDGES,
    metered: bool = True,
    entry_pcs: FrozenSet[int] = frozenset(),
) -> str:
    """The generated Python source for one specialization of *fn*.

    Public so regressions diff readably (golden test) and so the curious
    can inspect what the backend actually runs.
    """
    emitter = _Emitter(
        fn,
        registry,
        split_edges=split_edges,
        observe_edges=observe_edges,
        metered=metered,
        entry_pcs=entry_pcs,
    )
    source, _, _ = emitter.generate()
    return source


# -- the compiled artifact -----------------------------------------------------


class _Variant:
    """One compiled specialization: (split set, observe set, metered)."""

    __slots__ = ("run", "leaders", "source")

    def __init__(self, run, leaders: FrozenSet[int], source: str) -> None:
        self.run = run
        self.leaders = leaders
        self.source = source


class CodegenFunction:
    """An :class:`IRFunction` lowered to generated Python source."""

    __slots__ = (
        "fn",
        "registry",
        "name",
        "key",
        "_variants",
        "_extra_entries",
    )

    def __init__(
        self, fn: IRFunction, registry: FunctionRegistry, key: tuple
    ) -> None:
        self.fn = fn
        self.registry = registry
        self.name = fn.name
        self.key = key
        self._variants: Dict[tuple, _Variant] = {}
        self._extra_entries: Set[int] = set()

    # -- variant management ----------------------------------------------------

    def variant(
        self,
        split_edges: FrozenSet[Edge],
        observe_edges: FrozenSet[Edge],
        metered: bool,
    ) -> _Variant:
        """The compiled specialization, emitted on first use."""
        vkey = (split_edges, observe_edges, metered)
        variant = self._variants.get(vkey)
        if variant is not None:
            return variant
        emitter = _Emitter(
            self.fn,
            self.registry,
            split_edges=split_edges,
            observe_edges=observe_edges,
            metered=metered,
            entry_pcs=frozenset(self._extra_entries),
        )
        try:
            source, glb, leaders = emitter.generate()
            exec(compile(source, f"<codegen {self.name}>", "exec"), glb)
        except Exception as exc:  # noqa: BLE001 - any emission failure
            raise InterpreterError(
                f"{self.name}: code generation failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        variant = _Variant(glb["_mp_exec"], leaders, source)
        if len(self._variants) > 64:
            self._variants.clear()
        self._variants[vkey] = variant
        return variant

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        env: Dict[str, object],
        start_pc: int,
        split_edges: FrozenSet[Edge],
        edge_observer,
        observe_edges: Optional[FrozenSet[Edge]],
        meter: Optional[CycleMeter],
        max_steps: int,
    ) -> Tuple[Outcome, int]:
        """Run from *start_pc* on *env*; returns ``(outcome, steps)``.

        The interpreter has refused the shapes this cannot run: an
        observer comes with its *observe_edges*, and *meter* is None or
        exactly a :class:`CycleMeter`.
        """
        obs_edges = observe_edges if edge_observer is not None else _EMPTY_EDGES
        metered = meter is not None
        # the cached lookup inline: a call per run is a call per message
        variant = self._variants.get((split_edges, obs_edges, metered))
        if variant is None:
            variant = self.variant(split_edges, obs_edges, metered)
        if start_pc not in variant.leaders and 0 <= start_pc < len(self.fn.instrs):
            # A resume entry point we have not specialized for yet:
            # promote it to a block leader and re-emit.
            self._extra_entries.add(start_pc)
            self._variants.clear()
            variant = self.variant(split_edges, obs_edges, metered)
        result, count = variant.run(
            env, start_pc, meter, edge_observer, max_steps
        )
        if result[0] == "r":
            return Outcome(kind="return", value=result[1]), count
        _, edge, split_env = result
        return (
            Outcome(
                kind="split",
                continuation=Continuation(self.name, edge, split_env),
            ),
            count,
        )


def codegen_function(
    fn: IRFunction, registry: FunctionRegistry
) -> CodegenFunction:
    """Lower *fn* once to a source-codegen artifact; cached on the function.

    The cache key is IR identity plus registry version, so re-registration
    forces a fresh generation with new baked entries.
    """
    key = (
        id(registry),
        registry.version,
        id(fn.instrs),
        len(fn.instrs),
    )
    cached = getattr(fn, "_codegen_cache", None)
    if cached is not None and cached.key == key:
        return cached
    artifact = CodegenFunction(fn, registry, key)
    fn._codegen_cache = artifact
    return artifact
