"""Instruction-level IR substrate (the reproduction's Jimple equivalent).

Public surface:

* :func:`lower_function` — compile a restricted-Python handler to IR.
* :class:`IRFunction` — the lowered program; UG node ids are instruction
  indices.
* :class:`FunctionRegistry` / :func:`default_registry` — functions and
  classes a handler may reference; entries carry the ``receiver_only`` flag
  that drives StopNode marking.
* :class:`Interpreter`, :class:`CycleMeter`, :class:`Continuation`,
  :class:`Outcome`, :class:`SplitHook` — execution with split/profiling
  hooks, on generated source (:mod:`repro.ir.codegen`, the default) or
  the reference tree walker.
* :func:`format_function` — Jimple-style listing for diagnostics.
* :func:`validate_function` — structural checks.
"""

from repro.ir.builder import lower_function
from repro.ir.function import IRFunction
from repro.ir.inliner import inline_calls
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
    Interpreter,
    Outcome,
    SplitHook,
)
from repro.ir.printer import format_edge, format_function, format_unit_graph
from repro.ir.registry import (
    ClassEntry,
    FunctionEntry,
    FunctionRegistry,
    default_registry,
)
from repro.ir.validate import validate_function
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
    Var,
)

__all__ = [
    "lower_function",
    "IRFunction",
    "inline_calls",
    "FunctionRegistry",
    "FunctionEntry",
    "ClassEntry",
    "default_registry",
    "Interpreter",
    "CycleMeter",
    "Continuation",
    "Outcome",
    "SplitHook",
    "Edge",
    "format_function",
    "format_edge",
    "format_unit_graph",
    "validate_function",
    # instructions
    "Instr",
    "Assign",
    "Invoke",
    "Identity",
    "If",
    "Goto",
    "Return",
    "SetAttr",
    "SetItem",
    "Nop",
    # values
    "Var",
    "Const",
    "Expr",
    "BinOp",
    "UnaryOp",
    "Compare",
    "Call",
    "New",
    "IsInstance",
    "Cast",
    "GetAttr",
    "GetItem",
    "BuildDict",
    "BuildList",
    "BuildTuple",
    "OperandExpr",
]
