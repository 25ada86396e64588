"""Reference interpreter for single-level programs.

Executes residual programs (and annotation-erased two-level programs, the
oracle side of the mix equation) with the same call-by-value numeric
semantics as the compile-time evaluator, so specialization cannot change
results.  Array accesses are bounds-checked; scalars and arrays without an
initializer start at zero; step counts are reported as the only
performance proxy.
"""

from __future__ import annotations

import sys

from . import nodes as n
from .staging import check_stages
from .errors import STACK_EXHAUSTED, DepthExceeded, Record
from .staticeval import EvalLimits, Interpreter, raise_recursion_limit
from .values import Value, UNIT

DEFAULT_STEP_LIMIT = 10_000_000


class RunResult(Record):
    __slots__ = _fields = ("value", "steps", "bindings")

    def __init__(self, value: Value, steps: int,
                 bindings: list | None = None):
        self.value = value
        self.steps = steps
        # (name, Value) globals, scripting reports
        self.bindings = bindings


def _checked_program(program, check: bool) -> n.Program:
    """The Program to run, checked with ``check_stages(levels=1)`` unless
    ``check`` is false.  A plain Program is checked on every call; a
    ResidualProgram is checked on its first run and remembers that it
    passed."""
    if isinstance(program, n.Program):
        if check:
            check_stages(program, levels=1)
        return program
    if not hasattr(program, "to_program_ast"):
        raise TypeError(f"cannot run {type(program).__name__}")
    ast = program.to_program_ast()
    if check and not program.checked:
        check_stages(ast, levels=1)
        program.checked = True
    return ast


def run(program, entry: str | None = None, args: list | tuple = (),
        limits: EvalLimits | None = None, check: bool = True) -> RunResult:
    """Execute a single-level program: globals first, then ``entry``.

    ``program`` may be a ResidualProgram or an annotation-free Program AST.
    Without an entry the result is the global execution itself (scripting).
    """
    if limits is None:
        limits = EvalLimits(step_limit=DEFAULT_STEP_LIMIT)
    elif limits.step_limit is None:
        limits = EvalLimits(limits.loop_cap, limits.max_depth,
                            DEFAULT_STEP_LIMIT)
    old_limit = raise_recursion_limit(limits.max_depth)
    try:
        ast = _checked_program(program, check)
        interp = Interpreter(ast, limits, count_steps=True)
        interp.run_top(ast)
        value: Value = UNIT
        if entry is not None:
            value = interp.call_by_name(entry, list(args))
        return RunResult(value, interp.steps, interp.globals.bindings())
    except RecursionError:
        raise DepthExceeded(STACK_EXHAUSTED) from None
    finally:
        sys.setrecursionlimit(old_limit)


def erase_stages(program: n.Program) -> n.Program:
    """Remove every annotation: parameter lists merge (static first),
    ``f(s)(d)`` becomes ``f(s..., d...)``, and all ``@`` marks vanish.
    The result is the plain-interpretation semantics the residual is
    compared against."""
    return n.strip_annotations(program, merge_call_lists=True)


def run_unstaged(program: n.Program, entry: str, all_args: list | tuple,
                 limits: EvalLimits | None = None) -> RunResult:
    """Plain interpretation of the annotation-erased program with all
    arguments (static first); the oracle side of the mix equation."""
    erased = erase_stages(program)
    return run(erased, entry, all_args, limits, check=False)


def format_result(v: Value) -> str:
    """Stable textual form of a run result (``int 32``, ``float 8.0``)."""
    from .values import (ArrayV, BoolV, FloatV, InstanceV, IntV, StrV,
                         TypeValue, UnitV, render_static_arg, render_type)
    if isinstance(v, IntV):
        return f"int {v.value}"
    if isinstance(v, FloatV):
        return f"float {v.value!r}"
    if isinstance(v, BoolV):
        return f"bool {'true' if v.value else 'false'}"
    if isinstance(v, UnitV):
        return "void"
    if isinstance(v, TypeValue):
        return f"type {render_type(v)}"
    if isinstance(v, ArrayV):
        return f"array {render_static_arg(v)}"
    if isinstance(v, StrV):
        return f"string {v.value}"
    if isinstance(v, InstanceV):
        return f"instance {render_static_arg(v)}"
    return str(v)


def format_binding(name: str, v: Value | None) -> str:
    from .values import render_static_arg
    if v is None:
        return f"{name} = <unset>"
    return f"{name} = {render_static_arg(v)}"
