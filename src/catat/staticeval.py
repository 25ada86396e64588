"""The compile-time interpreter.

Evaluates stage-0 expressions, statements, and whole functions over
values, including first-class type values and type functions.  Annotation
marks do not change evaluation: whatever this interpreter touches is being
executed *now*, so ``for@`` loops run, ``if@`` selects a branch, and
``f@(...)`` is an ordinary call.  The same engine (with step accounting
switched on) executes residual programs; both stages share one numeric
semantics.

``Catat_error@`` and the code builders (make_lambda, make_op, ...) are the
builtin functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import nodes as n
from .errors import (
    STACK_EXHAUSTED, DepthExceeded, LoopLimitExceeded, OutOfBounds, Span,
    StepLimitExceeded, TypeMismatch, UnboundVariable,
)
from .flatten import BUILDERS
from .values import (
    ArrayV, BoolV, ClassTV, Env, FixedArrayTV, FloatV, InstanceV, IntV,
    PointerTV, PRIM_BY_NAME, Slot, StrV, TypeValue, UNIT, Value, arith,
    coerce, describe, truth, zero_value,
)


@dataclass
class EvalLimits:
    loop_cap: int = 1_000_000
    max_depth: int = 256
    step_limit: int | None = None


class DepthGuard:
    """Chain-depth accounting shared by static calls and specializations."""

    def __init__(self, limit: int):
        self.limit = limit
        self.depth = 0

    def enter(self, span: Span | None = None) -> None:
        self.depth += 1
        if self.depth > self.limit:
            raise DepthExceeded(
                f"static call/specialization chain exceeded the depth limit "
                f"({self.limit})", span)

    def exit(self) -> None:
        self.depth -= 1


class _ReturnSignal(Exception):
    def __init__(self, value: Value):
        self.value = value


class Interpreter:
    """Single-level evaluation over a program's declarations."""

    def __init__(self, program: n.Program | None = None,
                 limits: EvalLimits | None = None,
                 depth_guard: DepthGuard | None = None,
                 count_steps: bool = False):
        self.limits = limits or EvalLimits()
        self.depth_guard = depth_guard or DepthGuard(self.limits.max_depth)
        self.count_steps = count_steps
        self.steps = 0
        self.functions: dict = {}
        self.classes: dict = {}
        self.globals = Env()
        if program is not None:
            self.load(program)

    def load(self, program: n.Program) -> None:
        for f in program.functions():
            self.functions[(f.name, f.static_arity)] = f
        for c in program.classes():
            self.classes[c.name] = c

    def add_function(self, fn: n.FunctionDef) -> None:
        self.functions[(fn.name, fn.static_arity)] = fn

    def _step(self, span: Span | None) -> None:
        if not self.count_steps:
            return
        self.steps += 1
        if self.limits.step_limit is not None and \
                self.steps > self.limits.step_limit:
            raise StepLimitExceeded(
                f"step limit ({self.limits.step_limit}) exceeded", span)

    # -- program-level entry points ------------------------------------------

    def run_top(self, program: n.Program) -> None:
        """Execute top-level statements into the global environment."""
        for item in program.items:
            if isinstance(item, n.Stmt):
                self.exec_stmt(item, self.globals)

    def call_by_name(self, name: str, args: list, span: Span | None = None,
                     static_arity: int = 0) -> Value:
        fn = self.functions.get((name, static_arity))
        if fn is None:
            raise UnboundVariable(f"unknown function '{name}'", span)
        return self.call_function(fn, args, span)

    def call_function(self, fn: n.FunctionDef, args: list,
                      span: Span | None = None) -> Value:
        all_params = (fn.static_params or []) + fn.params
        if len(args) != len(all_params):
            raise TypeMismatch(
                f"'{fn.name}' expects {len(all_params)} argument(s), got "
                f"{len(args)}", span)
        self.depth_guard.enter(span)
        try:
            env = self.globals.child()
            for p, a in zip(all_params, args):
                tv = self.resolve_type(p.dtype, env, p.span)
                env.declare(p.name, Slot(coerce(a, tv, p.span), tv), p.span)
            try:
                self.exec_block(fn.body, env)
            except _ReturnSignal as ret:
                return ret.value
            return UNIT
        finally:
            self.depth_guard.exit()

    # -- types ----------------------------------------------------------------

    def resolve_type(self, t: n.TypeExpr, env: Env,
                     span: Span | None = None) -> TypeValue:
        if isinstance(t, n.PrimType):
            return PRIM_BY_NAME[t.name]
        if isinstance(t, n.NamedType):
            slot = env.find(t.name)
            if slot is not None:
                if not isinstance(slot.value, TypeValue):
                    raise TypeMismatch(
                        f"'{t.name}' does not hold a type value", span)
                return slot.value
            if t.name in self.classes:
                return ClassTV(t.name)
            raise UnboundVariable(f"unknown type name '{t.name}'", span)
        if isinstance(t, n.PointerType):
            return PointerTV(self.resolve_type(t.base, env, span))
        if isinstance(t, n.ArrayType):
            return FixedArrayTV(self.resolve_type(t.base, env, span),
                                self._array_size(t.size, env))
        if isinstance(t, n.ClassAppType):
            if t.name not in self.classes:
                raise UnboundVariable(f"unknown class '{t.name}'", span)
            return ClassTV(t.name)
        raise TypeMismatch(f"unsupported type {t!r}", span)

    def _array_size(self, size_expr: n.Expr, env: Env) -> int:
        size = self.eval_expr(size_expr, env)
        if not isinstance(size, IntV) or size.value < 0:
            raise TypeMismatch("array size must be a non-negative int",
                               size_expr.span)
        return size.value

    # -- classes ----------------------------------------------------------------

    def instantiate_class(self, cls: n.ClassDef, args: list,
                          span: Span | None = None) -> InstanceV:
        """Run-time instantiation of a (single-level or erased) class."""
        if len(args) != len(cls.static_params):
            raise TypeMismatch(
                f"class '{cls.name}' expects {len(cls.static_params)} "
                f"argument(s)", span)
        env = self.globals.child()
        for p, a in zip(cls.static_params, args):
            tv = self.resolve_type(p.dtype, env, p.span)
            env.declare(p.name, Slot(coerce(a, tv, p.span), tv), p.span)
        members: list[str] = []
        sized: list[tuple[n.VarDecl, n.Declarator]] = []
        for decl in cls.member_decls():
            for d in decl.declarators:
                members.append(d.name)
                if d.array_size is not None or \
                        isinstance(decl.dtype, n.ArrayType):
                    env.declare(d.name, Slot(None), d.span)
                    sized.append((decl, d))
                else:
                    tv = self.resolve_type(decl.dtype, env, decl.span)
                    init = coerce(self.eval_expr(d.init, env), tv, d.span) \
                        if d.init is not None else self._default(tv, d.span)
                    env.declare(d.name, Slot(init, tv), d.span)
        ctor = cls.static_ctor()
        if ctor is not None:
            self.exec_block(ctor.body, env.child())
        for decl, d in sized:
            dtype = decl.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            tv = self.resolve_type(dtype, env, d.span)
            env.slots[d.name].tv = tv
            env.slots[d.name].value = zero_value(tv, d.span)
        ctor = cls.dynamic_ctor()
        if ctor is not None:
            self.exec_block(ctor.body, env.child())
        return InstanceV(cls.name, {m: env.slots[m].value for m in members})

    def _default(self, tv: TypeValue, span: Span | None) -> Value | None:
        try:
            return zero_value(tv, span)
        except TypeMismatch:
            return None

    # -- statements ---------------------------------------------------------

    def exec_block(self, block: n.Block, env: Env) -> None:
        child = env.child()
        for s in block.stmts:
            self.exec_stmt(s, child)

    def exec_stmt(self, stmt: n.Stmt, env: Env) -> None:
        self._step(stmt.span)
        if isinstance(stmt, n.VarDecl):
            self.exec_var_decl(stmt, env)
        elif isinstance(stmt, n.Assign):
            self.exec_assign(stmt, env)
        elif isinstance(stmt, n.ExprStmt):
            self.eval_expr(stmt.expr, env)
        elif isinstance(stmt, n.Return):
            value = UNIT if stmt.value is None \
                else self.eval_expr(stmt.value, env)
            raise _ReturnSignal(value)
        elif isinstance(stmt, n.Block):
            self.exec_block(stmt, env)
        elif isinstance(stmt, n.If):
            if truth(self.eval_expr(stmt.cond, env), stmt.span):
                self.exec_stmt(stmt.then_stmt, env.child())
            elif stmt.else_stmt is not None:
                self.exec_stmt(stmt.else_stmt, env.child())
        elif isinstance(stmt, n.For):
            self.exec_for(stmt, env)
        elif isinstance(stmt, n.Switch):
            self.exec_switch(stmt, env)
        else:
            raise TypeMismatch(f"cannot execute {type(stmt).__name__}",
                               stmt.span)

    def exec_var_decl(self, stmt: n.VarDecl, env: Env) -> None:
        for d in stmt.declarators:
            dtype = stmt.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            if isinstance(dtype, n.ClassAppType):
                args = [self.eval_expr(a, env) for a in dtype.args]
                cls = self.classes.get(dtype.name)
                if cls is None:
                    raise UnboundVariable(f"unknown class '{dtype.name}'",
                                          stmt.span)
                value = self.instantiate_class(cls, args, stmt.span)
                env.declare(d.name, Slot(value, ClassTV(dtype.name)), d.span)
                continue
            tv = self.resolve_type(dtype, env, stmt.span)
            if d.init is not None:
                value = coerce(self.eval_expr(d.init, env), tv, d.span)
            elif isinstance(tv, ClassTV):
                value = self.instantiate_class(self.classes[tv.name], [],
                                               d.span)
            else:
                value = zero_value(tv, d.span)
            env.declare(d.name, Slot(value, tv), d.span)

    def exec_assign(self, stmt: n.Assign, env: Env) -> None:
        value = self.eval_expr(stmt.value, env)
        if isinstance(stmt.target, n.VarRef):
            slot = env.lookup(stmt.target.name, stmt.span)
            if stmt.op != "=":
                if slot.value is None:
                    raise UnboundVariable(
                        f"'{stmt.target.name}' read before assignment",
                        stmt.span)
                value = arith(stmt.op[0], slot.value, value, stmt.span)
            slot.value = coerce(value, slot.tv, stmt.span)
            return
        if isinstance(stmt.target, n.Subscript):
            arr, idx = self._subscript_target(stmt.target, env)
            if stmt.op != "=":
                value = arith(stmt.op[0], arr.cells[idx], value, stmt.span)
            arr.cells[idx] = coerce(value, arr.elem, stmt.span)
            return
        raise TypeMismatch("invalid assignment target", stmt.span)

    def _subscript_target(self, target: n.Subscript,
                          env: Env) -> tuple[ArrayV, int]:
        base = self.eval_expr(target.base, env)
        if not isinstance(base, ArrayV):
            raise TypeMismatch(f"cannot subscript {describe(base)}",
                               target.span)
        idx = self.eval_expr(target.index, env)
        if not isinstance(idx, IntV):
            raise TypeMismatch("array index must be an int", target.span)
        if not (0 <= idx.value < len(base.cells)):
            raise OutOfBounds(
                f"index {idx.value} outside array of length "
                f"{len(base.cells)}", target.span)
        return base, idx.value

    def exec_for(self, stmt: n.For, env: Env) -> None:
        loop_env = env.child()
        if stmt.init is not None:
            self.exec_stmt(stmt.init, loop_env)
        iterations = 0
        while True:
            if stmt.cond is not None:
                if not truth(self.eval_expr(stmt.cond, loop_env), stmt.span):
                    break
            iterations += 1
            if iterations > self.limits.loop_cap:
                raise LoopLimitExceeded(
                    f"loop iteration cap ({self.limits.loop_cap}) exceeded",
                    stmt.span)
            self.exec_stmt(stmt.body, loop_env.child())
            if stmt.incr is not None:
                self.exec_stmt(stmt.incr, loop_env)

    def exec_switch(self, stmt: n.Switch, env: Env) -> None:
        subject = self.eval_expr(stmt.subject, env)
        default_case = None
        for case in stmt.cases:
            if case.label is None:
                default_case = case
                continue
            label = self.eval_expr(case.label, env)
            if truth(arith("==", subject, label, case.span), case.span):
                self._exec_case(case, env)
                return
        if default_case is not None:
            self._exec_case(default_case, env)

    def _exec_case(self, case: n.SwitchCase, env: Env) -> None:
        child = env.child()
        for s in case.body:
            self.exec_stmt(s, child)

    # -- expressions ----------------------------------------------------------

    def eval_expr(self, e: n.Expr, env: Env) -> Value:
        self._step(e.span)
        if isinstance(e, n.IntLit):
            return IntV(e.value)
        if isinstance(e, n.FloatLit):
            return FloatV(e.value)
        if isinstance(e, n.BoolLit):
            return BoolV(e.value)
        if isinstance(e, n.StringLit):
            return StrV(e.value)
        if isinstance(e, n.TypeLit):
            return self.resolve_type(e.type_expr, env, e.span)
        if isinstance(e, n.VarRef):
            slot = env.lookup(e.name, e.span)
            if slot.value is None:
                raise UnboundVariable(f"'{e.name}' read before assignment",
                                      e.span)
            return slot.value
        if isinstance(e, n.Unary):
            v = self.eval_expr(e.operand, env)
            if e.op == "!":
                return BoolV(not truth(v, e.span))
            if isinstance(v, IntV):
                return arith("-", IntV(0), v, e.span)
            if isinstance(v, FloatV):
                return FloatV(-v.value)
            raise TypeMismatch(f"cannot negate {describe(v)}", e.span)
        if isinstance(e, n.Incr):
            if not isinstance(e.target, n.VarRef):
                raise TypeMismatch(f"'{e.op}' needs a variable", e.span)
            slot = env.lookup(e.target.name, e.span)
            if slot.value is None:
                raise UnboundVariable(
                    f"'{e.target.name}' read before assignment", e.span)
            delta = 1 if e.op == "++" else -1
            slot.value = coerce(arith("+", slot.value, IntV(delta), e.span),
                                slot.tv, e.span)
            return slot.value
        if isinstance(e, n.Binary):
            if e.op in ("&&", "||"):
                lhs = truth(self.eval_expr(e.lhs, env), e.span)
                if e.op == "&&" and not lhs:
                    return BoolV(False)
                if e.op == "||" and lhs:
                    return BoolV(True)
                return BoolV(truth(self.eval_expr(e.rhs, env), e.span))
            return arith(e.op, self.eval_expr(e.lhs, env),
                         self.eval_expr(e.rhs, env), e.span)
        if isinstance(e, n.Cond):
            if truth(self.eval_expr(e.cond, env), e.span):
                return self.eval_expr(e.then_expr, env)
            return self.eval_expr(e.else_expr, env)
        if isinstance(e, n.Subscript):
            arr, idx = self._subscript_target(e, env)
            return arr.cells[idx]
        if isinstance(e, n.Call):
            return self.eval_call(e, env)
        raise TypeMismatch(f"cannot evaluate {type(e).__name__}", e.span)

    def eval_call(self, e: n.Call, env: Env) -> Value:
        if e.callee in BUILDERS:
            args = [self.eval_expr(a, env) for a in e.args]
            return BUILDERS[e.callee](args, e.span)
        if e.static_args is not None:
            raise TypeMismatch(
                f"specializing call '{e.callee}(s...)(d...)' cannot be "
                "evaluated directly; specialize the program first", e.span)
        fn = self.functions.get((e.callee, 0))
        if fn is None:
            raise UnboundVariable(f"unknown function '{e.callee}'", e.span)
        args = [self.eval_expr(a, env) for a in e.args]
        return self.call_function(fn, args, e.span)


def call_static(fn: n.FunctionDef, args: list,
                program: n.Program | None = None,
                limits: EvalLimits | None = None) -> Value:
    """Fully interpret a function at stage 0 (the ``f@(...)`` path)."""
    try:
        interp = Interpreter(program, limits)
        if (fn.name, fn.static_arity) not in interp.functions:
            interp.add_function(fn)
        return interp.call_function(fn, args, fn.span)
    except RecursionError:
        raise DepthExceeded(STACK_EXHAUSTED) from None


def value_of(v: Value):
    """Unwrap a scalar for tests and reporting."""
    if isinstance(v, (IntV, FloatV, BoolV, StrV)):
        return v.value
    return v
