"""The compile-time interpreter.

Evaluates stage-0 expressions, statements, and whole functions over
values, including first-class type values and type functions.  Annotation
marks do not change evaluation: whatever this interpreter touches is being
executed *now*, so ``for@`` loops run, ``if@`` selects a branch, and
``f@(...)`` is an ordinary call.  The same engine (with step accounting
switched on) executes residual programs; both stages share one numeric
semantics.

Evaluation dispatches on the node's exact class.  ``eval_expr`` and
``exec_stmt`` count one step for the node when step accounting is on, then
call the handler that ``_EXPR`` or ``_STMT`` holds for ``type(node)``; a
class without a handler is an error.  A statement returns ``None`` when
control falls through and the ``Value`` of a ``return`` otherwise.  Blocks,
loops and switches stop at the first statement that returns a value and
pass it up; ``call_function`` makes it the call's result.

A few handlers read a ``VarRef`` or ``IntLit`` operand themselves, without
dispatching it through ``eval_expr``: ``_eval_subscript`` does ``a[3]``
whole, ``_eval_binary`` reads a literal operand, and ``exec_assign`` and
``exec_var_decl`` read a leaf value or initializer with ``_leaf``.
``exec_assign`` also stores to a ``VarRef`` target with ``store``'s
lookup, ``binop`` and ``coerce`` inline, and ``exec_var_decl`` declares a
scalar with ``resolve_type``, ``coerce`` and ``Env.declare`` inline.
These are the shapes specialization leaves behind (an unrolled
``acc += a[3] * 2``), where a dispatch per leaf was a large share of a
residual run.  The index of ``a[i]`` and the operands of ``i < n`` still
dispatch: they belong to the loops that a residual has unrolled, so reading
them inline would speed up the unstaged program at least as much.  An
inline read counts the leaf's step and raises its error, message and span,
in the order the dispatch would.  It is taken only while the steps it
counts stay within the step limit, so ``StepLimitExceeded`` still comes
from ``eval_expr`` at the same node.

``Catat_error@`` and the code builders (make_lambda, make_op, ...) are the
builtin functions.  The builders draw names and resolve calls in the
specializer's unit under way, the interpreter's ``unit``.

A call of a function whose parameter lists ``erase_stages`` merged may
leave its leading typename arguments to inference, as its two-level call
did: ``call_function`` infers them from the element types of the arrays
the call passes, and only for a call that would otherwise fail its arity.

A function whose body ``pyemit`` compiled (``Interpreter.compiled``) runs
compiled: ``call_function`` binds its arguments and takes its depth level
as for any call, then runs the Python function in place of the walker.
The compiled code calls the module functions below the handler tables, as
the walker does, so both raise the same errors with the same spans.

While specializing, calls of pure functions are memoized, as a C++
compiler instantiates each template-id once.  ``specializer`` gives its
interpreter a ``CallMemo`` for one specialization run, which a call
from static code consults before ``call_function`` (``call_static``, in
either engine); ``run`` and ``run_unstaged`` count steps and have none.

* **Pure** is decided per definition when the memo is made: the function
  has one parameter list, its parameter types and body hold only node
  classes in ``_PURE_NODES`` (no declaration, assignment, ``++``/``--``
  or class instance), every name it uses is one of its parameters, and
  it calls only ``Catat_error`` and pure functions.  Recursion is
  allowed.
* **Key:** the function and its arguments.  An int or bool is keyed by
  class and value, a float also by sign (``-0.0`` is not ``0.0``), a type
  value by itself, and an array of scalars by identity and store count
  (``ArrayV.stores``).  A call with any other argument is not memoized.
* **Cached:** only an int, float, bool or type result, so an array is
  never shared; a call that raises caches nothing and raises again.
* **Depth:** each entry records how deep its call went below itself.  A
  hit that would pass the depth limit where it occurs runs the call
  instead, so the same ``DepthExceeded`` and span come out.
"""

from __future__ import annotations

import math
import operator
import sys

from . import nodes as n
from .errors import (
    STACK_EXHAUSTED, DepthExceeded, LoopLimitExceeded, OutOfBounds, Record,
    Span, StepLimitExceeded, TypeMismatch, UnboundVariable,
)
from .flatten import BUILDERS
from .values import (
    INT64_MAX, INT64_MIN, SCALAR_CELLS, ArrayV, BoolV, ClassTV, Env,
    FixedArrayTV, FloatV, InstanceV, IntV, PointerTV, PRIM_BY_NAME, PrimTV,
    Slot, StrV, TypeValue, UNIT, Value, arith, coerce, describe, truth,
    zero_value,
)


class EvalLimits(Record):
    __slots__ = _fields = ("loop_cap", "max_depth", "step_limit")

    def __init__(self, loop_cap: int = 1_000_000, max_depth: int = 256,
                 step_limit: int | None = None):
        self.loop_cap = loop_cap
        self.max_depth = max_depth
        self.step_limit = step_limit


# Python frames one level of a Catat call chain may take: the call, its
# block, and the statements and expressions between it and the next call.
# Each dispatched node takes two (``eval_expr``/``exec_stmt`` and its
# handler); a ``return f(x)`` under an ``if`` takes about ten.
FRAMES_PER_CALL = 40
STACK_MARGIN = 1000      # the caller's own frames
STACK_CAP = 50_000


def raise_recursion_limit(max_depth: int) -> int:
    """Make room on Python's stack for ``max_depth`` nested Catat calls,
    so that the depth limit, not the stack, ends a deep chain.  Returns the
    previous limit, which the caller restores."""
    old = sys.getrecursionlimit()
    wanted = min(STACK_CAP, FRAMES_PER_CALL * max_depth + STACK_MARGIN)
    if wanted > old:
        sys.setrecursionlimit(wanted)
    return old


class DepthGuard:
    """Chain-depth accounting shared by static calls and specializations."""

    def __init__(self, limit: int):
        self.limit = limit
        self.depth = 0

    def enter(self, span: Span | None = None) -> None:
        """Take a level; one past the limit raises and takes none."""
        if self.depth >= self.limit:
            raise self.exceeded(span)
        self.depth += 1

    def exceeded(self, span: Span | None) -> DepthExceeded:
        return DepthExceeded(
            f"static call/specialization chain exceeded the depth limit "
            f"({self.limit})", span)

    def exit(self) -> None:
        self.depth -= 1


class Interpreter:
    """Single-level evaluation over a program's declarations."""

    def __init__(self, program: n.Program | None = None,
                 limits: EvalLimits | None = None,
                 count_steps: bool = False):
        self.limits = limits or EvalLimits()
        self.depth_guard = DepthGuard(self.limits.max_depth)
        self.count_steps = count_steps
        self.steps = 0
        self._step_cap = float("inf") if self.limits.step_limit is None \
            else self.limits.step_limit
        self.functions: dict = {}
        self.classes: dict = {}
        self.globals = Env()
        # set by specializer.SpecializationCache for one specialization run
        self.memo: CallMemo | None = None
        # the specializer's unit under way (``specializer.Unit``), held by
        # ``SpecializationCache.unit`` for the unit's body on either route
        self.unit = None
        # id(FunctionDef) -> its body compiled to Python (``pyemit``), run
        # by ``call_function`` in place of the walker
        self.compiled: dict = {}
        if program is not None:
            self.load(program)

    def load(self, program: n.Program) -> None:
        for f in program.functions():
            self.functions[(f.name, f.static_arity)] = f
        for c in program.classes():
            self.classes[c.name] = c

    def add_function(self, fn: n.FunctionDef) -> None:
        self.functions[(fn.name, fn.static_arity)] = fn

    # -- program-level entry points ------------------------------------------

    def run_top(self, program: n.Program) -> None:
        """Execute top-level statements into the global environment."""
        for item in program.items:
            if isinstance(item, n.Stmt) and \
                    self.exec_stmt(item, self.globals) is not None:
                raise TypeMismatch("return outside a function", item.span)

    def call_by_name(self, name: str, args: list,
                     span: Span | None = None) -> Value:
        fn = self.functions.get((name, 0))
        if fn is None:
            raise UnboundVariable(f"unknown function '{name}'", span)
        return self.call_function(fn, args, span)

    def call_static(self, callee: str, args: list,
                    span: Span | None) -> Value:
        """A call of a user function from static code, in either engine:
        through the memo when the function is pure."""
        fn = self.functions.get((callee, 0))
        if fn is None:
            raise UnboundVariable(f"unknown function '{callee}'", span)
        memo = self.memo
        if memo is not None and memo.pure.get(id(fn)) is fn:
            return self._call_memoized(memo, fn, args, span)
        return self.call_function(fn, args, span)

    def _call_memoized(self, memo: CallMemo, fn: n.FunctionDef,
                       args: list, span: Span | None) -> Value:
        """``call_function`` for a pure function, through the memo.  A hit
        whose recorded depth would pass the limit here runs the call
        instead, so the same ``DepthExceeded`` comes out as without the
        memo."""
        depth = self.depth_guard.depth + 1  # the depth the call runs at
        key = memo.key(fn, args)
        if key is not None:
            entry = memo.table.get(key)
            if entry is not None and \
                    depth + entry[1] <= self.depth_guard.limit:
                memo.hits += 1
                memo.deepest = max(memo.deepest, depth + entry[1])
                return entry[0]
        outer = memo.deepest
        memo.deepest = depth
        try:
            result = self.call_function(fn, args, span)
        finally:
            below = memo.deepest - depth
            memo.deepest = max(outer, memo.deepest)
        if key is not None and (result.__class__ in _IMMUTABLE_RESULTS or
                                isinstance(result, TypeValue)):
            memo.table[key] = (result, below, args)
        return result

    def call_function(self, fn: n.FunctionDef, args: list,
                      span: Span | None = None) -> Value:
        params = fn.params if fn.static_params is None \
            else fn.static_params + fn.params
        if len(args) != len(params):
            statics = _inferred_statics(fn, args)
            if statics is None:
                raise TypeMismatch(
                    f"'{fn.name}' expects {len(params)} argument(s), got "
                    f"{len(args)}", span)
            args = statics + args
        guard = self.depth_guard
        if guard.depth >= guard.limit:
            raise guard.exceeded(span)
        guard.depth += 1
        try:
            env = Env(self.globals)
            slots = env.slots
            for p, a in zip(params, args):
                t = p.dtype
                tv = PRIM_BY_NAME[t.name] if t.__class__ is n.PrimType \
                    else self.resolve_type(t, env, p.span)
                value = coerce(a, tv, p.span)
                if p.name in slots:
                    raise TypeMismatch(
                        f"redeclaration of '{p.name}' in the same scope",
                        p.span)
                slots[p.name] = Slot(value, tv)
            compiled = self.compiled.get(id(fn)) if self.compiled else None
            result = self.exec_block(fn.body, env) if compiled is None \
                else compiled(self, env)
            return UNIT if result is None else result
        finally:
            guard.depth -= 1

    # -- types ----------------------------------------------------------------

    def resolve_type(self, t: n.TypeExpr, env: Env,
                     span: Span | None = None) -> TypeValue:
        if isinstance(t, n.PrimType):
            return PRIM_BY_NAME[t.name]
        if isinstance(t, n.NamedType):
            slot = env.find(t.name)
            if slot is not None:
                return held_type(t.name, slot.value, span)
            if t.name in self.classes:
                return ClassTV(t.name)
            raise UnboundVariable(f"unknown type name '{t.name}'", span)
        if isinstance(t, n.PointerType):
            return PointerTV(self.resolve_type(t.base, env, span))
        if isinstance(t, n.ArrayType):
            return FixedArrayTV(self.resolve_type(t.base, env, span),
                                array_size(self.eval_expr(t.size, env),
                                           t.size.span))
        if isinstance(t, n.ClassAppType):
            if t.name not in self.classes:
                raise UnboundVariable(f"unknown class '{t.name}'", span)
            return ClassTV(t.name)
        raise TypeMismatch(f"unsupported type {t!r}", span)

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

    def class_instance(self, name: str, args: list,
                       span: Span | None) -> InstanceV:
        """The value a ``Name(args) x;`` declaration binds."""
        cls = self.classes.get(name)
        if cls is None:
            raise UnboundVariable(f"unknown class '{name}'", span)
        return self.instantiate_class(cls, args, span)

    def default_value(self, tv: TypeValue, span: Span | None) -> Value:
        """The value of a declaration without an initializer."""
        if isinstance(tv, ClassTV):
            return self.instantiate_class(self.classes[tv.name], [], span)
        return zero_value(tv, span)

    def _default(self, tv: TypeValue, span: Span | None) -> Value | None:
        try:
            return zero_value(tv, span)
        except TypeMismatch:
            return None

    # -- statements ---------------------------------------------------------

    def exec_block(self, block: n.Block, env: Env) -> Value | None:
        child = Env(env)
        for s in block.stmts:
            result = self.exec_stmt(s, child)
            if result is not None:
                return result
        return None

    def exec_stmt(self, stmt: n.Stmt, env: Env) -> Value | None:
        if self.count_steps:
            self.steps += 1
            if self.steps > self._step_cap:
                raise StepLimitExceeded(
                    f"step limit ({self.limits.step_limit}) exceeded",
                    stmt.span)
        handler = _STMT.get(stmt.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot execute {type(stmt).__name__}",
                               stmt.span)
        return handler(self, stmt, env)

    def _exec_expr_stmt(self, stmt: n.ExprStmt, env: Env) -> None:
        self.eval_expr(stmt.expr, env)

    def _exec_return(self, stmt: n.Return, env: Env) -> Value:
        return UNIT if stmt.value is None \
            else self.eval_expr(stmt.value, env)

    def _exec_if(self, stmt: n.If, env: Env) -> Value | None:
        cond = self.eval_expr(stmt.cond, env)
        if cond.value if cond.__class__ is BoolV else truth(cond, stmt.span):
            branch = stmt.then_stmt
        elif stmt.else_stmt is not None:
            branch = stmt.else_stmt
        else:
            return None
        return self.exec_stmt(branch, _scope_for(branch, env))

    def exec_var_decl(self, stmt: n.VarDecl, env: Env) -> None:
        for d in stmt.declarators:
            dtype = stmt.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            elif dtype.__class__ is n.PrimType:
                # a scalar: resolve_type, a leaf initializer, coerce and
                # env.declare inline
                tv = PRIM_BY_NAME[dtype.name]
                init = d.init
                if init is None:
                    value = self.default_value(tv, d.span)
                else:
                    value = self._leaf(init, env) \
                        if init.__class__ in _LEAVES and \
                        self.steps < self._step_cap else \
                        self.eval_expr(init, env)
                    if _KEEPS.get(tv.name) is not value.__class__:
                        value = coerce(value, tv, d.span)
                slots = env.slots
                if d.name in slots:
                    raise TypeMismatch(
                        f"redeclaration of '{d.name}' in the same scope",
                        d.span)
                slots[d.name] = Slot(value, tv)
                continue
            if isinstance(dtype, n.ClassAppType):
                args = [self.eval_expr(a, env) for a in dtype.args]
                value = self.class_instance(dtype.name, args, stmt.span)
                env.declare(d.name, Slot(value, ClassTV(dtype.name)), d.span)
                continue
            tv = self.resolve_type(dtype, env, stmt.span)
            if d.init is not None:
                value = coerce(self.eval_expr(d.init, env), tv, d.span)
            else:
                value = self.default_value(tv, d.span)
            env.declare(d.name, Slot(value, tv), d.span)

    def exec_assign(self, stmt: n.Assign, env: Env) -> None:
        value = stmt.value
        value = self._leaf(value, env) if value.__class__ in _LEAVES and \
            self.steps < self._step_cap else self.eval_expr(value, env)
        target = stmt.target
        if target.__class__ is n.VarRef:
            # store, inline
            name = target.name
            scope = env
            while scope is not None:
                slot = scope.slots.get(name)
                if slot is not None:
                    break
                scope = scope.parent
            else:
                raise UnboundVariable(f"unbound variable '{name}'", stmt.span)
            if slot.residual is not None:
                raise UnboundVariable(
                    f"dynamic variable '{name}' written at compile time",
                    stmt.span)
            op = stmt.op
            if op != "=":
                old = slot.value
                if old is None:
                    raise UnboundVariable(f"'{name}' read before assignment",
                                          stmt.span)
                # binop's fast path, inline
                cls = old.__class__
                fn = _FAST_COMPOUND.get(op)
                if fn is not None and cls is value.__class__ and \
                        (cls is IntV or cls is FloatV):
                    result = fn(old.value, value.value)
                    if cls is FloatV:
                        value = FloatV(result)
                    elif INT64_MIN <= result <= INT64_MAX:
                        value = small_int(result)
                    else:
                        value = arith(op[0], old, value, stmt.span)
                else:
                    value = binop(op[0], old, value, stmt.span)
            tv = slot.tv
            if tv.__class__ is not PrimTV or \
                    _KEEPS.get(tv.name) is not value.__class__:
                value = coerce(value, tv, stmt.span)
            slot.value = value
            return
        if isinstance(target, n.Subscript):
            arr = array_of(self.eval_expr(target.base, env), target.span)
            store_cell(arr, cell_index(arr, self.eval_expr(target.index, env),
                                       target.span),
                       stmt.op, value, stmt.span)
            return
        raise TypeMismatch("invalid assignment target", stmt.span)

    def exec_for(self, stmt: n.For, env: Env) -> Value | None:
        loop_env = Env(env)
        if stmt.init is not None:
            self.exec_stmt(stmt.init, loop_env)
        cond, body, incr = stmt.cond, stmt.body, stmt.incr
        iterations = 0
        while True:
            if cond is not None:
                c = self.eval_expr(cond, loop_env)
                if not (c.value if c.__class__ is BoolV
                        else truth(c, stmt.span)):
                    return None
            iterations += 1
            if iterations > self.limits.loop_cap:
                raise loop_limit(self.limits.loop_cap, stmt.unrolling,
                                 stmt.span)
            result = self.exec_stmt(body, _scope_for(body, loop_env))
            if result is not None:
                return result
            if incr is not None:
                self.exec_stmt(incr, loop_env)

    def exec_switch(self, stmt: n.Switch, env: Env) -> Value | None:
        subject = self.eval_expr(stmt.subject, env)
        default_case = None
        for case in stmt.cases:
            if case.label is None:
                default_case = case
                continue
            if matches(subject, self.eval_expr(case.label, env), case.span):
                return self._exec_case(case, env)
        if default_case is not None:
            return self._exec_case(default_case, env)
        return None

    def _exec_case(self, case: n.SwitchCase, env: Env) -> Value | None:
        child = Env(env)
        for s in case.body:
            result = self.exec_stmt(s, child)
            if result is not None:
                return result
        return None

    # -- expressions ----------------------------------------------------------

    def eval_expr(self, e: n.Expr, env: Env) -> Value:
        if self.count_steps:
            self.steps += 1
            if self.steps > self._step_cap:
                raise StepLimitExceeded(
                    f"step limit ({self.limits.step_limit}) exceeded", e.span)
        handler = _EXPR.get(e.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot evaluate {type(e).__name__}", e.span)
        return handler(self, e, env)

    def _eval_int(self, e: n.IntLit, env: Env) -> Value:
        value = _SMALL_INTS.get(e.value)
        return small_int(e.value) if value is None else value

    def _eval_float(self, e: n.FloatLit, env: Env) -> Value:
        return FloatV(e.value)

    def _eval_bool(self, e: n.BoolLit, env: Env) -> Value:
        return TRUE if e.value else FALSE

    def _eval_string(self, e: n.StringLit, env: Env) -> Value:
        return StrV(e.value)

    def _eval_type(self, e: n.TypeLit, env: Env) -> Value:
        return self.resolve_type(e.type_expr, env, e.span)

    def _eval_var(self, e: n.VarRef, env: Env) -> Value:
        # Env.lookup, inlined: this is the most frequent node
        name = e.name
        while env is not None:
            slot = env.slots.get(name)
            if slot is not None:
                if slot.value is None:
                    raise unassigned(name, slot, e.span)
                return slot.value
            env = env.parent
        raise UnboundVariable(f"unbound variable '{name}'", e.span)

    def _eval_unary(self, e: n.Unary, env: Env) -> Value:
        v = self.eval_expr(e.operand, env)
        if e.op == "!":
            return FALSE if truth(v, e.span) else TRUE
        return negate(v, e.span)

    def _eval_incr(self, e: n.Incr, env: Env) -> Value:
        if not isinstance(e.target, n.VarRef):
            raise TypeMismatch(f"'{e.op}' needs a variable", e.span)
        return store(env, e.target.name, "+=",
                     _ONE if e.op == "++" else _MINUS_ONE, e.span)

    def _eval_binary(self, e: n.Binary, env: Env) -> Value:
        op = e.op
        if op == "&&" or op == "||":
            lhs = truth(self.eval_expr(e.lhs, env), e.span)
            if op == "&&" and not lhs:
                return FALSE
            if op == "||" and lhs:
                return TRUE
            return TRUE if truth(self.eval_expr(e.rhs, env), e.span) \
                else FALSE
        lhs = e.lhs
        if lhs.__class__ is n.IntLit and self.steps < self._step_cap:
            if self.count_steps:
                self.steps += 1
            a = _SMALL_INTS.get(lhs.value) or small_int(lhs.value)
        else:
            a = self.eval_expr(lhs, env)
        rhs = e.rhs
        if rhs.__class__ is n.IntLit and self.steps < self._step_cap:
            if self.count_steps:
                self.steps += 1
            b = _SMALL_INTS.get(rhs.value) or small_int(rhs.value)
        else:
            b = self.eval_expr(rhs, env)
        return binop(op, a, b, e.span)

    def _eval_cond(self, e: n.Cond, env: Env) -> Value:
        cond = self.eval_expr(e.cond, env)
        if cond.value if cond.__class__ is BoolV else truth(cond, e.span):
            return self.eval_expr(e.then_expr, env)
        return self.eval_expr(e.else_expr, env)

    def _eval_subscript(self, e: n.Subscript, env: Env) -> Value:
        base, index = e.base, e.index
        if index.__class__ is n.IntLit and base.__class__ is n.VarRef and \
                self.steps + 2 <= self._step_cap:
            # a[3] whole: _eval_var, array_of and cell_index inline
            if self.count_steps:
                self.steps += 2
            name = base.name
            while env is not None:
                slot = env.slots.get(name)
                if slot is not None:
                    break
                env = env.parent
            else:
                raise UnboundVariable(f"unbound variable '{name}'", base.span)
            arr = slot.value
            if arr.__class__ is not ArrayV:
                if arr is None:
                    raise unassigned(name, slot, base.span)
                array_of(arr, e.span)  # raises
            i = index.value
            cells = arr.cells
            if 0 <= i < len(cells):
                return cells[i]
            cell_index(arr, small_int(i), e.span)  # raises
        arr = self.eval_expr(base, env)
        if arr.__class__ is not ArrayV:  # array_of's test, inline: hot
            array_of(arr, e.span)  # raises
        return arr.cells[cell_index(arr, self.eval_expr(index, env),
                                    e.span)]

    def _leaf(self, e: n.Expr, env: Env) -> Value:
        """``eval_expr`` of a VarRef or IntLit ``e``, without the dispatch:
        for a caller that tested ``e``'s class and ``steps < _step_cap``."""
        if self.count_steps:
            self.steps += 1
        if e.__class__ is n.IntLit:
            return _SMALL_INTS.get(e.value) or small_int(e.value)
        name = e.name
        while env is not None:
            slot = env.slots.get(name)
            if slot is not None:
                if slot.value is None:
                    raise unassigned(name, slot, e.span)
                return slot.value
            env = env.parent
        raise UnboundVariable(f"unbound variable '{name}'", e.span)

    def _eval_call(self, e: n.Call, env: Env) -> Value:
        if e.callee in BUILDERS:
            args = [self.eval_expr(a, env) for a in e.args]
            return BUILDERS[e.callee](args, e.span, self)
        if e.static_args is not None:
            raise TypeMismatch(
                f"specializing call '{e.callee}(s...)(d...)' cannot be "
                "evaluated directly; specialize the program first", e.span)
        return self.call_static(e.callee,
                                [self.eval_expr(a, env) for a in e.args],
                                e.span)


def _inferred_statics(fn: n.FunctionDef, args: list) -> list | None:
    """The leading typename arguments that a call of ``fn``, a function
    whose parameter lists ``erase_stages`` merged, leaves to inference
    (``nodes.inferred_statics``): each the element type of the array
    passed for a ``T*`` parameter.  None when the call infers nothing."""
    k = len(fn.params) - len(args)
    if fn.static_params is not None or k <= 0:
        return None
    statics = n.inferred_statics(
        fn.params[:k], fn.params[k:],
        [a.elem if isinstance(a, ArrayV) else None for a in args])
    return None if None in statics else statics


# Handlers by exact node class.  A handler takes (interpreter, node, env);
# statement handlers return None or the Value of a ``return``.
_EXPR = {
    n.IntLit: Interpreter._eval_int,
    n.FloatLit: Interpreter._eval_float,
    n.BoolLit: Interpreter._eval_bool,
    n.StringLit: Interpreter._eval_string,
    n.TypeLit: Interpreter._eval_type,
    n.VarRef: Interpreter._eval_var,
    n.Unary: Interpreter._eval_unary,
    n.Incr: Interpreter._eval_incr,
    n.Binary: Interpreter._eval_binary,
    n.Cond: Interpreter._eval_cond,
    n.Subscript: Interpreter._eval_subscript,
    n.Call: Interpreter._eval_call,
}

_STMT = {
    n.VarDecl: Interpreter.exec_var_decl,
    n.Assign: Interpreter.exec_assign,
    n.ExprStmt: Interpreter._exec_expr_stmt,
    n.Return: Interpreter._exec_return,
    n.Block: Interpreter.exec_block,
    n.If: Interpreter._exec_if,
    n.For: Interpreter.exec_for,
    n.Switch: Interpreter.exec_switch,
}


# -- the compile-time call memo -------------------------------------------

# Node classes the purity walk admits.  The refused ones are listed so that
# every expression and statement class is decided here; a class in neither
# set is refused as well.
_PURE_NODES = frozenset({
    n.IntLit, n.FloatLit, n.BoolLit, n.StringLit, n.TypeLit, n.VarRef,
    n.Unary, n.Binary, n.Cond, n.Subscript, n.Call,
    n.ExprStmt, n.Return, n.Block, n.If, n.For, n.Switch, n.SwitchCase,
    n.Param, n.PrimType, n.NamedType, n.PointerType, n.ArrayType,
})
_IMPURE_NODES = frozenset({n.VarDecl, n.Assign, n.Incr, n.ClassAppType})


def _local_callees(fn: n.FunctionDef) -> set | None:
    """The functions ``fn`` calls, or None when ``fn`` is impure by itself:
    it has a static parameter list, or a node the walk refuses, or a name
    that is not a parameter, or a call to a builder other than
    ``Catat_error`` or a specializing call."""
    if fn.static_params is not None:
        return None
    names = {p.name for p in fn.params}
    callees: set = set()
    for root in (*fn.params, fn.body):
        for node in n.walk(root):
            cls = node.__class__
            if cls not in _PURE_NODES:
                return None
            if cls is n.VarRef or cls is n.NamedType:
                if node.name not in names:
                    return None
            elif cls is n.Call:
                if node.static_args is not None:
                    return None
                if node.callee not in BUILDERS:
                    callees.add(node.callee)
                elif node.callee != "Catat_error":
                    return None
    return callees


def pure_functions(functions: dict) -> dict:
    """The pure functions among ``functions`` ((name, static arity) ->
    definition), by ``id``: those pure by themselves whose callees are
    all pure.  Recursion is allowed."""
    calls = {name: callees for (name, _), fn in functions.items()
             if (callees := _local_callees(fn)) is not None}
    while impure := [name for name, callees in calls.items()
                     if not callees <= calls.keys()]:
        for name in impure:
            del calls[name]
    return {id(fn): fn for fn in (functions[(name, 0)] for name in calls)}


_IMMUTABLE_RESULTS = (IntV, FloatV, BoolV)


class CallMemo:
    """Results of pure static calls by function and argument values, kept
    for one specialization run (see the module docstring)."""

    def __init__(self, functions: dict):
        self.pure = pure_functions(functions)
        self.table: dict = {}  # key -> (result, depth below the call, args)
        self.deepest = 0  # depth high-water mark of the pure calls under way
        self.hits = 0

    @staticmethod
    def key(fn: n.FunctionDef, args: list) -> tuple | None:
        """The memo key of a call, or None when an argument has none.  An
        array is keyed by identity and store count; the entry keeps it
        alive, so its ``id`` is not reused."""
        parts = [id(fn)]
        for a in args:
            cls = a.__class__
            if cls is IntV or cls is BoolV:
                parts.append((cls, a.value))
            elif cls is FloatV:  # -0.0 and 0.0 differ
                parts.append((cls, a.value, math.copysign(1.0, a.value)))
            elif cls is ArrayV and a.elem in SCALAR_CELLS:
                parts.append((id(a), a.stores))
            elif isinstance(a, TypeValue):
                parts.append(a)
            else:
                return None
        return tuple(parts)


def _scope_for(stmt: n.Stmt, env: Env) -> Env:
    """The scope a nested statement runs in.  Only a declaration standing
    alone as the statement binds into it; every other statement that
    declares opens its own scope."""
    return Env(env) if stmt.__class__ is n.VarDecl else env


TRUE = BoolV(True)
FALSE = BoolV(False)
_ONE = IntV(1)
_MINUS_ONE = IntV(-1)

# Operators ``binop`` applies itself to two ints or two floats; every other
# case (mixed operands, / and %, overflow, errors) goes through ``arith``.
_FAST_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_FAST_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                 ">": operator.gt, "<=": operator.le, ">=": operator.ge}
# The same fast path for the compound assignments ``exec_assign`` applies.
_FAST_COMPOUND = {"+=": operator.add, "-=": operator.sub, "*=": operator.mul}

# The operand classes ``Interpreter._leaf`` reads, and the value class that
# ``coerce`` keeps unchanged for each scalar type.
_LEAVES = frozenset({n.VarRef, n.IntLit})
_KEEPS = {"int": IntV, "char": IntV, "long int": IntV, "float": FloatV,
          "double": FloatV, "bool": BoolV}


def binop(op: str, a: Value, b: Value, span: Span | None) -> Value:
    """``arith`` with a fast path for int/int and float/float operands.
    The results are arith's: a FloatV always holds a Python float."""
    cls = a.__class__
    if cls is b.__class__ and (cls is IntV or cls is FloatV):
        compare = _FAST_COMPARE.get(op)
        if compare is not None:
            return TRUE if compare(a.value, b.value) else FALSE
        fn = _FAST_ARITH.get(op)
        if fn is not None:
            result = fn(a.value, b.value)
            if cls is FloatV:
                return FloatV(result)
            if INT64_MIN <= result <= INT64_MAX:
                return small_int(result)
    return arith(op, a, b, span)


# -- semantics both engines share ---------------------------------------------
#
# The walker above and the code ``pyemit`` compiles call these, so an
# operation raises the same error, with the same message and span, in both.


def unassigned(name: str, slot: Slot, span: Span | None) -> UnboundVariable:
    """The error of reading a variable that holds no value."""
    return UnboundVariable(
        f"'{name}' read before assignment" if slot.residual is None else
        f"dynamic variable '{name}' read at compile time", span)


def read(env: Env, name: str, span: Span | None) -> Value:
    """The value of ``name`` in ``env``: ``_eval_var``, not inlined."""
    slot = env.find(name)
    if slot is None:
        raise UnboundVariable(f"unbound variable '{name}'", span)
    if slot.value is None:
        raise unassigned(name, slot, span)
    return slot.value


def store(env: Env, name: str, op: str, value: Value,
          span: Span | None) -> Value:
    """Assign ``value`` to the variable ``name`` in ``env`` with ``=``,
    ``+=``, ...; the stored value.  While specializing, a dynamic
    variable's slot is not writable."""
    slot = env.find(name)
    if slot is None:
        raise UnboundVariable(f"unbound variable '{name}'", span)
    if slot.residual is not None:
        raise UnboundVariable(
            f"dynamic variable '{name}' written at compile time", span)
    if op != "=":
        if slot.value is None:
            raise UnboundVariable(f"'{name}' read before assignment", span)
        value = binop(op[0], slot.value, value, span)
    slot.value = coerce(value, slot.tv, span)
    return slot.value


def array_of(base: Value, span: Span | None) -> ArrayV:
    if base.__class__ is not ArrayV:
        raise TypeMismatch(f"cannot subscript {describe(base)}", span)
    return base


def cell_index(arr: ArrayV, idx: Value, span: Span | None) -> int:
    if not isinstance(idx, IntV):
        raise TypeMismatch("array index must be an int", span)
    if not (0 <= idx.value < len(arr.cells)):
        raise OutOfBounds(f"index {idx.value} outside array of length "
                          f"{len(arr.cells)}", span)
    return idx.value


def store_cell(arr: ArrayV, idx: int, op: str, value: Value,
               span: Span | None) -> None:
    if op != "=":
        value = binop(op[0], arr.cells[idx], value, span)
    arr.cells[idx] = coerce(value, arr.elem, span)
    arr.stores += 1


def negate(v: Value, span: Span | None) -> Value:
    if isinstance(v, IntV):
        return arith("-", IntV(0), v, span)
    if isinstance(v, FloatV):
        return FloatV(-v.value)
    raise TypeMismatch(f"cannot negate {describe(v)}", span)


def matches(subject: Value, label: Value, span: Span | None) -> bool:
    """Whether a switch ``case`` label selects its case."""
    return truth(arith("==", subject, label, span), span)


def held_type(name: str, value: Value | None, span: Span | None) -> TypeValue:
    """The type value a variable used as a type name holds."""
    if not isinstance(value, TypeValue):
        raise TypeMismatch(f"'{name}' does not hold a type value", span)
    return value


def array_size(size: Value, span: Span | None) -> int:
    if not isinstance(size, IntV) or size.value < 0:
        raise TypeMismatch("array size must be a non-negative int", span)
    return size.value


def loop_limit(cap: int, unrolling: bool,
               span: Span | None) -> LoopLimitExceeded:
    return LoopLimitExceeded(
        f"loop iteration cap ({cap}) exceeded"
        + (" during unrolling" if unrolling else ""), span)


# IntV is immutable, so the evaluator shares one value per small integer, as
# CPython shares small ints.  Building an IntV costs about 0.26 us, a
# dictionary hit about 0.04 us; literals, indices and counters mostly fall
# in this range.
SMALL_INT_BOUND = 4096
_SMALL_INTS: dict = {}


def small_int(v: int) -> IntV:
    value = _SMALL_INTS.get(v)
    if value is None:
        value = IntV(v)
        if -SMALL_INT_BOUND <= v <= SMALL_INT_BOUND:
            _SMALL_INTS[v] = value
    return value


def call_static(fn: n.FunctionDef, args: list,
                program: n.Program | None = None,
                limits: EvalLimits | None = None) -> Value:
    """Fully interpret a function at stage 0 (the ``f@(...)`` path)."""
    limits = limits or EvalLimits()
    old_limit = raise_recursion_limit(limits.max_depth)
    try:
        interp = Interpreter(program, limits)
        if (fn.name, fn.static_arity) not in interp.functions:
            interp.add_function(fn)
        return interp.call_function(fn, args, fn.span)
    except RecursionError:
        raise DepthExceeded(STACK_EXHAUSTED) from None
    finally:
        sys.setrecursionlimit(old_limit)


def value_of(v: Value):
    """Unwrap a scalar for tests and reporting."""
    if isinstance(v, (IntV, FloatV, BoolV, StrV)):
        return v.value
    return v
