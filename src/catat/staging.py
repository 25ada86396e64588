"""Well-stagedness verification for annotated programs.

The checker assigns a stage to every expression, statement, and variable
and enforces, before any evaluation happens:

  R1  an assignment (or initialization) target's stage must be >= the
      stage of every source operand: data flows static -> dynamic only;
  R2  the guard of an annotated control construct (``for@``/``if@``/
      ``switch@``) must be static relative to that construct;
  R3  a static variable may not be assigned inside a control region with a
      more-dynamic guard (congruence: static state must not depend on
      dynamic control flow);
  R4  operators execute at the maximum stage of their operands, so a
      compound expression's stage is that maximum;
  R5  typename-typed variables must be bound before the final stage
      (types do not exist at residual run time); enforced for two or more
      levels.

Annotations are relative: ``@`` runs of count k in a scope whose default
stage is s bind at stage s - k; deeper than stage 0 is an error.  Literals
are stage-polymorphic (stage 0, liftable anywhere).

Single-list functions with no way to be residualized verbatim (they bind a
typename parameter) are recorded as static-only rather than rejected: they
can be invoked with ``f@(...)`` but never called dynamically.

Each declarator is in scope from the end of its own initializer, as in C
and in the walker, so ``int x = 1, y = x;`` checks.

The checker dispatches on each node's exact class (``expr_stage``), but the
checks of a binary operator, a subscript, an assignment and a declarator's
initializer read a ``VarRef`` or ``IntLit`` operand themselves
(``_leaf_stage``), and ``subscript_stage`` does ``a[3]`` whole: a residual
is checked once more before its first run, and is mostly such leaves.  A
leaf read inline gets the ``.stage`` mark and raises the error that
``var_stage`` or ``literal_stage`` would, at the same point of the walk.
"""

from __future__ import annotations

import sys

from . import nodes as n
from .errors import (
    ANNOTATION_TOO_DEEP, DYNAMIC_IN_STATIC_CONSTRUCTOR,
    DYNAMIC_TO_STATIC_FLOW, DepthExceeded, ParseError,
    STATIC_CONTROL_WITH_DYNAMIC_GUARD, Record,
    STATIC_MUTATION_UNDER_DYNAMIC_CONTROL, Span, StageError,
    TYPENAME_DYNAMIC_BINDING, TypeMismatch, UnboundVariable,
)
from .flatten import KNOWN_BUILTINS
from .staticeval import raise_recursion_limit


class StagedAST(Record):
    """A checked program plus what the specializer needs to trust it."""

    __slots__ = _fields = ("program", "levels", "static_only")

    def __init__(self, program: n.Program, levels: int,
                 static_only: frozenset = frozenset()):
        self.program = program
        self.levels = levels
        self.static_only = static_only

    def functions_by_key(self) -> dict:
        return {(f.name, f.static_arity): f for f in self.program.functions()}

    def classes_by_name(self) -> dict:
        return {c.name: c for c in self.program.classes()}


class _Sym(Record):
    __slots__ = _fields = ("stage", "is_typename")

    def __init__(self, stage: int, is_typename: bool = False):
        self.stage = stage
        self.is_typename = is_typename


class _Scope(Record):
    __slots__ = _fields = ("default", "frames", "controls", "top_level")

    def __init__(self, default: int, frames: list = n.FRESH,
                 controls: list = n.FRESH, top_level: bool = False):
        self.default = default
        self.frames = [{}] if frames is n.FRESH else frames
        # guard stages of enclosing control
        self.controls = [] if controls is n.FRESH else controls
        # the program's own statements, outside any body
        self.top_level = top_level

    def push(self):
        self.frames.append({})

    def pop(self):
        self.frames.pop()

    def declare(self, name: str, sym: _Sym, span: Span | None = None):
        """Bind ``name`` in the innermost frame, which may hold it once, as
        a run-time scope may (``Env.declare``)."""
        frame = self.frames[-1]
        if name in frame:
            raise TypeMismatch(f"redeclaration of '{name}' in the same scope",
                               span)
        frame[name] = sym

    def find(self, name: str) -> _Sym | None:
        for frame in reversed(self.frames):
            sym = frame.get(name)
            if sym is not None:
                return sym
        return None


class _Checker:
    def __init__(self, program: n.Program, levels: int):
        self.program = program
        self.levels = levels
        self.functions = {(f.name, f.static_arity): f
                          for f in program.functions()}
        self.fn_names: dict[str, list[int]] = {}
        for f in program.functions():
            self.fn_names.setdefault(f.name, []).append(f.static_arity)
        self.classes = {c.name: c for c in program.classes()}
        self.static_only: set[str] = set()

    # -- entry --------------------------------------------------------------

    def check(self) -> StagedAST:
        top = _Scope(default=self.levels - 1, top_level=True)
        for item in self.program.items:
            if isinstance(item, n.FunctionDef):
                self.check_function(item, top)
            elif isinstance(item, n.ClassDef):
                self.check_class(item, top)
            else:
                self.check_stmt(item, top)
        return StagedAST(self.program, self.levels,
                         frozenset(self.static_only))

    # -- declarations ---------------------------------------------------------

    def check_function(self, fn: n.FunctionDef, outer: _Scope) -> None:
        scope = _Scope(default=self.levels - 1,
                       frames=[outer.frames[0], {}])
        suppress_r5 = fn.is_single_list
        needed_static = False
        if fn.static_params is not None:
            for p in fn.static_params:
                stage = scope.default - p.at_count
                if stage < 0:
                    raise StageError(
                        ANNOTATION_TOO_DEEP,
                        f"parameter '{p.name}' annotated past stage 0", p.span)
                self.check_param_type(p, scope)
                scope.declare(p.name, _Sym(stage, n.is_typename_type(p.dtype)),
                              p.span)
        for p in fn.params:
            self.check_param_type(p, scope)
            is_tn = n.is_typename_type(p.dtype)
            if is_tn and self.levels >= 2:
                if suppress_r5:
                    needed_static = True
                else:
                    raise StageError(
                        TYPENAME_DYNAMIC_BINDING,
                        f"typename parameter '{p.name}' must be static "
                        "(annotate it in the static list)", p.span)
            scope.declare(p.name, _Sym(scope.default, is_tn), p.span)
        if needed_static:
            self.static_only.add(fn.name)
        self.check_block(fn.body, scope)

    def check_param_type(self, p: n.Param, scope: _Scope) -> None:
        t = p.dtype
        while isinstance(t, (n.PointerType, n.ArrayType)):
            if isinstance(t, n.ArrayType):
                size_stage = self.expr_stage(t.size, scope)
                if size_stage > 0:
                    raise StageError(DYNAMIC_TO_STATIC_FLOW,
                                     "array extents must be static", p.span)
            t = t.base
        if isinstance(t, n.NamedType):
            self.check_named_type(t, p.span, scope)

    def check_named_type(self, t: n.NamedType, span: Span | None,
                         scope: _Scope) -> None:
        sym = scope.find(t.name)
        if sym is not None:
            if not sym.is_typename:
                raise StageError(
                    DYNAMIC_TO_STATIC_FLOW,
                    f"'{t.name}' is not a typename variable or class", span)
            return
        if t.name in self.classes:
            return
        raise UnboundVariable(f"unknown type name '{t.name}'", span)

    def check_class(self, cls: n.ClassDef, outer: _Scope) -> None:
        scope = _Scope(default=self.levels - 1,
                       frames=[outer.frames[0], {}])
        for p in cls.static_params:
            stage = scope.default - p.at_count
            if stage < 0:
                raise StageError(ANNOTATION_TOO_DEEP,
                                 f"parameter '{p.name}' annotated past stage 0",
                                 p.span)
            self.check_param_type(p, scope)
            scope.declare(p.name, _Sym(stage, n.is_typename_type(p.dtype)),
                          p.span)
        # Members are all in scope before any constructor body is checked
        # (constructor bodies may assign members declared below them).
        member_decls = cls.member_decls()
        for decl in member_decls:
            k = n.annotation_count(decl.dtype)
            stage = scope.default - k
            if stage < 0:
                raise StageError(ANNOTATION_TOO_DEEP,
                                 "member annotated past stage 0", decl.span)
            is_tn = n.is_typename_type(decl.dtype)
            if is_tn and self.levels >= 2 and stage == self.levels - 1:
                raise StageError(TYPENAME_DYNAMIC_BINDING,
                                 "typename members must be static", decl.span)
            for d in decl.declarators:
                scope.declare(d.name, _Sym(stage, is_tn), d.span)
        for decl in member_decls:
            stage = scope.default - n.annotation_count(decl.dtype)
            self.check_decl_type(decl, scope)
            self.check_declarators(decl, stage, scope)
        for item in cls.items:
            if not isinstance(item, n.CtorDef):
                continue
            scope.push()
            if item.at_count >= 1:
                self.check_static_ctor_block(item.body, scope)
            else:
                self.check_block(item.body, scope, fresh_frame=False)
            scope.pop()

    def check_decl_type(self, decl: n.VarDecl, scope: _Scope) -> None:
        """Stage-check a declaration's type: its sizes and class arguments."""
        t = decl.dtype
        while isinstance(t, (n.PointerType, n.ArrayType)):
            if isinstance(t, n.ArrayType) and \
                    self.expr_stage(t.size, scope) > 0:
                raise StageError(DYNAMIC_TO_STATIC_FLOW,
                                 "array extents must be static", decl.span)
            t = t.base
        if isinstance(t, n.NamedType):
            self.check_named_type(t, decl.span, scope)
        elif isinstance(t, n.ClassAppType):
            if t.name not in self.classes:
                raise UnboundVariable(f"unknown class '{t.name}'", decl.span)
            for a in t.args:
                if self.expr_stage(a, scope) > 0:
                    raise StageError(DYNAMIC_TO_STATIC_FLOW,
                                     "class arguments must be static",
                                     decl.span)

    def check_declarators(self, decl: n.VarDecl, stage: int, scope: _Scope,
                          sym: _Sym | None = None) -> None:
        """Stage-check each declarator's size and initializer.  With
        ``sym``, declare each right after its own initializer, as the
        walker and C do, so that a later initializer may read it."""
        for d in decl.declarators:
            if d.array_size is not None and \
                    self.expr_stage(d.array_size, scope) > 0:
                raise StageError(DYNAMIC_TO_STATIC_FLOW,
                                 "array extents must be static", d.span)
            init = d.init
            if init is not None:
                src = _leaf_stage(init, scope.frames) \
                    if init.__class__ in _LEAVES \
                    else self.expr_stage(init, scope)
                if src > stage:
                    raise StageError(
                        DYNAMIC_TO_STATIC_FLOW,
                        f"initializer of '{d.name}' (stage {src}) is more "
                        f"dynamic than the variable (stage {stage})", d.span)
            if sym is not None:
                scope.declare(d.name, sym, d.span)

    # -- statements -----------------------------------------------------------

    def check_block(self, block: n.Block, scope: _Scope,
                    fresh_frame: bool = True) -> None:
        if fresh_frame:
            scope.push()
        for s in block.stmts:
            self.check_stmt(s, scope)
        if fresh_frame:
            scope.pop()

    def check_stmt(self, stmt: n.Stmt, scope: _Scope) -> None:
        handler = _STMT_CHECK.get(stmt.__class__)
        if handler is None:
            raise ParseError(f"unexpected statement {type(stmt).__name__}",
                             stmt.span)
        handler(self, stmt, scope)

    def check_expr_stmt(self, stmt: n.ExprStmt, scope: _Scope) -> None:
        stage = self.expr_stage(stmt.expr, scope)
        if isinstance(stmt.expr, n.Incr):
            self.check_mutation(stage, stmt.span, scope)
        stmt.stage = stage

    def check_return(self, stmt: n.Return, scope: _Scope) -> None:
        if scope.top_level:
            raise ParseError("return outside a function", stmt.span)
        stmt.stage = 0 if stmt.value is None \
            else self.expr_stage(stmt.value, scope)

    def check_block_stmt(self, stmt: n.Block, scope: _Scope) -> None:
        self.check_block(stmt, scope)
        stmt.stage = scope.default

    def construct_stage(self, at_count: int, span: Span | None,
                        scope: _Scope) -> int:
        stage = scope.default - at_count
        if stage < 0:
            raise StageError(
                ANNOTATION_TOO_DEEP,
                f"annotation of depth {at_count} exceeds the scope's stage "
                f"{scope.default}", span)
        return stage

    def check_var_decl(self, stmt: n.VarDecl, scope: _Scope) -> None:
        dtype = stmt.dtype
        if dtype.__class__ is n.PrimType:
            # a scalar: annotation_count and is_typename_type inline, and no
            # type to check
            k = dtype.at_count
            is_tn = dtype.name == "typename"
        else:
            k = n.annotation_count(dtype)
            is_tn = n.is_typename_type(dtype)
        stage = self.construct_stage(k, stmt.span, scope)
        if isinstance(dtype, n.ClassAppType) and dtype.ctime:
            stage = 0
        if is_tn and self.levels >= 2 and stage == self.levels - 1:
            raise StageError(
                TYPENAME_DYNAMIC_BINDING,
                "typename variables must be static (add @)", stmt.span)
        if dtype.__class__ is not n.PrimType:
            self.check_decl_type(stmt, scope)
        self.check_declarators(stmt, stage, scope, _Sym(stage, is_tn))
        stmt.stage = stage

    def check_mutation(self, target_stage: int, span: Span | None,
                       scope: _Scope) -> None:
        for guard_stage in scope.controls:
            if guard_stage > target_stage:
                raise StageError(
                    STATIC_MUTATION_UNDER_DYNAMIC_CONTROL,
                    f"stage-{target_stage} variable assigned under a "
                    f"stage-{guard_stage} control guard", span)

    def check_assign(self, stmt: n.Assign, scope: _Scope) -> None:
        target = stmt.target
        if target.__class__ is n.VarRef:
            target_stage = _leaf_stage(target, scope.frames)
        elif isinstance(target, n.Subscript):
            target_stage = self.expr_stage(target.base, scope)
            idx = self.expr_stage(target.index, scope)
            if idx > target_stage:
                raise StageError(
                    DYNAMIC_TO_STATIC_FLOW,
                    "subscript index is more dynamic than the array",
                    stmt.span)
        else:
            raise ParseError("invalid assignment target", stmt.span)
        value = stmt.value
        src = _leaf_stage(value, scope.frames) \
            if value.__class__ in _LEAVES else self.expr_stage(value, scope)
        if src > target_stage:
            raise StageError(
                DYNAMIC_TO_STATIC_FLOW,
                f"cannot assign a stage-{src} value to a stage-"
                f"{target_stage} target", stmt.span)
        self.check_mutation(target_stage, stmt.span, scope)
        stmt.stage = target_stage

    def check_if(self, stmt: n.If, scope: _Scope) -> None:
        cstage = self.construct_stage(stmt.at_count, stmt.span, scope)
        guard = self.expr_stage(stmt.cond, scope)
        if stmt.at_count >= 1 and guard > cstage:
            raise StageError(
                STATIC_CONTROL_WITH_DYNAMIC_GUARD,
                f"guard of if{'@' * stmt.at_count} has stage {guard}; it "
                f"must be static", stmt.span)
        effective = cstage if stmt.at_count >= 1 else guard
        scope.controls.append(effective)
        scope.push()
        self.check_stmt(stmt.then_stmt, scope)
        scope.pop()
        if stmt.else_stmt is not None:
            scope.push()
            self.check_stmt(stmt.else_stmt, scope)
            scope.pop()
        scope.controls.pop()
        stmt.stage = effective

    def check_for(self, stmt: n.For, scope: _Scope) -> None:
        cstage = self.construct_stage(stmt.at_count, stmt.span, scope)
        scope.push()
        if stmt.init is not None:
            self.check_stmt(stmt.init, scope)
            if stmt.at_count >= 1 and (stmt.init.stage or 0) > cstage:
                raise StageError(
                    STATIC_CONTROL_WITH_DYNAMIC_GUARD,
                    "loop control of an annotated loop must be static",
                    stmt.span)
        guard = 0 if stmt.cond is None else self.expr_stage(stmt.cond, scope)
        if stmt.at_count >= 1 and guard > cstage:
            raise StageError(
                STATIC_CONTROL_WITH_DYNAMIC_GUARD,
                f"guard of for{'@' * stmt.at_count} has stage {guard}; it "
                f"must be static", stmt.span)
        effective = cstage if stmt.at_count >= 1 else guard
        # A plain loop repeats when the residual runs, so static state may
        # change neither in its body nor in its update, whatever its guard.
        scope.controls.append(max(effective, cstage))
        if stmt.incr is not None:
            self.check_stmt(stmt.incr, scope)
            if stmt.at_count >= 1 and (stmt.incr.stage or 0) > cstage:
                raise StageError(
                    STATIC_CONTROL_WITH_DYNAMIC_GUARD,
                    "loop control of an annotated loop must be static",
                    stmt.span)
        scope.push()
        self.check_stmt(stmt.body, scope)
        scope.pop()
        scope.controls.pop()
        scope.pop()
        stmt.stage = effective

    def check_switch(self, stmt: n.Switch, scope: _Scope) -> None:
        cstage = self.construct_stage(stmt.at_count, stmt.span, scope)
        guard = self.expr_stage(stmt.subject, scope)
        if stmt.at_count >= 1 and guard > cstage:
            raise StageError(
                STATIC_CONTROL_WITH_DYNAMIC_GUARD,
                f"subject of switch{'@' * stmt.at_count} has stage {guard}; "
                f"it must be static", stmt.span)
        effective = cstage if stmt.at_count >= 1 else guard
        scope.controls.append(effective)
        for case in stmt.cases:
            if case.label is not None and \
                    self.expr_stage(case.label, scope) > 0:
                raise StageError(DYNAMIC_TO_STATIC_FLOW,
                                 "case labels must be static", case.span)
            scope.push()
            for s in case.body:
                self.check_stmt(s, scope)
            scope.pop()
        scope.controls.pop()
        stmt.stage = effective

    def check_static_ctor_block(self, block: n.Block, scope: _Scope) -> None:
        """The compile-time constructor body must be fully static."""
        scope.push()
        for s in block.stmts:
            self.check_static_ctor_stmt(s, scope)
        scope.pop()

    def check_static_ctor_stmt(self, stmt: n.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, n.Return):
            raise StageError(DYNAMIC_IN_STATIC_CONSTRUCTOR,
                             "constructors do not return values", stmt.span)
        self.check_stmt(stmt, scope)
        if isinstance(stmt, (n.VarDecl, n.Assign, n.ExprStmt)) and \
                (stmt.stage or 0) > 0:
            raise StageError(
                DYNAMIC_IN_STATIC_CONSTRUCTOR,
                "dynamic construct inside a compile-time constructor",
                stmt.span)
        if isinstance(stmt, (n.If, n.For, n.Switch)) and (stmt.stage or 0) > 0:
            raise StageError(
                DYNAMIC_IN_STATIC_CONSTRUCTOR,
                "dynamic control flow inside a compile-time constructor",
                stmt.span)

    # -- expressions ----------------------------------------------------------

    def expr_stage(self, e: n.Expr, scope: _Scope) -> int:
        handler = _EXPR_STAGE.get(e.__class__)
        if handler is None:
            raise ParseError(f"unexpected expression {type(e).__name__}",
                             e.span)
        stage = handler(self, e, scope)
        e.stage = stage
        return stage

    def literal_stage(self, e: n.Expr, scope: _Scope) -> int:
        return 0

    def type_lit_stage(self, e: n.TypeLit, scope: _Scope) -> int:
        if isinstance(e.type_expr, n.NamedType):
            self.check_named_type(e.type_expr, e.span, scope)
        return 0

    def var_stage(self, e: n.VarRef, scope: _Scope) -> int:
        for frame in reversed(scope.frames):     # scope.find, inlined
            sym = frame.get(e.name)
            if sym is not None:
                return sym.stage
        raise UnboundVariable(f"unbound variable '{e.name}'", e.span)

    def unary_stage(self, e: n.Unary, scope: _Scope) -> int:
        return self.expr_stage(e.operand, scope)

    def incr_stage(self, e: n.Incr, scope: _Scope) -> int:
        if not isinstance(e.target, n.VarRef):
            raise TypeMismatch(f"'{e.op}' needs a variable", e.span)
        return self.expr_stage(e.target, scope)

    def binary_stage(self, e: n.Binary, scope: _Scope) -> int:
        lhs, rhs = e.lhs, e.rhs
        lhs = _leaf_stage(lhs, scope.frames) if lhs.__class__ in _LEAVES \
            else self.expr_stage(lhs, scope)
        rhs = _leaf_stage(rhs, scope.frames) if rhs.__class__ in _LEAVES \
            else self.expr_stage(rhs, scope)
        return lhs if lhs >= rhs else rhs

    def cond_stage(self, e: n.Cond, scope: _Scope) -> int:
        return max(self.expr_stage(e.cond, scope),
                   self.expr_stage(e.then_expr, scope),
                   self.expr_stage(e.else_expr, scope))

    def subscript_stage(self, e: n.Subscript, scope: _Scope) -> int:
        base, index = e.base, e.index
        if index.__class__ is n.IntLit and base.__class__ is n.VarRef:
            # a[3] whole
            index.stage = 0
            name = base.name
            for frame in reversed(scope.frames):
                sym = frame.get(name)
                if sym is not None:
                    base.stage = stage = sym.stage
                    return stage
            raise UnboundVariable(f"unbound variable '{name}'", base.span)
        base = _leaf_stage(base, scope.frames) \
            if base.__class__ in _LEAVES else self.expr_stage(base, scope)
        index = _leaf_stage(index, scope.frames) \
            if index.__class__ in _LEAVES else self.expr_stage(index, scope)
        return base if base >= index else index

    def call_stage(self, e: n.Call, scope: _Scope) -> int:
        if e.callee in KNOWN_BUILTINS:
            for a in e.args:
                if self.expr_stage(a, scope) > 0:
                    raise StageError(
                        DYNAMIC_TO_STATIC_FLOW,
                        f"argument of builtin '{e.callee}' must be static",
                        e.span)
            return 0
        arities = self.fn_names.get(e.callee)
        if arities is None:
            raise UnboundVariable(f"unknown function '{e.callee}'", e.span)
        if e.static_args is not None:
            if len(e.static_args) not in arities:
                raise UnboundVariable(
                    f"no definition of '{e.callee}' takes "
                    f"{len(e.static_args)} static argument(s)", e.span)
            for a in e.static_args:
                if self.expr_stage(a, scope) > 0:
                    raise StageError(
                        DYNAMIC_TO_STATIC_FLOW,
                        f"static argument of '{e.callee}' is not static",
                        e.span)
            for a in e.args:
                self.expr_stage(a, scope)
            return scope.default
        if e.at_count >= 1:
            stage = self.construct_stage(e.at_count, e.span, scope)
            if 0 not in arities:
                raise UnboundVariable(
                    f"'{e.callee}' requires static arguments; call it as "
                    f"{e.callee}(s...)(d...)", e.span)
            for a in e.args:
                if self.expr_stage(a, scope) > stage:
                    raise StageError(
                        DYNAMIC_TO_STATIC_FLOW,
                        f"argument of {e.callee}{'@' * e.at_count}(...) must "
                        "be static", e.span)
            return stage
        # Plain call: happens at the scope's stage.
        for a in e.args:
            self.expr_stage(a, scope)
        if 0 not in arities and not any(
                self.functions[(e.callee, arity)].infers_statics(len(e.args))
                for arity in arities):
            raise UnboundVariable(
                f"'{e.callee}' requires static arguments; call it as "
                f"{e.callee}(s...)(d...)", e.span)
        if e.callee in self.static_only and scope.default > 0:
            raise StageError(
                TYPENAME_DYNAMIC_BINDING,
                f"'{e.callee}' binds typename parameters and can only be "
                f"invoked statically ({e.callee}@(...))", e.span)
        return scope.default


# Checks by exact node class; each takes (checker, node, scope).  Statement
# checks record ``stmt.stage``; expression checks return the stage, which
# ``expr_stage`` records.
_STMT_CHECK = {
    n.VarDecl: _Checker.check_var_decl,
    n.Assign: _Checker.check_assign,
    n.ExprStmt: _Checker.check_expr_stmt,
    n.Return: _Checker.check_return,
    n.Block: _Checker.check_block_stmt,
    n.If: _Checker.check_if,
    n.For: _Checker.check_for,
    n.Switch: _Checker.check_switch,
}


def _leaf_stage(e: n.Expr, frames: list) -> int:
    """``expr_stage`` of a VarRef or IntLit ``e``, without the dispatch:
    ``var_stage`` or ``literal_stage``, and the mark."""
    if e.__class__ is n.IntLit:
        e.stage = 0
        return 0
    for frame in reversed(frames):
        sym = frame.get(e.name)
        if sym is not None:
            e.stage = sym.stage
            return sym.stage
    raise UnboundVariable(f"unbound variable '{e.name}'", e.span)


# The operand classes ``_leaf_stage`` reads.
_LEAVES = frozenset({n.VarRef, n.IntLit})

_EXPR_STAGE = {
    n.IntLit: _Checker.literal_stage,
    n.FloatLit: _Checker.literal_stage,
    n.BoolLit: _Checker.literal_stage,
    n.StringLit: _Checker.literal_stage,
    n.TypeLit: _Checker.type_lit_stage,
    n.VarRef: _Checker.var_stage,
    n.Unary: _Checker.unary_stage,
    n.Incr: _Checker.incr_stage,
    n.Binary: _Checker.binary_stage,
    n.Cond: _Checker.cond_stage,
    n.Subscript: _Checker.subscript_stage,
    n.Call: _Checker.call_stage,
}


def check_stages(program: n.Program, levels: int = 2) -> StagedAST:
    """Verify well-stagedness; raises StageError/UnboundVariable on the
    first violation in source order."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    # the checker recurses once per operator, so a long flat sum that the
    # parser's loop took whole needs the stack a deep call chain gets
    old_limit = raise_recursion_limit()
    try:
        return _Checker(program, levels).check()
    except RecursionError:
        raise DepthExceeded("expression nested too deeply for the stage "
                            "checker's stack") from None
    finally:
        sys.setrecursionlimit(old_limit)


def stage_of(expr: n.Expr, env: dict, levels: int = 2) -> int:
    """Stage of a single expression given variable stages.

    ``env`` maps variable names either to plain stage integers or to
    ``(stage, is_typename)`` pairs."""
    program = n.Program([])
    checker = _Checker(program, levels)
    scope = _Scope(default=levels - 1)
    for name, info in env.items():
        if isinstance(info, tuple):
            scope.declare(name, _Sym(info[0], bool(info[1])))
        else:
            scope.declare(name, _Sym(int(info)))
    return checker.expr_stage(expr, scope)
