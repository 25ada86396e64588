"""Single-level Catat compiled to Python.

``emit_python`` translates a single-level function into the source of one
Python function ``(interp, env)`` and the constants that source names;
``compile_function`` compiles it.  ``Interpreter.call_function`` runs a
compiled body in place of the walker when ``Interpreter.compiled`` holds
one for the definition, after it has checked the arity, coerced the
arguments into ``env`` and taken a depth level, as for any call.  The
specializer compiles each flattened generator this way (the flatten
route's generating extension); the walker stays the reference engine and
runs all other static and run-time code.

The compiled code does what the walker does, operation by operation, and
raises the same errors with the same messages and spans:

* Each Catat variable is a Python local, renamed apart per declaration,
  so block scopes and shadowing need no environment.  A store coerces to
  the variable's declared type (``coerce``); a global is read and written
  through ``interp.globals`` with the walker's checks (``read``,
  ``store``).
* Arithmetic, comparison and truth go through ``binop`` and ``truth``;
  subscripts, negation and switch labels through the helpers the walker
  calls (``staticeval``).  Operands are evaluated left to right, and an
  assignment evaluates its value before its target, as in the walker.
* A builder call's shape (``flatten.SHAPES``: its argument count and the
  literal strings that name its operator, variable or callee) is checked
  here, once, on the call's text.  Where it holds, the compiled code calls
  the builder's construction directly with the node's own span, and only
  the checks that depend on argument values run with the generator.
  Where the text leaves the shape open or breaks it, the compiled code
  calls the checked ``BUILDERS`` entry, which checks the shape when the
  call runs, after its arguments, as in the walker.  A call of a user
  function goes through ``Interpreter.call_static``, so the memo, the
  arity check and the depth level stay in one place.
* Every loop counts its iterations against the loop cap.
* Spans and the values of literals are bound as constants of the
  namespace the code runs in, never written into its text; the text holds
  only operators and the strings and counts a builder call's shape fixes.
* Step accounting is not compiled: an interpreter that counts steps must
  not run compiled code.

Python limits nesting (indentation, brackets, nested loops) where Catat
does not.  A statement or expression nested deeper than ``_MAX_INDENT``,
``_MAX_LOOPS`` or ``_MAX_NESTING`` is outlined into a closure defined at
the top of the function and called where it stood; the variables it shares
with the rest of the function are ``nonlocal``.  Every function compiles.
"""

from __future__ import annotations

from . import nodes as n
from .errors import MalformedFragment, TypeMismatch
from .flatten import BUILDERS, SHAPES
from .staticeval import (
    FALSE, TRUE, array_of, array_size, binop, cell_index, held_type,
    loop_limit, matches, negate, read, small_int, store, store_cell,
)
from .values import (
    ClassTV, FixedArrayTV, FloatV, IntV, PointerTV, PRIM_BY_NAME, StrV, UNIT,
    coerce, truth,
)

# Outlining thresholds, well inside Python's limits of 100 indentation
# levels, 200 open brackets and 20 nested loops per function.  An
# expression level opens at most three brackets.
_MAX_INDENT = 40
_MAX_LOOPS = 12
_MAX_NESTING = 30
_INDENTING = (n.If, n.For, n.Switch)


def _fail(error: Exception):
    raise error


_HELPERS = {
    "UNIT": UNIT, "TRUE": TRUE, "FALSE": FALSE,
    "ONE": small_int(1), "MINUS_ONE": small_int(-1),
    "binop": binop, "coerce": coerce, "truth": truth, "negate": negate,
    "read": read, "store": store, "array_of": array_of,
    "cell_index": cell_index, "store_cell": store_cell, "matches": matches,
    "held_type": held_type, "array_size": array_size,
    "loop_limit": loop_limit, "PointerTV": PointerTV,
    "FixedArrayTV": FixedArrayTV, "TypeMismatch": TypeMismatch,
    "fail": _fail,
    **{"B_" + name: builder for name, builder in BUILDERS.items()},
}


def _literal(e: n.Expr):
    """What a builder's shape sees of an argument when the generator is
    translated: the value of a string or int literal, and for any other
    argument ``UNIT``, which fits no position the shape fixes."""
    if e.__class__ is n.StringLit:
        return StrV(e.value)
    if e.__class__ is n.IntLit:
        return IntV(e.value)
    return UNIT


class _Local:
    """A Python local of the compiled function: a Catat variable's value
    or its declared type when that is not a constant.  It is ``shared``
    when a frame other than the one that declares it uses it."""

    __slots__ = ("name", "frame", "shared")

    def __init__(self, name: str, frame: "_Frame"):
        self.name = name
        self.frame = frame
        self.shared = False


class _Var:
    __slots__ = ("value", "tv")

    def __init__(self, value: _Local, tv: "str | _Local"):
        self.value = value
        self.tv = tv  # a constant's name or a local


class _Frame:
    """A Python function being written: the compiled function itself or
    an outlined closure."""

    def __init__(self, name: str, indent: int):
        self.name = name
        self.indent = indent
        self.loops = 0
        self.lines: list[str] = []
        self.used: set = set()  # the _Locals its code touches


class _Translator:
    def __init__(self):
        self.ns = dict(_HELPERS)
        self.consts: dict[str, str] = {}  # repr of a constant -> its name
        self.scopes: list[dict] = []
        self.count = 0
        self.main = self.frame = _Frame("main", 1)
        self.closures: list[_Frame] = []
        self.level = 0  # expression nesting in the current frame

    # -- names, constants and lines -------------------------------------------

    def fresh(self, base: str) -> str:
        self.count += 1
        return f"{base}{self.count}"

    def const(self, value, base: str = "K") -> str:
        key = f"{type(value).__name__}:{value!r}"
        name = self.consts.get(key)
        if name is None:
            name = self.consts[key] = self.fresh(base)
            self.ns[name] = value
        return name

    def span(self, span) -> str:
        return "None" if span is None else self.const(span, "S")

    def emit(self, line: str) -> None:
        self.frame.lines.append("    " * self.frame.indent + line)

    def suite(self, s: n.Stmt) -> None:
        """``s`` as the indented body of an ``if`` or ``while``, in the
        scope the walker gives a nested statement (``_scope_for``)."""
        frame = self.frame
        frame.indent += 1
        mark = len(frame.lines)
        self.nested(s)
        if len(frame.lines) == mark:
            self.emit("pass")
        frame.indent -= 1

    def nested(self, s: n.Stmt) -> None:
        if s.__class__ is n.VarDecl:
            self.scopes.append({})
            self.stmt(s)
            self.scopes.pop()
        else:
            self.stmt(s)

    # -- variables ------------------------------------------------------------

    def use(self, local: _Local) -> str:
        if local.frame is not self.frame:
            local.shared = True
        self.frame.used.add(local)
        return local.name

    def local(self, base: str) -> _Local:
        local = _Local(self.fresh(base), self.frame)
        self.frame.used.add(local)
        return local

    def lookup(self, name: str) -> _Var | None:
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        return None

    def tv_text(self, var: _Var) -> str:
        return var.tv if var.tv.__class__ is str else self.use(var.tv)

    def declare(self, name: str, tv: str | _Local, value: str, span) -> None:
        """Bind the declared ``name`` to the value of the text ``value``;
        ``tv`` is its type, a constant's name or a local."""
        scope = self.scopes[-1]
        if name in scope:  # the walker's Env.declare refuses it here
            self.emit(value)
            message = f"redeclaration of '{name}' in the same scope"
            self.emit(f"raise TypeMismatch({self.const(message)}, "
                      f"{self.span(span)})")
            return
        var = scope[name] = _Var(self.local(f"v_{name}_"), tv)
        self.emit(f"{var.value.name} = {value}")

    # -- functions ------------------------------------------------------------

    def function(self, fn: n.FunctionDef) -> str:
        params = fn.params if fn.static_params is None \
            else fn.static_params + fn.params
        self.scopes.append({})
        self.emit("cap = interp.limits.loop_cap")
        if params:
            self.emit("slots = env.slots")
        for p in params:
            if p.name in self.scopes[-1]:
                continue  # call_function has refused the call
            if p.dtype.__class__ is n.PrimType and \
                    p.dtype.name in PRIM_BY_NAME:
                tv = self.const(PRIM_BY_NAME[p.dtype.name], "T")
            else:
                tv = self.local("t")
                self.emit(f"{tv.name} = slots[{p.name!r}].tv")
            self.declare(p.name, tv, f"slots[{p.name!r}].value", p.span)
        self.block(fn.body)
        self.scopes.pop()
        return self.assemble()

    def assemble(self) -> str:
        out = [f"def {_ENTRY}(interp, env):"]
        shared = sorted({local.name for frame in (self.main, *self.closures)
                         for local in frame.used if local.shared})
        if shared:
            out.append("    " + " = ".join(shared) + " = None")
        for frame in self.closures:
            out.append(f"    def {frame.name}():")
            names = sorted(local.name for local in frame.used
                           if local.shared)
            if names:
                out.append("        nonlocal " + ", ".join(names))
            elif not frame.lines:
                out.append("        pass")
            out.extend(frame.lines)
        out.extend(self.main.lines)
        return "\n".join(out) + "\n"

    def outline(self, write) -> str:
        """Run ``write`` into a new closure; the closure's name."""
        frame = _Frame(self.fresh("_c"), 2)
        saved = self.frame, self.level
        self.frame, self.level = frame, 0
        write()
        self.frame, self.level = saved
        self.closures.append(frame)
        return frame.name

    # -- statements -----------------------------------------------------------

    def stmt(self, s: n.Stmt) -> None:
        frame = self.frame
        cls = s.__class__
        if cls in _INDENTING and frame.indent >= _MAX_INDENT or \
                cls is n.For and frame.loops >= _MAX_LOOPS:
            name = self.outline(lambda: self.stmt(s))
            if any(x.__class__ is n.Return for x in n.walk(s)):
                result = self.fresh("_r")
                self.emit(f"{result} = {name}()")
                self.emit(f"if {result} is not None: return {result}")
            else:
                self.emit(f"{name}()")
            return
        handler = _STMT.get(cls)
        if handler is None:
            message = f"cannot execute {type(s).__name__}"
            self.emit(f"raise TypeMismatch({self.const(message)}, "
                      f"{self.span(s.span)})")
            return
        handler(self, s)

    def block(self, s: n.Block) -> None:
        self.scopes.append({})
        for x in s.stmts:
            self.stmt(x)
        self.scopes.pop()

    def var_decl(self, s: n.VarDecl) -> None:
        for d in s.declarators:
            dtype = s.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            if isinstance(dtype, n.ClassAppType):
                args = ", ".join(self.expr(a) for a in dtype.args)
                self.declare(
                    d.name, self.const(ClassTV(dtype.name), "T"),
                    f"interp.class_instance({self.const(dtype.name)}, "
                    f"[{args}], {self.span(s.span)})", d.span)
                continue
            tv = self.type_expr(dtype, s.span)
            if tv not in self.ns:  # resolved before the initializer runs
                local = self.local("t")
                self.emit(f"{local.name} = {tv}")
                tv = local
            text = tv if tv.__class__ is str else tv.name
            if d.init is not None:
                value = f"coerce({self.expr(d.init)}, {text}, " \
                        f"{self.span(d.span)})"
            else:
                value = f"interp.default_value({text}, {self.span(d.span)})"
            self.declare(d.name, tv, value, d.span)

    def assign(self, s: n.Assign) -> None:
        value = self.expr(s.value)
        span = self.span(s.span)
        target = s.target
        op = s.op
        if target.__class__ is n.VarRef:
            var = self.lookup(target.name)
            if var is None:  # a global
                self.emit(f"store(interp.globals, {self.const(target.name)}, "
                          f"{op!r}, {value}, {span})")
                return
            name = self.use(var.value)
            if op != "=":
                if any(x.__class__ is n.Incr for x in n.walk(s.value)):
                    # the value may step the variable before it is read
                    temp = self.fresh("_v")
                    self.emit(f"{temp} = {value}")
                    value = temp
                value = f"binop({op[0]!r}, {name}, {value}, {span})"
            self.emit(f"{name} = coerce({value}, {self.tv_text(var)}, "
                      f"{span})")
            return
        temp = self.fresh("_v")
        self.emit(f"{temp} = {value}")
        if target.__class__ is n.Subscript:
            arr = self.fresh("_a")
            where = self.span(target.span)
            self.emit(f"{arr} = array_of({self.expr(target.base)}, {where})")
            self.emit(f"store_cell({arr}, cell_index({arr}, "
                      f"{self.expr(target.index)}, {where}), {op!r}, "
                      f"{temp}, {span})")
            return
        self.emit(f"raise TypeMismatch("
                  f"{self.const('invalid assignment target')}, {span})")

    def expr_stmt(self, s: n.ExprStmt) -> None:
        self.emit(self.expr(s.expr))

    def return_stmt(self, s: n.Return) -> None:
        self.emit("return UNIT" if s.value is None
                  else f"return {self.expr(s.value)}")

    def if_stmt(self, s: n.If) -> None:
        self.emit(f"if truth({self.expr(s.cond)}, {self.span(s.span)}):")
        self.suite(s.then_stmt)
        if s.else_stmt is not None:
            self.emit("else:")
            self.suite(s.else_stmt)

    def for_stmt(self, s: n.For) -> None:
        frame = self.frame
        self.scopes.append({})
        if s.init is not None:
            self.stmt(s.init)
        count = self.fresh("_n")
        span = self.span(s.span)
        self.emit(f"{count} = 0")
        self.emit("while True:")
        frame.indent += 1
        if s.cond is not None:
            self.emit(f"if not truth({self.expr(s.cond)}, {span}): break")
        self.emit(f"{count} += 1")
        self.emit(f"if {count} > cap: "
                  f"raise loop_limit(cap, {bool(s.unrolling)}, {span})")
        frame.loops += 1
        self.nested(s.body)
        frame.loops -= 1
        if s.incr is not None:
            self.stmt(s.incr)
        frame.indent -= 1
        self.scopes.pop()

    def switch_stmt(self, s: n.Switch) -> None:
        """The cases as a flat run of ``if``s: a flag says whether one has
        matched, so the later labels are not evaluated."""
        subject = self.fresh("_s")
        open_ = self.fresh("_m")
        self.emit(f"{subject} = {self.expr(s.subject)}")
        self.emit(f"{open_} = True")
        default = None
        for case in s.cases:
            if case.label is None:
                default = case
                continue
            self.emit(f"if {open_} and matches({subject}, "
                      f"{self.expr(case.label)}, {self.span(case.span)}):")
            self.case_body(case, open_)
        if default is not None:
            self.emit(f"if {open_}:")
            self.case_body(default, open_)

    def case_body(self, case: n.SwitchCase, open_: str) -> None:
        self.frame.indent += 1
        self.emit(f"{open_} = False")
        self.block(n.Block(case.body))
        self.frame.indent -= 1

    # -- expressions ----------------------------------------------------------

    def expr(self, e: n.Expr) -> str:
        if self.level >= _MAX_NESTING:
            name = self.outline(lambda: self.emit(f"return {self.expr(e)}"))
            return f"{name}()"
        handler = _EXPR.get(e.__class__)
        if handler is None:
            message = f"cannot evaluate {type(e).__name__}"
            return f"fail(TypeMismatch({self.const(message)}, " \
                   f"{self.span(e.span)}))"
        self.level += 1
        text = handler(self, e)
        self.level -= 1
        return text

    def int_lit(self, e: n.IntLit) -> str:
        return self.const(small_int(e.value))

    def float_lit(self, e: n.FloatLit) -> str:
        return self.const(FloatV(e.value))

    def bool_lit(self, e: n.BoolLit) -> str:
        return "TRUE" if e.value else "FALSE"

    def string_lit(self, e: n.StringLit) -> str:
        return self.const(StrV(e.value))

    def type_lit(self, e: n.TypeLit) -> str:
        return self.type_expr(e.type_expr, e.span)

    def var_ref(self, e: n.VarRef) -> str:
        var = self.lookup(e.name)
        if var is None:
            return f"read(interp.globals, {self.const(e.name)}, " \
                   f"{self.span(e.span)})"
        return self.use(var.value)

    def unary(self, e: n.Unary) -> str:
        operand = self.expr(e.operand)
        if e.op == "!":
            return f"(FALSE if truth({operand}, {self.span(e.span)}) " \
                   f"else TRUE)"
        return f"negate({operand}, {self.span(e.span)})"

    def incr(self, e: n.Incr) -> str:
        span = self.span(e.span)
        if e.target.__class__ is not n.VarRef:
            message = f"'{e.op}' needs a variable"
            return f"fail(TypeMismatch({self.const(message)}, {span}))"
        delta = "ONE" if e.op == "++" else "MINUS_ONE"
        var = self.lookup(e.target.name)
        if var is None:
            name = self.const(e.target.name)
            return f"store(interp.globals, {name}, '+=', {delta}, {span})"
        name = self.use(var.value)
        return f"({name} := coerce(binop('+', {name}, {delta}, {span}), " \
               f"{self.tv_text(var)}, {span}))"

    def binary(self, e: n.Binary) -> str:
        span = self.span(e.span)
        lhs = self.expr(e.lhs)
        rhs = self.expr(e.rhs)
        if e.op == "&&":
            return f"((TRUE if truth({rhs}, {span}) else FALSE) " \
                   f"if truth({lhs}, {span}) else FALSE)"
        if e.op == "||":
            return f"(TRUE if truth({lhs}, {span}) " \
                   f"else (TRUE if truth({rhs}, {span}) else FALSE))"
        return f"binop({e.op!r}, {lhs}, {rhs}, {span})"

    def cond(self, e: n.Cond) -> str:
        return f"({self.expr(e.then_expr)} " \
               f"if truth({self.expr(e.cond)}, {self.span(e.span)}) " \
               f"else {self.expr(e.else_expr)})"

    def subscript(self, e: n.Subscript) -> str:
        arr = self.fresh("_a")
        span = self.span(e.span)
        return f"({arr} := array_of({self.expr(e.base)}, {span}))" \
               f".cells[cell_index({arr}, {self.expr(e.index)}, {span})]"

    def call(self, e: n.Call) -> str:
        span = self.span(e.span)
        shape = SHAPES.get(e.callee)
        if shape is not None:
            return self.builder_call(e, shape, span)
        args = ", ".join(self.expr(a) for a in e.args)
        if e.static_args is not None:
            message = (f"specializing call '{e.callee}(s...)(d...)' cannot "
                       "be evaluated directly; specialize the program first")
            return f"fail(TypeMismatch({self.const(message)}, {span}))"
        return f"interp.call_static({self.const(e.callee)}, [{args}], " \
               f"{span})"

    def builder_call(self, e: n.Call, shape, span: str) -> str:
        try:
            build, fixed = shape([_literal(a) for a in e.args], None)
        except MalformedFragment:
            args = ", ".join(self.expr(a) for a in e.args)
            return f"B_{e.callee}([{args}], {span}, interp)"
        self.ns[build.__name__] = build
        args = "".join(", " + (repr(a.value) if i in fixed else self.expr(a))
                       for i, a in enumerate(e.args))
        return f"{build.__name__}({span}, interp{args})"

    def type_expr(self, t: n.TypeExpr, span) -> str:
        """The text of ``t``'s type value, resolved as ``resolve_type``
        resolves it: a local that holds a type here, the rest through
        ``resolve_type`` on the globals."""
        cls = t.__class__
        if cls is n.PrimType and t.name in PRIM_BY_NAME:
            return self.const(PRIM_BY_NAME[t.name], "T")
        if cls is n.NamedType:
            var = self.lookup(t.name)
            if var is not None:
                return f"held_type({self.const(t.name)}, " \
                       f"{self.use(var.value)}, {self.span(span)})"
        elif cls is n.PointerType:
            return f"PointerTV({self.type_expr(t.base, span)})"
        elif cls is n.ArrayType:
            return f"FixedArrayTV({self.type_expr(t.base, span)}, " \
                   f"array_size({self.expr(t.size)}, " \
                   f"{self.span(t.size.span)}))"
        return f"interp.resolve_type({self.const(t)}, interp.globals, " \
               f"{self.span(span)})"


# Translations by exact node class, one for each class the walker's
# ``_STMT`` and ``_EXPR`` hold.
_STMT = {
    n.VarDecl: _Translator.var_decl,
    n.Assign: _Translator.assign,
    n.ExprStmt: _Translator.expr_stmt,
    n.Return: _Translator.return_stmt,
    n.Block: _Translator.block,
    n.If: _Translator.if_stmt,
    n.For: _Translator.for_stmt,
    n.Switch: _Translator.switch_stmt,
}

_EXPR = {
    n.IntLit: _Translator.int_lit,
    n.FloatLit: _Translator.float_lit,
    n.BoolLit: _Translator.bool_lit,
    n.StringLit: _Translator.string_lit,
    n.TypeLit: _Translator.type_lit,
    n.VarRef: _Translator.var_ref,
    n.Unary: _Translator.unary,
    n.Incr: _Translator.incr,
    n.Binary: _Translator.binary,
    n.Cond: _Translator.cond,
    n.Subscript: _Translator.subscript,
    n.Call: _Translator.call,
}

_ENTRY = "compiled"


def emit_python(fn: n.FunctionDef) -> tuple[str, dict]:
    """The Python source of ``fn``'s body as the function ``compiled(interp,
    env)``, and the namespace of helpers and constants it runs in."""
    t = _Translator()
    return t.function(fn), t.ns


def compile_function(fn: n.FunctionDef):
    """``fn``'s body compiled: a function of the interpreter and the
    environment ``call_function`` bound the arguments in, returning the
    value of a ``return`` or None."""
    source, namespace = emit_python(fn)
    exec(compile(source, f"<catat {fn.name}>", "exec"), namespace)
    return namespace[_ENTRY]
