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
raises the same errors with the same messages and spans.  It is typed:
each expression is translated with a *kind*, what its Python value is,
known when the function is translated.

* Each Catat variable is a Python local, renamed apart per declaration,
  so block scopes and shadowing need no environment.  A local declared
  ``int``, ``char`` or ``long int`` holds a Python int, and one declared
  ``bool`` a Python bool; every other local holds a ``Value``.  A store
  coerces to the variable's declared type (``coerce``) unless the kinds
  show that the value conforms; a global is read and written through
  ``interp.globals`` with the walker's checks (``read``, ``store``).
* ``+ - *`` of two ints is Python arithmetic followed by the int64 range
  check, which raises the walker's error with its message and span; a
  comparison of two ints and the logic of bools are Python's.  Every
  other operation (``/``, ``%``, a float or any boxed operand) goes
  through ``binop`` and ``truth``; subscripts, the negation of a boxed
  value and switch labels through the helpers the walker calls
  (``staticeval``).  Operands are evaluated left to right, and an
  assignment evaluates its value before its target, as in the walker.
* A builder's fragment stays bare: a builder call nested in another hands
  over its node, with no ``CodeV``.  An ``ASTree`` local holds a
  ``CodeV``; one that is initialized and never assigned holds a fragment
  of the class its initializer makes, and a builder reads that fragment
  directly.  A builder call's shape (``flatten.SHAPES``: its argument
  count and the literal strings that name its operator, variable or
  callee) is checked here, once, on the call's text.  Where it holds and
  the kinds of the arguments leave no check of the construction that can
  fail, the construction is written out (``Assign(result.frag, '+=',
  Binary('*', ...))``); where a check remains, the compiled code calls the
  construction with the node's own span, which makes only the checks that
  depend on argument values.  Where the text leaves the shape open or
  breaks it, the compiled code calls the checked ``BUILDERS`` entry, which
  checks the shape when the call runs, after its arguments, as in the
  walker.
* A value is boxed (``small_int``, ``TRUE``/``FALSE``, ``CodeV``) only
  where it leaves the compiled code or meets a boxed operand: a store to
  a global or to a local of another kind, an argument of a user function
  (``Interpreter.call_static``, so the memo, the arity check and the depth
  level stay in one place), of a checked builder entry or of a helper,
  and a ``return``.
* Every loop counts its iterations against the loop cap.
* Spans and the values of literals other than ints and bools are bound as
  constants of the namespace the code runs in, never written into its
  text; the text holds only operators, int and bool literals and the
  strings and counts a builder call's shape fixes.
* Step accounting is not compiled: an interpreter that counts steps must
  not run compiled code.

The translation is one flat Python function.  Python limits nesting
where Catat does not (100 levels of indentation, 200 open brackets, 20
nested loops, the depth of its parser's stack), and ``compile()`` refuses
the text of a function nested past them with a ``SyntaxError``, or a
``MemoryError`` where the parser's stack overflows first (an expression
about 100 levels deep, on Python 3.11).  ``compile_function`` then
returns the walker's body runner, what ``call_function`` runs for a
function with no compiled code: a generator Python cannot compile runs
walked, as compiled code is an optimization the walker always stands
behind.

``compile_function`` translates each function once per process: it keeps
the code it made, or the runner it fell back to, in a table keyed by the
function's tree (``_key``: every field, the spans, stages and
``For.unrolling`` included), so a generator flattened again from another
parse of the same source, in another specialization cache, is neither
translated nor compiled again.  The code depends on nothing but that
tree, and what it binds as constants (spans, literal values, types) is
equal in every function of the same key.  The table holds at most
``_CODE_BOUND`` entries and drops the oldest.
"""

from __future__ import annotations

from operator import attrgetter

from . import nodes as n
from .errors import IntegerOverflow, MalformedFragment, TypeMismatch
from .flatten import BUILDERS, SHAPES, Shell, lift_int
from .staticeval import (
    FALSE, TRUE, array_of, array_size, binop, cell_index, held_type,
    loop_limit, matches, negate, read, small_int, store, store_cell,
)
from .values import (
    ASTREE, BOOL, INT64_MAX, INT64_MIN, INT_OVERFLOW, ClassTV, CodeV,
    FixedArrayTV, FloatV, IntV, PointerTV, PRIM_BY_NAME, StrV, UNIT, coerce,
    is_integer_type, truth,
)

# The kind of a translated expression, what its Python value is: a Value
# (VALUE), an int's or a bool's Python value (INT, BOOL), a bare fragment
# of a known class (that class: a node class or ``Shell``), or a CodeV
# whose fragment has a known class (``(CodeV, that class)``).
VALUE, INT, BOOL = "value", "int", "bool"

_COMPARISONS = frozenset({"==", "!=", "<", ">", "<=", ">="})

# How a construction takes an argument that its call's text does not fix:
# _LIFTED, a fragment or a static value that it lifts (``_as_expr``,
# ``_as_stmt``), so an unboxed int or bool is handed over as its literal;
# _FRAGMENT, a fragment that it does not lift; VALUE, a static value, so a
# bare fragment is boxed.  The last role listed repeats; a construction
# not listed lifts every argument.  ``make_call``'s static arguments are
# values.
_LIFTED, _FRAGMENT = "lifted", "fragment"
_ROLES = {
    "_build_lambda": (VALUE,), "_build_body": (_FRAGMENT,),
    "_build_append": (_FRAGMENT,), "_build_varref": (_FRAGMENT,),
    "_build_literal": (VALUE,), "_build_vardecl": (VALUE, VALUE, _LIFTED),
    "_build_subscript": (_FRAGMENT, _LIFTED), "_build_ptr": (VALUE,),
    "_build_arr": (VALUE,), "_build_error": (VALUE,),
}

# The class of the fragment each construction makes.  ``_build_append``
# returns its statement as it was handed over; the rest return values.
_MADE = {
    "_build_lambda": Shell, "_build_body": n.Block, "_build_varref": n.VarRef,
    "_build_literal": n.Expr, "_build_vardecl": n.VarDecl,
    "_build_binary": n.Binary, "_build_assign": n.Assign,
    "_build_unary": n.Unary, "_build_incr": n.Incr, "_build_return": n.Return,
    "_build_subscript": n.Subscript, "_build_for": n.For, "_build_if": n.If,
    "_build_cond": n.Cond, "_build_block": n.Block, "_build_call": n.Call,
}


def _fail(error: Exception):
    raise error


def _overflow(span):
    raise IntegerOverflow(INT_OVERFLOW, span)


_HELPERS = {
    "UNIT": UNIT, "TRUE": TRUE, "FALSE": FALSE,
    "ONE": small_int(1), "MINUS_ONE": small_int(-1),
    "binop": binop, "coerce": coerce, "truth": truth, "negate": negate,
    "read": read, "store": store, "array_of": array_of,
    "cell_index": cell_index, "store_cell": store_cell, "matches": matches,
    "held_type": held_type, "array_size": array_size,
    "loop_limit": loop_limit, "PointerTV": PointerTV,
    "FixedArrayTV": FixedArrayTV, "TypeMismatch": TypeMismatch,
    "fail": _fail, "overflow": _overflow, "small_int": small_int,
    "CodeV": CodeV, "lift_int": lift_int,
    **{cls.__name__: cls for cls in (
        n.Assign, n.Binary, n.Block, n.BoolLit, n.Cond, n.ExprStmt, n.Incr,
        n.Return, n.Subscript, n.Unary, n.VarRef)},
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


class _Var:
    """A Catat variable: the Python local that holds its value, and the
    name of its declared type, a constant's or, where the type is not a
    constant, a local's."""

    __slots__ = ("value", "tv", "kind")

    def __init__(self, tv: str, kind):
        self.value: str | None = None  # set when it is declared
        self.tv = tv
        self.kind = kind


class _Translator:
    def __init__(self):
        self.ns = dict(_HELPERS)
        self.consts: dict[str, str] = {}  # repr of a constant -> its name
        self.scopes: list[dict] = []
        self.count = 0
        self.lines: list[str] = [f"def {_ENTRY}(interp, env):"]
        self.indent = 1
        self.assigned: set = set()  # the names assigned after declaration

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
        self.lines.append("    " * self.indent + line)

    def suite(self, s: n.Stmt) -> None:
        """``s`` as the indented body of an ``if`` or ``while``, in the
        scope the walker gives a nested statement (``_scope_for``)."""
        self.indent += 1
        mark = len(self.lines)
        self.nested(s)
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent -= 1

    def nested(self, s: n.Stmt) -> None:
        if s.__class__ is n.VarDecl:
            self.scopes.append({})
            self.stmt(s)
            self.scopes.pop()
        else:
            self.stmt(s)

    # -- kinds ----------------------------------------------------------------
    #
    # A translated expression is a pair (text, kind).

    def box(self, code) -> str:
        """The text of ``code``'s value as a ``Value``."""
        text, kind = code
        if kind == INT:
            return self.const(small_int(int(text))) if text.isdigit() \
                else f"small_int({text})"
        if kind == BOOL:
            return {"True": "TRUE", "False": "FALSE"}.get(text) or \
                f"(TRUE if {text} else FALSE)"
        if kind.__class__ is type:
            return f"CodeV({text})"
        return text

    def condition(self, code, span: str) -> str:
        """The text of ``code`` as a condition: a Python bool."""
        return code[0] if code[1] == BOOL \
            else f"truth({self.box(code)}, {span})"

    def checked(self, text: str, span: str) -> tuple:
        """The int ``text`` computes, checked to be in the int64 range."""
        return (f"(_t if {INT64_MIN} <= (_t := {text}) <= {INT64_MAX} "
                f"else overflow({span}))", INT)

    @staticmethod
    def fragment(code) -> tuple | None:
        """``(text, class)`` of the bare fragment ``code`` holds, when the
        class is known."""
        text, kind = code
        if kind.__class__ is type:
            return code
        if kind.__class__ is tuple:
            return f"{text}.frag", kind[1]
        return None

    def expr_node(self, code, span: str) -> str | None:
        """The text of the expression a construction makes of ``code``
        where it lifts its argument, when no check of it can fail."""
        text, kind = code
        if kind == INT:
            return f"lift_int({text}, {span})"
        if kind == BOOL:
            return f"BoolLit({text}, span={span})"
        frag = self.fragment(code)
        if frag is not None and issubclass(frag[1], n.Expr):
            return frag[0]
        return None

    def stmt_node(self, code) -> str | None:
        """The text of the statement a construction makes of ``code``,
        when no check of it can fail."""
        frag = self.fragment(code)
        if frag is None:
            return None
        text, cls = frag
        if issubclass(cls, n.Stmt):
            return text
        if cls is n.Incr or cls is n.Call:
            return f"ExprStmt({text})"
        return None

    def kind_of(self, tv, name: str, init) -> object:
        """The kind of a local declared ``name`` of the constant type
        ``tv`` (None when it is not a constant) initialized from ``init``
        (None for none)."""
        if tv is None:
            return VALUE
        if is_integer_type(tv):
            return INT
        if tv == BOOL:
            return BOOL
        if tv == ASTREE and init is not None and name not in self.assigned:
            frag = self.fragment(init)
            if frag is not None:
                return CodeV, frag[1]
        return VALUE

    def stored(self, code, var: _Var, span: str) -> str:
        """The text of ``code`` coerced to ``var``'s declared type, in
        ``var``'s kind."""
        text, kind = code
        if var.kind == INT or var.kind == BOOL:
            return text if kind == var.kind else \
                f"coerce({self.box(code)}, {var.tv}, {span}).value"
        if self.ns.get(var.tv) == ASTREE and self.fragment(code) is not None:
            return self.box(code)
        return f"coerce({self.box(code)}, {var.tv}, {span})"

    # -- variables ------------------------------------------------------------

    def lookup(self, name: str) -> _Var | None:
        for scope in reversed(self.scopes):
            var = scope.get(name)
            if var is not None:
                return var
        return None

    def declare(self, name: str, var: _Var, value: str, span) -> None:
        """Bind the declared ``name`` to ``var``, holding the value of the
        text ``value``."""
        scope = self.scopes[-1]
        if name in scope:  # the walker's Env.declare refuses it here
            self.emit(value)
            message = f"redeclaration of '{name}' in the same scope"
            self.emit(f"raise TypeMismatch({self.const(message)}, "
                      f"{self.span(span)})")
            return
        var.value = self.fresh(f"v_{name}_")
        scope[name] = var
        self.emit(f"{var.value} = {value}")

    # -- functions ------------------------------------------------------------

    def function(self, fn: n.FunctionDef) -> str:
        params = fn.params if fn.static_params is None \
            else fn.static_params + fn.params
        self.assigned = {x.target.name for x in n.walk(fn.body)
                         if x.__class__ in (n.Assign, n.Incr)
                         and x.target.__class__ is n.VarRef}
        self.scopes.append({})
        self.emit("cap = interp.limits.loop_cap")
        if params:
            self.emit("slots = env.slots")
        for p in params:
            if p.name in self.scopes[-1]:
                continue  # call_function has refused the call
            prim = PRIM_BY_NAME.get(p.dtype.name) \
                if p.dtype.__class__ is n.PrimType else None
            if prim is not None:
                tv = self.const(prim, "T")
            else:
                tv = self.fresh("t")
                self.emit(f"{tv} = slots[{p.name!r}].tv")
            var = _Var(tv, self.kind_of(prim, p.name, None))
            unboxed = ".value" if var.kind in (INT, BOOL) else ""
            self.declare(p.name, var, f"slots[{p.name!r}].value{unboxed}",
                         p.span)
        self.block(fn.body)
        self.scopes.pop()
        return "\n".join(self.lines) + "\n"

    # -- statements -----------------------------------------------------------

    def stmt(self, s: n.Stmt) -> None:
        handler = _STMT.get(s.__class__)
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
                args = ", ".join(self.box(self.expr(a)) for a in dtype.args)
                var = _Var(self.const(ClassTV(dtype.name), "T"), VALUE)
                self.declare(
                    d.name, var,
                    f"interp.class_instance({self.const(dtype.name)}, "
                    f"[{args}], {self.span(s.span)})", d.span)
                continue
            tv = self.type_expr(dtype, s.span)
            if tv not in self.ns:  # resolved before the initializer runs
                local = self.fresh("t")
                self.emit(f"{local} = {tv}")
                tv = local
            prim = PRIM_BY_NAME.get(dtype.name) \
                if dtype.__class__ is n.PrimType else None
            init = None if d.init is None else self.expr(d.init)
            var = _Var(tv, self.kind_of(prim, d.name, init))
            if init is not None:
                value = self.stored(init, var, self.span(d.span))
            elif var.kind == INT or var.kind == BOOL:
                value = "0" if var.kind == INT else "False"
            else:
                value = f"interp.default_value({var.tv}, " \
                        f"{self.span(d.span)})"
            self.declare(d.name, var, value, d.span)

    def assign(self, s: n.Assign) -> None:
        value = self.expr(s.value)
        span = self.span(s.span)
        target = s.target
        op = s.op
        if target.__class__ is n.VarRef:
            var = self.lookup(target.name)
            if var is None:  # a global
                self.emit(f"store(interp.globals, {self.const(target.name)}, "
                          f"{op!r}, {self.box(value)}, {span})")
                return
            name = var.value
            if op != "=":
                if any(x.__class__ is n.Incr for x in n.walk(s.value)):
                    # the value may step the variable before it is read
                    temp = self.fresh("_v")
                    self.emit(f"{temp} = {value[0]}")
                    value = temp, value[1]
                if var.kind == INT and value[1] == INT and op[0] in "+-*":
                    value = self.checked(f"{name} {op[0]} {value[0]}", span)
                else:
                    value = (f"binop({op[0]!r}, {self.box((name, var.kind))}, "
                             f"{self.box(value)}, {span})", VALUE)
            self.emit(f"{name} = {self.stored(value, var, span)}")
            return
        temp = self.fresh("_v")
        self.emit(f"{temp} = {self.box(value)}")
        if target.__class__ is n.Subscript:
            arr = self.fresh("_a")
            where = self.span(target.span)
            self.emit(f"{arr} = array_of({self.box(self.expr(target.base))}, "
                      f"{where})")
            self.emit(f"store_cell({arr}, cell_index({arr}, "
                      f"{self.box(self.expr(target.index))}, {where}), "
                      f"{op!r}, {temp}, {span})")
            return
        self.emit(f"raise TypeMismatch("
                  f"{self.const('invalid assignment target')}, {span})")

    def expr_stmt(self, s: n.ExprStmt) -> None:
        self.emit(self.expr(s.expr)[0])

    def return_stmt(self, s: n.Return) -> None:
        self.emit("return UNIT" if s.value is None
                  else f"return {self.box(self.expr(s.value))}")

    def if_stmt(self, s: n.If) -> None:
        cond = self.condition(self.expr(s.cond), self.span(s.span))
        self.emit(f"if {cond}:")
        self.suite(s.then_stmt)
        if s.else_stmt is not None:
            self.emit("else:")
            self.suite(s.else_stmt)

    def for_stmt(self, s: n.For) -> None:
        self.scopes.append({})
        if s.init is not None:
            self.stmt(s.init)
        count = self.fresh("_n")
        span = self.span(s.span)
        self.emit(f"{count} = 0")
        self.emit("while True:")
        self.indent += 1
        if s.cond is not None:
            cond = self.condition(self.expr(s.cond), span)
            self.emit(f"if not {cond}: break")
        self.emit(f"{count} += 1")
        self.emit(f"if {count} > cap: "
                  f"raise loop_limit(cap, {bool(s.unrolling)}, {span})")
        self.nested(s.body)
        if s.incr is not None:
            self.stmt(s.incr)
        self.indent -= 1
        self.scopes.pop()

    def switch_stmt(self, s: n.Switch) -> None:
        """The cases as a flat run of ``if``s: a flag says whether one has
        matched, so the later labels are not evaluated."""
        subject = self.fresh("_s")
        open_ = self.fresh("_m")
        self.emit(f"{subject} = {self.box(self.expr(s.subject))}")
        self.emit(f"{open_} = True")
        default = None
        for case in s.cases:
            if case.label is None:
                default = case
                continue
            self.emit(f"if {open_} and matches({subject}, "
                      f"{self.box(self.expr(case.label))}, "
                      f"{self.span(case.span)}):")
            self.case_body(case, open_)
        if default is not None:
            self.emit(f"if {open_}:")
            self.case_body(default, open_)

    def case_body(self, case: n.SwitchCase, open_: str) -> None:
        self.indent += 1
        self.emit(f"{open_} = False")
        self.block(n.Block(case.body))
        self.indent -= 1

    # -- expressions ----------------------------------------------------------

    def expr(self, e: n.Expr) -> tuple:
        handler = _EXPR.get(e.__class__)
        if handler is None:
            message = f"cannot evaluate {type(e).__name__}"
            return (f"fail(TypeMismatch({self.const(message)}, "
                    f"{self.span(e.span)}))", VALUE)
        return handler(self, e)

    def int_lit(self, e: n.IntLit) -> tuple:
        return repr(e.value), INT

    def float_lit(self, e: n.FloatLit) -> tuple:
        return self.const(FloatV(e.value)), VALUE

    def bool_lit(self, e: n.BoolLit) -> tuple:
        return repr(e.value), BOOL

    def string_lit(self, e: n.StringLit) -> tuple:
        return self.const(StrV(e.value)), VALUE

    def type_lit(self, e: n.TypeLit) -> tuple:
        return self.type_expr(e.type_expr, e.span), VALUE

    def var_ref(self, e: n.VarRef) -> tuple:
        var = self.lookup(e.name)
        if var is None:
            return (f"read(interp.globals, {self.const(e.name)}, "
                    f"{self.span(e.span)})", VALUE)
        return var.value, var.kind

    def unary(self, e: n.Unary) -> tuple:
        operand = self.expr(e.operand)
        span = self.span(e.span)
        if e.op == "!":
            return f"(not {self.condition(operand, span)})", BOOL
        if operand[1] == INT:
            return self.checked(f"-{operand[0]}", span)
        return f"negate({self.box(operand)}, {span})", VALUE

    def incr(self, e: n.Incr) -> tuple:
        span = self.span(e.span)
        if e.target.__class__ is not n.VarRef:
            message = f"'{e.op}' needs a variable"
            return f"fail(TypeMismatch({self.const(message)}, {span}))", VALUE
        var = self.lookup(e.target.name)
        if var is None:
            delta = "ONE" if e.op == "++" else "MINUS_ONE"
            name = self.const(e.target.name)
            return (f"store(interp.globals, {name}, '+=', {delta}, {span})",
                    VALUE)
        name = var.value
        if var.kind == INT:
            step = self.checked(f"{name} {e.op[0]} 1", span)[0]
            return f"({name} := {step})", INT
        delta = "ONE" if e.op == "++" else "MINUS_ONE"
        value = f"binop('+', {self.box((name, var.kind))}, {delta}, {span})"
        return f"({name} := {self.stored((value, VALUE), var, span)})", \
            var.kind

    def binary(self, e: n.Binary) -> tuple:
        span = self.span(e.span)
        lhs = self.expr(e.lhs)
        rhs = self.expr(e.rhs)
        op = e.op
        if op == "&&" or op == "||":
            word = "and" if op == "&&" else "or"
            return (f"({self.condition(lhs, span)} {word} "
                    f"{self.condition(rhs, span)})", BOOL)
        if lhs[1] == INT and rhs[1] == INT:
            if op in _COMPARISONS:
                return f"({lhs[0]} {op} {rhs[0]})", BOOL
            if op in ("+", "-", "*"):
                return self.checked(f"{lhs[0]} {op} {rhs[0]}", span)
        return (f"binop({op!r}, {self.box(lhs)}, {self.box(rhs)}, {span})",
                VALUE)

    def cond(self, e: n.Cond) -> tuple:
        cond = self.condition(self.expr(e.cond), self.span(e.span))
        then, other = self.expr(e.then_expr), self.expr(e.else_expr)
        kind = then[1] if then[1] == other[1] else None
        if kind is None and then[1].__class__ is type and \
                other[1].__class__ is type and \
                issubclass(then[1], n.Expr) and issubclass(other[1], n.Expr):
            kind = n.Expr
        if kind is None:
            return (f"({self.box(then)} if {cond} else {self.box(other)})",
                    VALUE)
        return f"({then[0]} if {cond} else {other[0]})", kind

    def subscript(self, e: n.Subscript) -> tuple:
        arr = self.fresh("_a")
        span = self.span(e.span)
        return (f"({arr} := array_of({self.box(self.expr(e.base))}, {span}))"
                f".cells[cell_index({arr}, {self.box(self.expr(e.index))}, "
                f"{span})]", VALUE)

    def call(self, e: n.Call) -> tuple:
        span = self.span(e.span)
        shape = SHAPES.get(e.callee)
        if shape is not None:
            return self.builder_call(e, shape, span)
        args = ", ".join(self.box(self.expr(a)) for a in e.args)
        if e.static_args is not None:
            message = (f"specializing call '{e.callee}(s...)(d...)' cannot "
                       "be evaluated directly; specialize the program first")
            return f"fail(TypeMismatch({self.const(message)}, {span}))", VALUE
        return (f"interp.call_static({self.const(e.callee)}, [{args}], "
                f"{span})", VALUE)

    def builder_call(self, e: n.Call, shape, span: str) -> tuple:
        try:
            build, fixed = shape([_literal(a) for a in e.args], None)
        except MalformedFragment:
            args = ", ".join(self.box(self.expr(a)) for a in e.args)
            return f"B_{e.callee}([{args}], {span}, interp)", VALUE
        name = build.__name__
        args = [a.value if i in fixed else self.expr(a)
                for i, a in enumerate(e.args)]
        code = self.written_out(name, args, span)
        if code is not None:
            return code
        self.ns[name] = build
        roles = _ROLES.get(name, (_LIFTED,))
        values = 2 + args[1] if name == "_build_call" else 0
        texts = [span, "interp"]
        for i, a in enumerate(args):
            if i in fixed:
                texts.append(repr(a))
                continue
            role = VALUE if i < values else roles[min(i, len(roles) - 1)]
            scalar = a[1] == INT or a[1] == BOOL
            if role == _LIFTED and scalar:
                texts.append(self.expr_node(a, span))
            elif role == VALUE or scalar:
                texts.append(self.box(a))
            else:
                texts.append(a[0])
        kind = _MADE.get(name, VALUE)
        if name == "_build_append":
            kind = VALUE if args[1][1] in (INT, BOOL) else args[1][1]
        return f"{name}({', '.join(texts)})", kind

    def written_out(self, name: str, args: list, span: str) -> tuple | None:
        """The construction ``name`` written out, where the kinds of its
        arguments (the fixed ones as Python values) leave no check of it
        that can fail; None elsewhere."""
        cls = _MADE.get(name)
        if name in ("_build_binary", "_build_unary", "_build_incr"):
            operands = [self.expr_node(a, span) for a in args[1:]]
            if None in operands:
                return None
            return f"{cls.__name__}({args[0]!r}, {', '.join(operands)})", cls
        if name in ("_build_cond", "_build_return"):
            parts = [self.expr_node(a, span) for a in args]
            if None in parts:
                return None
            return f"{cls.__name__}({', '.join(parts) or 'None'})", cls
        if name == "_build_block":
            parts = [self.stmt_node(a) for a in args]
            if None in parts:
                return None
            return f"Block([{', '.join(parts)}])", cls
        if name == "_build_literal":
            node = self.expr_node(args[0], span) \
                if args[0][1] in (INT, BOOL) else None
            return None if node is None else (node, cls)
        if name == "_build_assign":
            target = self.fragment(args[1])
            value = self.expr_node(args[2], span)
            if target is None or value is None or \
                    target[1] is not n.VarRef and target[1] is not n.Subscript:
                return None
            return f"Assign({target[0]}, {args[0]!r}, {value})", cls
        if name not in ("_build_subscript", "_build_body", "_build_varref",
                        "_build_append"):
            return None
        frag = self.fragment(args[0])
        if frag is None:
            return None
        if name == "_build_subscript":
            index = self.expr_node(args[1], span)
            if not issubclass(frag[1], n.Expr) or index is None:
                return None
            return f"Subscript({frag[0]}, {index})", cls
        if name == "_build_body":
            return (f"{frag[0]}.body", cls) if frag[1] is Shell else None
        if name == "_build_varref":
            if frag[1] is not n.VarDecl:
                return None
            return f"VarRef({frag[0]}.declarators[0].name)", cls
        # append: the block's statements grow by the statement it returns
        stmt = self.fragment(args[1])
        if frag[1] is not n.Block or stmt is None:
            return None
        if issubclass(stmt[1], n.Stmt):
            pushed = f"_f := {stmt[0]}"
        elif stmt[1] is n.Incr or stmt[1] is n.Call:
            pushed = f"ExprStmt(_f := {stmt[0]})"
        else:
            return None
        return f"({frag[0]}.stmts.append({pushed}) or _f)", stmt[1]

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
                held = self.box((var.value, var.kind))
                return f"held_type({self.const(t.name)}, {held}, " \
                       f"{self.span(span)})"
        elif cls is n.PointerType:
            return f"PointerTV({self.type_expr(t.base, span)})"
        elif cls is n.ArrayType:
            return f"FixedArrayTV({self.type_expr(t.base, span)}, " \
                   f"array_size({self.box(self.expr(t.size))}, " \
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

# The code table: compiled functions by the structural key of the function
# they were compiled from (``_key``), the oldest dropped past _CODE_BOUND.
_CODE_BOUND = 256
_CODE: dict = {}
_READ: dict = {}  # node class -> the getter of its fields and kept fields


def _key(fn: n.FunctionDef) -> tuple:
    """A key equal for two functions exactly when their trees are: the
    pre-order run of each node's class, each of its fields and kept fields
    (``span``, ``stage``, ``For.unrolling``) in order, each list's length
    and items, and each plain value tagged with its class (``True`` is not
    ``1``), a float by its ``repr`` (``-0.0`` is not ``0.0``).  A node
    class fixes how many values follow it, so the run reads back one way;
    the walker contract (``nodes``) makes every item hashable."""
    out = []
    stack = [fn]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is list:
            out += (list, len(x))
            stack += reversed(x)
            continue
        read = _READ.get(cls)
        if read is None and issubclass(cls, n.Node):
            read = _READ[cls] = attrgetter(*cls._fields, *cls._kept)
        if read is not None:
            out.append(cls)
            stack += reversed(read(x))
        else:
            out += (cls, repr(x) if cls is float else x)
    return tuple(out)


def emit_python(fn: n.FunctionDef) -> tuple[str, dict]:
    """The Python source of ``fn``'s body as the function ``compiled(interp,
    env)``, and the namespace of helpers and constants it runs in."""
    t = _Translator()
    return t.function(fn), t.ns


def compile_function(fn: n.FunctionDef):
    """``fn``'s body compiled: a function of the interpreter and the
    environment ``call_function`` bound the arguments in, returning the
    value of a ``return`` or None.  Where Python refuses the translation,
    nested past its limits, the function walks the body instead.  A
    function equal to one compiled before, spans included, gets that one's
    code from the table."""
    key = _key(fn)
    code = _CODE.get(key)
    if code is None:
        source, namespace = emit_python(fn)
        try:
            compiled = compile(source, f"<catat {fn.name}>", "exec")
        except (SyntaxError, MemoryError):
            body = fn.body
            code = lambda interp, env: interp.exec_block(body, env)
        else:
            exec(compiled, namespace)
            code = namespace[_ENTRY]
        if len(_CODE) >= _CODE_BOUND:
            del _CODE[next(iter(_CODE))]
        _CODE[key] = code
    return code
