"""The flattening transform and the code-builder operation set.

Flattening rewrites a two-level function into a single-level *generator*:
static constructs are copied verbatim (annotations stripped), and each
dynamic construct is replaced by calls to builder functions that construct
its syntax tree.  Running the generator with concrete static arguments
yields a code value whose shell becomes the body of a residual function
indistinguishable from the direct route's output.

Code values hold residual syntax itself: a builder returns a ``CodeV``
whose ``frag`` is an ``n.Expr``, an ``n.Stmt`` or, from ``make_lambda``, a
``Shell`` (the parameters and the ``n.Block`` the body is appended to).
Whether a fragment is an expression or a statement is decided when a
builder embeds it, and a malformed fragment is reported there, with that
builder call's span; a static value it embeds is lifted there
(``lift``).  Each builder's construction makes the fragment bare and
takes a fragment argument bare or boxed; its checked entry boxes what it
makes, so the walker sees code values only, and the compiled generator
hands a nested builder call's fragment over bare.  Each builder call the
flattener writes has the span of the source node it stands for, so a
generator reports an error where the direct route does.  A call is
resolved when ``make_call`` builds it, in the unit under way
(``interp.unit``, the specializer's ``Unit``), by the resolver the
direct route names its calls with, so a call names its
specialized residual at once, its typename statics inferred from its
pointer arguments where it has none.  A ``return`` under static control
ends the generator: it returns its shell right after appending the
return, and a plain block is attached to its target before it is filled,
so the shell is whole there.  ``materialize`` only checks and
unpacks the shell the generator returns: the specializer's
``SpecializationCache.unit`` keys, names, types and registers the unit on
both routes.  Residual nodes may be shared between statements (one varref
stands for a variable everywhere), so nothing downstream may mutate them
except the checker's ``.stage``.

The specializer flattens each generator once per specialization cache
and runs it compiled to Python (``pyemit``), translated once per process,
or walked where Python refuses its text; the tree walker stays the
reference engine, and both make the same nodes with the same spans, the
compiled code through the constructions below or written out where no
check of one can fail.
What does not flatten raises ``FlattenUnsupported``: a dynamic
``switch``, a run-time class declaration and a class entry.

Flattening is defined for two levels, and it runs no binding-time analysis
of its own: a declaration, assignment or expression is static when the
stage checker wrote ``stage == 0`` on it, so the input must come from
``check_stages``.  Whether ``if@``/``for@``/``switch@`` unrolls is read
from its annotation, because a construct's stage is its guard's stage.

Builder suite: the five core constructors (make_lambda, make_varref,
make_vardecl, make_op, make_return) plus append/body for block plumbing,
and the extensions needed to cover every residual node kind: make_literal,
make_subscript, make_call, make_for, make_if, make_cond, make_block,
make_incr, make_unary, make_ptr, make_arr.  A builder is a shape, checked
where a call's text fixes it, and a construction from the argument values
(see the builders section below).  In a unit under way, from a generator
or static code, ``make_vardecl`` draws the declared name, with its type,
from the unit's ``NameSupply`` (outside one it keeps the name), and
``make_lambda`` types the unit's untyped parameters there;
``make_varref`` also takes a declaration fragment, and ``append`` returns
what it appended.
"""

from __future__ import annotations

import math

from . import nodes as n
from .errors import (
    FlattenUnsupported, LiftError, MalformedFragment, Record, Span,
    UserStaticError,
)
from .values import (
    INT64_MAX, INT64_MIN, BoolV, ClassTV, CodeV, FixedArrayTV, FloatV, IntV,
    PointerTV, StrV, TypeValue, Value, describe, render_type,
)

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
_BINARY_OPS = _ASSIGN_OPS + ("+", "-", "*", "/", "%", "==", "!=", "<", ">",
                             "<=", ">=", "&&", "||")


# ---------------------------------------------------------------------------
# Lifting and type rendering


def lift(v: Value, span: Span | None = None) -> n.Expr:
    """A literal expression denoting a static value, for insertion into
    dynamic code (cross-stage persistence)."""
    if isinstance(v, IntV):
        return lift_int(v.value, span)
    if isinstance(v, FloatV):
        if v.value != v.value:
            raise LiftError("the float nan has no literal form in dynamic "
                            "code", span)
        if math.copysign(1.0, v.value) < 0:  # -0.0 too
            return n.Unary("-", n.FloatLit(-v.value), span=span)
        return n.FloatLit(v.value, span=span)
    if isinstance(v, BoolV):
        return n.BoolLit(v.value, span=span)
    raise LiftError(f"{describe(v)} has no literal form in dynamic code",
                    span)


def lift_int(value: int, span: Span | None = None) -> n.Expr:
    """The literal of an int's Python value.  The magnitude of INT64_MIN
    is no int literal, so it is written as C writes it,
    ``-9223372036854775807 - 1``.  The span is set after the node is made:
    a keyword argument costs more than the store."""
    if value >= 0:
        node = n.IntLit(value)
    elif value != INT64_MIN:
        node = n.Unary("-", n.IntLit(-value))
    else:
        node = n.Binary("-", n.Unary("-", n.IntLit(INT64_MAX)), n.IntLit(1))
    node.span = span
    return node


def type_value_to_texpr(tv: TypeValue) -> n.TypeExpr:
    if isinstance(tv, PointerTV):
        return n.PointerType(type_value_to_texpr(tv.elem))
    if isinstance(tv, FixedArrayTV):
        return n.ArrayType(type_value_to_texpr(tv.elem), n.IntLit(tv.size))
    if isinstance(tv, ClassTV):
        return n.NamedType(render_type(tv))
    return n.PrimType(tv.name)


def type_value_to_decl(tv: TypeValue) -> tuple[n.TypeExpr, n.Expr | None]:
    """Declaration-style rendering: arrays move the size to the declarator."""
    if isinstance(tv, FixedArrayTV):
        return type_value_to_texpr(tv.elem), n.IntLit(tv.size)
    return type_value_to_texpr(tv), None


# ---------------------------------------------------------------------------
# Builders (registered as compile-time builtins)
#
# A builder has two parts.  Its *shape* is what the text of a call fixes:
# the argument count and, where an argument names an operator, a declared
# variable, a parameter or a callee, that string (and ``make_call``'s
# static argument count).  ``SHAPES[name](args, span)`` checks the shape
# and returns the builder's *construction* and the positions of those
# arguments.  A construction takes the call's span, the interpreter and the
# call's arguments in order, those positions as Python strings and ints and
# the rest as values, where a fragment may also come bare, outside a
# ``CodeV``.  It makes only the checks that depend on the values: a
# fragment's kind (``_as_expr``, ``_as_stmt``), a type value, a static
# value lifted at the call's span, an assignment's target; and it draws
# declared names and resolves calls.  It returns its fragment bare
# (``append`` returns its statement as it was given).
#
# ``BUILDERS[name](args, span, interp)`` is the checked entry: the shape
# checked on the argument values when the call runs, then the construction
# (so a call wrong in both reports its shape), whose fragment it boxes.
# The walker calls it.
# ``pyemit`` checks a call's shape once, when it translates the generator,
# on the literals in its text.  Where the shape holds, the compiled code
# calls the construction directly, or writes it out where no check of it
# can fail; where the text leaves the shape open or breaks it, the
# compiled code calls the checked entry, so the call fails when it runs,
# after its arguments, as in the walker.


class Shell(Record):
    """A function under construction: its (name, TypeValue) parameters and
    the block that ``append(body(shell), ...)`` fills."""

    __slots__ = _fields = ("params", "body")

    def __init__(self, params: list, body: n.Block):
        self.params = params
        self.body = body


def _as_expr(v, span: Span | None) -> n.Expr:
    node = v.frag if v.__class__ is CodeV else v
    if isinstance(node, n.Expr):
        return node
    if isinstance(node, Value):
        return lift(node, span)
    if isinstance(node, n.Assign):
        raise MalformedFragment(
            f"assignment '{node.op}' used in expression position", span)
    raise MalformedFragment(
        f"{type(node).__name__} is not an expression fragment", span)


def _as_stmt(v, span: Span | None) -> n.Stmt:
    node = v.frag if v.__class__ is CodeV else v
    if isinstance(node, Value):
        node = lift(node, span)
    if isinstance(node, n.Stmt):
        return node
    if isinstance(node, (n.Incr, n.Call)):
        return n.ExprStmt(node)
    raise MalformedFragment(
        f"{type(node).__name__} is not a statement fragment", span)


def _missing(v) -> bool:
    """The generator passes an empty block for a missing for-loop clause."""
    node = v.frag if v.__class__ is CodeV else v
    return node.__class__ is n.Block and not node.stmts


def _boxed(v) -> Value:
    """``v`` as a value: a bare fragment in a ``CodeV``."""
    return v if isinstance(v, Value) else CodeV(v)


def _need_str(v: Value, what: str, span: Span | None) -> str:
    if not isinstance(v, StrV):
        raise MalformedFragment(f"{what} must be a string, got {describe(v)}",
                                span)
    return v.value


def _need_type(v: Value, what: str, span: Span | None) -> TypeValue:
    if not isinstance(v, TypeValue):
        raise MalformedFragment(f"{what} must be a type value, got "
                                f"{describe(v)}", span)
    return v


def _need_count(args: list, lo: int, hi: int | None, name: str,
                span: Span | None) -> None:
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise MalformedFragment(f"{name} called with {len(args)} argument(s)",
                                span)


# -- constructions ------------------------------------------------------------


def _build_lambda(span, interp, *pairs):
    params = [(name, _need_type(tv, f"type of parameter '{name}'", span))
              for name, tv in zip(pairs[::2], pairs[1::2])]
    if interp.unit is not None:
        for name, tv in params:
            interp.unit.names.settle(name, tv)
    return Shell(params, n.Block([]))


def _build_body(span, interp, shell):
    frag = shell.frag if shell.__class__ is CodeV else shell
    if frag.__class__ is Shell:
        return frag.body
    raise MalformedFragment("body expects a function shell", span)


def _build_append(span, interp, block, stmt):
    target = block.frag if block.__class__ is CodeV else block
    if target.__class__ is not n.Block:
        raise MalformedFragment("append target is not a block", span)
    node = stmt.frag if stmt.__class__ is CodeV else stmt
    if not isinstance(node, n.Node):  # a static value or a shell
        raise MalformedFragment("append expects a statement fragment", span)
    target.stmts.append(_as_stmt(node, span))
    return stmt


def _build_varref(span, interp, v):
    node = v.frag if v.__class__ is CodeV else v
    if node.__class__ is n.VarDecl:
        return n.VarRef(node.declarators[0].name)
    return n.VarRef(_need_str(_boxed(v), "variable name", span))


def _build_literal(span, interp, v):
    return lift(v, span)


def _build_vardecl(span, interp, tv, name, init=None):
    _need_type(tv, "declared type", span)
    if interp.unit is not None:
        name = interp.unit.names.draw(name, tv)
    init = None if init is None else _as_expr(init, span)
    dtype, size = type_value_to_decl(tv)
    return n.VarDecl(dtype, [n.Declarator(name, size, init)])


def _build_binary(span, interp, op, lhs, rhs):
    return n.Binary(op, _as_expr(lhs, span), _as_expr(rhs, span))


def _build_assign(span, interp, op, target, value):
    target = _as_expr(target, span)
    if target.__class__ is not n.VarRef and \
            target.__class__ is not n.Subscript:
        raise MalformedFragment("invalid assignment target fragment", span)
    return n.Assign(target, op, _as_expr(value, span))


def _build_unary(span, interp, op, operand):
    return n.Unary(op, _as_expr(operand, span))


def _build_incr(span, interp, op, target):
    return n.Incr(op, _as_expr(target, span))


def _build_return(span, interp, value=None):
    return n.Return(None if value is None else _as_expr(value, span))


# The error of a static array under a dynamic index, on both routes.
STATIC_BASE_MESSAGE = ("a static array cannot flow into dynamic code "
                       "(dynamic index into static data)")


def _build_subscript(span, interp, base, index):
    if base.__class__ is not CodeV and isinstance(base, Value):
        raise LiftError(STATIC_BASE_MESSAGE, span)
    return n.Subscript(_as_expr(base, span), _as_expr(index, span))


def _build_for(span, interp, init, cond, incr, body):
    return n.For(None if _missing(init) else _as_stmt(init, span),
                 None if _missing(cond) else _as_expr(cond, span),
                 None if _missing(incr) else _as_stmt(incr, span),
                 _as_stmt(body, span), 0)


def _build_if(span, interp, cond, then_stmt, else_stmt=None):
    if else_stmt is not None:
        else_stmt = _as_stmt(else_stmt, span)
    return n.If(_as_expr(cond, span), _as_stmt(then_stmt, span), else_stmt,
                0, 0)


def _build_cond(span, interp, cond, then_expr, else_expr):
    return n.Cond(_as_expr(cond, span), _as_expr(then_expr, span),
                  _as_expr(else_expr, span))


def _build_block(span, interp, *stmts):
    return n.Block([_as_stmt(s, span) for s in stmts])


def _build_call(span, interp, callee, nstatic, *args):
    statics = list(args[:nstatic])
    for v in statics:
        if v.__class__ is CodeV or not isinstance(v, Value):
            raise MalformedFragment(
                "static arguments of make_call must be values", span)
    dyn = [_as_expr(a, span) for a in args[nstatic:]]
    unit = interp.unit
    if unit is not None:
        callee = unit.cache.resolve(callee, statics, dyn, unit, span)
    elif statics:
        raise FlattenUnsupported(
            "nested specializing calls need a specialization cache", span)
    return n.Call(callee, dyn)


def _build_ptr(span, interp, tv):
    return PointerTV(_need_type(tv, "element type", span))


def _build_arr(span, interp, tv, size):
    tv = _need_type(tv, "element type", span)
    if not isinstance(size, IntV) or size.value < 0:
        raise MalformedFragment("array size must be a non-negative int", span)
    return FixedArrayTV(tv, size.value)


def _build_error(span, interp, msg):
    if not isinstance(msg, StrV):
        raise MalformedFragment("Catat_error expects a message string", span)
    raise UserStaticError(msg.value, span)


# -- shapes -------------------------------------------------------------------


def _counted(name: str, lo: int, hi: int | None, build):
    """The shape of a builder whose text fixes only its argument count."""
    def shape(args, span):
        _need_count(args, lo, hi, name, span)
        return build, ()
    return shape


def _lambda_shape(args, span):
    if len(args) % 2 != 0:
        raise MalformedFragment("make_lambda takes (name, type) pairs", span)
    for i in range(0, len(args), 2):
        _need_str(args[i], "parameter name", span)
    return _build_lambda, tuple(range(0, len(args), 2))


def _vardecl_shape(args, span):
    _need_count(args, 2, 3, "make_vardecl", span)
    _need_str(args[1], "declared name", span)
    return _build_vardecl, (1,)


def _op_shape(args, span):
    _need_count(args, 3, 3, "make_op", span)
    op = _need_str(args[0], "operator name", span)
    if op not in _BINARY_OPS:
        raise MalformedFragment(f"unknown operator '{op}'", span)
    return (_build_assign if op in _ASSIGN_OPS else _build_binary), (0,)


def _operator_shape(name: str, ops: tuple, what: str, build):
    """The shape of ``make_unary`` and ``make_incr``."""
    def shape(args, span):
        _need_count(args, 2, 2, name, span)
        op = _need_str(args[0], "operator name", span)
        if op not in ops:
            raise MalformedFragment(f"unknown {what} operator '{op}'", span)
        return build, (0,)
    return shape


def _call_shape(args, span):
    _need_count(args, 2, None, "make_call", span)
    _need_str(args[0], "callee name", span)
    if not isinstance(args[1], IntV) or args[1].value < 0:
        raise MalformedFragment(
            "make_call's second argument is the static argument count", span)
    if len(args) < 2 + args[1].value:
        raise MalformedFragment("make_call is missing static arguments", span)
    return _build_call, (0, 1)


SHAPES = {
    "make_lambda": _lambda_shape,
    "body": _counted("body", 1, 1, _build_body),
    "append": _counted("append", 2, 2, _build_append),
    "make_varref": _counted("make_varref", 1, 1, _build_varref),
    "make_literal": _counted("make_literal", 1, 1, _build_literal),
    "make_vardecl": _vardecl_shape,
    "make_op": _op_shape,
    "make_unary": _operator_shape("make_unary", ("!", "-"), "unary",
                                  _build_unary),
    "make_incr": _operator_shape("make_incr", ("++", "--"), "step",
                                 _build_incr),
    "make_return": _counted("make_return", 0, 1, _build_return),
    "make_subscript": _counted("make_subscript", 2, 2, _build_subscript),
    "make_for": _counted("make_for", 4, 4, _build_for),
    "make_if": _counted("make_if", 2, 3, _build_if),
    "make_cond": _counted("make_cond", 3, 3, _build_cond),
    "make_block": _counted("make_block", 0, None, _build_block),
    "make_call": _call_shape,
    "make_ptr": _counted("make_ptr", 1, 1, _build_ptr),
    "make_arr": _counted("make_arr", 2, 2, _build_arr),
    "Catat_error": _counted("Catat_error", 1, 1, _build_error),
}


def _checked(shape):
    def entry(args, span, interp):
        build, fixed = shape(args, span)
        if fixed:
            args = [a.value if i in fixed else a
                    for i, a in enumerate(args)]
        return _boxed(build(span, interp, *args))
    return entry


# The checked entries, by builder name.
BUILDERS = {name: _checked(shape) for name, shape in SHAPES.items()}

KNOWN_BUILTINS = frozenset(BUILDERS)


# ---------------------------------------------------------------------------
# The flattening transform


class NameSupply:
    """Fresh names and their types: a draw of ``base`` gives ``base``, or
    else the first of ``base_2``, ``base_3``, ... that was neither seeded,
    kept nor drawn.  The next suffix of each base is remembered, so a draw
    costs constant time however many names share its base.

    ``types`` maps each name seeded, kept or drawn to the type it was given,
    or None: a residual unit's supply is the unit's type environment.  A
    dict seeds names with their types, any other iterable names alone."""

    def __init__(self, seed=()):
        self.types: dict = dict(seed) if isinstance(seed, dict) \
            else dict.fromkeys(seed)
        self.suffix: dict[str, int] = {}

    def keep(self, name: str, tv: TypeValue | None = None) -> str:
        """Take ``name`` itself, for a variable that keeps its name."""
        self.types[name] = tv
        return name

    def settle(self, name: str, tv: TypeValue) -> None:
        """Type ``name`` if it was kept without a type: a generator's own
        shell, built first, types the unit's parameters, and a shell that
        static code builds later retypes none of them."""
        if name in self.types and self.types[name] is None:
            self.types[name] = tv

    def draw(self, base: str, tv: TypeValue | None = None) -> str:
        name = base
        k = self.suffix.get(base, 2)
        while name in self.types:
            name = f"{base}_{k}"
            k += 1
        self.suffix[base] = k
        self.types[name] = tv
        return name


def _tree_var(name: str, init: n.Expr) -> n.Stmt:
    """The generator declaration ``ASTree name = init;``."""
    return n.VarDecl(n.PrimType("ASTree"), [n.Declarator(name, None, init)])


def _empty_block(span: Span | None) -> n.Expr:
    return n.Call("make_block", [], span=span)


class _Flattener:
    def __init__(self, fn: n.FunctionDef):
        self.fn = fn
        # the generator's own variables are named apart from the source's
        self.names = NameSupply(x.name for x in n.walk(fn)
                                if isinstance(x, (n.Param, n.Declarator)))
        # source names whose generator variable of the same name holds the
        # varref of their residual: the dynamic parameters and locals
        self.bound: set[str] = set()
        self.shell = self.names.draw("func")
        self.dynamic = 0  # dynamic constructs around the statement

    # -- generator construction ------------------------------------------------

    def flatten(self) -> n.FunctionDef:
        out: list[n.Stmt] = []
        lambda_args: list[n.Expr] = []
        for p in self.fn.params:
            lambda_args.append(n.StringLit(p.name))
            lambda_args.append(self.type_to_static_expr(p.dtype))
        span = self.fn.span
        out.append(_tree_var(self.shell, n.Call("make_lambda", lambda_args,
                                                span=span)))
        for p in self.fn.params:
            out.append(self._bind_ref(p.name, n.StringLit(p.name), p.span))
        target = n.Call("body", [n.VarRef(self.shell)], span=span)
        body: list[n.Stmt] = []  # a scope of its own: it may shadow a param
        self.transform_region(self.fn.body.stmts, target, body)
        out.append(n.Block(body))
        out.append(n.Return(n.VarRef(self.shell)))
        gen_params = []
        if self.fn.static_params:
            gen_params = [n.Param(p.name, n.strip_annotations(p.dtype))
                          for p in self.fn.static_params]
        return n.FunctionDef(self.fn.name + "_gen", None, gen_params,
                             n.Block(out), span=self.fn.span)

    def type_to_static_expr(self, t: n.TypeExpr) -> n.Expr:
        """A generator-time expression evaluating to the type value."""
        if isinstance(t, n.PrimType):
            return n.TypeLit(n.PrimType(t.name))
        if isinstance(t, n.NamedType):
            return n.VarRef(t.name)
        if isinstance(t, n.PointerType):
            return n.Call("make_ptr", [self.type_to_static_expr(t.base)],
                          span=t.span)
        if isinstance(t, n.ArrayType):
            return n.Call("make_arr", [self.type_to_static_expr(t.base),
                                       n.strip_annotations(t.size)],
                          span=t.span)
        raise FlattenUnsupported("class types do not flatten", t.span)

    def _bind_ref(self, name: str, frag: n.Expr, span: Span | None) -> n.Stmt:
        """Declare the generator variable ``name`` holding the varref of
        ``frag``, a name or a declaration fragment."""
        self.bound.add(name)
        return _tree_var(name, n.Call("make_varref", [frag], span=span))

    def transform_region(self, stmts: list, target: n.Expr,
                         out: list) -> None:
        """A region is a source scope: what its declarations bind ends
        with it."""
        saved = set(self.bound)
        for s in stmts:
            self.transform_stmt(s, target, out)
        self.bound = saved

    def _append_stmt(self, target: n.Expr, frag_expr: n.Expr,
                     span: Span | None) -> n.Stmt:
        return n.ExprStmt(n.Call("append", [target, frag_expr], span=span))

    def _vardecl(self, dtype: n.TypeExpr, d: n.Declarator) -> n.Expr:
        args = [self.type_to_static_expr(dtype), n.StringLit(d.name)]
        if d.init is not None:
            args.append(self.conv_expr(d.init))
        return n.Call("make_vardecl", args, span=d.span)

    def transform_stmt(self, s: n.Stmt, target: n.Expr, out: list) -> None:
        if isinstance(s, n.Block):
            # attached before it is filled, so a return inside ends the
            # generator with the block in place
            self._filled(n.Call("append", [target, _empty_block(s.span)],
                                span=s.span), s.stmts, out)
            return
        if isinstance(s, n.VarDecl):
            if isinstance(s.dtype, n.ClassAppType) and not s.dtype.ctime:
                raise FlattenUnsupported("class-typed declarations do not "
                                         "flatten", s.span)
            if s.stage == 0:
                out.append(n.strip_annotations(s))
                return
            for d in s.declarators:
                dtype = s.dtype
                if d.array_size is not None:
                    dtype = n.ArrayType(dtype, d.array_size)
                decl = n.Call("append", [target, self._vardecl(dtype, d)],
                              span=s.span)
                out.append(self._bind_ref(d.name, decl, d.span))
            return
        if isinstance(s, (n.Assign, n.ExprStmt)) and s.stage == 0:
            out.append(n.strip_annotations(s))
            return
        if isinstance(s, (n.Assign, n.ExprStmt, n.Return)):
            out.append(self._append_stmt(target, self._stmt_frag(s), s.span))
            if s.__class__ is n.Return and not self.dynamic:
                # under static control the unit ends here, as unstaged
                out.append(n.Return(n.VarRef(self.shell)))
            return
        if isinstance(s, n.If):
            if s.at_count:
                else_stmt = None if s.else_stmt is None \
                    else self._unrolled(s.else_stmt, target)
                out.append(n.If(n.strip_annotations(s.cond),
                                self._unrolled(s.then_stmt, target),
                                else_stmt, 0, 0, span=s.span))
                return
            mark = len(out)
            frag_args = [self.conv_expr(s.cond),
                         self.sub_to_frag(s.then_stmt, out)]
            if s.else_stmt is not None:
                frag_args.append(self.sub_to_frag(s.else_stmt, out))
            self._before(out, mark, frag_args, ("cond",))
            out.append(self._append_stmt(
                target, n.Call("make_if", frag_args, span=s.span), s.span))
            return
        if isinstance(s, n.For):
            if s.at_count:
                out.append(n.For(
                    n.strip_annotations(s.init) if s.init else None,
                    n.strip_annotations(s.cond) if s.cond else None,
                    n.strip_annotations(s.incr) if s.incr else None,
                    self._unrolled(s.body, target), 0, span=s.span,
                    unrolling=True))
                return
            saved = set(self.bound)
            # a loop variable's generator variables get a scope of their own
            code = [] if isinstance(s.init, n.VarDecl) else out
            init_frag = self.clause_to_frag(s.init, code, s.span)
            mark = len(code)
            frag_args = [init_frag,
                         self.conv_expr(s.cond) if s.cond is not None
                         else _empty_block(s.span),
                         self.clause_to_frag(s.incr, code, s.span)]
            frag_args.append(self.sub_to_frag(s.body, code))
            self._before(code, mark, frag_args, ("init", "cond", "step"))
            self.bound = saved
            code.append(self._append_stmt(
                target, n.Call("make_for", frag_args, span=s.span), s.span))
            if code is not out:
                out.append(n.Block(code))
            return
        if isinstance(s, n.Switch):
            if s.at_count:
                cases = []
                for case in s.cases:
                    inner = []
                    self.transform_region(case.body, target, inner)
                    cases.append(n.SwitchCase(
                        n.strip_annotations(case.label), inner,
                        span=case.span))
                out.append(n.Switch(n.strip_annotations(s.subject), cases, 0,
                                    span=s.span))
                return
            raise FlattenUnsupported("dynamic switch does not flatten",
                                     s.span)
        raise FlattenUnsupported(f"cannot flatten {type(s).__name__}", s.span)

    def _before(self, out: list, mark: int, frag_args: list,
                bases: tuple) -> None:
        """Build the condition and clauses of a dynamic ``if`` or ``for``,
        the first ``len(bases)`` fragments, before its bodies, as the
        direct route does, when generator code in ``out[mark:]`` fills a
        body: each is bound to a generator variable in front of that
        code."""
        if len(out) == mark:
            return
        for i, base in enumerate(bases):
            frag = frag_args[i]
            if frag.__class__ is not n.VarRef:
                var = self.names.draw(base)
                out.insert(mark, _tree_var(var, frag))
                mark += 1
                frag_args[i] = n.VarRef(var)

    def _unrolled(self, s: n.Stmt, target: n.Expr) -> n.Stmt:
        """Generator code for the body of an ``if@`` or ``for@``."""
        inner: list = []
        stmts = s.stmts if isinstance(s, n.Block) else [s]
        self.transform_region(stmts, target, inner)
        return inner[0] if len(inner) == 1 else n.Block(inner)

    def clause_to_frag(self, clause: n.Stmt | None, out: list,
                       span: Span | None) -> n.Expr:
        """The fragment of a ``for`` clause; ``span`` is the loop's."""
        if clause is None:
            return _empty_block(span)
        if isinstance(clause, n.VarDecl):
            # drawn and bound before the body draws, as on the direct route
            d = clause.declarators[0]
            decl = self.names.draw("init")
            out.append(_tree_var(decl, self._vardecl(clause.dtype, d)))
            out.append(self._bind_ref(d.name, n.VarRef(decl), d.span))
            return n.VarRef(decl)
        return self._stmt_frag(clause)

    def sub_to_frag(self, s: n.Stmt, out: list) -> n.Expr:
        """Convert a dynamic control-construct body to a block fragment.

        Complex bodies are built imperatively through a temporary block
        variable emitted into ``out``; the code that fills it runs in a
        block of its own, so the generator's scopes follow the source's."""
        if isinstance(s, (n.Assign, n.ExprStmt)) and s.stage != 0 or \
                isinstance(s, n.Return):
            return self._stmt_frag(s)
        self.dynamic += 1
        frag = self._filled(_empty_block(s.span),
                            s.stmts if isinstance(s, n.Block) else [s], out)
        self.dynamic -= 1
        return frag

    def _filled(self, block: n.Expr, stmts: list, out: list) -> n.Expr:
        """A temporary generator variable holding the block fragment
        ``block`` makes, and, in a block of its own, the generator code
        that fills it from ``stmts``."""
        tmp = self.names.draw("blk")
        out.append(_tree_var(tmp, block))
        inner: list = []
        self.transform_region(stmts, n.VarRef(tmp), inner)
        out.append(n.Block(inner))
        return n.VarRef(tmp)

    def _stmt_frag(self, s: n.Stmt) -> n.Expr:
        """The fragment of a dynamic assignment, expression statement,
        loop clause or return."""
        if isinstance(s, n.Assign):
            return n.Call("make_op", [n.StringLit(s.op),
                                      self.conv_expr(s.target),
                                      self.conv_expr(s.value)], span=s.span)
        if isinstance(s, n.ExprStmt) and isinstance(s.expr, n.Incr):
            return n.Call("make_incr", [n.StringLit(s.expr.op),
                                        self.conv_expr(s.expr.target)],
                          span=s.expr.span)
        if isinstance(s, n.ExprStmt):
            return self.conv_expr(s.expr)
        if isinstance(s, n.Return):
            args = [] if s.value is None else [self.conv_expr(s.value)]
            return n.Call("make_return", args, span=s.span)
        raise FlattenUnsupported(f"cannot flatten {type(s).__name__}",
                                 s.span)

    # -- expressions -> builder expressions ------------------------------------

    def conv_expr(self, e: n.Expr) -> n.Expr:
        """Generator expression whose value is the fragment for ``e``.

        Static subexpressions are evaluated at generator run time (builders
        lift raw values to literal fragments)."""
        if e.stage == 0:
            return n.strip_annotations(e)
        if isinstance(e, n.VarRef):
            if e.name in self.bound:
                return n.VarRef(e.name)
            return n.Call("make_varref", [n.StringLit(e.name)], span=e.span)
        if isinstance(e, n.Binary):
            if e.op in ("&&", "||") and e.lhs.stage == 0:
                # a static left operand that decides folds at generator run
                # time, as on the direct route; one that does not stays
                lhs = n.strip_annotations(e.lhs)
                kept = n.Call("make_op", [n.StringLit(e.op),
                                          n.BoolLit(e.op == "&&"),
                                          self.conv_expr(e.rhs)], span=e.span)
                if e.op == "&&":
                    return n.Cond(lhs, kept, n.BoolLit(False), span=e.span)
                return n.Cond(lhs, n.BoolLit(True), kept, span=e.span)
            return n.Call("make_op", [n.StringLit(e.op),
                                      self.conv_expr(e.lhs),
                                      self.conv_expr(e.rhs)], span=e.span)
        if isinstance(e, n.Unary):
            return n.Call("make_unary", [n.StringLit(e.op),
                                         self.conv_expr(e.operand)],
                          span=e.span)
        if isinstance(e, n.Incr):
            return n.Call("make_incr", [n.StringLit(e.op),
                                        self.conv_expr(e.target)],
                          span=e.span)
        if isinstance(e, n.Cond):
            # a static condition selects its arm at generator run time, as
            # on the direct route; the arms build after the condition
            if e.cond.stage == 0:
                return n.Cond(n.strip_annotations(e.cond),
                              self.conv_expr(e.then_expr),
                              self.conv_expr(e.else_expr), span=e.span)
            return n.Call("make_cond", [self.conv_expr(e.cond),
                                        self.conv_expr(e.then_expr),
                                        self.conv_expr(e.else_expr)],
                          span=e.span)
        if isinstance(e, n.Subscript):
            return n.Call("make_subscript", [self.conv_expr(e.base),
                                             self.conv_expr(e.index)],
                          span=e.span)
        if isinstance(e, n.Call):
            if e.static_args is not None:
                args = [n.StringLit(e.callee),
                        n.IntLit(len(e.static_args))]
                args.extend(n.strip_annotations(a) for a in e.static_args)
                args.extend(self.conv_expr(a) for a in e.args)
                return n.Call("make_call", args, span=e.span)
            args = [n.StringLit(e.callee), n.IntLit(0)]
            args.extend(self.conv_expr(a) for a in e.args)
            return n.Call("make_call", args, span=e.span)
        raise FlattenUnsupported(
            f"cannot flatten dynamic {type(e).__name__}", e.span)


def flatten_function(fn: n.FunctionDef, levels: int = 2) -> n.FunctionDef:
    """Rewrite a checked two-level function into its single-level
    generator."""
    if levels != 2:
        raise FlattenUnsupported(
            f"flattening is defined for two levels, not {levels}", fn.span)
    return _Flattener(fn).flatten()


# ---------------------------------------------------------------------------
# Materialization: code value -> residual parameters and body


def materialize(code: Value) -> tuple[list, list]:
    """The parameters and body statements of the completed function shell
    a generator returned.  The specializer names, types and registers the
    unit they make (``SpecializationCache.unit``)."""
    if code.__class__ is not CodeV or code.frag.__class__ is not Shell:
        raise MalformedFragment("materialize expects a function shell")
    return list(code.frag.params), code.frag.body.stmts

