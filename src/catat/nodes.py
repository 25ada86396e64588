"""AST node definitions for Catat source programs.

Each node class declares its ``__slots__``, an ``__init__`` that stores
every field in turn, and ``_fields``, the names of its compared fields in
order.  ``Node`` derives from ``errors.Record``, which reads ``_fields``
for ``==`` and ``repr``.
Equality ignores source spans and checker-assigned stages, so two parses
of the same text compare equal and round-trip tests can use plain ``==``.
A node equals only a node of its own class, and is unhashable.

Walker contract: every field in ``_fields`` holds a plain value, a node,
``None`` or a list of nodes, and the nodes among them are the node's
children.  ``span``, ``stage`` and ``For.unrolling``, the fields named in
``_kept``, are never children.  ``children``, ``walk`` and
``map_children`` read these two tuples, so a new node type needs no
traversal code of its own.

Every node class is slotted: a node has no ``__dict__``, and
``map_children`` copies every field, compared or kept.  A list field
whose default is ``FRESH`` gets a new empty list.

Annotation counts record the literal number of ``@`` characters lexed at
each position; 0 means unannotated.  Annotations are *relative*: a count of
k on a declaration in a scope whose default stage is s puts it at stage
s - k.
"""

from __future__ import annotations

from .errors import Record, Span


class _Fresh:
    __slots__ = ()

    def __repr__(self):
        return "<factory>"


# The default of a list or dict field: the constructor stores a new, empty
# one.  It prints as ``dataclasses`` prints a default factory.
FRESH = _Fresh()


class Node(Record):
    __slots__ = ("span", "stage")
    _kept = ("span", "stage")

    def __init__(self, *, span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage


# ---------------------------------------------------------------------------
# Type expressions

PRIM_TYPE_NAMES = ("int", "float", "char", "long int", "bool", "double",
                   "typename", "ASTree", "void")


class TypeExpr(Node):
    __slots__ = ()


class PrimType(TypeExpr):
    __slots__ = _fields = ("name", "at_count")

    def __init__(self, name: str = "", at_count: int = 0, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.at_count = at_count


class NamedType(TypeExpr):
    """Reference to a typename variable or a class name used as a type."""

    __slots__ = _fields = ("name", "at_count")

    def __init__(self, name: str = "", at_count: int = 0, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.at_count = at_count


class ClassAppType(TypeExpr):
    """``Name(args)`` or ``Name@(args)`` used as a type."""

    __slots__ = _fields = ("name", "args", "ctime", "at_count")

    def __init__(self, name: str = "", args: list = FRESH,
                 ctime: bool = False, at_count: int = 0, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.args = [] if args is FRESH else args
        self.ctime = ctime  # True for the Name@(...) form
        self.at_count = at_count


class PointerType(TypeExpr):
    __slots__ = _fields = ("base",)

    def __init__(self, base: TypeExpr = None, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.base = base


class ArrayType(TypeExpr):
    __slots__ = _fields = ("base", "size")

    def __init__(self, base: TypeExpr = None, size: Expr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.base = base
        self.size = size


def annotation_count(t: TypeExpr) -> int:
    """Total ``@`` count attached to the base of a type expression."""
    while isinstance(t, (PointerType, ArrayType)):
        t = t.base
    if isinstance(t, (PrimType, NamedType, ClassAppType)):
        return t.at_count
    return 0


def is_typename_type(t: TypeExpr) -> bool:
    while isinstance(t, (PointerType, ArrayType)):
        t = t.base
    return isinstance(t, PrimType) and t.name == "typename"


# ---------------------------------------------------------------------------
# Expressions


class Expr(Node):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int = 0, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.value = value


class FloatLit(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float = 0.0, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.value = value


class BoolLit(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool = False, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.value = value


class StringLit(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str = "", *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.value = value


class TypeLit(Expr):
    """A type used as a first-class value (``return float;``, ``case int:``)."""

    __slots__ = _fields = ("type_expr",)

    def __init__(self, type_expr: TypeExpr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.type_expr = type_expr


class VarRef(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str = "", *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name


class Unary(Expr):
    __slots__ = _fields = ("op", "operand")

    def __init__(self, op: str = "", operand: Expr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.op = op  # "!" or "-"
        self.operand = operand


class Incr(Expr):
    __slots__ = _fields = ("op", "target")

    def __init__(self, op: str = "", target: Expr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.op = op  # "++" or "--"
        self.target = target


class Binary(Expr):
    __slots__ = _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str = "", lhs: Expr = None, rhs: Expr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Cond(Expr):
    __slots__ = _fields = ("cond", "then_expr", "else_expr")

    def __init__(self, cond: Expr = None, then_expr: Expr = None,
                 else_expr: Expr = None, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.cond = cond
        self.then_expr = then_expr
        self.else_expr = else_expr


class Subscript(Expr):
    __slots__ = _fields = ("base", "index")

    def __init__(self, base: Expr = None, index: Expr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.base = base
        self.index = index


class Call(Expr):
    """Function invocation.

    Forms:
      * ``f(args)``        -> static_args is None, at_count 0
      * ``f@(args)``       -> static_args is None, at_count >= 1
      * ``f(s...)(d...)``  -> static_args holds the first list
    """

    __slots__ = _fields = ("callee", "args", "static_args", "at_count")

    def __init__(self, callee: str = "", args: list = FRESH,
                 static_args: list | None = None, at_count: int = 0, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.callee = callee
        self.args = [] if args is FRESH else args
        self.static_args = static_args
        self.at_count = at_count


# ---------------------------------------------------------------------------
# Statements


class Stmt(Node):
    __slots__ = ()


class Declarator(Node):
    __slots__ = _fields = ("name", "array_size", "init")

    def __init__(self, name: str = "", array_size: Expr | None = None,
                 init: Expr | None = None, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.array_size = array_size
        self.init = init


class VarDecl(Stmt):
    __slots__ = _fields = ("dtype", "declarators", "static_kw")

    def __init__(self, dtype: TypeExpr = None, declarators: list = FRESH,
                 static_kw: bool = False, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.dtype = dtype
        self.declarators = [] if declarators is FRESH else declarators
        # leading C++-style `static` on class members
        self.static_kw = static_kw


class Assign(Stmt):
    __slots__ = _fields = ("target", "op", "value")

    def __init__(self, target: Expr = None, op: str = "=",
                 value: Expr = None, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.target = target
        self.op = op  # = += -= *= /= %=
        self.value = value


class ExprStmt(Stmt):
    __slots__ = _fields = ("expr",)

    def __init__(self, expr: Expr = None, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.expr = expr


class Block(Stmt):
    __slots__ = _fields = ("stmts",)

    def __init__(self, stmts: list = FRESH, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.stmts = [] if stmts is FRESH else stmts


class If(Stmt):
    __slots__ = _fields = ("cond", "then_stmt", "else_stmt", "at_count",
                           "else_at_count")

    def __init__(self, cond: Expr = None, then_stmt: Stmt = None,
                 else_stmt: Stmt | None = None, at_count: int = 0,
                 else_at_count: int = 0, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.cond = cond
        self.then_stmt = then_stmt
        self.else_stmt = else_stmt
        self.at_count = at_count
        self.else_at_count = else_at_count


class For(Stmt):
    __slots__ = ("init", "cond", "incr", "body", "at_count", "unrolling")
    _fields = ("init", "cond", "incr", "body", "at_count")
    _kept = ("span", "stage", "unrolling")

    def __init__(self, init: Stmt | None = None, cond: Expr | None = None,
                 incr: Stmt | None = None, body: Stmt = None,
                 at_count: int = 0, *, span: Span | None = None,
                 stage: int | None = None, unrolling: bool = False):
        self.span = span
        self.stage = stage
        self.init = init
        self.cond = cond
        self.incr = incr
        self.body = body
        self.at_count = at_count
        # set on the loop a flatten generator runs to unroll a ``for@``, so
        # its loop-cap error reads as the specializer's
        self.unrolling = unrolling


class SwitchCase(Node):
    __slots__ = _fields = ("label", "body")

    def __init__(self, label: Expr | None = None, body: list = FRESH, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.label = label  # None for `default:`
        self.body = [] if body is FRESH else body


class Switch(Stmt):
    __slots__ = _fields = ("subject", "cases", "at_count")

    def __init__(self, subject: Expr = None, cases: list = FRESH,
                 at_count: int = 0, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.subject = subject
        self.cases = [] if cases is FRESH else cases
        self.at_count = at_count


class Return(Stmt):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Expr | None = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.value = value


# ---------------------------------------------------------------------------
# Declarations


class Param(Node):
    __slots__ = _fields = ("name", "dtype")

    def __init__(self, name: str = "", dtype: TypeExpr = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.dtype = dtype

    @property
    def at_count(self) -> int:
        return annotation_count(self.dtype)


class FunctionDef(Node):
    """``function name(static...)(dynamic...) { ... }``

    ``static_params`` is None for single-list (stage-polymorphic)
    definitions.  ``declared_return`` is set only when the C-style
    ``type name(params)`` form was parsed (emitted residual programs).
    """

    __slots__ = _fields = ("name", "static_params", "params", "body",
                           "declared_return")

    def __init__(self, name: str = "", static_params: list | None = None,
                 params: list = FRESH, body: Block = None,
                 declared_return: TypeExpr | None = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.static_params = static_params
        self.params = [] if params is FRESH else params
        self.body = body
        self.declared_return = declared_return

    @property
    def static_arity(self) -> int:
        return len(self.static_params) if self.static_params is not None else 0

    @property
    def is_single_list(self) -> bool:
        return self.static_params is None

    def infers_statics(self, nargs: int) -> bool:
        """Whether a call without a static list, on ``nargs`` arguments,
        may infer this function's static arguments: each static parameter
        is a typename that is the element type of a pointer parameter."""
        if not self.static_params or len(self.params) != nargs:
            return False
        pointed = {p.dtype.base.name for p in self.params
                   if isinstance(p.dtype, PointerType)
                   and isinstance(p.dtype.base, NamedType)}
        return all(is_typename_type(p.dtype) and p.name in pointed
                   for p in self.static_params)


def inferred_statics(static_params: list, params: list, elems: list) -> list:
    """The static arguments of a call that leaves them to inference
    (``FunctionDef.infers_statics``): for each typename in
    ``static_params``, the element type in ``elems`` of the first argument
    passed for a ``T*`` parameter in ``params``, or None if there is none.
    ``elems`` holds each argument's element type, None if it has none."""
    found: dict = {}
    for p, elem in zip(params, elems):
        t = p.dtype
        if elem is not None and isinstance(t, PointerType) and \
                isinstance(t.base, NamedType):
            found.setdefault(t.base.name, elem)
    return [found.get(p.name) if is_typename_type(p.dtype) else None
            for p in static_params]


class VisibilityLabel(Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str = "", *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name  # "public" | "private"


class CtorDef(Node):
    __slots__ = _fields = ("at_count", "body")

    def __init__(self, at_count: int = 0, body: Block = None, *,
                 span: Span | None = None, stage: int | None = None):
        self.span = span
        self.stage = stage
        self.at_count = at_count  # >= 1 marks the compile-time constructor
        self.body = body


class ClassDef(Node):
    """``class Name(static...) { items }``; items keep source order."""

    __slots__ = _fields = ("name", "static_params", "items")

    def __init__(self, name: str = "", static_params: list = FRESH,
                 items: list = FRESH, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.name = name
        self.static_params = [] if static_params is FRESH else static_params
        # VisibilityLabel | VarDecl | CtorDef
        self.items = [] if items is FRESH else items

    @property
    def static_arity(self) -> int:
        return len(self.static_params)

    def static_ctor(self) -> CtorDef | None:
        for it in self.items:
            if isinstance(it, CtorDef) and it.at_count >= 1:
                return it
        return None

    def dynamic_ctor(self) -> CtorDef | None:
        for it in self.items:
            if isinstance(it, CtorDef) and it.at_count == 0:
                return it
        return None

    def member_decls(self) -> list:
        return [it for it in self.items if isinstance(it, VarDecl)]


class Program(Node):
    """Top level: functions, classes, and ordinary statements in order."""

    __slots__ = _fields = ("items",)

    def __init__(self, items: list = FRESH, *, span: Span | None = None,
                 stage: int | None = None):
        self.span = span
        self.stage = stage
        self.items = [] if items is FRESH else items

    def functions(self) -> list:
        return [it for it in self.items if isinstance(it, FunctionDef)]

    def classes(self) -> list:
        return [it for it in self.items if isinstance(it, ClassDef)]


# ---------------------------------------------------------------------------
# Generic traversal

def child_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of ``cls`` that take part in equality, the only
    fields that can hold child nodes."""
    return cls._fields


def children(node: Node) -> list:
    """The child nodes of ``node`` in field order, as a new list."""
    below = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, Node):
            below.append(value)
        elif isinstance(value, list):
            below += value
    return below


def walk(node: Node):
    """``node`` and every node below it, in pre-order.  A node's children
    are read when the walk reaches it, and wait on an explicit stack, so a
    walk takes time linear in its nodes and no Python stack however deep
    they nest."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        below = children(node)
        below.reverse()
        stack += below


def map_children(node: Node, fn) -> Node:
    """A shallow copy of ``node`` whose child nodes are replaced by
    ``fn(child)``.  Every field is copied: list fields as new lists, plain
    values and the ``_kept`` fields shared.  A slotted node has no class
    default to fall back on, so a field left out would be unset."""
    cls = type(node)
    new = object.__new__(cls)
    for name in cls._fields:
        value = getattr(node, name)
        if isinstance(value, Node):
            value = fn(value)
        elif isinstance(value, list):
            value = [fn(x) for x in value]
        setattr(new, name, value)
    for name in cls._kept:
        setattr(new, name, getattr(node, name))
    return new


# ---------------------------------------------------------------------------
# Annotation erasure


def strip_annotations(node, merge_call_lists: bool = False):
    """Deep-copy a node with every ``@`` removed.

    A ``CtorDef`` keeps its count, which tells the compile-time constructor
    from the run-time one.  ``merge_call_lists`` additionally folds two-list
    calls ``f(s)(d)`` into ``f(s..., d...)`` and two-list definitions into
    single-list ones (full stage erasure); without it the static lists are
    preserved.
    """
    def strip(x):
        x = map_children(x, strip)
        if "at_count" in x._fields and not isinstance(x, CtorDef):
            x.at_count = 0
        if isinstance(x, If):
            x.else_at_count = 0
        elif isinstance(x, ClassAppType):
            x.ctime = False
        elif merge_call_lists and isinstance(x, Call) and \
                x.static_args is not None:
            x.args = x.static_args + x.args
            x.static_args = None
        elif merge_call_lists and isinstance(x, FunctionDef) and \
                x.static_params is not None:
            x.params = x.static_params + x.params
            x.static_params = None
        return x

    return None if node is None else strip(node)
