"""AST node definitions for Catat source programs.

Structural equality deliberately ignores source spans and checker-assigned
stages (``compare=False``), so two parses of the same text compare equal and
round-trip tests can use plain ``==``.

Walker contract: every field with ``compare=True`` holds a plain value, a
node, ``None`` or a list of nodes, and the nodes among them are the
node's children.  ``span``, ``stage`` and the other ``compare=False``
fields are never children.  ``children``, ``walk`` and ``map_children``
read the fields from the dataclass definitions, so a new node type needs
no traversal code of its own.

Every node class is a slotted dataclass: a node has no ``__dict__``, and
``map_children`` copies every field, compared or not.

Annotation counts record the literal number of ``@`` characters lexed at
each position; 0 means unannotated.  Annotations are *relative*: a count of
k on a declaration in a scope whose default stage is s puts it at stage
s - k.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache

from .errors import Span


@dataclass(slots=True)
class Node:
    span: Span | None = field(default=None, compare=False, kw_only=True, repr=False)
    stage: int | None = field(default=None, compare=False, kw_only=True, repr=False)


# ---------------------------------------------------------------------------
# Type expressions

PRIM_TYPE_NAMES = ("int", "float", "char", "long int", "bool", "double",
                   "typename", "ASTree", "void")


@dataclass(slots=True)
class TypeExpr(Node):
    pass


@dataclass(slots=True)
class PrimType(TypeExpr):
    name: str = ""
    at_count: int = 0


@dataclass(slots=True)
class NamedType(TypeExpr):
    """Reference to a typename variable or a class name used as a type."""

    name: str = ""
    at_count: int = 0


@dataclass(slots=True)
class ClassAppType(TypeExpr):
    """``Name(args)`` or ``Name@(args)`` used as a type."""

    name: str = ""
    args: list = field(default_factory=list)
    ctime: bool = False  # True for the Name@(...) form
    at_count: int = 0


@dataclass(slots=True)
class PointerType(TypeExpr):
    base: TypeExpr = None


@dataclass(slots=True)
class ArrayType(TypeExpr):
    base: TypeExpr = None
    size: "Expr" = None


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


@dataclass(slots=True)
class Expr(Node):
    pass


@dataclass(slots=True)
class IntLit(Expr):
    value: int = 0


@dataclass(slots=True)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(slots=True)
class StringLit(Expr):
    value: str = ""


@dataclass(slots=True)
class TypeLit(Expr):
    """A type used as a first-class value (``return float;``, ``case int:``)."""

    type_expr: TypeExpr = None


@dataclass(slots=True)
class VarRef(Expr):
    name: str = ""


@dataclass(slots=True)
class Unary(Expr):
    op: str = ""  # "!" or "-"
    operand: Expr = None


@dataclass(slots=True)
class Incr(Expr):
    op: str = ""  # "++" or "--"
    target: Expr = None


@dataclass(slots=True)
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None


@dataclass(slots=True)
class Cond(Expr):
    cond: Expr = None
    then_expr: Expr = None
    else_expr: Expr = None


@dataclass(slots=True)
class Subscript(Expr):
    base: Expr = None
    index: Expr = None


@dataclass(slots=True)
class Call(Expr):
    """Function invocation.

    Forms:
      * ``f(args)``        -> static_args is None, at_count 0
      * ``f@(args)``       -> static_args is None, at_count >= 1
      * ``f(s...)(d...)``  -> static_args holds the first list
    """

    callee: str = ""
    args: list = field(default_factory=list)
    static_args: list | None = None
    at_count: int = 0


# ---------------------------------------------------------------------------
# Statements


@dataclass(slots=True)
class Stmt(Node):
    pass


@dataclass(slots=True)
class Declarator(Node):
    name: str = ""
    array_size: Expr | None = None
    init: Expr | None = None


@dataclass(slots=True)
class VarDecl(Stmt):
    dtype: TypeExpr = None
    declarators: list = field(default_factory=list)
    static_kw: bool = False  # leading C++-style `static` on class members


@dataclass(slots=True)
class Assign(Stmt):
    target: Expr = None
    op: str = "="  # = += -= *= /= %=
    value: Expr = None


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass(slots=True)
class Block(Stmt):
    stmts: list = field(default_factory=list)


@dataclass(slots=True)
class If(Stmt):
    cond: Expr = None
    then_stmt: Stmt = None
    else_stmt: Stmt | None = None
    at_count: int = 0
    else_at_count: int = 0


@dataclass(slots=True)
class For(Stmt):
    init: Stmt | None = None
    cond: Expr | None = None
    incr: Stmt | None = None
    body: Stmt = None
    at_count: int = 0
    # set on the loop a flatten generator runs to unroll a ``for@``, so
    # its loop-cap error reads as the specializer's
    unrolling: bool = field(default=False, compare=False, kw_only=True,
                            repr=False)


@dataclass(slots=True)
class SwitchCase(Node):
    label: Expr | None = None  # None for `default:`
    body: list = field(default_factory=list)


@dataclass(slots=True)
class Switch(Stmt):
    subject: Expr = None
    cases: list = field(default_factory=list)
    at_count: int = 0


@dataclass(slots=True)
class Return(Stmt):
    value: Expr | None = None


# ---------------------------------------------------------------------------
# Declarations


@dataclass(slots=True)
class Param(Node):
    name: str = ""
    dtype: TypeExpr = None

    @property
    def at_count(self) -> int:
        return annotation_count(self.dtype)


@dataclass(slots=True)
class FunctionDef(Node):
    """``function name(static...)(dynamic...) { ... }``

    ``static_params`` is None for single-list (stage-polymorphic)
    definitions.  ``declared_return`` is set only when the C-style
    ``type name(params)`` form was parsed (emitted residual programs).
    """

    name: str = ""
    static_params: list | None = None
    params: list = field(default_factory=list)
    body: Block = None
    declared_return: TypeExpr | None = None

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


@dataclass(slots=True)
class VisibilityLabel(Node):
    name: str = ""  # "public" | "private"


@dataclass(slots=True)
class CtorDef(Node):
    at_count: int = 0  # >= 1 marks the compile-time constructor
    body: Block = None


@dataclass(slots=True)
class ClassDef(Node):
    """``class Name(static...) { items }``; items keep source order."""

    name: str = ""
    static_params: list = field(default_factory=list)
    items: list = field(default_factory=list)  # VisibilityLabel | VarDecl | CtorDef

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


@dataclass(slots=True)
class Program(Node):
    """Top level: functions, classes, and ordinary statements in order."""

    items: list = field(default_factory=list)

    def functions(self) -> list:
        return [it for it in self.items if isinstance(it, FunctionDef)]

    def classes(self) -> list:
        return [it for it in self.items if isinstance(it, ClassDef)]


# ---------------------------------------------------------------------------
# Generic traversal

@cache
def child_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of ``cls`` that take part in equality, the only
    fields that can hold child nodes."""
    return tuple(f.name for f in fields(cls) if f.compare)


@cache
def _kept_fields(cls: type) -> tuple[str, ...]:
    """Names of the other fields of ``cls``: ``span``, ``stage`` and
    ``For.unrolling``."""
    return tuple(f.name for f in fields(cls) if not f.compare)


def children(node: Node):
    """The child nodes of ``node`` in field order."""
    for name in child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            yield from value


def walk(node: Node):
    """``node`` and every node below it, in pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def map_children(node: Node, fn) -> Node:
    """A shallow copy of ``node`` whose child nodes are replaced by
    ``fn(child)``.  Every field is copied: list fields as new lists, plain
    values and the ``compare=False`` fields shared.  A slotted node has no
    class default to fall back on, so a field left out would be unset."""
    cls = type(node)
    new = object.__new__(cls)
    for name in child_fields(cls):
        value = getattr(node, name)
        if isinstance(value, Node):
            value = fn(value)
        elif isinstance(value, list):
            value = [fn(x) for x in value]
        setattr(new, name, value)
    for name in _kept_fields(cls):
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
        if "at_count" in child_fields(type(x)) and not isinstance(x, CtorDef):
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
