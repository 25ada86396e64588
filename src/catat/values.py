"""Runtime and compile-time values.

One value domain serves both stages: the compile-time interpreter, the
specializer, and the reference interpreter for residual programs all share
this arithmetic so specialization cannot change numeric results.

Integers are 64-bit signed with a hard overflow error (no silent wrap);
``/`` and ``%`` truncate toward zero; mixing an integer with a float
promotes to float.  Types are first-class values (`TypeValue`), structural
equality included.

Every value class is slotted and names its compared fields in
``_fields``.  ``Value`` derives from ``errors.Record``, which compares and
prints those fields.  The scalars (`IntV`, `FloatV`, `BoolV`, `StrV`),
`UnitV` and the type values also derive from ``errors.Frozen``, which
makes them immutable and hashable: assigning a field raises
``FrozenInstanceError``.  A scalar is one small object with no
``__dict__``, stored through its slot's own descriptor, because the
evaluators make one for nearly every expression they reduce.
"""

from __future__ import annotations

import hashlib
import math

from .errors import (DivisionByZero, Frozen, IntegerOverflow, Record, Span,
                     TypeMismatch)

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class Value(Record):
    """A value.  ``Record`` gives its equality and ``repr`` over the
    ``_fields`` its class names; the immutable values also derive from
    ``Frozen``, which hashes them."""

    __slots__ = ()


class _Scalar(Frozen, Value):
    """An immutable scalar with one slot, ``value``.

    The constructor stores ``value`` through the slot's own descriptor, so
    a scalar costs one small object and no ``__dict__``.  It is equal only
    to the same class with an equal value, so ``IntV(1) != FloatV(1.0)``."""

    __slots__ = _fields = ("value",)

    def __init__(self, value):
        _set_value(self, value)


_set_value = _Scalar.value.__set__


class IntV(_Scalar):
    __slots__ = ()


class FloatV(_Scalar):
    __slots__ = ()


class BoolV(_Scalar):
    __slots__ = ()


class StrV(_Scalar):
    """Internal string value: legal only as a ``Catat_error@`` message or a
    code-builder argument."""

    __slots__ = ()


class UnitV(Frozen, Value):
    __slots__ = ()


UNIT = UnitV()


class ArrayV(Value):
    """Fixed-size array; cells are mutable, element type is fixed."""

    __slots__ = ("elem", "cells", "stores", "keyed")
    _fields = ("elem", "cells")

    def __init__(self, elem: TypeValue, cells: list, stores: int = 0,
                 keyed: tuple | None = None):
        self.elem = elem
        self.cells = cells
        # cell stores so far; the compile-time call memo keys an array by it
        self.stores = stores
        # (stores, canonical key, rendering) of an array of SCALAR_CELLS,
        # made once per version: valid while ``stores`` has not moved
        self.keyed = keyed

    def __len__(self) -> int:
        return len(self.cells)


class InstanceV(Value):
    __slots__ = _fields = ("class_name", "members")

    def __init__(self, class_name: str, members: dict):
        self.class_name = class_name
        self.members = members


class CodeV(Value):
    """Residual syntax built by the flattener's builders: an ``n.Expr``, an
    ``n.Stmt`` or a function shell (``flatten.Shell``)."""

    __slots__ = _fields = ("frag",)

    def __init__(self, frag: object):
        self.frag = frag


# ---------------------------------------------------------------------------
# Type values


class TypeValue(Frozen, Value):
    """A type as a first-class (always static) value.  ``Frozen`` makes it
    immutable and hashes it on its ``_fields``, so a constructor stores
    each field through ``object.__setattr__``."""

    __slots__ = ()


class PrimTV(TypeValue):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class PointerTV(TypeValue):
    __slots__ = _fields = ("elem",)

    def __init__(self, elem: TypeValue):
        object.__setattr__(self, "elem", elem)


class FixedArrayTV(TypeValue):
    __slots__ = _fields = ("elem", "size")

    def __init__(self, elem: TypeValue, size: int):
        object.__setattr__(self, "elem", elem)
        object.__setattr__(self, "size", size)


class ClassTV(TypeValue):
    """A class applied to static arguments (canonical key tuples)."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


INT = PrimTV("int")
FLOAT = PrimTV("float")
CHAR = PrimTV("char")
LONG_INT = PrimTV("long int")
BOOL = PrimTV("bool")
DOUBLE = PrimTV("double")
TYPENAME = PrimTV("typename")
ASTREE = PrimTV("ASTree")
VOID = PrimTV("void")

PRIM_BY_NAME = {t.name: t for t in
                (INT, FLOAT, CHAR, LONG_INT, BOOL, DOUBLE, TYPENAME, ASTREE,
                 VOID)}

# Element types whose cells are immutable: an array of them is keyed by
# the compile-time call memo and keeps its canonical key (``ArrayV.keyed``).
SCALAR_CELLS = frozenset({INT, CHAR, LONG_INT, FLOAT, DOUBLE, BOOL, TYPENAME})

_INTEGER_CLASS = frozenset({"int", "char", "long int"})
_FLOAT_CLASS = frozenset({"float", "double"})


def is_integer_type(tv: TypeValue) -> bool:
    return isinstance(tv, PrimTV) and tv.name in _INTEGER_CLASS


def is_float_type(tv: TypeValue) -> bool:
    return isinstance(tv, PrimTV) and tv.name in _FLOAT_CLASS


def render_type(tv: TypeValue) -> str:
    """Surface-syntax spelling of a concrete type value."""
    if isinstance(tv, PrimTV):
        return tv.name
    if isinstance(tv, PointerTV):
        return render_type(tv.elem) + "*"
    if isinstance(tv, FixedArrayTV):
        return f"{render_type(tv.elem)}[{tv.size}]"
    if isinstance(tv, ClassTV):
        return mangle_name(tv.name, tv.args)
    raise TypeError(f"unknown type value {tv!r}")


def promote(a: TypeValue, b: TypeValue) -> TypeValue | None:
    """Numeric unification: int-class mixes with float-class as float.

    Returns None when the two types cannot be unified."""
    if a == b:
        return a
    if is_integer_type(a) and is_integer_type(b):
        return LONG_INT if LONG_INT in (a, b) else INT
    if is_float_type(a) and is_float_type(b):
        return DOUBLE
    if is_integer_type(a) and is_float_type(b):
        return b
    if is_float_type(a) and is_integer_type(b):
        return a
    return None


# ---------------------------------------------------------------------------
# Canonical keys (hashable forms for memoization and mangling)
#
# A value's key is a plain tuple, tagged by kind.  A float is keyed by value
# and, for ``-0.0`` only, by sign, because ``-0.0 == 0.0``.  An array's key
# is an ``ArrayKey``, which equals, hashes and prints as the plain tuple
# ``("array", elem, cell keys)`` but computes its hash and mangled part
# once.  An array of ``SCALAR_CELLS`` keeps its key and its rendering in
# ``ArrayV.keyed`` until a cell store moves ``ArrayV.stores``, so keying a
# specialization costs the same whatever the array's size, as a C++
# compiler canonicalizes a template-id's arguments once.  Its cells change
# only through the interpreter's store, which bumps ``stores``.


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


class ArrayKey(tuple):
    """``("array", elem, cell keys)`` with its hash and mangled part."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self._hash = tuple.__hash__(self)
        self.mangled = f"a{len(self[2])}x{_digest(repr(self))}"
        return self

    def __hash__(self):
        return self._hash


def canonical_key(v: Value, span: Span | None = None):
    if isinstance(v, TypeValue):
        return ("type", v)
    if isinstance(v, IntV):
        return ("int", v.value)
    if isinstance(v, FloatV):
        if v.value == 0.0 and math.copysign(1.0, v.value) < 0:
            return ("float", v.value, "-")
        return ("float", v.value)
    if isinstance(v, BoolV):
        return ("bool", v.value)
    if isinstance(v, StrV):
        return ("str", v.value)
    if isinstance(v, UnitV):
        return ("unit",)
    if isinstance(v, ArrayV):
        if v.elem in SCALAR_CELLS:
            return _keyed(v)[1]
        return _array_key(v)
    if isinstance(v, InstanceV):
        return ("instance", v.class_name,
                tuple((k, canonical_key(x)) for k, x in v.members.items()))
    raise TypeMismatch(f"{describe(v)} cannot be used as a static argument",
                       span)


def _array_key(v: ArrayV) -> ArrayKey:
    return ArrayKey(("array", v.elem, tuple(canonical_key(c)
                                            for c in v.cells)))


def _render_cells(v: ArrayV) -> str:
    return "[" + ", ".join(render_static_arg(c) for c in v.cells) + "]"


def _keyed(v: ArrayV) -> tuple:
    """``v.keyed``, made again from the cells when a store has moved
    ``v.stores``."""
    keyed = v.keyed
    if keyed is None or keyed[0] != v.stores:
        keyed = v.keyed = (v.stores, _array_key(v), _render_cells(v))
    return keyed


def render_static_arg(v: Value) -> str:
    """Source-like rendering used in provenance comments."""
    if isinstance(v, TypeValue):
        return render_type(v)
    if isinstance(v, IntV):
        return str(v.value)
    if isinstance(v, FloatV):
        return repr(v.value)
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    if isinstance(v, ArrayV):
        if v.elem in SCALAR_CELLS:
            return _keyed(v)[2]
        return _render_cells(v)
    if isinstance(v, StrV):
        return f'"{v.value}"'
    if isinstance(v, InstanceV):
        inner = ", ".join(f"{k} = {render_static_arg(x)}"
                          for k, x in v.members.items())
        return f"{v.class_name}({inner})"
    return "?"


def _mangle_part(key) -> str:
    tag = key[0]
    if tag == "int":
        return str(key[1]) if key[1] >= 0 else "m" + str(-key[1])
    if tag == "float":
        return repr(key[1]).replace("-", "m").replace(".", "_") \
                           .replace("+", "")
    if tag == "bool":
        return "true" if key[1] else "false"
    if tag == "type":
        return render_type(key[1]).replace(" ", "_").replace("*", "p") \
                                  .replace("[", "x").replace("]", "")
    if tag == "array":
        return key.mangled
    if tag == "str":
        return f"s{_digest(key[1])}"
    return f"{tag}{_digest(repr(key))}"


def mangle_name(base: str, canonical_args: tuple) -> str:
    """Deterministic residual name: base + "__" + rendered static args.

    An empty argument tuple leaves the base name unchanged.  Injectivity
    across distinct keys is finished off by the specialization cache, which
    appends a numeric suffix on collision."""
    if not canonical_args:
        return base
    return base + "__" + "_".join(_mangle_part(k) for k in canonical_args)


# ---------------------------------------------------------------------------
# Arithmetic (shared by all stages)


# The error of an int result outside the int64 range, in every engine.
INT_OVERFLOW = "integer result out of 64-bit range"


def _check_int(value: int, span: Span | None) -> IntV:
    if not (INT64_MIN <= value <= INT64_MAX):
        raise IntegerOverflow(INT_OVERFLOW, span)
    return IntV(value)


def trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def trunc_mod(a: int, b: int) -> int:
    return a - b * trunc_div(a, b)


def describe(v: Value) -> str:
    if isinstance(v, TypeValue):
        return f"type value '{render_type(v)}'"
    return {IntV: "an int", FloatV: "a float", BoolV: "a bool",
            StrV: "a string", ArrayV: "an array", InstanceV: "an instance",
            CodeV: "a code value", UnitV: "void"}.get(type(v), repr(v))


def _numeric_pair(op: str, a: Value, b: Value, span: Span | None):
    if isinstance(a, IntV) and isinstance(b, IntV):
        return a.value, b.value, True
    av = a.value if isinstance(a, (IntV, FloatV)) else None
    bv = b.value if isinstance(b, (IntV, FloatV)) else None
    if av is None or bv is None:
        raise TypeMismatch(
            f"operator '{op}' cannot combine {describe(a)} and {describe(b)}",
            span)
    return float(av), float(bv), False


def arith(op: str, a: Value, b: Value, span: Span | None = None) -> Value:
    """Apply a binary arithmetic or comparison operator."""
    if op in ("==", "!="):
        if isinstance(a, (IntV, FloatV)) and isinstance(b, (IntV, FloatV)):
            result = a.value == b.value
        elif type(a) is type(b) or (isinstance(a, TypeValue)
                                    and isinstance(b, TypeValue)):
            result = a == b
        else:
            raise TypeMismatch(
                f"cannot compare {describe(a)} with {describe(b)}", span)
        return BoolV(result if op == "==" else not result)
    if op in ("<", ">", "<=", ">="):
        av, bv, _ = _numeric_pair(op, a, b, span)
        return BoolV({"<": av < bv, ">": av > bv,
                      "<=": av <= bv, ">=": av >= bv}[op])
    av, bv, both_int = _numeric_pair(op, a, b, span)
    if op == "+":
        return _check_int(av + bv, span) if both_int else FloatV(av + bv)
    if op == "-":
        return _check_int(av - bv, span) if both_int else FloatV(av - bv)
    if op == "*":
        return _check_int(av * bv, span) if both_int else FloatV(av * bv)
    if op == "/":
        if bv == 0:
            raise DivisionByZero("division by zero", span)
        return _check_int(trunc_div(av, bv), span) if both_int \
            else FloatV(av / bv)
    if op == "%":
        if not both_int:
            raise TypeMismatch("'%' requires integer operands", span)
        if bv == 0:
            raise DivisionByZero("modulo by zero", span)
        return _check_int(trunc_mod(av, bv), span)
    raise TypeMismatch(f"unknown operator '{op}'", span)


def truth(v: Value, span: Span | None = None) -> bool:
    if isinstance(v, BoolV):
        return v.value
    raise TypeMismatch(f"condition must be a bool, got {describe(v)}", span)


def coerce(v: Value, tv: TypeValue | None, span: Span | None = None) -> Value:
    """Conform a value to a declared type (loud on narrowing)."""
    if tv is None:
        return v
    if isinstance(tv, PrimTV):
        if tv.name in _INTEGER_CLASS:
            if isinstance(v, IntV):
                return v
            raise TypeMismatch(
                f"cannot initialize {tv.name} from {describe(v)}", span)
        if tv.name in _FLOAT_CLASS:
            if isinstance(v, FloatV):
                return v
            if isinstance(v, IntV):
                return FloatV(float(v.value))
            raise TypeMismatch(
                f"cannot initialize {tv.name} from {describe(v)}", span)
        if tv.name == "bool":
            if isinstance(v, BoolV):
                return v
            raise TypeMismatch(
                f"cannot initialize bool from {describe(v)}", span)
        if tv.name == "typename":
            if isinstance(v, TypeValue):
                return v
            raise TypeMismatch(
                f"cannot initialize a typename variable from {describe(v)}",
                span)
        if tv.name == "ASTree":
            if isinstance(v, CodeV):
                return v
            raise TypeMismatch(
                f"cannot initialize ASTree from {describe(v)}", span)
        if tv.name == "void":
            return v
    if isinstance(tv, (PointerTV, FixedArrayTV)):
        if isinstance(v, ArrayV):
            if v.elem == tv.elem:
                return v
            if is_float_type(tv.elem) and is_integer_type(v.elem):
                return ArrayV(tv.elem,
                              [FloatV(float(c.value)) for c in v.cells])
            raise TypeMismatch(
                f"array element type {render_type(v.elem)} does not match "
                f"{render_type(tv.elem)}", span)
        raise TypeMismatch(f"cannot bind {describe(v)} to an array", span)
    if isinstance(tv, ClassTV):
        if isinstance(v, InstanceV):
            return v
        raise TypeMismatch(
            f"cannot initialize {render_type(tv)} from {describe(v)}", span)
    return v


def zero_value(tv: TypeValue, span: Span | None = None) -> Value:
    """Default value for an uninitialized declaration (deterministic)."""
    if isinstance(tv, PrimTV):
        if tv.name in _INTEGER_CLASS:
            return IntV(0)
        if tv.name in _FLOAT_CLASS:
            return FloatV(0.0)
        if tv.name == "bool":
            return BoolV(False)
    if isinstance(tv, FixedArrayTV):
        return ArrayV(tv.elem, [zero_value(tv.elem, span)
                                for _ in range(tv.size)])
    raise TypeMismatch(
        f"declaration of type {render_type(tv)} requires an initializer",
        span)


# ---------------------------------------------------------------------------
# Environments


class Slot(Record):
    """A variable: its value and type.  While specializing, a dynamic
    variable has no value; ``residual`` names it in the residual code."""

    __slots__ = _fields = ("value", "tv", "residual")

    def __init__(self, value: Value | None, tv: TypeValue | None = None,
                 residual: str | None = None):
        self.value = value
        self.tv = tv
        self.residual = residual


class Env:
    """Lexically scoped frames: name -> mutable slot."""

    __slots__ = ("parent", "slots")

    def __init__(self, parent: "Env | None" = None):
        self.parent = parent
        self.slots: dict[str, Slot] = {}

    def child(self) -> "Env":
        return Env(self)

    def declare(self, name: str, slot: Slot,
                span: Span | None = None) -> Slot:
        if name in self.slots:
            raise TypeMismatch(f"redeclaration of '{name}' in the same scope",
                               span)
        self.slots[name] = slot
        return slot

    def find(self, name: str) -> Slot | None:
        env: Env | None = self
        while env is not None:
            slot = env.slots.get(name)
            if slot is not None:
                return slot
            env = env.parent
        return None

    def bindings(self) -> list[tuple[str, Value | None]]:
        return [(name, slot.value) for name, slot in self.slots.items()]
