"""Error types and record bases shared across the toolchain.

Every error that can be attributed to a source position carries a span;
an error's ``span`` is a ``Span`` (or ``None``), whatever it was given.  A
node's ``span`` is instead the plain ``(line, col)`` tuple its token holds
(``t[2:]``, see parser.py): the garbage collector stops tracking an exact
tuple of ints once it has seen it, but never a ``NamedTuple``.  The CLI
renders diagnostics as ``file:line:col: <category>: <message>``,
or ``file: <category>: <message>`` for an error with no span, and maps
error families onto process exit codes (see cli.py).

``Record`` and ``Frozen`` are the bases of every record class in the
package: nodes, values, specialization keys, residual entities and the
small result and state classes.  Each record names its compared fields in
``_fields``; the base compares and prints them, and ``Frozen`` also
refuses assignment and hashes and pickles them.  They live here because
this is the lowest module, which every record's module already imports.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import NamedTuple


class Record:
    """A record: equal only to a record of its own class whose ``_fields``
    are equal, and printed as ``Class(field=value, ...)``.  A record is
    unhashable unless its class is ``Frozen``.  Each subclass declares its
    own ``__slots__`` and an ``__init__`` that stores every field."""

    __slots__ = ()
    _fields = ()

    def __eq__(self, other):
        # the evaluators compare a type value with itself far more often
        # than with another; the answer is the one the fields would give
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return [getattr(self, name) for name in self._fields] == \
                [getattr(other, name) for name in self._fields]
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """An immutable record, hashed and pickled on its ``_fields``.
    Assigning or deleting a field raises ``FrozenInstanceError``, so a
    constructor stores each field through ``object.__setattr__`` (or the
    slot's own descriptor)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __reduce__(self):
        return type(self), tuple([getattr(self, name)
                                  for name in self._fields])


class Span(NamedTuple):
    """1-indexed source position (start of the offending construct)."""

    line: int
    col: int


class CatatError(Exception):
    category = "error"
    exit_code = 1

    def __init__(self, message: str, span: Span | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    @property
    def span(self) -> Span | None:
        return self._span

    @span.setter
    def span(self, span: tuple[int, int] | None) -> None:
        # a node's bare (line, col) tuple becomes a Span here, on every
        # path that stores one, a subclass's own __init__ included
        self._span = None if span is None else Span._make(span)

    def render(self, filename: str = "<input>") -> str:
        if self.span is None:
            return f"{filename}: {self.category}: {self.message}"
        return (f"{filename}:{self.span.line}:{self.span.col}: "
                f"{self.category}: {self.message}")


class LexError(CatatError):
    category = "lex error"
    exit_code = 1


class ParseError(CatatError):
    category = "parse error"
    exit_code = 1


# Well-stagedness rule violations.  The kind string names the rule that
# failed and is part of the diagnostic text.
DYNAMIC_TO_STATIC_FLOW = "DynamicToStaticFlow"
STATIC_MUTATION_UNDER_DYNAMIC_CONTROL = "StaticMutationUnderDynamicControl"
STATIC_CONTROL_WITH_DYNAMIC_GUARD = "StaticControlWithDynamicGuard"
ANNOTATION_TOO_DEEP = "AnnotationTooDeep"
TYPENAME_DYNAMIC_BINDING = "TypenameDynamicBinding"
DYNAMIC_IN_STATIC_CONSTRUCTOR = "DynamicInStaticConstructor"


class StageError(CatatError):
    category = "stage error"
    exit_code = 2

    def __init__(self, kind: str, message: str, span: Span | None = None):
        super().__init__(f"{kind}: {message}", span)
        self.kind = kind


class UnboundVariable(CatatError):
    category = "stage error"
    exit_code = 2


class EvalError(CatatError):
    """Failure while evaluating static constructs (exit 3 at compile time;

    the CLI reports the same families as runtime errors with exit 5 when
    they occur while running a single-level program)."""

    category = "compile-time error"
    exit_code = 3


class TypeMismatch(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


class IntegerOverflow(EvalError):
    pass


class OutOfBounds(EvalError):
    pass


class LiftError(EvalError):
    pass


class ReturnTypeMismatch(EvalError):
    pass


class MalformedFragment(EvalError):
    pass


class FlattenUnsupported(EvalError):
    category = "flatten error"


class UserStaticError(EvalError):
    """Raised by ``Catat_error@``; message is exactly the program's text."""

    def __init__(self, message: str, span: Span | None = None):
        Exception.__init__(self, message)
        self.message = message
        self.span = span


class StageLeak(CatatError):
    """Internal assertion: a dynamic value reached a static position.

    Indicates a staging bug in the toolchain, not a user error."""

    category = "internal stage leak"
    exit_code = 3


class DepthExceeded(CatatError):
    category = "depth error"
    exit_code = 4


# The entry points (specialize_program, run, call_static) size Python's
# recursion limit from ``max_depth``, so that the depth limit ends a deep
# call chain; check_stages and emit, which take no limits, size it for the
# default ``max_depth``.  A chain that still exhausts the stack (very deep
# nesting within each call, or a ``max_depth`` beyond the limit's cap)
# becomes DepthExceeded with this message.  Each entry point catches
# RecursionError in its own try/except: a shared wrapper around them made
# compile about 6% slower.
STACK_EXHAUSTED = "call chain nested too deeply for the interpreter's stack"


class SelfRecursiveSpecialization(DepthExceeded):
    pass


class LoopLimitExceeded(CatatError):
    category = "loop error"
    exit_code = 4


class StepLimitExceeded(CatatError):
    category = "runtime error"
    exit_code = 5
