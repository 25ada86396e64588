"""Catat: an offline partial-evaluation toolchain for a two-level C-like
language.

Programs carry explicit binding-time annotations (``@``); every static
construct, including first-class type values, is evaluated at
specialization time, and the single-level residual program can be emitted
as source or executed by the built-in reference interpreter.
"""

from .errors import (
    CatatError, DepthExceeded, LexError, LoopLimitExceeded, ParseError,
    StageError, StepLimitExceeded, UnboundVariable, UserStaticError,
)
from .lexer import tokenize
from .parser import parse, parse_expression
from .emitter import emit
from .staging import StagedAST, check_stages, stage_of
from .values import (
    ArrayV, BoolV, CodeV, FloatV, InstanceV, IntV, StrV, TypeValue, UnitV,
    Value,
)
from .staticeval import EvalLimits, Interpreter, call_static
from .specializer import (
    ResidualClass, ResidualFunction, ResidualProgram, SpecializationCache,
    SpecializationKey, alpha_equivalent, mangle, specialize_class,
    specialize_function, specialize_program,
)
from .flatten import flatten_function, materialize
from .dyninterp import RunResult, erase_stages, run, run_unstaged

__version__ = "0.1.0"

__all__ = [
    "ArrayV", "BoolV", "CatatError", "CodeV", "DepthExceeded", "EvalLimits",
    "FloatV", "InstanceV", "IntV", "Interpreter", "LexError",
    "LoopLimitExceeded", "ParseError", "ResidualClass", "ResidualFunction",
    "ResidualProgram", "RunResult", "SpecializationCache",
    "SpecializationKey", "StageError", "StagedAST", "StepLimitExceeded",
    "StrV", "TypeValue", "UnboundVariable", "UnitV",
    "UserStaticError", "Value", "alpha_equivalent", "call_static",
    "check_stages", "emit", "erase_stages", "flatten_function", "mangle",
    "materialize", "parse", "parse_expression", "run", "run_unstaged",
    "specialize_class", "specialize_function",
    "specialize_program", "stage_of", "tokenize",
]
