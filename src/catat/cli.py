"""Command-line driver: check -> specialize -> emit/flatten -> run.

Exit codes: 0 success, 1 lex/parse error, 2 stage error, 3 compile-time
error, 4 specialization resource error (depth or loop cap), 5 runtime
error.  Diagnostics go to standard error as
``file:line:col: <category>: <message>``, or as
``file: <category>: <message>`` when no source position is at fault (an
``--entry`` that names no function, a missing ``--entry``, a dynamic
argument that does not fit its parameter), and a bad ``--static-args`` or
``--dyn-args`` value as ``catat: <option>: parse error: <message>``.

Options are spelled in full: argparse's prefix matching is off, so an
abbreviation such as ``--static`` is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import nodes as n
from .dyninterp import format_binding, format_result, run
from .emitter import emit, emit_function
from .errors import CatatError, ParseError
from .flatten import flatten_function
from .lexer import AT, tokenize
from .parser import parse, parse_tokens
from .staging import check_stages
from .staticeval import EvalLimits
from .specializer import specialize_program
from .values import (
    ArrayV, BoolV, FLOAT, FloatV, INT, INT64_MAX, INT64_MIN, IntV,
    PRIM_BY_NAME, Value, is_float_type, is_integer_type,
)

_TYPE_ARG_NAMES = ("int", "float", "char", "bool", "double", "long int",
                   "typename")


def parse_arg_list(text: str | None) -> list[Value]:
    """Argument literals from the command line: integers, floats,
    true/false, type names, and bracketed arrays, comma-separated."""
    if text is None or not text.strip():
        return []
    parts: list[str] = []
    depth = 0
    current = []
    for c in text:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    return [_parse_arg(p.strip()) for p in parts]


def _parse_arg(text: str) -> Value:
    if not text:
        raise ParseError("empty argument")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated array argument {text!r}")
        inner = text[1:-1].strip()
        elems = parse_arg_list(inner)
        if any(not isinstance(e, (IntV, FloatV)) for e in elems):
            raise ParseError("array arguments hold numbers only")
        if any(isinstance(e, FloatV) for e in elems):
            return ArrayV(FLOAT, [FloatV(float(e.value)) for e in elems])
        return ArrayV(INT, list(elems))
    if text == "true":
        return BoolV(True)
    if text == "false":
        return BoolV(False)
    if text in _TYPE_ARG_NAMES:
        return PRIM_BY_NAME[text]
    try:
        if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
            return FloatV(float(text))
        value = int(text)
    except ValueError:
        raise ParseError(f"cannot parse argument {text!r}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise ParseError(f"integer argument {text!r} out of 64-bit range")
    return IntV(value)


class OptionError(Exception):
    """A ``--static-args`` or ``--dyn-args`` value that does not parse.  It
    is reported against the option, since the source file has no fault."""


def _option_values(text: str | None, option: str) -> list[Value]:
    try:
        return parse_arg_list(text)
    except ParseError as e:
        raise OptionError(f"{option}: {e.category}: {e.message}") from e


def _limits(args) -> EvalLimits:
    return EvalLimits(loop_cap=args.loop_cap, max_depth=args.max_depth,
                      step_limit=getattr(args, "step_limit", None))


def _load(args):
    source = Path(args.file).read_text(encoding="utf-8")
    program = parse(source)
    staged = check_stages(program, args.levels)
    return source, program, staged


def _find_entry(staged, name: str, nstatic: int | None):
    fns = staged.functions_by_key()
    if nstatic is not None:
        fn = fns.get((name, nstatic))
        if fn is None:
            raise ParseError(f"no function '{name}' with {nstatic} static "
                             "parameter(s)")
        return fn
    candidates = [fn for (fname, _), fn in fns.items() if fname == name]
    if not candidates:
        raise ParseError(f"no function named '{name}'")
    if len(candidates) > 1:
        raise ParseError(f"'{name}' is overloaded; pass --static-args to "
                         "select a definition")
    return candidates[0]


def cmd_check(args) -> int:
    _, program, _ = _load(args)
    print(f"ok: {len(program.items)} declarations")
    return 0


def cmd_specialize(args) -> int:
    _, _, staged = _load(args)
    static_args = _option_values(args.static_args, "--static-args")
    if args.dump_generator:
        if not args.entry:
            raise ParseError("--dump-generator requires --entry")
        fn = _find_entry(staged, args.entry,
                         len(static_args) if args.static_args else None)
        print(emit_function(flatten_function(fn, args.levels)), end="")
    rp = specialize_program(staged, args.entry or None, static_args,
                            _limits(args), via_flatten=args.via_flatten)
    if rp.is_pure_static:
        return _print_bindings(rp.static_bindings)
    text = emit(rp)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.dump_residual or not args.out:
        print(text, end="")
    return 0


def cmd_run(args) -> int:
    source = Path(args.file).read_text(encoding="utf-8")
    tokens = tokenize(source)
    program = parse_tokens(tokens, source)
    dyn_args = _option_values(args.dyn_args, "--dyn-args")
    two_level = args.static_args is not None or \
        any(t[0] == AT for t in tokens)
    if two_level:
        staged = check_stages(program, args.levels)
        rp = specialize_program(staged, args.entry or None,
                                _option_values(args.static_args,
                                               "--static-args"),
                                _limits(args))
        if rp.is_pure_static:
            return _print_bindings(rp.static_bindings)
        if args.out:
            Path(args.out).write_text(emit(rp), encoding="utf-8")
        return _run_phase(rp, rp.entry_name, dyn_args, args)
    check_stages(program, levels=1)
    return _run_phase(program, args.entry or None, dyn_args, args)


def _fit_arrays(program, entry: str, values: list) -> list:
    """``values`` with each bracketed list retyped to the element type of
    the array or pointer parameter of ``entry`` it binds to, within its
    family: a list of ints to ``int``, ``char`` or ``long int``, a list
    with a float cell to ``float`` or ``double``.  Any other pairing is left
    to the run, which converts a list of ints for ``float`` or ``double``
    and refuses the rest."""
    ast = program if isinstance(program, n.Program) \
        else program.to_program_ast()
    fn = next((item for item in ast.items
               if isinstance(item, n.FunctionDef) and item.name == entry
               and item.static_arity == 0), None)
    if fn is None:
        return values
    fitted = list(values)
    for i, (param, value) in enumerate(zip(fn.params, values)):
        dtype = param.dtype
        if not (isinstance(value, ArrayV) and
                isinstance(dtype, (n.PointerType, n.ArrayType)) and
                isinstance(dtype.base, n.PrimType)):
            continue
        elem = PRIM_BY_NAME[dtype.base.name]
        if value.elem is INT and is_integer_type(elem) or \
                value.elem is FLOAT and is_float_type(elem):
            fitted[i] = ArrayV(elem, value.cells)
    return fitted


def _run_phase(program, entry, dyn_args, args) -> int:
    if entry is not None:
        dyn_args = _fit_arrays(program, entry, dyn_args)
    try:
        result = run(program, entry, dyn_args, _limits(args), check=False)
    except CatatError as e:
        e.category = "runtime error"
        e.exit_code = 5
        raise
    if entry is None:
        return _print_bindings(result.bindings or [])
    print(format_result(result.value))
    return 0


def _print_bindings(bindings) -> int:
    """Print a program's top-level (name, value) bindings."""
    for name, value in bindings:
        print(format_binding(name, value))
    return 0


def cmd_flatten(args) -> int:
    _, _, staged = _load(args)
    if not args.entry:
        raise ParseError("flatten requires --entry")
    fn = _find_entry(staged, args.entry, None)
    text = emit_function(flatten_function(fn, args.levels))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="Catat source file (.cat)")
    p.add_argument("--levels", type=_positive, default=2,
                   help="number of binding-time levels (default 2)")
    p.add_argument("--max-depth", type=_positive, default=256,
                   help="static call/specialization chain limit")
    p.add_argument("--loop-cap", type=_positive, default=1_000_000,
                   help="iteration cap of any one loop, unrolled or run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catat", allow_abbrev=False,
        description="Offline partial-evaluation toolchain for Catat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", allow_abbrev=False,
                       help="parse and verify well-stagedness")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("specialize", allow_abbrev=False,
                       help="evaluate static constructs, emit the residual")
    _add_common(p)
    p.add_argument("--entry", help="function to specialize")
    p.add_argument("--static-args", help="static arguments, comma-separated")
    p.add_argument("--out", help="write the residual program here")
    p.add_argument("--via-flatten", action="store_true",
                   help="specialize the entry through its generator")
    p.add_argument("--dump-generator", action="store_true",
                   help="print the entry's generator before specializing")
    p.add_argument("--dump-residual", action="store_true",
                   help="print the residual even when --out is given")
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("run", allow_abbrev=False,
                       help="run a program (specializing first if it is "
                            "two-level)")
    _add_common(p)
    p.add_argument("--entry", help="function to call")
    p.add_argument("--static-args", help="static arguments for two-level "
                                         "input")
    p.add_argument("--dyn-args", help="dynamic arguments, comma-separated")
    p.add_argument("--out", help="also write the residual program here")
    p.add_argument("--step-limit", type=_positive, default=10_000_000,
                   help="interpreter step limit")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("flatten", allow_abbrev=False,
                       help="print a two-level function's generator")
    _add_common(p)
    p.add_argument("--entry", help="function to flatten")
    p.add_argument("--out", help="write the generator here")
    p.set_defaults(func=cmd_flatten)
    return parser


# argparse takes a word that starts with "-" for an option unless it reads
# as a negative number by its own pattern, which "-1e200" and "-1,2" do not;
# a value of these options that starts with "-" and a digit or "." is
# therefore attached to its option, as "--static-args=-1e200" is.  No
# parser accepts an abbreviation, so these are the only spellings.
_VALUE_OPTIONS = ("--static-args", "--dyn-args")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _VALUE_OPTIONS and _NEGATIVE_VALUE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except CatatError as e:
        print(e.render(args.file), file=sys.stderr)
        return e.exit_code
    except OptionError as e:
        print(f"catat: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"catat: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:   # the source file is not UTF-8
        print(f"catat: {args.file}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
