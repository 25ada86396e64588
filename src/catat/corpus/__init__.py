"""Executable corpus: fixture programs, golden residuals, and the tiny
expression-language tooling used by the interpreter-specialization demo.

Fixtures live next to this module as ``.cat`` files; ``manifest.txt``
records each fixture's expectations in a line-oriented ``key: value``
format (records separated by blank lines, repeated keys accumulate).
"""

from __future__ import annotations

from pathlib import Path

from ..errors import Record, UserStaticError
from ..nodes import FRESH
from ..values import ArrayV, INT, IntV

CORPUS_DIR = Path(__file__).parent


class Fixture(Record):
    __slots__ = _fields = ("name", "path", "origin", "expect")

    def __init__(self, name: str, path: Path, origin: str,
                 expect: dict = FRESH):
        self.name = name
        self.path = path
        self.origin = origin
        # key -> list of values
        self.expect = {} if expect is FRESH else expect

    def source(self) -> str:
        return self.path.read_text(encoding="utf-8")

    def first(self, key: str, default: str | None = None) -> str | None:
        values = self.expect.get(key)
        return values[0] if values else default

    def all(self, key: str) -> list:
        return list(self.expect.get(key, []))


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def load_manifest(path: Path | None = None) -> list[Fixture]:
    path = path or (CORPUS_DIR / "manifest.txt")
    fixtures: list[Fixture] = []
    record: dict = {}

    def flush():
        if not record:
            return
        name = record["fixture"][0]
        origin = record.get("origin", [""])[0]
        fixtures.append(Fixture(name, CORPUS_DIR / name, origin,
                                dict(record)))
        record.clear()

    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.rstrip()
        if not line:
            flush()
            continue
        key, _, value = line.partition(":")
        record.setdefault(key.strip(), []).append(value.strip())
    flush()
    return fixtures


def provide_corpus() -> list[Fixture]:
    """All fixtures with their recorded expectations."""
    return load_manifest()


def dsl_interpreter_source() -> str:
    """The interpreter for the tiny expression language, as Catat source."""
    return corpus_path("dsl_interp.cat").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# The tiny expression language: literals, +, *, parentheses, `in`.
#
# Token codes for the static stream fed to the interpreter:
#   0 end, 1 '+', 2 '*', 3 '(', 4 ')', 5 'in', 6 literal (value follows).

TOK_END, TOK_PLUS, TOK_STAR, TOK_LPAREN, TOK_RPAREN, TOK_IN, TOK_LIT = \
    range(7)


def encode_dsl(text: str) -> tuple[ArrayV, IntV]:
    """Encode program text as (token array, end-marker index).

    The array is the static argument; the second value is the token count
    excluding the trailing end marker."""
    codes: list[int] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "+":
            codes.append(TOK_PLUS)
            i += 1
        elif c == "*":
            codes.append(TOK_STAR)
            i += 1
        elif c == "(":
            codes.append(TOK_LPAREN)
            i += 1
        elif c == ")":
            codes.append(TOK_RPAREN)
            i += 1
        elif text.startswith("in", i):
            codes.append(TOK_IN)
            i += 2
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            codes.extend((TOK_LIT, int(text[i:j])))
            i = j
        else:
            raise UserStaticError(f"illegal character {c!r} in program text")
    n = len(codes)
    codes.append(TOK_END)
    return ArrayV(INT, [IntV(c) for c in codes]), IntV(n)


def dsl_reference_eval(text: str, in_value: int) -> int:
    """Independent direct evaluator over the program text (the oracle the
    specialized interpreter is checked against)."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expr() -> int:
        nonlocal pos
        value = term()
        skip_ws()
        while pos < len(text) and text[pos] == "+":
            pos += 1
            value += term()
            skip_ws()
        return value

    def term() -> int:
        nonlocal pos
        value = factor()
        skip_ws()
        while pos < len(text) and text[pos] == "*":
            pos += 1
            value *= factor()
            skip_ws()
        return value

    def factor() -> int:
        nonlocal pos
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            value = expr()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("expected ')'")
            pos += 1
            return value
        if text.startswith("in", pos):
            pos += 2
            return in_value
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"expected a factor at {start}")
        return int(text[start:pos])

    result = expr()
    skip_ws()
    if pos != len(text):
        raise ValueError("trailing input")
    return result


def random_dsl_program(rng, max_depth: int = 4) -> str:
    """A random well-formed program of nesting depth <= max_depth."""
    def gen(depth: int) -> str:
        if depth >= max_depth or rng.random() < 0.4:
            return "in" if rng.random() < 0.5 else str(rng.randint(0, 9))
        op = rng.choice([" + ", " * "])
        left = gen(depth + 1)
        right = gen(depth + 1)
        body = left + op + right
        return f"({body})" if depth > 0 else body

    return gen(0)
