"""Tokenizer for Catat source text.

One compiled regular expression scans the text, in the style of "Writing a
Tokenizer" in the Python ``re`` documentation.  Its alternatives, tried in
order at each position, are:

* whitespace (space, tab, CR, LF) and ``//`` line comments, skipped;
* identifiers and keywords (``\\w`` characters, not starting with a digit;
  a start that is not alphabetic or ``_`` is an illegal character);
* numeric literals over decimal digits: ``D+``, ``D+.D+``, either with an
  exponent ``[eE][+-]?D+``.  A literal followed by a letter or ``_``, or an
  integer followed by ``.``, is malformed;
* punctuation, longest first;
* runs of consecutive ``@``, which become one at-sign-run token whose text
  records the exact count;
* string literals, whose escapes ``\\n``, ``\\t``, ``\\"`` and ``\\\\`` are
  decoded (any other escaped character stands for itself);
* any other single character, which is illegal.

Lines and columns come from the offset of the current line's start, which
is moved on past every newline a skipped run or string contains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LexError, Span

KEYWORDS = frozenset({
    "function", "class", "return", "for", "if", "else", "switch", "case",
    "default", "int", "float", "char", "bool", "long", "double", "typename",
    "ASTree", "void", "const", "true", "false", "public", "private", "static",
})

# Longest match first.
PUNCTUATION = (
    "++", "--", "+=", "-=", "*=", "/=", "%=", "==", "!=", "<=", ">=",
    "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "?",
    "=", "<", ">", "+", "-", "*", "/", "%", "!",
)

IDENT = "identifier"
INT = "integer-literal"
FLOAT = "float-literal"
KEYWORD = "keyword"
PUNCT = "punctuation"
AT = "at-sign-run"
STRING = "string-literal"

INT64_MAX = 2 ** 63 - 1

_SCANNER = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
  | (?P<word>[A-Za-z_]\w*)
  | (?P<punct>""" + "|".join(map(re.escape, PUNCTUATION)) + r""")
  | (?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
  | (?P<int>\d+)
  | (?P<at>@+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<uword>[^\W\d]\w*)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)

    @property
    def at_count(self) -> int:
        return len(self.text) if self.kind == AT else 0


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _SCANNER.finditer(source):
        group = m.lastgroup
        text = m.group()
        start = m.start()
        if group == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if group == "word":
            append(Token(KEYWORD if text in KEYWORDS else IDENT, text, line,
                         col))
        elif group == "punct":
            append(Token(PUNCT, text, line, col))
        elif group == "float" or group == "int":
            end = m.end()
            after = source[end:end + 1]
            if after.isalpha() or after == "_" or \
                    (after == "." and group == "int"):
                raise LexError("malformed numeric literal", Span(line, col))
            if group == "float":
                append(Token(FLOAT, text, line, col))
            elif len(text) > 18 and int(text) > INT64_MAX:
                raise LexError("integer literal out of 64-bit range",
                               Span(line, col))
            else:
                append(Token(INT, text, line, col))
        elif group == "at":
            append(Token(AT, text, line, col))
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            append(Token(STRING, body, line, col))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif group == "uword" and text[0].isalpha():
            append(Token(IDENT, text, line, col))
        elif text == '"':
            raise LexError("unterminated string literal", Span(line, col))
        else:
            raise LexError(f"illegal character {text[0]!r}", Span(line, col))
    return tokens
