"""A test-only copy of the tokenizer as it stood before it moved to one
match per token: one regular expression whose blanks are a match of their
own, and a span built on demand.  ``test_lexer_fidelity.py`` checks that
``catat.lexer.tokenize`` gives the same tokens and the same errors.  Both
return ``(kind, text, line, col)`` tuples."""

import re

from catat.errors import LexError, Span
from catat.lexer import (
    AT, FLOAT, IDENT, INT, INT64_MAX, KEYWORD, KEYWORDS, PUNCT, PUNCTUATION,
    STRING,
)

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


def tokenize(source: str) -> list[tuple]:
    tokens: list[tuple] = []
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
            append((KEYWORD if text in KEYWORDS else IDENT, text, line, col))
        elif group == "punct":
            append((PUNCT, text, line, col))
        elif group == "float" or group == "int":
            end = m.end()
            after = source[end:end + 1]
            if after.isalpha() or after == "_" or \
                    (after == "." and group == "int"):
                raise LexError("malformed numeric literal", Span(line, col))
            if group == "float":
                append((FLOAT, text, line, col))
            elif len(text) > 18 and int(text) > INT64_MAX:
                raise LexError("integer literal out of 64-bit range",
                               Span(line, col))
            else:
                append((INT, text, line, col))
        elif group == "at":
            append((AT, text, line, col))
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            append((STRING, body, line, col))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif group == "uword" and text[0].isalpha():
            append((IDENT, text, line, col))
        elif text == '"':
            raise LexError("unterminated string literal", Span(line, col))
        else:
            raise LexError(f"illegal character {text[0]!r}", Span(line, col))
    return tokens
