"""Tokenizer for Catat source text.

One compiled regular expression scans the text, in the style of "Writing a
Tokenizer" in the Python ``re`` documentation.  Each match is one token
together with the spaces, tabs and carriage returns before it; a run of
newlines and ``//`` line comments (with the blanks among them) is a match
of its own, so the line count and the offset of the line's start move on
only there.  Blanks at the end of the text are stripped before the scan.
The alternatives after the leading blanks, tried in order, are:

* identifiers and keywords (``\\w`` characters, not starting with a digit;
  a start that is not alphabetic or ``_`` is an illegal character);
* a newline or comment run, skipped.  It comes before punctuation, which
  would otherwise take the ``/`` of ``//``;
* punctuation, as character classes rather than one alternative per entry
  of ``PUNCTUATION``: an operator character followed by ``=``, then ``++``,
  ``--``, ``&&`` and ``||``, then any single punctuation character.  The
  regular expression engine tests a class in one step, an alternation
  one alternative at a time.  ``test_lexer_fidelity.py`` checks that the
  scanner and ``PUNCTUATION`` agree;
* numeric literals over decimal digits: ``D+``, ``D+.D+``, either with an
  exponent ``[eE][+-]?D+``.  A literal followed by a letter or ``_``, or an
  integer followed by ``.``, is malformed.  An integer or a float that no
  word character (nor, for an integer, ``.``) follows is taken at once;
  any other literal goes through the malformed-literal check;
* runs of consecutive ``@``, which become one at-sign-run token whose text
  records the exact count;
* string literals, whose escapes ``\\n``, ``\\t``, ``\\"`` and ``\\\\`` are
  decoded (any other escaped character stands for itself);
* any other single character, which is illegal.

The loop tells the groups apart by index, most frequent first, and takes
a token's column from the start of its group.

A token is a plain ``(kind, text, line, col)`` tuple: ``kind`` is one of
the kind names below, ``text`` the token's text (a string literal's
decoded body, an at-sign run's ``@`` characters, whose count is
``len(text)``), and ``line`` and ``col`` its 1-indexed start.  A tuple is
built without running any Python code, unlike an object with an
``__init__``, and CPython's garbage collector stops tracking a tuple of
strings and integers at the first collection it survives, so a long token
list costs later collections nothing.  A token carries no ``Span``: a
node's span is the slice ``t[2:]``, taken only where a node needs it,
since separators such as ``;`` and ``]`` never do.
"""

from __future__ import annotations

import re

from .errors import LexError, Span

KEYWORDS = frozenset({
    "function", "class", "return", "for", "if", "else", "switch", "case",
    "default", "int", "float", "char", "bool", "long", "double", "typename",
    "ASTree", "void", "const", "true", "false", "public", "private", "static",
})

# Every punctuation token, longest first.
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

# A string literal's source text, escapes and all.
STRING_LITERAL = re.compile(r'"(?:[^"\\\n]|\\.)*"', re.DOTALL)

_SCANNER = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<word>[A-Za-z_]\w*)
    | (?P<skip>(?:\n|//[^\n]*)(?:[ \t\r\n]+|//[^\n]*)*)
    | (?P<punct>[-+*/%=!<>]=|\+\+|--|&&|\|\||[-+*/%=!<>(){}\[\];,:?])
    | (?P<int>\d+(?![.\w]))
    | (?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)(?!\w))
    | (?P<number>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)?)
    | (?P<at>@+)
    | (?P<string>""" + STRING_LITERAL.pattern + r""")
    | (?P<uword>[^\W\d]\w*)
    | (?P<other>.)
    )
""", re.VERBOSE | re.DOTALL)
_SKIP, _WORD, _PUNCT, _INT = (_SCANNER.groupindex[name]
                               for name in ("skip", "word", "punct", "int"))
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens: list[tuple[str, str, int, int]] = []
    append = tokens.append
    # ``base`` is the offset of the current line's start, less one, so the
    # token at offset ``start`` is in column ``start - base``.
    line, base = 1, -1
    for m in _SCANNER.finditer(source.rstrip(" \t\r")):
        group = m.lastindex
        if group == _PUNCT:
            append((PUNCT, m[_PUNCT], line, m.start(_PUNCT) - base))
        elif group == _WORD:
            text = m[_WORD]
            append((KEYWORD if text in KEYWORDS else IDENT, text, line,
                    m.start(_WORD) - base))
        elif group == _INT:
            text = m[_INT]
            if len(text) > 18 and int(text) > INT64_MAX:
                raise LexError("integer literal out of 64-bit range",
                               Span(line, m.start(_INT) - base))
            append((INT, text, line, m.start(_INT) - base))
        elif group == _SKIP:
            text = m[_SKIP]
            if "\n" in text:
                line += text.count("\n")
                base = m.start(_SKIP) + text.rindex("\n")
        else:
            line, base = _rare(m, line, base, source, append)
    return tokens


def _rare(m, line: int, base: int, source: str, append) -> tuple[int, int]:
    """The token or error of a group ``tokenize`` meets seldom, and the
    line and line base after it."""
    group = m.lastgroup
    text = m[group]
    end = m.end()
    col = m.start(group) - base
    if group == "number":
        after = source[end:end + 1]
        is_float = "." in text or "e" in text or "E" in text
        if after.isalpha() or after == "_" or \
                (after == "." and not is_float):
            raise LexError("malformed numeric literal", Span(line, col))
        group = "float" if is_float else "int"
    if group == "float":
        append((FLOAT, text, line, col))
    elif group == "int":
        if len(text) > 18 and int(text) > INT64_MAX:
            raise LexError("integer literal out of 64-bit range",
                           Span(line, col))
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
            base = m.start(group) + text.rindex("\n")
    elif group == "uword" and text[0].isalpha():
        append((IDENT, text, line, col))
    elif text == '"':
        raise LexError("unterminated string literal", Span(line, col))
    else:
        raise LexError(f"illegal character {text[0]!r}", Span(line, col))
    return line, base
