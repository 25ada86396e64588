"""``catat.lexer.tokenize`` against ``reference_lexer``, the tokenizer it
replaced: the same ``(kind, text, line, col)`` list, or the same error
class, message and span, on every corpus text, every residual of one, and
a derandomized soup of tokens, blanks, comments and bad input."""

import pytest
from hypothesis import given, settings, strategies as st

from catat.errors import LexError, Span
from catat.lexer import tokenize
from catat.parser import _span

import reference_lexer
from conftest import front_end_texts


def outcome(lex, source):
    try:
        return lex(source)
    except LexError as error:
        return (type(error), error.message, error.span)


def assert_same(source):
    expected = outcome(reference_lexer.tokenize, source)
    assert outcome(tokenize, source) == expected


def test_spans_are_the_token_positions():
    for t in tokenize("int@ j = 0;\n  for@ (x)\t// c\r\n\"a\\\nb\" y"):
        span = _span(t)
        assert span == t[2:] == (span.line, span.col)
        assert type(span) is Span


TEXTS = dict(front_end_texts())


@pytest.mark.parametrize("label", TEXTS)
def test_corpus_and_residual_texts(label):
    assert_same(TEXTS[label])


@pytest.mark.parametrize("source", [
    "", " ", "x   ", "x \t\r", "x\n  \t", "\r", "a\rb", "\tx\t\ty",
    "x//c", "x//c\n", "x //c\n// d\ny", "// only", "a/ /b", "a//\n/b",
    "x/=2", '"a\\\nb" c', '"a\\\r\nb"', '"a\\"b\\n" x', '"open',
    '"open\n"', "2.", "2.x", "1.5.3", "1e5", "1e", "1e+", "1.5e-3x",
    "3_", "3é", "5²", "2.5²", "x = ²;", "9223372036854775807",
    "9223372036854775808", "00000000000000000001", "int $x;", "a@@@(b)",
    "@", "é1 ü", "_a1", "a b", "1\n\n  2\n\t3", "x\r\ny\r\n",
])
def test_edges(source):
    assert_same(source)


_PIECES = st.one_of(
    st.sampled_from([
        " ", "  ", "\t", "\r", "\n", "\r\n", "\n\n", "//", "// c @ 1\n",
        "/", "/=", "*", "+", "++", "-", "--", "==", "=", "!", "!=", "<",
        "<=", "&&", "||", "&", "|", "(", ")", "{", "}", "[", "]", ";",
        ",", ":", "?", "@", "@@", ".", "$", "#", "²", "é", "_", "e", "E",
        "int", "for", "x", "a1", "0", "7", "12", "3.", ".5", "1.5", "2e3",
        "4.25e-2", "1e", "99999999999999999999", '"', '"s"', '"a\\"b"',
        '"a\\n\\t\\\\"', '"esc\\\nnl"', '"nl\n"', "\\",
    ]),
    st.text(alphabet=" \t\r\n/\"\\@.eE_0123456789abz²é$+-*=;()", max_size=6),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.lists(_PIECES, max_size=24).map("".join))
def test_token_soups(source):
    assert_same(source)
