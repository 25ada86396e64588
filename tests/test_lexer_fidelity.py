"""``catat.lexer.tokenize`` against ``reference_lexer``, the tokenizer it
replaced: the same ``(kind, text, line, col)`` list, or the same error
class, message and span, on every corpus text, every residual of one, and
a derandomized soup of tokens, blanks, comments and bad input."""

import pytest
from hypothesis import given, settings, strategies as st

from catat import parse
from catat.errors import LexError
from catat.lexer import PUNCT, PUNCTUATION, tokenize
from catat.nodes import walk

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
    # A node's span is the slice ``t[2:]`` of its token: an exact tuple of
    # two ints, which the collector can stop tracking.
    for t in tokenize("int@ j = 0;\n  for@ (x)\t// c\r\n\"a\\\nb\" y"):
        span = t[2:]
        assert type(span) is tuple and len(span) == 2
        assert all(type(v) is int and v >= 1 for v in span)
    source = ("function f(int@ n)(int* a) {\n  int s = 0;\n\tfor@ (int i = 0;"
              " i < n; i = i + 1) s += a[i] * a[2];\r\n  return s; }")
    positions = {t[2:] for t in tokenize(source)}
    for node in walk(parse(source).items[0]):
        assert type(node.span) is tuple and node.span in positions, node


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


def test_every_punctuation_entry_lexes_alone():
    # The scanner matches punctuation by character classes, not from
    # ``PUNCTUATION``: each entry must still be one token of its own.
    for text in PUNCTUATION:
        assert tokenize(text) == [(PUNCT, text, 1, 1)]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.lists(_PIECES, max_size=24).map("".join))
def test_every_punctuation_token_is_in_punctuation(source):
    # ... and it must take nothing as punctuation that is not an entry.
    # Most soups hold a lex error: the text before it is read instead.
    while True:
        try:
            tokens = tokenize(source)
            break
        except LexError as error:
            line, col = error.span
            lines = source.split("\n")[:line]
            lines[-1] = lines[-1][:col - 1]
            source = "\n".join(lines)
    assert [t for t in tokens
            if t[0] == PUNCT and t[1] not in PUNCTUATION] == []
