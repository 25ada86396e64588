import pytest

from catat.errors import LexError
from catat.lexer import AT, IDENT, INT, KEYWORD, PUNCT, STRING, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)]


def test_static_declaration_tokens():
    assert kinds("int@ j = 0;") == [
        (KEYWORD, "int"), (AT, "@"), (IDENT, "j"), (PUNCT, "="),
        (INT, "0"), (PUNCT, ";"),
    ]


def test_empty_input():
    assert tokenize("") == []


def test_annotated_loop_header():
    toks = tokenize("for@ (int@ i=1; i < N; ++i)")
    assert (toks[0].kind, toks[0].text) == (KEYWORD, "for")
    assert toks[1].kind == AT and toks[1].at_count == 1
    assert (toks[3].kind, toks[3].text) == (KEYWORD, "int")
    assert toks[4].kind == AT


def test_at_run_counts():
    toks = tokenize("int@@@ x")
    assert toks[1].kind == AT
    assert toks[1].at_count == 3


def test_comments_skipped():
    toks = tokenize("x // comment with @ and 123\ny")
    assert [t.text for t in toks] == ["x", "y"]


def test_string_literal_with_escapes():
    toks = tokenize(r'Catat_error@("a\"b\n")')
    strings = [t for t in toks if t.kind == STRING]
    assert strings[0].text == 'a"b\n'


def test_multichar_operators():
    texts = [t.text for t in tokenize("a+=b; c&&d; e<=f; ++g")]
    assert "+=" in texts and "&&" in texts and "<=" in texts and "++" in texts


def test_float_literals():
    toks = tokenize("1.5 2e3 4.25e-2")
    assert all(t.kind == "float-literal" for t in toks)


def test_spans_are_ordered_and_nonempty():
    toks = tokenize("int@ j = 0;\nfor@ (x)")
    assert all(t.text for t in toks)
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    # spans never overlap: each token ends before the next starts
    for a, b in zip(toks, toks[1:]):
        if a.line == b.line:
            assert a.col + len(a.text) <= b.col


def test_illegal_character():
    with pytest.raises(LexError):
        tokenize("int $x;")


def test_malformed_float():
    with pytest.raises(LexError):
        tokenize("2.")


def test_out_of_range_integer():
    with pytest.raises(LexError):
        tokenize(str(2 ** 63))


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('"abc')


def stream(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


@pytest.mark.parametrize("src, expected", [
    ("٣", [(INT, "٣", 1, 1)]),
    (str(2 ** 63 - 1), [(INT, str(2 ** 63 - 1), 1, 1)]),
    ('"a\\\nb" x', [(STRING, "a\nb", 1, 1), (IDENT, "x", 2, 4)]),
    ("x // comment at end of file", [(IDENT, "x", 1, 1)]),
    ("a\r\nb\r\n  c", [(IDENT, "a", 1, 1), (IDENT, "b", 2, 1),
                       (IDENT, "c", 3, 3)]),
    ("@@@x", [(AT, "@@@", 1, 1), (IDENT, "x", 1, 4)]),
])
def test_token_stream_edge_cases(src, expected):
    assert stream(src) == expected


@pytest.mark.parametrize("src, message, col", [
    ("2.", "malformed numeric literal", 1),
    ("1e", "malformed numeric literal", 1),
    ("1e+", "malformed numeric literal", 1),
    ("12abc", "malformed numeric literal", 1),
    ("1.5.2", "illegal character '.'", 4),
    ("1e9.", "illegal character '.'", 4),
    (str(2 ** 63), "integer literal out of 64-bit range", 1),
    ("a\xa0b", "illegal character '\\xa0'", 2),
    # '²' is a digit to str.isdigit() but not a decimal digit
    ("²", "illegal character '²'", 1),
    ("int x = ²;", "illegal character '²'", 9),
])
def test_lex_error_message_and_span(src, message, col):
    with pytest.raises(LexError) as exc:
        tokenize(src)
    assert exc.value.message == message
    assert (exc.value.span.line, exc.value.span.col) == (1, col)
