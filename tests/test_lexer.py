import gc

import pytest

from catat import emit, specialize_program
from catat.cli import parse_arg_list
from catat.errors import LexError
from catat.lexer import AT, IDENT, INT, KEYWORD, PUNCT, STRING, tokenize

from conftest import staged_fixture


def kinds(src):
    return [(kind, text) for kind, text, _, _ in tokenize(src)]


def test_static_declaration_tokens():
    assert kinds("int@ j = 0;") == [
        (KEYWORD, "int"), (AT, "@"), (IDENT, "j"), (PUNCT, "="),
        (INT, "0"), (PUNCT, ";"),
    ]


def test_empty_input():
    assert tokenize("") == []


def test_annotated_loop_header():
    toks = tokenize("for@ (int@ i=1; i < N; ++i)")
    assert toks[0][:2] == (KEYWORD, "for")
    assert toks[1][0] == AT and len(toks[1][1]) == 1
    assert toks[3][:2] == (KEYWORD, "int")
    assert toks[4][0] == AT


def test_at_run_counts():
    toks = tokenize("int@@@ x")
    assert toks[1][0] == AT
    assert len(toks[1][1]) == 3


def test_comments_skipped():
    toks = tokenize("x // comment with @ and 123\ny")
    assert [text for _, text, _, _ in toks] == ["x", "y"]


def test_string_literal_with_escapes():
    toks = tokenize(r'Catat_error@("a\"b\n")')
    strings = [text for kind, text, _, _ in toks if kind == STRING]
    assert strings[0] == 'a"b\n'


def test_multichar_operators():
    texts = [text for _, text, _, _ in tokenize("a+=b; c&&d; e<=f; ++g")]
    assert "+=" in texts and "&&" in texts and "<=" in texts and "++" in texts


def test_float_literals():
    toks = tokenize("1.5 2e3 4.25e-2")
    assert all(kind == "float-literal" for kind, _, _, _ in toks)


def test_spans_are_ordered_and_nonempty():
    toks = tokenize("int@ j = 0;\nfor@ (x)")
    assert all(text for _, text, _, _ in toks)
    positions = [(line, col) for _, _, line, col in toks]
    assert positions == sorted(positions)
    # spans never overlap: each token ends before the next starts
    for (_, text, line, col), (_, _, next_line, next_col) in zip(toks,
                                                               toks[1:]):
        if line == next_line:
            assert col + len(text) <= next_col


def test_tokens_are_plain_tuples_the_collector_lets_go():
    rp = specialize_program(staged_fixture("dot.cat"), "dot",
                            parse_arg_list("2500, int"))
    toks = tokenize(emit(rp))
    assert len(toks) > 2500 * 10
    assert all(type(t) is tuple and tuple(map(type, t)) ==
               (str, str, int, int) for t in toks)
    gc.collect()
    assert not any(gc.is_tracked(t) for t in toks)


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
    assert tokenize(src) == expected


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
