import pytest

import catat.parser
from catat import IntV, check_stages, emit, specialize_program
from catat import nodes as n
from catat.errors import ParseError
from catat.lexer import tokenize
from catat.parser import parse, parse_expression
from catat.values import FLOAT

from conftest import fixture_source


def test_dot_definition_shape():
    program = parse(fixture_source("dot.cat"))
    fn = program.functions()[0]
    assert fn.name == "dot"
    assert [(p.name, p.at_count) for p in fn.static_params] == \
        [("N", 1), ("T", 1)]
    assert isinstance(fn.static_params[0].dtype, n.PrimType)
    assert fn.static_params[0].dtype.name == "int"
    assert fn.static_params[1].dtype.name == "typename"
    assert [p.name for p in fn.params] == ["a", "b"]
    for p in fn.params:
        assert isinstance(p.dtype, n.PointerType)
        assert isinstance(p.dtype.base, n.NamedType)
        assert p.dtype.base.name == "T"


def test_minimal_function():
    fn = parse("function f()() { return 0; }").functions()[0]
    assert fn.static_params == [] and fn.params == []
    assert isinstance(fn.body.stmts[0], n.Return)


def test_single_list_function_is_stage_flexible():
    fn = parse("function f(int x) { return x; }").functions()[0]
    assert fn.static_params is None
    assert fn.static_arity == 0


def test_type_switch():
    program = parse(fixture_source("average.cat"))
    avg_type = program.functions()[0]
    switch = avg_type.body.stmts[0]
    assert isinstance(switch, n.Switch)
    labels = [c.label for c in switch.cases]
    assert isinstance(labels[0], n.TypeLit) and \
        labels[0].type_expr.name == "int"
    assert labels[2].type_expr.name == "long int"
    assert labels[3] is None  # default
    assert isinstance(switch.cases[0].body[0], n.Return)


def test_duplicate_function_rejected():
    with pytest.raises(ParseError):
        parse("function f(int x) { return x; } function f(int y) { return y; }")


def test_overloads_by_static_arity_allowed():
    program = parse("""
        function pow(int X, int N) { return X; }
        function pow(int@ N)(float x) { return x; }
    """)
    assert len(program.functions()) == 2


def test_const_int_is_static_int():
    a = parse("const int z = 5;").items[0]
    b = parse("int@ z = 5;").items[0]
    assert a == b


def test_multi_declarator():
    decl = parse("int@ N = 5, Nfact = 1;").items[0]
    assert [d.name for d in decl.declarators] == ["N", "Nfact"]


def test_statement_disambiguation():
    stmt = parse("function g()() { pow@(2, 3); }").functions()[0].body.stmts[0]
    assert isinstance(stmt, n.ExprStmt)
    assert isinstance(stmt.expr, n.Call) and stmt.expr.at_count == 1

    decl = parse("SquareArray(int, 3, 2) y;").items[0]
    assert isinstance(decl, n.VarDecl)
    assert isinstance(decl.dtype, n.ClassAppType) and not decl.dtype.ctime

    decl = parse("Point@(3, 4) p;").items[0]
    assert decl.dtype.ctime

    program = parse("function h(int T_average)"
                    " { T_average sum = 0; return sum; }")
    inner = program.functions()[0].body.stmts[0]
    assert isinstance(inner, n.VarDecl)
    assert isinstance(inner.dtype, n.NamedType)


def test_two_list_call():
    expr = parse_expression("average(int)(data, 10)")
    assert isinstance(expr, n.Call)
    assert len(expr.static_args) == 1
    assert isinstance(expr.static_args[0], n.TypeLit)
    assert len(expr.args) == 2


def test_ternary():
    expr = parse_expression("(X % 2 == 0) ? (X / 2) : (3 * X + 1)")
    assert isinstance(expr, n.Cond)


def test_precedence():
    expr = parse_expression("a + b * c")
    assert expr.op == "+" and expr.rhs.op == "*"


def test_static_param_requires_annotation():
    with pytest.raises(ParseError):
        parse("function f(int N)(float x) { return x; }")


def test_dynamic_param_rejects_annotation():
    with pytest.raises(ParseError):
        parse("function f(int@ N)(float@ x) { return x; }")


def test_c_style_residual_definition():
    fn = parse("float pow__3(float x) { return x; }").functions()[0]
    assert fn.declared_return is not None
    assert fn.declared_return.name == "float"
    assert fn.static_params is None


def test_class_with_constructors():
    program = parse(fixture_source("square_array.cat"))
    cls = program.classes()[0]
    assert cls.name == "SquareArray"
    assert len(cls.static_params) == 3
    assert cls.static_ctor() is not None
    assert cls.dynamic_ctor() is not None
    members = cls.member_decls()
    assert members[0].static_kw and members[0].declarators[0].name == \
        "numElements"
    assert members[1].declarators[0].array_size is not None


def test_at_most_one_constructor_of_each_kind():
    with pytest.raises(ParseError):
        parse("class C(int@ N) { C@() { } C@() { } }")


def test_parse_error_has_span():
    with pytest.raises(ParseError) as exc:
        parse("function f( { }")
    assert exc.value.span is not None
    assert exc.value.span.line == 1


def test_corpus_parses():
    for name in ("average_call.cat", "collatz.cat", "dsl_interp.cat",
                 "vector_sum.cat", "volume_cube.cat"):
        program = parse(fixture_source(name))
        assert program.items


def shape(e):
    if isinstance(e, n.Binary):
        return (e.op, shape(e.lhs), shape(e.rhs))
    if isinstance(e, n.Unary):
        return (e.op, shape(e.operand))
    if isinstance(e, n.Cond):
        return ("?", shape(e.cond), shape(e.then_expr), shape(e.else_expr))
    return e.name


@pytest.mark.parametrize("src, expected", [
    ("a - b - c", ("-", ("-", "a", "b"), "c")),
    ("a / b * c", ("*", ("/", "a", "b"), "c")),
    ("a || b && c == d < e + f * g",
     ("||", "a", ("&&", "b", ("==", "c", ("<", "d",
                                           ("+", "e", ("*", "f", "g"))))))),
    ("!a == b", ("==", ("!", "a"), "b")),
    ("-a * b", ("*", ("-", "a"), "b")),
    ("c ? x : d ? y : z", ("?", "c", "x", ("?", "d", "y", "z"))),
])
def test_precedence_and_associativity(src, expected):
    assert shape(parse_expression(src)) == expected


def test_nested_parentheses():
    expr = parse_expression("(" * 100 + "x" + ")" * 100)
    assert expr == n.VarRef("x")
    with pytest.raises(ParseError) as exc:
        parse("int y = " + "(" * 5000 + "x" + ")" * 5000 + ";")
    assert exc.value.message == "expression nested too deeply"
    assert exc.value.span.line == 1 and exc.value.span.col > 9


@pytest.mark.parametrize("src, span", [
    ("x = 12", (1, 7)),
    ('x = "abc"', (1, 10)),
    ('x = "a\\"b"', (1, 11)),
    ('x = "a\\\nbc"', (2, 4)),
    ('x = "abc" // "d"\n', (1, 10)),
], ids=["integer", "string", "escaped-quote", "escaped-newline",
        "string-then-comment"])
def test_end_of_input_is_one_past_the_last_token(src, span):
    # past the string's source text, not its decoded body
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.message == "expected ';', found end of input"
    assert exc.value.span == span


# Each construct the parser nests by recursion, as a statement ``depth``
# levels deep.  Unary minus is spaced: ``--`` lexes as a decrement.
NESTINGS = {
    "parentheses": lambda d: "int y = " + "(" * d + "x" + ")" * d + ";",
    "unary-minus": lambda d: "int y = " + "- " * d + "x;",
    "subscripts": lambda d: "int y = " + "a[" * d + "0" + "]" * d + ";",
    "blocks": lambda d: "{" * d + "}" * d,
    "if-chain": lambda d: "if (c) x = 1; else " * d + "x = 2;",
}
# What each construct reports when it nests past the stack.
NESTED_TOO_DEEPLY = {
    "parentheses": "expression nested too deeply",
    "unary-minus": "expression nested too deeply",
    "subscripts": "expression nested too deeply",
    "blocks": "statement nested too deeply",
    "if-chain": "statement nested too deeply",
}


@pytest.mark.parametrize("name", NESTINGS)
def test_nesting_floor(name):
    # the depth every construct parses to today
    program = parse(NESTINGS[name](200))
    assert len(program.items) == 1


@pytest.mark.parametrize("name", NESTINGS)
def test_nesting_past_the_stack_is_a_parse_error(name):
    with pytest.raises(ParseError) as exc:
        parse(NESTINGS[name](5000))
    assert exc.value.message == NESTED_TOO_DEEPLY[name]


def test_parse_lexes_through_the_module_tokenize(monkeypatch):
    calls = []

    def counting(source):
        calls.append(source)
        return tokenize(source)

    monkeypatch.setattr(catat.parser, "tokenize", counting)
    parse("int x = 1;")
    assert calls == ["int x = 1;"]


def test_large_residual_round_trip():
    staged = check_stages(parse(fixture_source("dot.cat")), 2)
    rp = specialize_program(staged, "dot", [IntV(1000), FLOAT],
                            via_flatten=True)
    assert parse(emit(rp)) == rp.to_program_ast()
