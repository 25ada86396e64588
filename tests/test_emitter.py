import pytest

from catat import IntV, check_stages, emit, parse, specialize_program
from catat import emitter, nodes as n
from catat.emitter import emit_expr, emit_function, emit_stmt
from catat.parser import parse_expression
from catat.values import INT

from conftest import all_checkable_fixture_names, fixture_source


@pytest.mark.parametrize("name", all_checkable_fixture_names())
def test_round_trip(name):
    source = fixture_source(name)
    first = parse(source)
    text = emit(first)
    assert parse(text) == first


@pytest.mark.parametrize("name", all_checkable_fixture_names())
def test_emit_deterministic(name):
    program = parse(fixture_source(name))
    assert emit(program) == emit(program)


def test_annotations_preserved():
    text = emit(parse(fixture_source("pow_two_level.cat")))
    assert "int@ N" in text
    assert "for@ (int@ i = 0; i < N; ++i)" in text


def test_residual_emits_without_annotations():
    staged = check_stages(parse(fixture_source("pow_two_level.cat")), 2)
    rp = specialize_program(staged, "pow", [IntV(3)])
    assert "@" not in emit(rp)


def test_residual_signature_line():
    staged = check_stages(parse(fixture_source("average.cat")), 2)
    rp = specialize_program(staged, "average", [INT])
    text = emit_function(rp.function("average__int").to_function_def())
    assert text.splitlines()[0].startswith(
        "float average__int(int* array, int N)")


def test_residual_text_is_valid_input_fixed_point():
    from catat.values import FLOAT
    staged = check_stages(parse(fixture_source("dot.cat")), 2)
    rp = specialize_program(staged, "dot", [IntV(3), FLOAT])
    text = emit(rp)
    reparsed = parse(text)
    check_stages(reparsed, levels=1)
    # fixed point modulo the provenance comments (comments are metadata)
    assert emit(reparsed) == emit(rp.to_program_ast())


def test_expression_parens_minimal_but_faithful():
    for src in ("a + b * c", "(a + b) * c", "-x * y", "a < b == c",
                "x ? y : z ? w : v", "(x ? y : z) + 1", "a[i + 1]",
                "!(a && b) || c", "- -x", "1 - -3", "!!b"):
        expr = parse_expression(src)
        assert parse_expression(emit_expr(expr)) == expr


def test_statement_layouts():
    program = parse(
        "function f(int x) {\n"
        "    if (x > 0) {\n        x = 1;\n    } else {\n        x = 2;\n"
        "    }\n    return x;\n}")
    assert parse(emit(program)) == program


def test_switch_layout():
    text = emit(parse(fixture_source("average.cat")))
    assert "switch (T) {" in text
    assert "case long int:" in text


def node_classes(base):
    return {cls for cls in vars(n).values() if isinstance(cls, type)
            and issubclass(cls, base) and cls is not base}


def test_every_node_class_has_an_emitter_entry():
    assert emitter._STMT.keys() == node_classes(n.Stmt)
    assert emitter._EXPR.keys() == node_classes(n.Expr)


def test_an_unknown_node_class_is_a_type_error():
    class Strange(n.Expr):
        pass

    class Odd(n.Stmt):
        pass

    with pytest.raises(TypeError, match="unknown expression node"):
        emit_expr(Strange())
    with pytest.raises(TypeError, match="unknown statement node"):
        emit_stmt(Odd())
