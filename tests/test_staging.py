import pytest

from catat import IntV, check_stages, parse, run_unstaged
from catat.errors import (
    ANNOTATION_TOO_DEEP, DYNAMIC_IN_STATIC_CONSTRUCTOR,
    DYNAMIC_TO_STATIC_FLOW, STATIC_CONTROL_WITH_DYNAMIC_GUARD,
    STATIC_MUTATION_UNDER_DYNAMIC_CONTROL, StageError,
    ParseError, TYPENAME_DYNAMIC_BINDING, TypeMismatch, UnboundVariable,
)
from catat.parser import parse_expression
from catat.specializer import specialize_program
from catat.staging import stage_of

from conftest import fixture_source, staged_fixture


def expect_kind(source, kind, levels=2):
    with pytest.raises(StageError) as exc:
        check_stages(parse(source), levels)
    assert exc.value.kind == kind
    return exc.value


def test_static_to_dynamic_flow_ok():
    check_stages(parse(fixture_source("flow_ok.cat")), 2)


def test_dynamic_to_static_flow_rejected():
    err = expect_kind(fixture_source("flow_bad.cat"), DYNAMIC_TO_STATIC_FLOW)
    assert err.span is not None and err.span.line == 4


def test_single_static_declaration():
    staged = check_stages(parse("int@ i = 0;"), 2)
    assert staged.program.items[0].stage == 0


def test_static_mutation_under_dynamic_control():
    expect_kind(fixture_source("congruence_bad.cat"),
                STATIC_MUTATION_UNDER_DYNAMIC_CONTROL)


def test_static_mutation_under_static_control_ok():
    check_stages(parse(fixture_source("factorial_script.cat")), 2)


def test_static_loop_control_under_plain_for_rejected():
    # the loop repeats at run time, so its static counter cannot advance
    err = expect_kind("function f(int@ k)(int x) {\n"
                      "    for (int@ i = 0; i < 3; ++i) x += k;\n"
                      "    return x;\n}",
                      STATIC_MUTATION_UNDER_DYNAMIC_CONTROL)
    assert err.span.line == 2


def test_static_mutation_in_plain_for_with_static_guard_rejected():
    expect_kind("function f(int@ k)(int x) {\n"
                "    int@ s = 0;\n"
                "    for (; true; ) { s += 1; return x; }\n}",
                STATIC_MUTATION_UNDER_DYNAMIC_CONTROL)


def test_plain_for_with_dynamic_counter_and_static_bound_ok():
    check_stages(parse("function f(int@ k)(int x) {\n"
                       "    for (int i = 0; i < k; ++i) x += k;\n"
                       "    return x;\n}"), 2)


def test_annotation_too_deep():
    expect_kind("int@@ x = 0;", ANNOTATION_TOO_DEEP)


def test_annotated_guard_must_be_static():
    expect_kind("""
        function f(int x) {
            for@ (int@ i = 0; i < x; ++i)
                x += 1;
            return x;
        }
    """, STATIC_CONTROL_WITH_DYNAMIC_GUARD)


def test_annotated_if_guard_must_be_static():
    expect_kind("""
        function f(int x) {
            if@ (x > 0)
                return 1;
            return 0;
        }
    """, STATIC_CONTROL_WITH_DYNAMIC_GUARD)


def test_annotated_loop_control_must_be_static():
    expect_kind("""
        function f(int@ N)(int x) {
            for@ (int i = 0; i < N; ++i)
                x += 1;
            return x;
        }
    """, STATIC_CONTROL_WITH_DYNAMIC_GUARD)


def test_typename_variable_must_be_static():
    expect_kind("typename T = int;", TYPENAME_DYNAMIC_BINDING)


def test_typename_static_declaration_ok():
    check_stages(parse("typename@ T = int;"), 2)


def test_static_only_function_called_dynamically():
    err = expect_kind("""
        function pick(typename T) {
            return T;
        }

        int r = pick(3);
    """, TYPENAME_DYNAMIC_BINDING)
    assert "pick" in err.message


def test_static_only_function_marked():
    staged = staged_fixture("average.cat")
    assert "average_type" in staged.static_only
    assert "average" not in staged.static_only


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        check_stages(parse("int x = y;"), 2)


def test_unknown_function():
    with pytest.raises(UnboundVariable):
        check_stages(parse("int x = mystery(3);"), 2)


def test_static_call_requires_static_arguments():
    expect_kind("""
        function id(int x) { return x; }

        int y;
        int@ z = id@(y);
    """, DYNAMIC_TO_STATIC_FLOW)


def test_plain_call_result_is_dynamic():
    expect_kind("""
        function id(int x) { return x; }

        int@ z = id(3);
    """, DYNAMIC_TO_STATIC_FLOW)


def test_static_argument_list_must_be_static():
    expect_kind("""
        function f(int@ N)(float x) { return x; }

        int n;
        float r = f(n)(1.0);
    """, DYNAMIC_TO_STATIC_FLOW)


def test_array_extents_must_be_static():
    expect_kind("""
        int n;
        int buf[n];
    """, DYNAMIC_TO_STATIC_FLOW)


def test_dynamic_statement_in_static_constructor():
    expect_kind("""
        class C(int@ N) {
        public:
            C@() {
                member = N;
            }
        private:
            int member;
        }
    """, DYNAMIC_IN_STATIC_CONSTRUCTOR)


def test_stage_of_examples():
    assert stage_of(parse_expression("5"), {}) == 0
    assert stage_of(parse_expression("i * x"), {"i": 0, "x": 1}) == 1
    assert stage_of(parse_expression("N * 2"), {"N": 0}) == 0


def test_stage_of_unbound():
    with pytest.raises(UnboundVariable):
        stage_of(parse_expression("q + 1"), {})


def test_stage_monotonicity():
    # stage of a compound expression is the max of its operand stages
    for si in (0, 1):
        for sx in (0, 1):
            env = {"i": si, "x": sx}
            assert stage_of(parse_expression("i + x"), env) == max(si, sx)
            assert stage_of(parse_expression("i < x ? i : x"), env) == \
                max(si, sx)
            assert stage_of(parse_expression("-i * x"), env) == max(si, sx)


def test_levels_one_accepts_residual_and_everything_is_stage_zero():
    from catat import IntV, emit, specialize_program
    staged = staged_fixture("pow_two_level.cat")
    rp = specialize_program(staged, "pow", [IntV(4)])
    reparsed = parse(emit(rp))
    checked = check_stages(reparsed, levels=1)
    fn = checked.program.functions()[0]
    assert all((s.stage or 0) == 0 for s in fn.body.stmts)


def test_corpus_fixtures_check():
    for name in ("dot.cat", "average.cat", "average_call.cat",
                 "square_array.cat", "dsl_interp.cat", "vector_sum.cat",
                 "volume_cube.cat", "collatz.cat", "static_point.cat"):
        staged_fixture(name)


def test_three_levels():
    staged = check_stages(parse("int@@ a = 1; int@ b = 2; int c = 3;"), 3)
    stages = [item.stage for item in staged.program.items]
    assert stages == [0, 1, 2]


@pytest.mark.parametrize("source, col", [
    ("int x = 1;\nreturn 2;\n", 1),
    ("int x = 1;\n{ return 2; }\n", 3),
    ("int x = 1;\nif (x > 0) return 2;\n", 12),
], ids=["statement", "block", "branch"])
def test_top_level_return_is_rejected(source, col):
    with pytest.raises(ParseError, match="return outside a function") as exc:
        check_stages(parse(source), 2)
    assert tuple(exc.value.span) == (2, col)


def test_return_inside_functions_and_constructors_passes():
    check_stages(parse("int f(int x) { { return x; } }\n"
                       "class Box() { public: int v; Box() { return; } }\n"),
                 2)


# -- one declaration of a name per scope ---------------------------------------

REDECLARED = ("function f(int@ k)(int d) { if (d > 5) { int t = 1; "
              "int t = 2; d += t; } return d; }\n")


@pytest.mark.parametrize("source, column", [
    (REDECLARED, 57),
    ("function f(int@ k)(int k) { return k; }\n", 24),
    ("int g = 1;\nint g = 2;\n", 5),
], ids=["local", "parameter", "global"])
def test_second_declaration_in_one_scope_is_rejected(source, column):
    # the checker raises what the specializer and the interpreter raise,
    # at the second declarator
    with pytest.raises(TypeMismatch,
                       match="redeclaration of '[tkg]' in the same scope") \
            as error:
        check_stages(parse(source), 2)
    assert error.value.span.col == column


def test_redeclaration_fails_on_every_path():
    for via_flatten in (False, True):
        with pytest.raises(TypeMismatch, match="redeclaration of 't'"):
            specialize_program(check_stages(parse(REDECLARED), 2), "f",
                               [IntV(1)], via_flatten=via_flatten)
    # run_unstaged does not check: the block runs only when d > 5
    assert run_unstaged(parse(REDECLARED), "f", [IntV(1), IntV(0)]).value \
        == IntV(0)
    with pytest.raises(TypeMismatch, match="redeclaration of 't'"):
        run_unstaged(parse(REDECLARED), "f", [IntV(1), IntV(6)])


def test_a_body_may_still_shadow_a_parameter():
    check_stages(parse("function f(int@ k)(int d) { int d = 1; "
                       "{ int d = 2; } return d + k; }\n"), 2)
