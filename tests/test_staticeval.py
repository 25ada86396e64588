import pytest

from catat import check_stages, emit, parse, specialize_program
from catat.corpus import encode_dsl
from catat.errors import (
    DepthExceeded, DivisionByZero, IntegerOverflow, LoopLimitExceeded, Span,
    TypeMismatch, UserStaticError,
)
from catat.parser import parse_expression
from catat.specializer import SpecializationCache, specialize_function
from catat.staticeval import (
    EvalLimits, Interpreter, call_static, pure_functions, value_of,
)
from catat.values import (
    BOOL, ArrayV, BoolV, Env, FLOAT, FloatV, INT, IntV, LONG_INT, PointerTV,
    DOUBLE, Slot, TypeValue,
)

from conftest import fixture_source


def env_with(**values):
    env = Env()
    for name, v in values.items():
        env.declare(name, Slot(IntV(v) if isinstance(v, int) else v))
    return env


def fn_index(source):
    program = parse(source)
    return program, {f.name: f for f in program.functions()}


def test_collatz_step_even():
    expr = parse_expression("(X % 2 == 0) ? (X / 2) : (3 * X + 1)")
    assert value_of(Interpreter().eval_expr(expr, env_with(X=6))) == 3


def test_collatz_step_odd():
    expr = parse_expression("(X % 2 == 0) ? (X / 2) : (3 * X + 1)")
    assert value_of(Interpreter().eval_expr(expr, env_with(X=7))) == 22


def test_multiplicative_identity():
    expr = parse_expression("1 * x")
    assert value_of(Interpreter().eval_expr(expr, env_with(x=7))) == 7


def test_typename_comparison():
    env = Env()
    env.declare("T", Slot(INT))
    interp = Interpreter()
    assert interp.eval_expr(parse_expression("T == int"), env) == BoolV(True)
    assert interp.eval_expr(parse_expression("T == float"), env) == \
        BoolV(False)


def test_factorial_block():
    program = parse(fixture_source("factorial_script.cat"))
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.find("Nfact").value == IntV(24)


def test_empty_iteration_space():
    program = parse("int@ hits = 0;\nfor@ (int@ i = 0; i < 0; ++i)\n"
                    "    hits += 1;")
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.find("hits").value == IntV(0)


def test_user_error_builtin():
    stmt = parse('function f() { Catat_error@("boom"); }') \
        .functions()[0].body.stmts[0]
    with pytest.raises(UserStaticError) as exc:
        Interpreter().exec_stmt(stmt, Env())
    assert exc.value.message == "boom"


def test_pow_at_compile_time():
    program, fns = fn_index(fixture_source("pow_flexible.cat"))
    assert value_of(call_static(fns["pow"], [IntV(2), IntV(3)], program)) == 8
    assert value_of(call_static(fns["pow"], [IntV(5), IntV(3)], program)) == \
        125


def test_collatz_base_case():
    program, fns = fn_index(fixture_source("collatz.cat"))
    assert value_of(call_static(fns["foo"], [IntV(1)], program)) == 0


def test_collatz_terminates_for_small_inputs():
    program, fns = fn_index(fixture_source("collatz.cat"))
    for x in range(1, 65):
        assert value_of(call_static(fns["foo"], [IntV(x)], program)) == 0


def test_average_type_cases():
    program, fns = fn_index(fixture_source("average.cat"))
    fn = fns["average_type"]
    assert call_static(fn, [INT], program) == FLOAT
    assert call_static(fn, [LONG_INT], program) == DOUBLE
    assert call_static(fn, [BOOL], program) == BOOL  # default branch


def test_average_type_total_on_unlisted_types():
    program, fns = fn_index(fixture_source("average.cat"))
    weird = PointerTV(INT)
    assert call_static(fns["average_type"], [weird], program) == weird


def test_assign_typename():
    program = parse("typename@ float_type = float;\n"
                    "typename@ U = float_type;")
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.find("float_type").value == FLOAT
    assert interp.globals.find("U").value == FLOAT
    with pytest.raises(TypeMismatch):
        Interpreter().run_top(parse("typename@ V = 5;"))


def test_typedef_style_declaration():
    program = parse("typename@ float_type = float;")
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.find("float_type").value == FLOAT


def test_truncating_division_and_modulo():
    cases = {"-7 / 2": -3, "7 / -2": -3, "-7 % 2": -1, "7 % -2": 1,
             "7 / 2": 3, "7 % 2": 1}
    for src, expected in cases.items():
        expr = parse_expression(src)
        assert value_of(Interpreter().eval_expr(expr, Env())) == expected


def test_mixed_arithmetic_promotes_to_float():
    v = Interpreter().eval_expr(parse_expression("3 / 2.0"), Env())
    assert value_of(v) == 1.5


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Interpreter().eval_expr(parse_expression("1 / 0"), Env())


def test_integer_overflow_is_loud():
    big = 2 ** 62
    env = env_with(a=big)
    with pytest.raises(IntegerOverflow):
        Interpreter().eval_expr(parse_expression("a * 4"), env)


def test_depth_limit_boundary():
    program, fns = fn_index(fixture_source("countdown.cat"))
    limits = EvalLimits(max_depth=32)
    # countdown(31) needs exactly 32 chained frames
    assert value_of(call_static(fns["countdown"], [IntV(31)], program,
                                limits)) == 0
    with pytest.raises(DepthExceeded):
        call_static(fns["countdown"], [IntV(32)], program, limits)


def test_runaway_recursion_hits_depth_limit():
    program, fns = fn_index(fixture_source("runaway.cat"))
    with pytest.raises(DepthExceeded):
        call_static(fns["runaway"], [IntV(0)], program,
                    EvalLimits(max_depth=64))


def test_loop_cap():
    program = parse("int@ i = 0;\nfor@ (;;)\n    i += 1;")
    interp = Interpreter(program, EvalLimits(loop_cap=1000))
    with pytest.raises(LoopLimitExceeded):
        interp.run_top(program)


def test_determinism():
    program, fns = fn_index(fixture_source("pow_flexible.cat"))
    first = call_static(fns["pow"], [IntV(3), IntV(4)], program)
    second = call_static(fns["pow"], [IntV(3), IntV(4)], program)
    assert first == second == IntV(81)


def test_loop_and_recursion_agree():
    source = fixture_source("pow_flexible.cat") + \
        fixture_source("ctime_pow.cat")
    # strip the scripts; keep the two definitions
    program = parse(source)
    fns = {f.name: f for f in program.functions()}
    for x in range(-8, 9):
        for npow in range(1, 11):
            a = call_static(fns["pow"], [IntV(x), IntV(npow)], program)
            b = call_static(fns["ctime_pow"], [IntV(x), IntV(npow)], program)
            assert a == b, (x, npow)


def test_short_circuit_logic():
    # the right operand would divide by zero; short-circuit avoids it
    interp = Interpreter()
    assert value_of(interp.eval_expr(parse_expression("false && 1 / 0 == 0"),
                                     Env())) is False
    assert value_of(interp.eval_expr(parse_expression("true || 1 / 0 == 0"),
                                     Env())) is True


def test_type_values_are_not_arithmetic():
    env = Env()
    env.declare("T", Slot(INT))
    with pytest.raises(TypeMismatch):
        Interpreter().eval_expr(parse_expression("T + 1"), env)


# -- the compile-time call memo ----------------------------------------------

def specialize_with_memo(source, static_args, limits=None, memo=True,
                         cache=None):
    """Specialize ``f``; ``memo=False`` switches the call memo off, which
    gives the results every memoized run must reproduce."""
    staged = check_stages(parse(source), 2)
    cache = cache or SpecializationCache(staged, limits)
    if not memo:
        cache.interp.memo = None
    return cache, emit(specialize_program(staged, "f", static_args,
                                          cache=cache))


def memo_agrees(source, static_args, limits=None):
    cache, text = specialize_with_memo(source, static_args, limits)
    assert text == specialize_with_memo(source, static_args, limits,
                                        memo=False)[1]
    return cache.interp.memo, text


@pytest.mark.parametrize("source, pure", [
    ("function h(int n) { return n + 1; }", True),
    ("function h(int n) { if (n > 0) return h(n - 1); return 0; }", True),
    ("function h(int n) { if (n < 0) Catat_error@(\"neg\"); return n; }",
     True),
    ("function h(typename T, T* a) { return a[0]; }", True),
    ("function h(int@ k)(int n) { return n; }", False),
    ("function h(int n) { int m = n; return m; }", False),
    ("function h(int n) { n = 2; return n; }", False),
    ("function h(int n) { ++n; return n; }", False),
    ("int@ g = 1;\nfunction h(int n) { return g + n; }", False),
    ("class C(int@ k) { int@ m = k; }\n"
     "function h(int n) { C@(n) c; return n; }", False),
    ("function h(int n) { return make_literal(n); }", False),
    ("function k(int@ a)(int b) { return a + b; }\n"
     "function h(int n) { return k(1)(n); }", False),
    ("int@ g = 1;\nfunction i(int n) { return g; }\n"
     "function h(int n) { return i(n); }", False),
    ("function h(int n) { return missing(n); }", False),
], ids=["arith", "recursive", "error", "typename", "two-list", "declares",
        "assigns", "increments", "global", "class", "builder", "specializing",
        "impure-callee", "unknown-callee"])
def test_purity(source, pure):
    program = parse(source)
    functions = {(f.name, f.static_arity): f for f in program.functions()}
    assert ("h" in {f.name for f in pure_functions(functions).values()}) \
        == pure


def test_memo_keys_an_array_by_its_stores():
    source = ("function first(int* a) { return a[0]; }\n"
              "function f(int@* a)(int d) {\n"
              "    int@ x = first@(a); a[0] = 5; int@ y = first@(a);\n"
              "    return d * 100 + x * 10 + y;\n}\n")
    _, text = specialize_with_memo(source, [ArrayV(INT, [IntV(1), IntV(2)])])
    assert "return d * 100 + 10 + 5;" in text


@pytest.mark.parametrize("body, folded", [
    ("return g + n;", "20 + 11"),
    ("g += 1; return g + n;", "30 + 12"),
], ids=["reads", "writes"])
def test_memo_skips_a_function_that_touches_a_global(body, folded):
    source = (f"int@ g = 1;\nfunction h(int n) {{ {body} }}\n"
              "function f(int@ k)(int d) {\n"
              "    int@ x = h@(k); g = 10; int@ y = h@(k);\n"
              "    return d * 100 + x * 10 + y;\n}\n")
    memo, text = memo_agrees(source, [IntV(1)])
    assert f"return d * 100 + {folded};" in text
    assert memo.hits == 0


def test_memo_tells_negative_zero_from_zero():
    source = ("function same(float x) { return x; }\n"
              "function f(float@ a, float@ b)(float d) {\n"
              "    float@ x = same@(a); float@ y = same@(b);\n"
              "    return x * d + y;\n}\n")
    _, text = specialize_with_memo(source, [FloatV(0.0), FloatV(-0.0)])
    assert "return 0.0 * d + -0.0;" in text


def test_memo_does_not_share_an_array_result():
    # the int array widens to a fresh float array on every call
    source = ("function widen(float* a) { return a; }\n"
              "function f(int@* a)(float d) {\n"
              "    float@* x = widen@(a); x[0] = 5.0;\n"
              "    float@* y = widen@(a); return d + y[0];\n}\n")
    memo, text = memo_agrees(source, [ArrayV(INT, [IntV(1), IntV(2)])])
    assert "return d + 1.0;" in text
    assert not memo.table


def test_memo_raises_a_static_error_again():
    source = ("function check(int n) {\n"
              "    if (n < 0) Catat_error@(\"negative\");\n"
              "    return n;\n}\n"
              "function f(int@ k, int@ j)(int d) {\n"
              "    int@ x = check@(k); return d + x + j;\n}\n")
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("f", 2)]
    for j in (0, 1):
        with pytest.raises(UserStaticError, match="negative") as info:
            specialize_function(fn, [IntV(-1), IntV(j)], cache)
        assert info.value.span == Span(2, 16)
    assert not cache.interp.memo.table


DOWN = ("function down(int n) { if (n == 0) return 0; return down(n - 1); }\n"
        "function g(int n) { return down(n); }\n"
        "function f(int@ k)(int d) {\n"
        "    int@ a = down@(k); int@ b = g@(k); return d + a + b;\n}\n")


def test_memo_hit_keeps_the_depth_limit():
    # the specialization of f is depth 1, down@(199) reaches 201 and g@(199)
    # 202, where down(199) is a memo hit
    with pytest.raises(DepthExceeded) as info:
        specialize_with_memo(DOWN, [IntV(199)], EvalLimits(max_depth=201))
    with pytest.raises(DepthExceeded) as unmemoized:
        specialize_with_memo(DOWN, [IntV(199)], EvalLimits(max_depth=201),
                             memo=False)
    assert info.value.span == unmemoized.value.span is not None
    memo, text = memo_agrees(DOWN, [IntV(199)], EvalLimits(max_depth=202))
    assert "return d + 0 + 0;" in text
    assert memo.hits == 1


def test_memo_hits_compiling_the_dsl_interpreter():
    staged = check_stages(parse(fixture_source("dsl_interp.cat")), 2)
    toks, count = encode_dsl("(in + 1) * 2 + in * in")
    cache = SpecializationCache(staged)
    specialize_program(staged, "dsl_program", [toks, count], cache=cache)
    memo = cache.interp.memo
    assert memo.hits > 0
    assert {f.name for f in memo.pure.values()} == {
        "factor_end", "term_end", "term_more", "expr_end", "expr_more"}


def test_run_never_consults_the_memo():
    program = parse("function h(int n) { return n + 1; }")
    assert Interpreter(program).memo is None
