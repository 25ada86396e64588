import pytest

from catat import parse
from catat.errors import (
    DepthExceeded, DivisionByZero, IntegerOverflow, LoopLimitExceeded,
    TypeMismatch, UserStaticError,
)
from catat.parser import parse_expression
from catat.staticeval import EvalLimits, Interpreter, call_static, value_of
from catat.values import (
    BOOL, BoolV, Env, FLOAT, INT, IntV, LONG_INT, PointerTV, DOUBLE, Slot,
    TypeValue,
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
    assert interp.globals.lookup("Nfact").value == IntV(24)


def test_empty_iteration_space():
    program = parse("int@ hits = 0;\nfor@ (int@ i = 0; i < 0; ++i)\n"
                    "    hits += 1;")
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.lookup("hits").value == IntV(0)


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
    assert interp.globals.lookup("float_type").value == FLOAT
    assert interp.globals.lookup("U").value == FLOAT
    with pytest.raises(TypeMismatch):
        Interpreter().run_top(parse("typename@ V = 5;"))


def test_typedef_style_declaration():
    program = parse("typename@ float_type = float;")
    interp = Interpreter(program)
    interp.run_top(program)
    assert interp.globals.lookup("float_type").value == FLOAT


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
