"""The evaluator's contract: dispatch tables that cover every node class,
exact step accounting, the depth limit as the binding limit, and residuals
checked once before their first run."""

import re
import sys

import pytest

import catat.dyninterp
from catat import check_stages, nodes as n, parse, specialize_program
from catat import emitter, staging, staticeval
from catat.dyninterp import run
from catat.errors import (
    DepthExceeded, ParseError, StageError, StepLimitExceeded, TypeMismatch,
)
from catat.staticeval import EvalLimits, Interpreter, call_static
from catat.values import Env, FloatV, IntV

from conftest import fixture_source, staged_fixture

DEPTH_LIMIT_MESSAGE = re.escape("exceeded the depth limit (256)")


def concrete_subclasses(base):
    return {c for c in vars(n).values()
            if isinstance(c, type) and issubclass(c, base) and c is not base}


# -- dispatch tables ------------------------------------------------------


def test_every_expression_class_has_an_evaluator_and_a_check():
    exprs = concrete_subclasses(n.Expr)
    assert set(staticeval._EXPR) == exprs
    assert set(staging._EXPR_STAGE) == exprs
    assert set(emitter._EXPR) == exprs


def test_every_statement_class_has_an_executor_and_a_check():
    stmts = concrete_subclasses(n.Stmt)
    assert set(staticeval._STMT) == stmts
    assert set(staging._STMT_CHECK) == stmts
    assert set(emitter._STMT) == stmts


def test_node_class_without_a_handler_is_an_error():
    class Unknown(n.Expr):
        pass

    class Odd(n.Stmt):
        pass

    with pytest.raises(TypeMismatch, match="cannot evaluate Unknown"):
        Interpreter().eval_expr(Unknown(), Env())
    with pytest.raises(TypeMismatch, match="cannot execute Odd"):
        Interpreter().exec_stmt(Odd(), Env())


# -- steps ------------------------------------------------------------------


def test_exact_steps_of_countdown():
    program = parse(fixture_source("countdown.cat"))
    assert run(program, "countdown", [IntV(10)]).steps == 96


def test_exact_steps_of_the_pow_residual():
    rp = specialize_program(staged_fixture("pow_two_level.cat"), "pow",
                            [IntV(8)])
    result = run(rp, "pow__8", [FloatV(1.5)])
    assert result.value == FloatV(1.5 ** 8)
    assert result.steps == 20


# return (step 1), 1 + 2 (step 2), 1 (step 3), 2 (step 4)
ONE_PLUS_TWO = "function f() { return 1 + 2; }"


@pytest.mark.parametrize("limit, line, col", [
    (0, 1, 16),     # the return statement
    (3, 1, 27),     # the literal 2
])
def test_step_limit_exceeded_at_the_next_step(limit, line, col):
    program = parse(ONE_PLUS_TWO)
    with pytest.raises(StepLimitExceeded) as exc:
        run(program, "f", [], EvalLimits(step_limit=limit))
    assert exc.value.message == f"step limit ({limit}) exceeded"
    assert tuple(exc.value.span) == (line, col)


def test_step_limit_reached_exactly_is_not_exceeded():
    result = run(parse(ONE_PLUS_TWO), "f", [], EvalLimits(step_limit=4))
    assert result.value == IntV(3)
    assert result.steps == 4


# -- returns ----------------------------------------------------------------


def test_return_leaves_nested_loops_and_switches():
    program = parse("""
function first_over(int limit) {
    for (int i = 0; i < 10; ++i) {
        switch (i % 3) {
            case 0:
                if (i > limit)
                    return i;
            default:
                for (int j = 0; j < 2; ++j)
                    if (i + j > limit + 5)
                        return 100 + i;
        }
    }
    return -1;
}""")
    assert run(program, "first_over", [IntV(4)]).value == IntV(6)
    assert run(program, "first_over", [IntV(20)]).value == IntV(-1)


def test_return_in_a_constructor_ends_the_constructor():
    program = parse("""
class Box() {
public:
    Box() {
        v = 1;
        return;
        v = 2;
    }
    int v;
}
function f() {
    Box() b;
    return 7;
}""")
    interp = Interpreter(program)
    box = interp.instantiate_class(program.classes()[0], [])
    assert box.members == {"v": IntV(1)}
    assert run(program, "f").value == IntV(7)


def test_top_level_return_is_an_error():
    program = parse("int x = 1;\nreturn x;\n")
    # the checker rejects it; the interpreter's guard covers programs run
    # without the check
    with pytest.raises(ParseError, match="return outside a function"):
        run(program)
    with pytest.raises(TypeMismatch, match="return outside a function"):
        run(program, check=False)


# -- the depth limit binds before Python's stack -----------------------------


def countdown_script(statement):
    return parse(fixture_source("countdown.cat") + statement + "\n")


def test_run_phase_depth_boundary():
    program = parse(fixture_source("countdown.cat"))
    assert run(program, "countdown", [IntV(255)]).value == IntV(0)
    with pytest.raises(DepthExceeded, match=DEPTH_LIMIT_MESSAGE):
        run(program, "countdown", [IntV(256)])


def test_compile_time_depth_boundary():
    ok = specialize_program(check_stages(
        countdown_script("int@ r = countdown@(255);")))
    assert ok.static_bindings == [("r", IntV(0))]
    with pytest.raises(DepthExceeded, match=DEPTH_LIMIT_MESSAGE):
        specialize_program(check_stages(
            countdown_script("int@ r = countdown@(256);")))


def test_call_static_depth_boundary():
    program = parse(fixture_source("countdown.cat"))
    fn = program.functions()[0]
    assert call_static(fn, [IntV(255)], program) == IntV(0)
    with pytest.raises(DepthExceeded, match=DEPTH_LIMIT_MESSAGE):
        call_static(fn, [IntV(256)], program)


def test_recursion_limit_is_restored():
    before = sys.getrecursionlimit()
    program = parse(fixture_source("countdown.cat"))
    run(program, "countdown", [IntV(200)])
    with pytest.raises(DepthExceeded):
        run(program, "countdown", [IntV(300)])
    assert sys.getrecursionlimit() == before


def test_stack_exhaustion_beyond_the_cap_is_a_depth_error():
    program = parse(fixture_source("countdown.cat"))
    with pytest.raises(DepthExceeded, match="too deeply for the interpreter"):
        run(program, "countdown", [IntV(20_000)],
            EvalLimits(max_depth=30_000))


# -- each residual is checked once -------------------------------------------


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    check = catat.dyninterp.check_stages

    def counting(program, levels=2):
        calls.append(levels)
        return check(program, levels)

    monkeypatch.setattr(catat.dyninterp, "check_stages", counting)
    return calls


def test_residual_is_checked_before_its_first_run_only(check_calls):
    rp = specialize_program(staged_fixture("pow_two_level.cat"), "pow",
                            [IntV(3)])
    assert not rp.checked
    first = run(rp, "pow__3", [FloatV(2.0)])
    second = run(rp, "pow__3", [FloatV(3.0)])
    assert (first.value, second.value) == (FloatV(8.0), FloatV(27.0))
    assert check_calls == [1]
    assert rp.checked
    assert rp.to_program_ast() is rp.to_program_ast()


def test_unchecked_run_does_not_mark_the_residual(check_calls):
    rp = specialize_program(staged_fixture("pow_two_level.cat"), "pow",
                            [IntV(3)])
    run(rp, "pow__3", [FloatV(2.0)], check=False)
    assert check_calls == [] and not rp.checked
    run(rp, "pow__3", [FloatV(2.0)])
    assert check_calls == [1]


def test_plain_program_is_checked_on_every_run(check_calls):
    program = parse(fixture_source("countdown.cat"))
    run(program, "countdown", [IntV(3)])
    run(program, "countdown", [IntV(3)])
    assert check_calls == [1, 1]


def test_annotated_program_is_rejected_by_run():
    program = parse(fixture_source("pow_two_level.cat"))
    with pytest.raises(StageError):
        run(program, "pow", [IntV(3), FloatV(2.0)])
