import pytest

from catat import check_stages, emit, parse, specialize_program
from catat.dyninterp import (
    erase_stages, format_binding, format_result, run, run_unstaged,
)
from catat.errors import OutOfBounds, StepLimitExceeded, TypeMismatch
from catat.staticeval import EvalLimits, value_of
from catat.values import ArrayV, FLOAT, FloatV, INT, IntV, UNIT

from conftest import fixture_source, staged_fixture


def residual(name, entry, static_args):
    return specialize_program(staged_fixture(name), entry, static_args)


def float_array(values):
    return ArrayV(FLOAT, [FloatV(float(v)) for v in values])


def int_array(values):
    return ArrayV(INT, [IntV(v) for v in values])


def test_run_residual_pow_three():
    rp = residual("pow_two_level.cat", "pow", [IntV(3)])
    result = run(rp, "pow__3", [FloatV(2.0)])
    assert result.value == FloatV(8.0)
    assert result.steps > 0


def test_run_erased_flexible_pow():
    program = parse(fixture_source("pow_flexible.cat"))
    result = run_unstaged(program, "pow", [IntV(3), IntV(2)])
    assert result.value == IntV(9)


def test_run_residual_dot():
    rp = residual("dot.cat", "dot", [IntV(3), FLOAT])
    result = run(rp, "dot__3_float",
                 [float_array([1, 2, 3]), float_array([4, 5, 6])])
    assert value_of(result.value) == 32.0


def test_unstaged_pow_two_level():
    program = parse(fixture_source("pow_two_level.cat"))
    result = run_unstaged(program, "pow", [IntV(3), FloatV(2.0)])
    assert result.value == FloatV(8.0)


def test_unstaged_dot_zero_vector():
    program = parse(fixture_source("dot.cat"))
    zeros = float_array([0, 0, 0])
    result = run_unstaged(program, "dot", [IntV(3), FLOAT, zeros, zeros])
    assert value_of(result.value) == 0.0


def test_unstaged_average_promotes():
    program = parse(fixture_source("average.cat"))
    result = run_unstaged(program, "average",
                          [INT, int_array([1, 2, 3, 4]), IntV(4)])
    assert result.value == FloatV(2.5)


def test_unstaged_call_infers_its_typename_statics():
    # erasure merges average's lists, and the call that left T to be
    # inferred passes the element type of its array
    source = fixture_source("average.cat") + (
        "function g(int@ k)(int* a, int n) { return average(a, n) + k; }\n")
    result = run_unstaged(parse(source), "g",
                          [IntV(2), int_array([1, 2, 3, 4]), IntV(4)])
    assert result.value == FloatV(4.5)
    with pytest.raises(TypeMismatch, match="expects 3 argument"):
        run_unstaged(parse(source.replace("average(a, n)", "average(n)")),
                     "g", [IntV(2), int_array([1]), IntV(1)])


def test_erasure_merges_call_lists():
    erased = erase_stages(parse(fixture_source("volume_cube.cat")))
    assert "@" not in emit(erased)
    vol = [f for f in erased.functions() if f.name == "volumeOfCube"][0]
    call = vol.body.stmts[0].value
    assert call.static_args is None
    assert len(call.args) == 2  # pow(3, length)


def test_erased_program_checks_at_one_level():
    erased = erase_stages(parse(fixture_source("average.cat")))
    check_stages(erased, levels=1)


def test_out_of_bounds_subscript():
    rp = residual("dot.cat", "dot", [IntV(3), FLOAT])
    with pytest.raises(OutOfBounds):
        run(rp, "dot__3_float", [float_array([1, 2]), float_array([4, 5, 6])])


def test_step_limit():
    rp = residual("pow_two_level.cat", "pow", [IntV(8)])
    with pytest.raises(StepLimitExceeded):
        run(rp, "pow__8", [FloatV(2.0)], EvalLimits(step_limit=3))


@pytest.mark.parametrize("npow", range(2, 9))
def test_residual_runs_strictly_fewer_steps(npow):
    rp = residual("pow_two_level.cat", "pow", [IntV(npow)])
    fast = run(rp, f"pow__{npow}", [FloatV(1.5)])
    slow = run_unstaged(parse(fixture_source("pow_two_level.cat")), "pow",
                        [IntV(npow), FloatV(1.5)])
    assert fast.value == slow.value
    assert fast.steps < slow.steps


def test_globals_zero_initialized():
    program = parse("int x;\nint arr[3];")
    result = run(program)
    values = dict(result.bindings)
    assert values["x"] == IntV(0)
    assert values["arr"].cells == [IntV(0)] * 3


def test_residual_program_with_globals_runs():
    rp = residual("average_call.cat", None, [])
    result = run(rp)
    values = dict(result.bindings)
    assert values["result"] == FloatV(0.0)  # zero-initialized data array


def test_class_instantiation_at_runtime():
    rp = residual("vector_sum.cat", None, [])
    text = emit(rp)
    result = run(parse(text))
    values = dict(result.bindings)
    inst = values["x"]
    assert inst.class_name == "Vector__int_4"
    assert inst.members["data"].cells == [IntV(0)] * 4


def test_erased_class_instantiation():
    # plain interpretation of an erased class: the (formerly compile-time)
    # constructor sizes the member array before it is allocated
    src = fixture_source("square_array.cat") + "\nSquareArray(int, 3, 2) y;\n"
    erased = erase_stages(parse(src))
    result = run(erased, check=False)
    inst = dict(result.bindings)["y"]
    assert inst.members["numElements"] == IntV(9)
    assert len(inst.members["data"].cells) == 9


def test_format_result_stable_forms():
    assert format_result(IntV(32)) == "int 32"
    assert format_result(FloatV(8.0)) == "float 8.0"
    assert format_result(UNIT) == "void"
    assert format_binding("z", IntV(125)) == "z = 125"
