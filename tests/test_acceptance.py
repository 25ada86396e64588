"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> ... PASS/FAIL`` line (visible
with ``pytest -s``); tolerances and time budgets are asserted inline.
"""

import functools
import random
import subprocess
import sys
import time

from catat import check_stages, emit, parse, specialize_program
from catat import nodes as n
from catat.cli import parse_arg_list
from catat.corpus import (
    corpus_path, dsl_interpreter_source, dsl_reference_eval, encode_dsl,
    random_dsl_program,
)
from catat.dyninterp import run, run_unstaged
from catat.errors import UserStaticError
from catat.specializer import (
    SpecializationCache, alpha_equivalent, specialize_class,
    specialize_function,
)
from catat.staticeval import call_static, value_of
from catat.values import (
    ArrayV, DOUBLE, FLOAT, FloatV, INT, IntV, LONG_INT, PointerTV,
)

CLI = [sys.executable, "-m", "catat.cli"]


def criterion(number, title, budget_seconds=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} {title}: FAIL")
                raise
            elapsed = time.monotonic() - started
            if budget_seconds is not None:
                assert elapsed < budget_seconds, \
                    f"criterion {number} took {elapsed:.2f}s " \
                    f"(budget {budget_seconds}s)"
            print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.2f}s)")
        return wrapper
    return decorate


def staged_fixture(name):
    return check_stages(parse(corpus_path(name).read_text(encoding="utf-8")),
                        2)


def catat_cli(*args):
    return subprocess.run(CLI + [str(a) for a in args], capture_output=True,
                          text=True)


@criterion(1, "residual-shape goldens", budget_seconds=1.0)
def test_criterion_01_residual_shape():
    staged = staged_fixture("pow_two_level.cat")
    rp3 = specialize_program(staged, "pow", [IntV(3)])
    body = rp3.function("pow__3").body
    assert [type(s).__name__ for s in body] == \
        ["VarDecl", "Assign", "Assign", "Assign", "Return"]
    assert all(s.op == "*=" for s in body[1:4])
    golden3 = corpus_path("golden/pow_3.cat").read_text(encoding="utf-8")
    assert emit(rp3) == golden3
    assert emit(rp3) == emit(rp3)  # byte-stable

    rp0 = specialize_program(staged, "pow", [IntV(0)])
    body0 = rp0.function("pow__0").body
    assert [type(s).__name__ for s in body0] == ["VarDecl", "Return"]
    golden0 = corpus_path("golden/pow_0.cat").read_text(encoding="utf-8")
    assert emit(rp0) == golden0


@criterion(2, "mix equation suite", budget_seconds=10.0)
def test_criterion_02_mix_equation():
    rng = random.Random(814)

    def agree(specialized_result, unstaged_result):
        a, b = specialized_result.value, unstaged_result.value
        if isinstance(a, IntV):
            assert a == b
            return
        assert isinstance(a, FloatV) and isinstance(b, FloatV)
        if b.value == 0.0:
            assert a.value == b.value
        else:
            assert abs(a.value - b.value) <= 1e-12 * abs(b.value)

    pow_program = parse(corpus_path("pow_two_level.cat")
                        .read_text(encoding="utf-8"))
    staged = check_stages(pow_program, 2)
    for npow in range(0, 9):
        rp = specialize_program(staged, "pow", [IntV(npow)])
        for x in range(-5, 6):
            agree(run(rp, rp.entry_name, [FloatV(float(x))]),
                  run_unstaged(pow_program, "pow",
                               [IntV(npow), FloatV(float(x))]))

    dot_program = parse(corpus_path("dot.cat").read_text(encoding="utf-8"))
    dot_staged = check_stages(dot_program, 2)
    for length in range(1, 7):
        rp = specialize_program(dot_staged, "dot", [IntV(length), FLOAT])
        for _ in range(20):
            a = ArrayV(FLOAT, [FloatV(rng.uniform(-10, 10))
                               for _ in range(length)])
            b = ArrayV(FLOAT, [FloatV(rng.uniform(-10, 10))
                               for _ in range(length)])
            agree(run(rp, rp.entry_name, [a, b]),
                  run_unstaged(dot_program, "dot",
                               [IntV(length), FLOAT, a, b]))

    avg_program = parse(corpus_path("average.cat")
                        .read_text(encoding="utf-8"))
    avg_staged = check_stages(avg_program, 2)
    for elem in (INT, FLOAT):
        rp = specialize_program(avg_staged, "average", [elem])
        for _ in range(20):
            length = rng.randint(1, 16)
            if elem == INT:
                arr = ArrayV(INT, [IntV(rng.randint(-100, 100))
                                   for _ in range(length)])
            else:
                arr = ArrayV(FLOAT, [FloatV(rng.uniform(-100, 100))
                                     for _ in range(length)])
            agree(run(rp, rp.entry_name, [arr, IntV(length)]),
                  run_unstaged(avg_program, "average",
                               [elem, arr, IntV(length)]))

    # a call whose typename statics are inferred, on both routes
    g_source = corpus_path("average.cat").read_text(encoding="utf-8") + (
        "function g(int@ k)(int* a, int n) { return average(a, n) + k; }\n")
    g_program = parse(g_source)
    for via_flatten in (False, True):
        rp = specialize_program(check_stages(parse(g_source), 2), "g",
                                [IntV(2)], via_flatten=via_flatten)
        for _ in range(10):
            length = rng.randint(1, 16)
            arr = ArrayV(INT, [IntV(rng.randint(-100, 100))
                               for _ in range(length)])
            agree(run(rp, rp.entry_name, [arr, IntV(length)]),
                  run_unstaged(g_program, "g", [IntV(2), arr, IntV(length)]))


@criterion(3, "compile-time computation values")
def test_criterion_03_compile_time_values():
    flexible = parse(corpus_path("pow_flexible.cat")
                     .read_text(encoding="utf-8"))
    pow_fn = flexible.functions()[0]
    assert call_static(pow_fn, [IntV(5), IntV(3)], flexible) == IntV(125)
    assert call_static(pow_fn, [IntV(2), IntV(3)], flexible) == IntV(8)

    collatz = parse(corpus_path("collatz.cat").read_text(encoding="utf-8"))
    foo = collatz.functions()[0]
    for x in range(1, 65):
        assert call_static(foo, [IntV(x)], collatz) == IntV(0)

    average = parse(corpus_path("average.cat").read_text(encoding="utf-8"))
    avg_type = average.functions()[0]
    assert call_static(avg_type, [INT], average) == FLOAT
    assert call_static(avg_type, [LONG_INT], average) == DOUBLE


@criterion(4, "class specialization")
def test_criterion_04_class_specialization():
    staged = staged_fixture("square_array.cat")
    cls = staged.classes_by_name()["SquareArray"]

    rc = specialize_class(cls, [FLOAT, IntV(4), IntV(2)],
                          SpecializationCache(staged))
    assert rc.static_members["numElements"] == IntV(16)
    assert rc.members[0][2].size == 16

    rc = specialize_class(cls, [FLOAT, IntV(4), IntV(3)],
                          SpecializationCache(staged))
    assert rc.static_members["numElements"] == IntV(64)

    try:
        specialize_class(cls, [FLOAT, IntV(0), IntV(2)],
                         SpecializationCache(staged))
        raise AssertionError("expected a compile-time error")
    except UserStaticError as e:
        assert e.message == "N_dim and N_length must be positive."

    result = catat_cli("specialize", corpus_path("square_array.cat"),
                       "--entry", "SquareArray", "--static-args",
                       "float,0,2")
    assert result.returncode == 3
    assert "N_dim and N_length must be positive." in result.stderr


@criterion(5, "flattening coherence")
def test_criterion_05_flattening_coherence():
    pow_staged = staged_fixture("pow_two_level.cat")
    pow_fn = pow_staged.functions_by_key()[("pow", 1)]
    for npow in range(0, 9):
        direct = specialize_function(pow_fn, [IntV(npow)],
                                     SpecializationCache(pow_staged))
        flattened = specialize_function(pow_fn, [IntV(npow)],
                                        SpecializationCache(pow_staged),
                                        via_flatten=True)
        assert alpha_equivalent(direct, flattened), npow

    dot_staged = staged_fixture("dot.cat")
    dot_fn = dot_staged.functions_by_key()[("dot", 2)]
    for length in range(1, 7):
        direct = specialize_function(dot_fn, [IntV(length), FLOAT],
                                     SpecializationCache(dot_staged))
        flattened = specialize_function(dot_fn, [IntV(length), FLOAT],
                                        SpecializationCache(dot_staged),
                                        via_flatten=True)
        assert alpha_equivalent(direct, flattened), length

    dumped = catat_cli("flatten", corpus_path("pow_two_level.cat"),
                       "--entry", "pow")
    assert dumped.returncode == 0
    lines = dumped.stdout.splitlines()
    loop_line = next(i for i, line in enumerate(lines)
                     if line.strip().startswith("for ("))
    assert 'make_op("*=", result, x)' in lines[loop_line + 1]


@criterion(6, "interpreter specialization", budget_seconds=30.0)
def test_criterion_06_futamura_projection():
    staged = check_stages(parse(dsl_interpreter_source()), 2)
    rng = random.Random(20260810)
    for _ in range(50):
        text = random_dsl_program(rng, 4)
        toks, count = encode_dsl(text)
        rp = specialize_program(staged, "dsl_program", [toks, count])
        residual_text = emit(rp)
        assert "switch" not in residual_text
        assert "toks" not in residual_text
        for value in range(-10, 11):
            got = value_of(run(rp, rp.entry_name, [IntV(value)]).value)
            assert got == dsl_reference_eval(text, value), (text, value)


@criterion(7, "staging errors")
def test_criterion_07_staging_errors():
    result = catat_cli("check", corpus_path("flow_bad.cat"))
    assert result.returncode == 2
    assert "DynamicToStaticFlow" in result.stderr

    result = catat_cli("check", corpus_path("congruence_bad.cat"))
    assert result.returncode == 2
    assert "StaticMutationUnderDynamicControl" in result.stderr


@criterion(8, "depth guard")
def test_criterion_08_depth_guard():
    result = catat_cli("specialize", corpus_path("runaway.cat"),
                       "--max-depth", "32")
    assert result.returncode == 4
    assert "32" in result.stderr

    # the boundary is exact: a chain of 32 links fits, 33 does not
    countdown = parse(corpus_path("countdown.cat")
                      .read_text(encoding="utf-8"))
    fn = countdown.functions()[0]
    from catat.staticeval import EvalLimits
    assert call_static(fn, [IntV(31)], countdown,
                       EvalLimits(max_depth=32)) == IntV(0)
    try:
        call_static(fn, [IntV(32)], countdown, EvalLimits(max_depth=32))
        raise AssertionError("expected DepthExceeded")
    except Exception as e:
        assert type(e).__name__ == "DepthExceeded"


@criterion(9, "scripting mode")
def test_criterion_09_scripting(tmp_path_factory=None):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "residual.cat"
        result = catat_cli("specialize", corpus_path("factorial_script.cat"),
                           "--out", out)
        assert result.returncode == 0
        assert "Nfact = 24" in result.stdout
        assert not out.exists()

        result = catat_cli("run", corpus_path("ctime_pow.cat"))
        assert result.returncode == 0
        assert "z = 125" in result.stdout


@criterion(10, "step-count proxy")
def test_criterion_10_step_counts():
    program = parse(corpus_path("pow_two_level.cat")
                    .read_text(encoding="utf-8"))
    staged = check_stages(program, 2)
    for npow in range(2, 9):
        rp = specialize_program(staged, "pow", [IntV(npow)])
        fast = run(rp, rp.entry_name, [FloatV(3.0)])
        slow = run_unstaged(program, "pow", [IntV(npow), FloatV(3.0)])
        assert fast.value == slow.value
        assert fast.steps < slow.steps, npow
