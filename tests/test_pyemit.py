"""The compiled tier against the walker.

The flatten route runs each generator compiled to Python (``pyemit``);
the walker is the reference.  Every comparison here runs the same input
twice, once with the generators compiled and once with ``compile_function``
replaced by a runner that walks the generator's body, and requires the
same residual text, the same instantiation record, the same static state
left behind, and on an error the same class, message and span.

The translator is also checked on its own, over whole single-level
programs: every function compiled against every function walked.
"""

import contextlib
import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from catat import (
    CatatError, EvalLimits, Interpreter, IntV, check_stages, emit,
    erase_stages, flatten_function, parse,
)
from catat import pyemit, staticeval
from catat.cli import parse_arg_list
from catat.corpus import (
    dsl_interpreter_source, encode_dsl, provide_corpus, random_dsl_program,
)
from catat.specializer import SpecializationCache, specialize_program
from catat.values import ArrayV, INT

from test_compress import two_level_programs


def walked(generator):
    """A stand-in for ``compile_function``: the walker runs the body."""
    return lambda interp, env: interp.exec_block(generator.body, env)


@contextlib.contextmanager
def walker_generators():
    compile_function = pyemit.compile_function
    pyemit.compile_function = walked
    try:
        yield
    finally:
        pyemit.compile_function = compile_function


@contextlib.contextmanager
def walked_blocks():
    """The ids of the blocks the walker runs meanwhile."""
    seen = set()
    exec_block = Interpreter.exec_block

    def spy(self, block, env):
        seen.add(id(block))
        return exec_block(self, block, env)

    Interpreter.exec_block = spy
    try:
        yield seen
    finally:
        Interpreter.exec_block = exec_block


def flatten_outcome(source, entry, static_args, limits=None):
    """What the flatten route leaves: the residual and the record, or the
    error; the static globals; and the static arguments, which the
    generator may store into."""
    static_args = copy.deepcopy(static_args)
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged, limits)
    try:
        rp = specialize_program(staged, entry, static_args, cache=cache,
                                via_flatten=True)
        result = (emit(rp), [(u.name, u.comment) for u in cache.order])
    except CatatError as error:
        result = (type(error), error.message, error.span)
    return result, cache.globals.bindings(), static_args, cache


def assert_engines_agree(source, entry, static_args, limits=None):
    """Compiled and walked generators leave the same outcome, and the
    compiled run walks no generator body."""
    with walked_blocks() as seen:
        *compiled, cache = flatten_outcome(source, entry, static_args,
                                           limits)
    for generator in cache.generators.values():
        assert id(generator) in cache.interp.compiled
        assert id(generator.body) not in seen, generator.name
    with walker_generators():
        *reference, _ = flatten_outcome(source, entry, static_args, limits)
    assert compiled == reference
    return compiled[0]


# -- residuals ----------------------------------------------------------------


def entry_fixtures():
    for fixture in provide_corpus():
        if fixture.first("entry"):
            yield pytest.param(fixture, id=fixture.name)


@pytest.mark.parametrize("fixture", entry_fixtures())
def test_every_entry_fixture(fixture):
    result = assert_engines_agree(
        fixture.source(), fixture.first("entry"),
        parse_arg_list(fixture.first("static-args")))
    assert isinstance(result[0], str)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(two_level_programs(), st.integers(1, 3))
def test_generated_two_level_programs(source, k):
    assert_engines_agree(source, "f", [IntV(k)])


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_specialized_interpreters(seed):
    toks, count = encode_dsl(random_dsl_program(random.Random(seed), 4))
    assert_engines_agree(dsl_interpreter_source(), "dsl_program",
                         [toks, count])


def test_a_malformed_program_for_the_interpreter():
    toks, count = encode_dsl("1 +")
    result = assert_engines_agree(dsl_interpreter_source(), "dsl_program",
                                  [toks, count])
    assert result[0].__name__ == "UserStaticError"


# -- errors -------------------------------------------------------------------

UNROLLED = ("function f(int@ k)(int d) {\n"
            "    int r = d;\n"
            "    for@ (int@ i = 0; i < k; ++i) r += 1;\n"
            "    return r;\n}\n")
CHAIN = ("function f(int@ n)(int d) { if@ (n > 0) return f(n - 1)(d); "
         "return d; }")
STATIC_RECURSION = ("function r(int n) { if (n == 0) return 0; "
                    "return r(n - 1) + 1; }\n"
                    "function f(int@ k)(int d) { int@ z = r@(k); "
                    "return d + z; }")
ERRORS = {
    "loop cap": (UNROLLED, [IntV(6)], EvalLimits(loop_cap=5),
                 "LoopLimitExceeded"),
    "depth of the chain": (CHAIN, [IntV(5)], EvalLimits(max_depth=5),
                           "DepthExceeded"),
    "depth of a static call": (STATIC_RECURSION, [IntV(9)],
                               EvalLimits(max_depth=6), "DepthExceeded"),
    "a static array in dynamic code": (
        "function f(int@* a)(int d) { return d + a; }",
        [ArrayV(INT, [IntV(1)])], None, "LiftError"),
    "malformed fragment": (
        "function f(int@ k)(int d) { ASTree@ t = make_op(\"+\", "
        "make_varref(\"d\"), make_block()); return d; }", [IntV(1)], None,
        "MalformedFragment"),
    "out of bounds": ("function f(int@* a)(int x) { a[0] = 5; "
                      "return x + a[2]; }",
                      [ArrayV(INT, [IntV(7), IntV(8)])], None, "OutOfBounds"),
    "Catat_error@": ("function f(int@ k)(int d) { if@ (k > 2) "
                     "Catat_error@(\"too big\"); return d; }",
                     [IntV(3)], None, "UserStaticError"),
    "global store, then an error": (
        "int@ counter = 0;\nfunction f(int@ k)(int d) { counter += k; "
        "int@ z = 10 / (k - k); return d + z; }", [IntV(3)], None,
        "DivisionByZero"),
}


@pytest.mark.parametrize("case", ERRORS.values(), ids=ERRORS.keys())
def test_errors(case):
    source, static_args, limits, category = case
    result = assert_engines_agree(source, "f", static_args, limits)
    assert result[0].__name__ == category


def test_a_global_is_stored_once_before_an_error():
    source, static_args, _, _ = ERRORS["global store, then an error"]
    _, bindings, _, _ = flatten_outcome(source, "f", static_args)
    assert bindings == [("counter", IntV(3))]


def test_a_counting_interpreter_is_refused():
    staged = check_stages(parse(CHAIN), 2)
    cache = SpecializationCache(staged)
    cache.interp.count_steps = True
    with pytest.raises(TypeError, match="counts no steps"):
        specialize_program(staged, "f", [IntV(1)], cache=cache,
                           via_flatten=True)


def test_each_generator_is_compiled_once_per_cache():
    source = "function f(int@ k)(int d) { return d + k; }"
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged)
    for k in (1, 2, 3):
        specialize_program(staged, "f", [IntV(k)], cache=cache,
                           via_flatten=True)
    assert len(cache.generators) == 1
    assert len(cache.interp.compiled) == 1


# -- the translator on single-level programs ----------------------------------


def run_engines(source, entry, args, limits=None):
    """``entry`` on ``args`` with every function of ``source`` walked, then
    with every function compiled: its value or error, and the globals."""
    program = erase_stages(parse(source))
    outcomes = []
    for compiled in (False, True):
        interp = Interpreter(program, limits)
        if compiled:
            for fn in interp.functions.values():
                interp.compiled[id(fn)] = pyemit.compile_function(fn)
        try:
            interp.run_top(program)
            result = interp.call_by_name(entry, copy.deepcopy(args))
        except CatatError as error:
            result = (type(error), error.message, error.span)
        outcomes.append((result, interp.globals.bindings()))
    assert outcomes[0] == outcomes[1]
    return outcomes[1][0]


PROGRAMS = {
    "scopes and shadowing": (
        "int g = 4;\n"
        "function f(int x) { int y = x; { int x = 10; y += x; "
        "{ int y = 1; x += y; } y += x; } if (y > 0) int z = 3; "
        "for (int x = 0; x < 2; ++x) { int y = x; g += y; } "
        "return y + x + g; }", [IntV(2)], 30),
    "types held in locals": (
        "function f(typename T) { typename U = T; U a = 2; "
        "U b[3]; b[1] = a; U* p = b; p[2] += b[1] * 2; "
        "return p[2] + b[2]; }", [INT], 8),
    "a float declaration coerces an int": (
        "function f(int x) { float y = x; return y / 2; }", [IntV(3)], None),
    "a float store coerces an int": (
        "function f(int x) { float y = 1.0; y = x; return y / 2; }",
        [IntV(3)], None),
    "a step inside a compound assignment": (
        "function f(int x) { x += ++x; int y = x; y -= --y; "
        "return x * 100 + y; }", [IntV(1)], None),
    "switch with a default in the middle": (
        "function f(int x) { int r = 0; switch (x) { case 1: r = 10; "
        "default: r = 20; case 2: r = 30; } return r; }", [IntV(2)], 30),
    "switch falls to the default": (
        "function f(int x) { switch (x) { case 1: return 10; default: "
        "return 20; } }", [IntV(5)], 20),
    "switch on a type": (
        "function f(typename T) { switch (T) { case float: return 1; "
        "case int: return 2; } return 3; }", [INT], 2),
    "logic and choice": (
        "function f(int x) { bool a = x > 1 && x < 5; bool b = !a || "
        "x == 3; return a && b ? -x : x % 2; }", [IntV(3)], -3),
    "recursion and the memo": (
        "function fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }"
        "\nfunction f(int x) { return fib(x); }", [IntV(15)], 610),
    "a class-typed local": (
        "class P(int@ X) { public: P() { } private: int y = X; }\n"
        "function f(int x) { P(3) p; P(4) q = p; return x; }",
        [IntV(1)], 1),
    "division by zero": (
        "function f(int x) { int y = 1; return y / (x - x); }",
        [IntV(1)], None),
    "overflow": ("function f(int x) { int y = x; for (int i = 0; i < 70; "
                 "++i) y *= 2; return y; }", [IntV(3)], None),
    "a narrowing store": ("function f(float x) { int y = 1; y = x; "
                          "return y; }", [IntV(1)], None),
    "a condition that is not a bool": (
        "function f(int x) { if (x) return 1; return 2; }", [IntV(1)], None),
    "an index out of range": (
        "function f(int* a) { a[0] = 9; return a[3]; }",
        [ArrayV(INT, [IntV(1), IntV(2)])], None),
    "a global stored, then an error": (
        "int g = 0;\nfunction f(int x) { g += x; g = g / (x - x); "
        "return g; }", [IntV(1)], None),
    "Catat_error": ("function f(int x) { if (x > 0) Catat_error(\"no\"); "
                    "return x; }", [IntV(1)], None),
    "negating a bool": ("function f(bool b) { return -b; }",
                        [staticeval.TRUE], None),
    "a global stepped": ("int g = 5;\nfunction f(int x) { ++g; --g; ++g; "
                         "return x + g; }", [IntV(1)], 7),
    "a return from an outlined loop": (
        "function f(int x) { "
        + "".join(f"for (int i{j} = 0; i{j} < 1; ++i{j}) " for j in range(14))
        + "return x + i0 + 6; return 0; }", [IntV(1)], 7),
}


@pytest.mark.parametrize("case", PROGRAMS.values(), ids=PROGRAMS.keys())
def test_single_level_programs(case):
    source, args, expected = case
    result = run_engines(source, "f", args)
    if expected is not None:
        assert result == IntV(expected)


def test_the_loop_cap_and_the_depth_limit():
    loop = "function f(int x) { int y = 0; for (;;) y += 1; return y; }"
    result = run_engines(loop, "f", [IntV(1)], EvalLimits(loop_cap=7))
    assert result[1] == "loop iteration cap (7) exceeded"
    deep = "function f(int x) { return x == 0 ? 0 : f(x - 1) + 1; }"
    assert run_engines(deep, "f", [IntV(20)], EvalLimits(max_depth=30)) == \
        IntV(20)
    result = run_engines(deep, "f", [IntV(40)], EvalLimits(max_depth=30))
    assert result[0].__name__ == "DepthExceeded"


def test_the_dsl_interpreter_unstaged():
    for seed in range(5):
        text = random_dsl_program(random.Random(seed), 4)
        toks, count = encode_dsl(text)
        run_engines(dsl_interpreter_source(), "dsl_program",
                    [toks, count, IntV(3)])


def test_every_node_class_has_a_translation():
    assert pyemit._STMT.keys() == staticeval._STMT.keys()
    assert pyemit._EXPR.keys() == staticeval._EXPR.keys()


# -- nesting past Python's limits ---------------------------------------------


def nested_loops(depth):
    loops = "".join(f"for@ (int@ i{j} = 0; i{j} < 1; ++i{j}) "
                    for j in range(depth))
    return (f"function f(int@ k)(int d) {{ int@ s = 0; {loops}"
            "{ s += k; d += s; } return d; }")


def nested_ifs(depth):
    return ("function f(int@ k)(int d) { int@ s = 0; "
            + "if@ (k > 0) { int@ t = s; " * depth + "s = t + 1; d += s;"
            + " }" * depth + " return d + s; }")


def nested_expression(depth):
    return ("function f(int@ k)(int d) { int@ s = " + "(" * depth + "k"
            + " + 1)" * depth + "; int r = " + "(" * depth + "d"
            + " * k)" * depth + "; return r + s; }")


@pytest.mark.parametrize("source", [nested_loops(30), nested_ifs(60),
                                    nested_expression(150)],
                         ids=["loops", "ifs", "expression"])
def test_deep_nesting_compiles(source):
    result = assert_engines_agree(source, "f", [IntV(1)])
    assert isinstance(result[0], str)
    fn = check_stages(parse(source), 2).program.functions()[0]
    assert "def _c" in pyemit.emit_python(flatten_function(fn))[0]
