"""The compiled tier against the walker.

The flatten route runs each generator compiled to Python (``pyemit``);
the walker is the reference.  Every comparison here runs the same input
twice, once with the generators compiled and once with ``compile_function``
replaced by a runner that walks the generator's body, and requires the
same residual text, the same instantiation record, the same class and span
for every residual node, the same types for each unit's names, the same
static state left behind, and on an error the same class, message and
span.

The translator is also checked on its own, over whole single-level
programs: every function compiled against every function walked.
"""

import contextlib
import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from catat import (
    CatatError, EvalLimits, FloatV, Interpreter, IntV, check_stages, emit,
    erase_stages, flatten_function, parse, run, run_unstaged,
)
from catat import flatten, nodes as n, pyemit, staticeval
from catat.cli import parse_arg_list
from catat.corpus import (
    dsl_interpreter_source, encode_dsl, provide_corpus, random_dsl_program,
)
from catat.errors import LiftError, UserStaticError
from catat.flatten import BUILDERS, SHAPES as BUILDER_SHAPES
from catat.specializer import (
    ResidualFunction, SpecializationCache, specialize_program,
)
from catat.values import ArrayV, CodeV, DOUBLE, INT

from conftest import fixture_source
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


def unit_trees(units):
    """Each residual function unit's name, the class and span of every node
    of its body, and its types."""
    return [(u.name, [(type(x).__name__, x.span)
                      for s in u.body for x in n.walk(s)], u.types)
            for u in units if isinstance(u, ResidualFunction)]


def flatten_outcome(source, entry, static_args, limits=None):
    """What the flatten route leaves: the residual and the record, or the
    error; the static globals; and the static arguments, which the
    generator may store into.  The residual and the record count to the
    span of each node and the type of each residual name."""
    static_args = copy.deepcopy(static_args)
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged, limits)
    try:
        rp = specialize_program(staged, entry, static_args, cache=cache,
                                via_flatten=True)
        result = (emit(rp), [(u.name, u.comment) for u in cache.order],
                  unit_trees(rp.units), unit_trees(cache.order))
    except CatatError as error:
        result = (type(error), error.message, error.span)
    return result, cache.globals.bindings(), static_args, cache


def global_trees(cache):
    """The class and span of every node of each code value a static global
    holds."""
    return [(name, [(type(x).__name__, x.span) for x in n.walk(value.frag)])
            for name, value in cache.globals.bindings()
            if isinstance(value, CodeV) and isinstance(value.frag, n.Node)]


def assert_engines_agree(source, entry, static_args, limits=None):
    """Compiled and walked generators leave the same outcome, the compiled
    run walks no generator body, and the reference run walks every one.
    The sources nested past Python's limits (``PAST_LIMITS``) are the
    exception: Python refuses their generators' text, so those run walked
    in the compiled run too."""
    with walked_blocks() as seen:
        *compiled, cache = flatten_outcome(source, entry, static_args,
                                           limits)
    for generator in cache.generators.values():
        assert id(generator) in cache.interp.compiled
        assert (id(generator.body) in seen) == \
            (source in PAST_LIMITS.values()), generator.name
    with walker_generators(), walked_blocks() as seen:
        *reference, reference_cache = flatten_outcome(source, entry,
                                                      static_args, limits)
    for generator in reference_cache.generators.values():
        assert id(generator.body) in seen, generator.name
    assert compiled == reference
    assert global_trees(cache) == global_trees(reference_cache)
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
SHAPE_IN_A_BRANCH = ("function f(int@ k)(int d) { if@ (k > 0) { ASTree@ t = "
                     "make_op(\"+\", make_varref(\"d\")); } return d; }")
BUILT = "function f(int@ k)(int d) {{ ASTree@ t = {}; return d; }}"
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
    # hand-written builder calls: a shape the text breaks fails when the
    # call runs, and a value the shape admits fails in the construction
    "a builder call of the wrong arity": (
        SHAPE_IN_A_BRANCH, [IntV(1)], None, "MalformedFragment"),
    "an unknown operator": (
        BUILT.format('make_op("**", make_varref("d"), make_literal(k))'),
        [IntV(1)], None, "MalformedFragment"),
    "an assignment to a literal": (
        BUILT.format('make_op("=", make_literal(1), make_varref("d"))'),
        [IntV(1)], None, "MalformedFragment"),
    "append to a non-block": (
        BUILT.format('append(make_varref("d"), make_return())'),
        [IntV(1)], None, "MalformedFragment"),
}


@pytest.mark.parametrize("case", ERRORS.values(), ids=ERRORS.keys())
def test_errors(case):
    source, static_args, limits, category = case
    result = assert_engines_agree(source, "f", static_args, limits)
    assert result[0].__name__ == category


SHAPES = {
    "a wrong arity in a branch that does not run": (
        SHAPE_IN_A_BRANCH, "B_make_op"),
    "an operator chosen when the generator runs": (
        BUILT.format('make_op(k > 0 ? "+" : "-", make_varref("d"), '
                     'make_literal(k))'), "B_make_op"),
    "a literal shape": (
        BUILT.format('make_op("-", make_varref("d"), make_literal(k))'),
        "Binary('-', "),
}


@pytest.mark.parametrize("case", SHAPES.values(), ids=SHAPES.keys())
def test_a_builder_call_is_checked_where_its_text_fixes_its_shape(case):
    source, call = case
    result = assert_engines_agree(source, "f", [IntV(0)])
    assert isinstance(result[0], str)
    fn = check_stages(parse(source), 2).program.functions()[0]
    text = pyemit.emit_python(flatten_function(fn))[0]
    assert call in text
    assert "B_make_" not in text.replace(call, "")


@pytest.mark.parametrize("fixture", entry_fixtures())
def test_the_flattener_writes_only_literal_shapes(fixture):
    # every builder call of every generator is a direct construction
    *_, cache = flatten_outcome(fixture.source(), fixture.first("entry"),
                                parse_arg_list(fixture.first("static-args")))
    assert cache.generators
    for generator in cache.generators.values():
        text = pyemit.emit_python(generator)[0]
        checked = [name for name in BUILDERS if f"B_{name}([" in text]
        assert not checked, generator.name


# Static ints and bools the compiled generator holds unboxed, where the
# walker's checks fail or a value leaves for the residual: each case on the
# direct route and on the flatten route with compiled and with walked
# generators.
UNBOXED = ("function f(int@ k)(int d) {{\n"
           "    int r = d;\n"
           "    for@ (int@ i = {start}; {cond}; ++i)\n"
           "        {body}\n"
           "    return r;\n}}\n")
UNBOXED_CASES = {
    "int overflow": (
        UNBOXED.format(start=9223372036854775806, cond="i > 0",
                       body="r += i;"), 1, None,
        "3:48: compile-time error: integer result out of 64-bit range"),
    "division by zero": (
        UNBOXED.format(start=0, cond="i < k", body="r += 7 / (i - 2);"), 3,
        None, "4:16: compile-time error: division by zero"),
    "an int and a float": (
        UNBOXED.format(start=0, cond="i < k", body="r += i * 0.5 - 3;"), 3,
        None, "    r += -2.0;\n"),
    "a negated int": (
        UNBOXED.format(start=0, cond="i < k", body="r += -i;"), 3, None,
        "    r += -2;\n"),
    "a static guard that is not a bool": (
        UNBOXED.format(start=0, cond="i < k", body="if@ (i) r += 1;"), 3,
        None, "4:9: compile-time error: condition must be a bool, got an int"),
    "a static switch label of another kind": (
        "function f(int@ k)(int d) {\n    switch@ (k) {\n"
        "        case 1: d += 1;\n        case int: d += 2;\n    }\n"
        "    return d;\n}\n", 3, None,
        "4:9: compile-time error: cannot compare an int with type value "
        "'int'"),
    "the loop cap": (
        UNBOXED.format(start=0, cond="i < k", body="r += i;"), 6,
        EvalLimits(loop_cap=5),
        "3:5: loop error: loop iteration cap (5) exceeded during unrolling"),
}


def route_outcome(source, static_args, limits, via_flatten):
    """The residual text of ``f``, or its error as the CLI renders it
    without a file name."""
    try:
        return emit(specialize_program(
            check_stages(parse(source), 2), "f", static_args, limits,
            via_flatten=via_flatten))
    except CatatError as error:
        return (f"{error.span.line}:{error.span.col}: {error.category}: "
                f"{error.message}", type(error))


@pytest.mark.parametrize("case", UNBOXED_CASES.values(),
                         ids=UNBOXED_CASES.keys())
def test_unboxed_scalars_on_both_routes_and_engines(case):
    source, k, limits, expected = case
    direct = route_outcome(source, [IntV(k)], limits, False)
    compiled = route_outcome(source, [IntV(k)], limits, True)
    with walker_generators():
        walked = route_outcome(source, [IntV(k)], limits, True)
    assert direct == compiled == walked
    if isinstance(direct, str):
        assert expected in direct
    else:
        assert direct[0] == expected
    assert_engines_agree(source, "f", [IntV(k)], limits)


# Static values whose literal in the residual is not the plain spelling of
# their Python value: an infinity (a float too large for a double), negative
# zero (a minus applied to 0.0) and the least int (a difference, as C writes
# it).  A NaN has no literal.
CUBE = "function f(float@ k)(float d) { float@ z = k * k * k; return d * z; }"
ZERO = "function f(float@ k)(float d) { float@ z = k * 0.0; return d * z; }"
ADD = "function f(int@ k)(int d) { return d + k; }"
NAN = ("function f(float@ k)(float d) { float@ z = k * k - k * k; "
       "return d * z; }")


@pytest.mark.parametrize("source, static, dynamic, literal", [
    (CUBE, FloatV(1e200), FloatV(2.0), "d * 1e999;"),
    (CUBE, FloatV(-1e200), FloatV(2.0), "d * -1e999;"),
    (CUBE, FloatV(float("inf")), FloatV(2.0), "d * 1e999;"),
    (ZERO, FloatV(-1.0), FloatV(2.0), "d * -0.0;"),
    (ADD, IntV(-2 ** 63), IntV(5), "d + (-9223372036854775807 - 1);"),
], ids=["inf", "-inf", "inf-argument", "-0.0", "int64-min"])
def test_a_static_value_reads_back_on_both_routes(source, static, dynamic,
                                                  literal):
    expected = run_unstaged(parse(source), "f", [static, dynamic])
    texts = []
    for via_flatten in (False, True):
        rp = specialize_program(check_stages(parse(source), 2), "f",
                                [static], via_flatten=via_flatten)
        text = emit(rp)
        assert literal in text
        assert parse(text) == rp.to_program_ast()
        check_stages(parse(text), 1)
        assert run(rp, rp.entry_name, [dynamic]).value == expected.value
        texts.append(text)
    assert texts[0] == texts[1]
    assert_engines_agree(source, "f", [static])


def test_a_nan_static_float_is_a_lift_error_on_both_routes_and_engines():
    direct = route_outcome(NAN, [FloatV(1e200)], None, False)
    compiled = route_outcome(NAN, [FloatV(1e200)], None, True)
    with walker_generators():
        walked = route_outcome(NAN, [FloatV(1e200)], None, True)
    assert direct == compiled == walked == (
        "1:68: compile-time error: the float nan has no literal form in "
        "dynamic code", LiftError)
    assert_engines_agree(NAN, "f", [FloatV(1e200)])


# Each builder in static generator code: a call of it, and a builder call
# that takes that call's result as an argument ("{}").  A call is nested in
# that builder call, stored in a variable that the builder call then reads,
# and discarded as a statement.  make_ptr and make_arr make type values,
# which a typename variable holds; every other builder's result is stored
# in an ASTree variable.
BUILDER_USES = {
    "make_lambda": ('make_lambda("x", int, "y", float)', "body({})"),
    "body": ('body(make_lambda("x", int))', "append({}, make_return())"),
    "append": ("append(make_block(), make_return())", "make_block({})"),
    "make_varref": ('make_varref("d")', "make_return({})"),
    "make_literal": ("make_literal(k)", "make_return({})"),
    "make_vardecl": ('make_vardecl(int, "v", k)', "make_varref({})"),
    "make_op": ('make_op("=", make_varref("d"), '
                'make_op("*", make_varref("d"), k))', "make_block({})"),
    "make_unary": ('make_unary("-", make_varref("d"))', "make_return({})"),
    "make_incr": ('make_incr("++", make_varref("d"))', "make_block({})"),
    "make_return": ('make_return(make_varref("d"))', "make_block({})"),
    "make_subscript": ('make_subscript(make_varref("a"), k)',
                       "make_return({})"),
    "make_for": ('make_for(make_block(), make_op("<", make_varref("d"), k), '
                 'make_incr("++", make_varref("d")), make_block())',
                 "make_block({})"),
    "make_if": ('make_if(make_op(">", make_varref("d"), k), make_return(k), '
                'make_return(make_varref("d")))', "make_block({})"),
    "make_cond": ('make_cond(make_op(">", make_varref("d"), k), '
                  'make_varref("d"), k)', "make_return({})"),
    "make_block": ('make_block(make_return(k), make_incr("--", '
                   'make_varref("d")))', "make_if(true, {})"),
    "make_call": ('make_call("g", 0, make_varref("d"))', "make_return({})"),
    "make_ptr": ("make_ptr(int)", 'make_vardecl({}, "p")'),
    "make_arr": ("make_arr(int, k)", 'make_vardecl({}, "p")'),
    "Catat_error": ('Catat_error("stop")', "make_return({})"),
}
BUILDER_CONTEXTS = {
    "nested": "kept = {host};",
    "stored": "{var}@ t = {call}; kept = {host_t};",
    "discarded": "{call};",
}
BUILDER_PROGRAM = ("ASTree@ kept = make_block();\n"
                   "function g(int x) {{ return x; }}\n"
                   "function f(int@ k)(int d) {{\n    {stmt}\n"
                   "    return d;\n}}\n")


@pytest.mark.parametrize("context", BUILDER_CONTEXTS)
@pytest.mark.parametrize("builder", BUILDER_SHAPES)
def test_every_builder_on_the_bare_path(builder, context):
    call, host = BUILDER_USES[builder]
    stmt = BUILDER_CONTEXTS[context].format(
        host=host.format(call), call=call, host_t=host.format("t"),
        var="typename" if builder in ("make_ptr", "make_arr") else "ASTree")
    source = BUILDER_PROGRAM.format(stmt=stmt)
    result = assert_engines_agree(source, "f", [IntV(2)])
    if builder == "Catat_error":
        assert result[:2] == (UserStaticError, "stop")
    else:
        assert isinstance(result[0], str)
    fn = check_stages(parse(source), 2).program.functions()[1]
    assert "B_" not in pyemit.emit_python(flatten_function(fn))[0]


def test_an_unrolled_iteration_boxes_no_fragment(monkeypatch):
    # the code values made while specializing dot via flatten do not grow
    # with the number of iterations the generator unrolls
    made = []
    init = CodeV.__init__

    def counting(self, frag):
        made.append(frag)
        init(self, frag)

    monkeypatch.setattr(CodeV, "__init__", counting)
    counts = []
    for size in (50, 500):
        del made[:]
        staged = check_stages(parse(fixture_source("dot.cat")), 2)
        specialize_program(staged, "dot", [IntV(size), DOUBLE],
                           via_flatten=True)
        counts.append(len(made))
    assert counts[0] == counts[1]


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


# -- the code table: each function translated once per process ----------------


@pytest.fixture
def translations(monkeypatch):
    """An empty code table, and the name of each function ``emit_python``
    translates meanwhile."""
    monkeypatch.setattr(pyemit, "_CODE", {})
    names = []
    emit_python = pyemit.emit_python

    def counting(fn):
        names.append(fn.name)
        return emit_python(fn)

    monkeypatch.setattr(pyemit, "emit_python", counting)
    return names


def test_two_parses_of_a_source_translate_its_generator_once(translations):
    source = fixture_source("dot.cat")
    texts = [flatten_outcome(source, "dot", [IntV(k), DOUBLE])[0][0]
             for k in (3, 3, 4)]
    assert len(translations) == 1
    assert texts[0] == texts[1] != texts[2]
    direct = specialize_program(check_stages(parse(source), 2), "dot",
                                [IntV(3), DOUBLE])
    assert texts[0] == emit(direct)


def with_float(source, value):
    """``source`` staged, its one float literal set to ``value``: the
    parser reads ``-0.0`` as a negation."""
    staged = check_stages(parse(source), 2)
    (lit,) = [x for x in n.walk(staged.program) if isinstance(x, n.FloatLit)]
    lit.value = value
    return staged


def test_a_negative_zero_is_its_own_entry(translations):
    source = "function f(int@ k)(double d) { double@ z = 0.0; return d + z; }"
    for value in (0.0, -0.0, 0.0, -0.0):
        texts = [emit(specialize_program(with_float(source, value), "f",
                                         [IntV(1)], via_flatten=via_flatten))
                 for via_flatten in (False, True)]
        assert texts[0] == texts[1]
        assert texts[0].endswith(f"return d + {value!r};\n}}\n")
    assert len(translations) == 2


def test_a_moved_function_reports_its_own_lines(translations):
    # the loop cap fails on the for@ line, in the table or not
    limits = EvalLimits(loop_cap=5)
    lines = []
    for source in (UNROLLED, "\n" + UNROLLED) * 2:
        result = flatten_outcome(source, "f", [IntV(6)], limits)[0]
        assert result[0].__name__ == "LoopLimitExceeded"
        lines.append(result[2][0])
    assert lines == [3, 4, 3, 4]
    assert len(translations) == 2


def test_the_table_keeps_at_most_its_bound(translations):
    count = pyemit._CODE_BOUND + 4
    program = erase_stages(parse("".join(
        f"function g{i}(int x) {{ return x + {i}; }}\n"
        for i in range(count))))
    functions = program.functions()
    for fn in functions:
        pyemit.compile_function(fn)
    assert len(translations) == count
    assert len(pyemit._CODE) == pyemit._CODE_BOUND
    pyemit.compile_function(functions[-1])
    assert len(translations) == count
    pyemit.compile_function(functions[0])  # dropped, so translated again
    assert len(translations) == count + 1


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


SHAPE_IN_A_RUN_BRANCH = (
    "function f(int x) { if (x > 0) { ASTree t = make_op(\"+\", "
    "make_varref(\"d\")); } return x; }")
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
    "a builder call of the wrong arity": (
        SHAPE_IN_A_RUN_BRANCH, [IntV(1)], None),
    "a builder call of the wrong arity that does not run": (
        SHAPE_IN_A_RUN_BRANCH, [IntV(-1)], -1),
    "an operator chosen at run time": (
        "function f(int x) { ASTree t = make_op(x > 0 ? \"+\" : \"-\", "
        "make_varref(\"a\"), make_literal(x)); return x; }", [IntV(2)], 2),
    "an unknown operator": (
        "function f(int x) { ASTree t = make_op(\"**\", make_varref(\"a\"), "
        "make_literal(x)); return x; }", [IntV(2)], None),
    "an assignment to a literal": (
        "function f(int x) { ASTree t = make_op(\"=\", make_literal(1), "
        "make_varref(\"a\")); return x; }", [IntV(2)], None),
    "append to a non-block": (
        "function f(int x) { ASTree t = append(make_varref(\"a\"), "
        "make_return()); return x; }", [IntV(2)], None),
    "a return from fourteen nested loops": (
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


def test_the_translator_knows_every_construction():
    # how each construction takes its arguments and what it makes
    constructions = {name for name in vars(flatten)
                     if name.startswith("_build_")}
    assert set(pyemit._MADE) | set(pyemit._ROLES) == constructions


def test_every_node_class_has_a_translation():
    assert pyemit._STMT.keys() == staticeval._STMT.keys()
    assert pyemit._EXPR.keys() == staticeval._EXPR.keys()


# -- nesting near and past Python's limits ------------------------------------


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


# Each generator's one flat Python function is refused by compile(): too
# many statically nested blocks, levels of indentation and nested
# parentheses, and at 100 levels (Python 3.11) a MemoryError, the parser's
# stack overflowing before the tokenizer counts 200 brackets.  These
# generators run walked.
PAST_LIMITS = {"loops": nested_loops(30), "ifs": nested_ifs(120),
               "expression": nested_expression(150),
               "parser stack": nested_expression(100)}


def direct_text(source, static_args):
    return emit(specialize_program(check_stages(parse(source), 2), "f",
                                   static_args))


@pytest.mark.parametrize("source", [nested_loops(19), nested_ifs(60),
                                    nested_expression(60)],
                         ids=["loops", "ifs", "expression"])
def test_deep_nesting_compiles(source):
    # just inside Python's limits: the generator still runs compiled
    # (assert_engines_agree: no generator body walked)
    result = assert_engines_agree(source, "f", [IntV(1)])
    assert result[0] == direct_text(source, [IntV(1)])


@pytest.mark.parametrize("source", PAST_LIMITS.values(),
                         ids=PAST_LIMITS.keys())
def test_nesting_past_pythons_limits_runs_walked(source, translations):
    # with the table empty, the runner that compile_function falls back to
    # walks this generator's own body, which assert_engines_agree checks
    result = assert_engines_agree(source, "f", [IntV(1)])
    assert result[0] == direct_text(source, [IntV(1)])
    assert translations == ["f_gen"]


def test_a_refused_generator_is_translated_once(translations):
    source = PAST_LIMITS["loops"]
    texts = [flatten_outcome(source, "f", [IntV(k)])[0][0]
             for k in (1, 1, 2)]
    assert translations == ["f_gen"]
    assert texts[0] == texts[1] != texts[2]
    assert texts[0] == direct_text(source, [IntV(1)])


def test_a_loop_cap_error_in_a_refused_generator(translations):
    # the innermost of 30 nested for@ loops runs past the loop cap
    source = nested_loops(29) \
        .replace("{ s += k;", "for@ (int@ j = 0; j < k; ++j) { s += k;")
    limits = EvalLimits(loop_cap=5)
    with walked_blocks() as seen:
        flattened, _, _, cache = flatten_outcome(source, "f", [IntV(6)],
                                                 limits)
    (generator,) = cache.generators.values()
    assert id(generator.body) in seen
    assert flattened[0].__name__ == "LoopLimitExceeded"
    with pytest.raises(CatatError) as direct:
        specialize_program(check_stages(parse(source), 2), "f", [IntV(6)],
                           limits)
    assert flattened == (type(direct.value), direct.value.message,
                         direct.value.span)
    assert flattened[1] == "loop iteration cap (5) exceeded during unrolling"
