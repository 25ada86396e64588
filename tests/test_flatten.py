import gc
import re
import weakref

import pytest

from catat import check_stages, emit, parse, run
from catat import nodes as n
from catat.emitter import emit_function, emit_stmt
from catat.errors import (
    FlattenUnsupported, MalformedFragment, SelfRecursiveSpecialization,
)
from catat.flatten import (
    BUILDERS, NameSupply, flatten_function, materialize,
)
from catat.staticeval import Interpreter
from catat.specializer import (
    ResidualFunction, SpecializationCache, SpecializationKey, Unit,
    alpha_equivalent, specialize_function, specialize_program,
)
from catat.values import (
    ArrayV, CodeV, FLOAT, FloatV, INT, IntV, PointerTV, StrV,
)

from conftest import (
    both_records, both_routes, fixture_source, record_program,
    staged_fixture,
)


def build(name, *args):
    return BUILDERS[name](list(args), None, Interpreter())


def frag_text(code):
    return emit_stmt(code.frag)


# -- builder suite -------------------------------------------------------------

def test_make_op_fragment():
    frag = build("make_op", StrV("*="), build("make_varref", StrV("y")),
                 build("make_varref", StrV("x")))
    assert frag_text(frag) == "y *= x;\n"


def test_make_vardecl_fragment():
    frag = build("make_vardecl", FLOAT, StrV("result"), IntV(1))
    assert frag_text(frag) == "float result = 1;\n"


def test_append_requires_a_block():
    not_block = build("make_varref", StrV("x"))
    stmt = build("make_return", build("make_varref", StrV("x")))
    with pytest.raises(MalformedFragment):
        build("append", not_block, stmt)


def test_append_preserves_order():
    shell = build("make_lambda", StrV("x"), FLOAT)
    block = build("body", shell)
    for i in range(3):
        decl = build("make_vardecl", INT, StrV(f"v{i}"), IntV(i))
        assert build("append", block, decl) is decl
    names = [f.declarators[0].name for f in shell.frag.body.stmts]
    assert names == ["v0", "v1", "v2"]


def test_make_varref_of_a_declaration_refers_to_its_name():
    decl = build("make_vardecl", INT, StrV("t"), IntV(1))
    assert build("make_varref", decl).frag == n.VarRef("t")


def test_make_vardecl_draws_from_the_interpreter_supply():
    interp = Interpreter()
    interp.unit = Unit(None, "", NameSupply({"t"}), interp.globals)
    decl = BUILDERS["make_vardecl"]([INT, StrV("t")], None, interp)
    assert decl.frag.declarators[0].name == "t_2"


def test_name_supply_draw_order():
    names = NameSupply()
    assert [names.draw("t") for _ in range(3)] == ["t", "t_2", "t_3"]


def test_name_supply_skips_seeded_kept_and_drawn_names():
    names = NameSupply({"t", "t_3"})
    assert names.keep("u") == "u"
    assert names.draw("t") == "t_2"
    assert names.draw("t") == "t_4"
    assert names.draw("u") == "u_2"
    # a drawn name is taken for a base that happens to spell it
    assert names.draw("t_2") == "t_2_2"


def test_make_literal_rejects_unliftable():
    from catat.errors import LiftError
    with pytest.raises(LiftError):
        build("make_literal", INT)


def test_make_lambda_validates_pairs():
    with pytest.raises(MalformedFragment):
        build("make_lambda", StrV("x"))


def test_builders_return_residual_nodes():
    x = build("make_varref", StrV("x"))
    assert build("make_op", StrV("+"), x, IntV(-2)).frag == \
        n.Binary("+", n.VarRef("x"), n.Unary("-", n.IntLit(2)))
    assert build("make_incr", StrV("++"), x).frag == n.Incr("++", n.VarRef("x"))
    # an expression becomes a statement where a statement is expected
    block = build("make_block", build("make_incr", StrV("++"), x),
                  build("make_call", StrV("g"), IntV(0), x))
    assert block.frag == n.Block([
        n.ExprStmt(n.Incr("++", n.VarRef("x"))),
        n.ExprStmt(n.Call("g", [n.VarRef("x")]))])


def test_specializing_call_without_a_cache_is_rejected_when_built():
    with pytest.raises(FlattenUnsupported,
                       match="nested specializing calls need a "
                             "specialization cache"):
        build("make_call", StrV("p"), IntV(1), IntV(2),
              build("make_varref", StrV("x")))


# -- build-time contract: a malformed fragment is reported by the builder
# -- that embeds it, with that call's span

GENERATOR = """function gen() {
    ASTree func = make_lambda("x", int);
    ASTree x = make_varref("x");
    %s;
    return func;
}
"""


@pytest.mark.parametrize("stmt, builder, error, message", [
    ('append(body(func), x)', "append", MalformedFragment,
     "VarRef is not a statement fragment"),
    ('append(body(func), 3)', "append", MalformedFragment,
     "append expects a statement fragment"),
    ('append(body(func), make_op("+", make_op("=", x, 1), 2))',
     'make_op("+"', MalformedFragment,
     "assignment '=' used in expression position"),
    ('append(body(func), make_op("=", make_literal(1), x))', "make_op",
     MalformedFragment, "invalid assignment target fragment"),
    ('append(body(func), func)', "append", MalformedFragment,
     "append expects a statement fragment"),
    ('append(body(func), make_if(body(func), make_return(x)))',
     "make_if", MalformedFragment, "Block is not an expression fragment"),
    ('append(body(func), make_return(make_call("p", 1, 2, x)))',
     "make_call", FlattenUnsupported, "need a specialization cache"),
], ids=["varref", "literal", "assignment-operand", "literal-target",
        "shell", "block-operand", "specializing-call"])
def test_malformed_fragments_carry_the_builder_span(stmt, builder, error,
                                                    message):
    interp = Interpreter(parse(GENERATOR % stmt))
    with pytest.raises(error, match=re.escape(message)) as exc:
        interp.call_by_name("gen", [])
    assert tuple(exc.value.span) == (4, 5 + stmt.index(builder))


# -- the flattening transform -----------------------------------------------------

def test_pow_generator_structure():
    staged = staged_fixture("pow_two_level.cat")
    fn = staged.functions_by_key()[("pow", 1)]
    gen = flatten_function(fn, 2)
    text = emit_function(gen)
    assert text.splitlines()[0] == "function pow_gen(int N) {"
    assert 'ASTree func = make_lambda("x", float);' in text
    # each dynamic declaration is bound to the varref of its drawn name
    assert 'ASTree result = make_varref(append(body(func), ' \
        'make_vardecl(float, "result", 1)));' in text
    # a static loop appending one "*=" per iteration
    lines = text.splitlines()
    loop_at = next(i for i, l in enumerate(lines) if "for (" in l)
    assert 'append(body(func), make_op("*=", result, x));' in lines[loop_at + 1]
    assert 'append(body(func), make_return(result));' in text
    assert text.rstrip().endswith("}")


def test_generator_is_single_level():
    staged = staged_fixture("pow_two_level.cat")
    gen = flatten_function(staged.functions_by_key()[("pow", 1)], 2)
    assert "@" not in emit_function(gen)
    check_stages(n.Program([gen]), levels=1)


def test_generator_for_dot_is_single_level():
    staged = staged_fixture("dot.cat")
    gen = flatten_function(staged.functions_by_key()[("dot", 2)], 2)
    check_stages(n.Program([gen]), levels=1)
    text = emit_function(gen)
    assert 'make_lambda("a", make_ptr(T), "b", make_ptr(T))' in text
    assert 'make_subscript' in text


def test_a_return_under_static_control_ends_the_generator():
    # the plain block is attached before it is filled, so the generator
    # can return inside it; the return in the dynamic if ends nothing
    source = ("function f(int@ k)(int d) { { if@ (k > 0) return d; } "
              "if (d > 0) { return k; } int@ z = 1 / (k - 3); "
              "return d + 1; }")
    staged = check_stages(parse(source), 2)
    text = emit_function(flatten_function(staged.functions_by_key()[
        ("f", 1)], 2))
    lines = [line.strip() for line in text.splitlines()]
    assert lines[4] == "ASTree blk = append(body(func), make_block());"
    assert lines[6:9] == ["if (k > 0) {", "append(blk, make_return(d));",
                          "return func;"]
    assert lines[14] == "append(blk_2, make_return(k));"
    assert lines[-5:-3] == ["append(body(func), make_return(make_op(\"+\", "
                            "d, 1)));", "return func;"]
    cache = SpecializationCache(staged)
    rf = specialize_function(staged.functions_by_key()[("f", 1)],
                             [IntV(3)], cache, via_flatten=True)
    assert emit_function(rf.to_function_def()) == \
        "int f__3(int d) {\n    {\n        return d;\n    }\n}\n"


def test_empty_body_generator_materializes_to_void():
    staged = check_stages(parse("function f(int@ N)(float x) { }"), 2)
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("f", 1)]
    rf = specialize_function(fn, [IntV(0)], cache, via_flatten=True)
    assert rf.body == []
    from catat.values import VOID
    assert rf.return_type == VOID


def test_materialize_rejects_non_shell():
    with pytest.raises(MalformedFragment):
        materialize(build("make_varref", StrV("x")))
    with pytest.raises(MalformedFragment):
        materialize(IntV(3))


# -- coherence with the direct specializer ------------------------------------------

def direct_and_flattened(name, entry, arity, static_args):
    staged = staged_fixture(name)
    fn = staged.functions_by_key()[(entry, arity)]
    direct = specialize_function(fn, static_args,
                                 SpecializationCache(staged))
    flattened = specialize_function(fn, static_args,
                                    SpecializationCache(staged),
                                    via_flatten=True)
    return direct, flattened


@pytest.mark.parametrize("npow", range(0, 9))
def test_pow_coherence(npow):
    direct, flattened = direct_and_flattened(
        "pow_two_level.cat", "pow", 1, [IntV(npow)])
    assert alpha_equivalent(direct, flattened)


@pytest.mark.parametrize("length", range(1, 7))
def test_dot_coherence(length):
    direct, flattened = direct_and_flattened(
        "dot.cat", "dot", 2, [IntV(length), FLOAT])
    assert alpha_equivalent(direct, flattened)


def test_average_coherence():
    direct, flattened = direct_and_flattened("average.cat", "average", 1,
                                             [INT])
    assert alpha_equivalent(direct, flattened)


def test_volume_cube_coherence_with_nested_call():
    staged = staged_fixture("volume_cube.cat")
    fn = staged.functions_by_key()[("volumeOfCube", 0)]
    direct = specialize_function(fn, [], SpecializationCache(staged))
    cache = SpecializationCache(staged)
    flattened = specialize_function(fn, [], cache, via_flatten=True)
    assert alpha_equivalent(direct, flattened)
    # the nested specialization happened through the fragment call
    assert any(u.name == "pow__3" for u in cache.order)


def test_function_reading_globals_flattens():
    source = """
        int@ G = 3;
        int H = 4;
        function addg(int@ k)(int x) {
            int y = x * G;
            y += H;
            return y + k;
        }
    """
    staged = check_stages(parse(source), 2)
    direct = specialize_program(staged, "addg", [IntV(2)])
    flattened = specialize_program(staged, "addg", [IntV(2)],
                                   via_flatten=True)
    assert alpha_equivalent(direct.function("addg__2"),
                            flattened.function("addg__2"))


def test_for_without_init_or_step_flattens():
    source = """
        function f(int@ k)(int x) {
            int i = 0;
            for (; i < x; ) i += k;
            return i;
        }
    """
    direct, flattened = both_routes(source, "f", [IntV(2)])
    assert emit(direct) == emit(flattened)
    assert "for (; i < x; )" in emit(flattened)


def test_for_without_a_condition_flattens():
    source = """
        function f(int@ k)(int x) {
            int i = 0;
            for (;;) { i += k; if (i > x) return i; }
        }
    """
    direct, flattened = both_routes(source, "f", [IntV(3)])
    assert alpha_equivalent(direct.function("f__3"),
                            flattened.function("f__3"))
    assert "for (; ; )" in emit(flattened)


def test_nested_blocks_flatten_to_blocks():
    # a source block stays a residual block, and the generator code of each
    # block has its own scope, so static locals of sibling blocks may share
    # a name
    source = """
        function f(int@ k)(int d) {
            int r = d;
            { int@ t = k; r += t; }
            { int@ t = 2 * k; r += t; }
            if (d > 0) { int@ t = 3; r += t; r *= t; }
            else { int@ t = 4; r -= t; r *= t; }
            return r;
        }
    """
    direct, flattened = both_routes(source, "f", [IntV(5)])
    assert emit(direct) == emit(flattened)
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))


def test_shadowing_a_renamed_local_matches_the_direct_route():
    # the top-level d is renamed apart from the parameter on both routes;
    # the nested ones keep their name, and each use finds its own d
    source = """
        function f(int@ k)(int d) {
            int d = d + 1;
            int r = 0;
            if (d > 0) { int d = 2; r += d; }
            for (int d = 0; d < 3; ++d) r += d * k;
            { int d = 10; r += d; }
            return r + d;
        }
    """
    direct, flattened = both_routes(source, "f", [IntV(5)])
    assert "return r + d_2;" in emit(flattened)
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))
    for rp in (direct, flattened):
        assert run(rp, "f__5", [IntV(7)]).value == IntV(35)


@pytest.mark.parametrize("body", [
    "if (d > 0) { int@ t = k; r += t; }",
    "if (d > 0) if@ (k > 0) r += 1;",
    "if (d > 0) { if (d > 1) r += k; }",
], ids=["static-local", "static-if", "nested-if"])
def test_one_statement_bodies_match_the_direct_route(body):
    # only a dynamic assignment, expression statement or return is left
    # unwrapped; any other body stays a block on both routes
    source = f"function f(int@ k)(int d) {{ int r = d; {body} return r; }}"
    direct, flattened = both_routes(source, "f", [IntV(5)])
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))


# -- nested calls resolve alike on both routes ------------------------------------

@pytest.mark.parametrize("source, entry, static_args, units", [
    ("function f(int@ k)(int x) {\n"
     "    if@ (k > 0) return f(k - 1)(x) + 1;\n"
     "    return x;\n}\n", "f", [IntV(3)], ["f__0", "f__1", "f__2", "f__3"]),
    ("int g(int x) { if (x > 0) return g(x - 1); return 0; }\n"
     "function f(int@ k)(int x) { return g(x) + g(x + k); }\n",
     "f", [IntV(1)], ["g", "f__1"]),
    ("function p(int@ k)(int x) { return x * k; }\n"
     "function f(int@ k)(int x) { return p(k)(x) + p(k + 1)(x); }\n",
     "f", [IntV(2)], ["p__2", "p__3", "f__2"]),
    ("int h(int x) { if (x > 0) return h(x - 1); return 1; }\n",
     "h", [], ["h"]),
    ("function p(int@ k)(int x) { return x * k; }\n"
     "function q(int@ k)(int x) { return x + k; }\n"
     "function f(int@ k)(int x) { return p(k)(q(k)(x)); }\n",
     "f", [IntV(2)], ["q__2", "p__2", "f__2"]),
    ("int g(int x) { return x + 1; }\n"
     "int h(int x) { return x * 2; }\n"
     "function f(int@ k)(int x) { return g(h(x + k)); }\n",
     "f", [IntV(1)], ["h", "g", "f__1"]),
], ids=["static-chain", "plain-recursive", "call-order", "recursive-entry",
        "nested-static-arguments", "nested-plain"])
def test_nested_calls_match_the_direct_route(source, entry, static_args,
                                             units):
    (direct, direct_order), (flattened, flattened_order) = both_records(
        source, entry, static_args, [IntV(3)])
    assert [u.name for u in direct_order] == units
    assert [u.name for u in flattened_order] == units
    assert emit(record_program(direct, direct_order)) == \
        emit(record_program(flattened, flattened_order))
    assert emit(direct) == emit(flattened)


@pytest.mark.parametrize("body, units", [
    ("if (p(k)(d) > 0) { d += q(k)(d); }", ["p__2", "q__2"]),
    ("if (p(k)(d) > 0) { d += q(k)(d); } else { d -= q(k + 1)(d); }",
     ["p__2", "q__2", "q__3"]),
    ("for (int i = 0; i < p(k)(d); ++i) { i += q(k)(1); }",
     ["p__2", "q__2"]),
    ("for (d = p(k)(d); d < 50; d += p(k + 1)(d)) { d += q(k)(d); }",
     ["p__2", "p__3", "q__2"]),
], ids=["if", "if-else", "for", "for-clauses"])
def test_a_condition_resolves_its_calls_before_the_body(body, units):
    # the instantiation record, not the residual, which unfolds p and q
    source = ("function p(int@ k)(int d) { return d - k; }\n"
              "function q(int@ k)(int d) { return d * k; }\n"
              f"function f(int@ k)(int d) {{ {body} return d; }}\n")
    for _, order in both_records(source, "f", [IntV(2)], [IntV(5)]):
        assert [u.name for u in order] == units + ["f__2"]


@pytest.mark.parametrize("body, units", [
    # a dynamic condition: the condition's call, then each arm's
    ("d = d > 2 ? p(k)(d) : d;", ["p__2"]),
    ("d = p(k)(d) > 2 ? q(k)(d) : q(k + 1)(d);", ["p__2", "q__2", "q__3"]),
    # a static condition selects one arm, and only its calls
    ("d = k > 1 ? q(k)(d) : p(k)(d);", ["q__2"]),
    ("d += k < 1 ? d : 7;", []),
], ids=["found", "calls-in-order", "static-condition", "static-arm"])
def test_a_dynamic_conditional_flattens(body, units):
    source = ("function p(int@ k)(int d) { return d - k; }\n"
              "function q(int@ k)(int d) { return d * k; }\n"
              f"function f(int@ k)(int d) {{ {body} return d; }}\n")
    records = both_records(source, "f", [IntV(2)], [IntV(5)])
    for _, order in records:
        assert [u.name for u in order] == units + ["f__2"]
    (direct, direct_order), (flattened, flattened_order) = records
    for a, b in zip(direct_order, flattened_order):
        assert alpha_equivalent(a, b), a.name
    assert emit(direct) == emit(flattened)


# -- residual locals capture no other variable --------------------------------

@pytest.mark.parametrize("source, entry, static_args, run_args", [
    # a declaration spliced out of a selected if@ under dynamic control
    ("function f(int@ k)(int d) { int r = d; if (d > 0) { if@ (k > 0) "
     "{ int r = 5; d += r; } d += r; } return d; }",
     "f", [IntV(1)], [IntV(7)]),
    # an unrolled declaration that shadows a parameter
    ("function f(int@ k)(int d) { int r = 0; for@ (int@ i = 0; i < 1; ++i) "
     "{ int d = 5; r += d; } return r + d; }",
     "f", [IntV(1)], [IntV(7)]),
    # a declaration of an unrolled body, once per iteration
    (fixture_source("unroll_locals.cat"), "windowed", [IntV(3)],
     [ArrayV(INT, [IntV(3), IntV(4), IntV(5)])]),
    # spliced declarations that shadow a dynamic global
    ("int H = 4; function f(int@ k)(int x) { if (x > 0) { if@ (k > 0) "
     "{ int H = 1; x += H; } x += H; } return x; }",
     "f", [IntV(1)], [IntV(7)]),
    ("int H = 4; function f(int@ k)(int x) { for@ (int@ i = 0; i < k; ++i) "
     "{ int H = 1; x += H; } return x + H; }",
     "f", [IntV(2)], [IntV(7)]),
], ids=["selected-branch", "unrolled-parameter", "windowed", "global-if",
        "global-for"])
def test_no_residual_local_captures_another_variable(source, entry,
                                                     static_args, run_args):
    direct, flattened = both_routes(source, entry, static_args,
                                    run_args=run_args)
    name = direct.entry_name
    assert alpha_equivalent(direct.function(name), flattened.function(name))


def test_self_recursive_specialization_fails_on_both_routes():
    source = "function f(int@ k)(int x) { return f(k)(x - 1); }\n"
    for via_flatten in (False, True):
        with pytest.raises(SelfRecursiveSpecialization):
            specialize_program(check_stages(parse(source), 2), "f",
                               [IntV(2)], via_flatten=via_flatten)


ROUTES = pytest.mark.parametrize("via_flatten", [False, True],
                                 ids=["direct", "flatten"])


@ROUTES
def test_unit_is_named_from_its_static_arguments_before_its_body(
        via_flatten):
    # the body stores into the static array; name and provenance both
    # describe the array the unit was met with
    source = "function f(int@** m)(int d) { m[0][1] = 5; return d + m[0][1]; }"
    m = ArrayV(PointerTV(INT), [ArrayV(INT, [IntV(1), IntV(2)])])
    rp = specialize_program(check_stages(parse(source), 2), "f", [m],
                            via_flatten=via_flatten)
    assert rp.comments == {"f__a1xa0037808": "specialized-from: f([[1, 2]])"}
    assert "// specialized-from: f([[1, 2]])\nint f__a1xa0037808(int d)" in \
        emit(rp)


@ROUTES
def test_no_unit_stays_reserved_after_a_store_into_a_static_argument(
        via_flatten):
    source = """
        function f(int@* a)(int d) { a[0] = a[0] + 5; return d + a[0]; }
        function h(int@* a, int@* b)(int d) {
            int x = f(a)(d); int y = f(b)(x); return y + b[0];
        }
    """
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged)
    pair = [ArrayV(INT, [IntV(1), IntV(2)]) for _ in range(2)]
    rp = specialize_program(staged, "h", pair, cache=cache,
                            via_flatten=via_flatten)
    assert rp.entry_name == "h__a2x1519555e_a2x1519555e"
    assert rp.comments["h__a2x1519555e_a2x1519555e"] == \
        "specialized-from: h([1, 2], [1, 2])"
    assert [type(e) for e in cache.entries.values()] == [ResidualFunction] * 2


def test_flatten_cache_is_freed_by_reference_counting():
    # the resolver is installed on the interpreter for the generator's run
    # only, so no cycle keeps a finished cache alive
    staged = staged_fixture("volume_cube.cat")
    fn = staged.functions_by_key()[("volumeOfCube", 0)]
    gc.collect()
    gc.disable()
    try:
        cache = SpecializationCache(staged)
        residual = specialize_function(fn, [], cache, via_flatten=True)
        assert [u.name for u in cache.order] == ["pow__3", "volumeOfCube"]
        freed = weakref.ref(cache)
        del cache, residual
        assert freed() is None
    finally:
        gc.enable()


def test_flattening_is_two_level_only():
    staged = staged_fixture("pow_two_level.cat", levels=3)
    with pytest.raises(FlattenUnsupported):
        flatten_function(staged.functions_by_key()[("pow", 1)], 3)


def test_flatten_path_is_memoized():
    staged = staged_fixture("pow_two_level.cat")
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("pow", 1)]
    first = specialize_function(fn, [IntV(3)], cache, via_flatten=True)
    second = specialize_function(fn, [IntV(3)], cache, via_flatten=True)
    assert first is second


def test_alpha_equivalence_is_name_insensitive_but_structure_sensitive():
    key_args = []
    from catat.specializer import SpecializationKey
    key = SpecializationKey.for_function("f", key_args)
    from catat.specializer import ResidualFunction
    a = ResidualFunction("f", INT, [("x", INT)],
                         [n.Return(n.VarRef("x"))], key)
    b = ResidualFunction("f", INT, [("y", INT)],
                         [n.Return(n.VarRef("y"))], key)
    c = ResidualFunction("f", INT, [("y", INT)],
                         [n.Return(n.IntLit(0))], key)
    assert alpha_equivalent(a, b)
    assert not alpha_equivalent(a, c)


def residual(body, params=(("x", INT),), name="f", return_type=INT):
    stmts = parse("function f() {" + body + "}").functions()[0].body.stmts
    return ResidualFunction(name, return_type, list(params), stmts,
                            SpecializationKey.for_function("f", []))


@pytest.mark.parametrize("left, right, fields_b", [
    ("return x + 1;", "return x - 1;", {}),
    ("return x + 1;", "return x + 2;", {}),
    # u pairs with y, then with z
    ("int u = 0; int w = 0; return u + u;",
     "int y = 0; int z = 0; return y + z;", {}),
    # the bound parameter x against a free x
    ("return x;", "return x;", {"params": (("y", INT),)}),
    ("float a[3]; return x;", "int a[3]; return x;", {}),
    ("for (int i = 0; i < x; ++i) x += 1; return x;",
     "for (int i = 0; i < x;) x += 1; return x;", {}),
    ("return x;", "return x;", {"name": "g"}),
    ("return x;", "return x;", {"return_type": FLOAT}),
    ("return x;", "return x;", {"params": (("x", INT), ("y", INT))}),
    ("return x;", "return x;", {"params": (("x", FLOAT),)}),
    # w would pair with the y that u already pairs with
    ("int u = 0; int w = 0; return u;",
     "int y = 0; int y = 0; return y;", {}),
], ids=["operator", "literal", "inconsistent-renaming", "bound-vs-free",
        "element-type", "for-incr", "name", "return-type", "param-count",
        "param-type", "declarator-rebinds"])
def test_alpha_equivalence_rejects(left, right, fields_b):
    a = residual(left)
    b = residual(right, **fields_b)
    assert alpha_equivalent(a, b) is False
    assert alpha_equivalent(a, residual(left))


def test_alpha_equivalence_compares_statement_annotations():
    loop = "for (int i = 0; i < x; ++i) x += 1; return x;"
    assert not alpha_equivalent(residual(loop), residual("for@" + loop[3:]))
