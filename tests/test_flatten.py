import pytest

from catat import check_stages, parse
from catat import nodes as n
from catat.emitter import emit_function, emit_stmt
from catat.errors import FlattenUnsupported, MalformedFragment
from catat.flatten import (
    BUILDERS, FragBlock, FragFunc, _frag_to_stmt, flatten_function,
    materialize, specialize_via_flatten,
)
from catat.specializer import (
    ResidualFunction, SpecializationCache, SpecializationKey,
    alpha_equivalent, specialize_function, specialize_program,
)
from catat.values import (
    CodeV, FLOAT, FloatV, INT, IntV, StrV, UNIT,
)

from conftest import fixture_source, staged_fixture


def build(name, *args):
    return BUILDERS[name](list(args), None)


def frag_text(code):
    return emit_stmt(_frag_to_stmt(code.frag, lambda cn, s: cn))


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
        assert build("append", block,
                     build("make_vardecl", INT, StrV(f"v{i}"),
                           IntV(i))) == UNIT
    names = [f.name for f in shell.frag.body.stmts]
    assert names == ["v0", "v1", "v2"]


def test_make_literal_rejects_unliftable():
    from catat.errors import LiftError
    with pytest.raises(LiftError):
        build("make_literal", INT)


def test_make_lambda_validates_pairs():
    with pytest.raises(MalformedFragment):
        build("make_lambda", StrV("x"))


# -- the flattening transform -----------------------------------------------------

def test_pow_generator_structure():
    staged = staged_fixture("pow_two_level.cat")
    fn = staged.functions_by_key()[("pow", 1)]
    gen = flatten_function(fn, 2)
    text = emit_function(gen)
    assert text.splitlines()[0] == "function pow_gen(int N) {"
    assert 'ASTree func = make_lambda("x", float);' in text
    assert 'append(body(func), make_vardecl(float, "result", 1));' in text
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


def test_empty_body_generator_materializes_to_void():
    staged = check_stages(parse("function f(int@ N)(float x) { }"), 2)
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("f", 1)]
    rf = specialize_via_flatten(fn, [IntV(0)], cache)
    assert rf.body == []
    from catat.values import VOID
    assert rf.return_type == VOID


def test_materialize_rejects_non_shell():
    with pytest.raises(MalformedFragment):
        materialize(build("make_varref", StrV("x")), "f", [])
    with pytest.raises(MalformedFragment):
        materialize(IntV(3), "f", [])


# -- coherence with the direct specializer ------------------------------------------

def direct_and_flattened(name, entry, arity, static_args):
    staged = staged_fixture(name)
    fn = staged.functions_by_key()[(entry, arity)]
    direct = specialize_function(fn, static_args,
                                 SpecializationCache(staged))
    flattened = specialize_via_flatten(fn, static_args,
                                       SpecializationCache(staged))
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
    flattened = specialize_via_flatten(fn, [], cache)
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


def test_flattening_is_two_level_only():
    staged = staged_fixture("pow_two_level.cat", levels=3)
    with pytest.raises(FlattenUnsupported):
        flatten_function(staged.functions_by_key()[("pow", 1)], 3)


def test_flatten_path_is_memoized():
    staged = staged_fixture("pow_two_level.cat")
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("pow", 1)]
    first = specialize_via_flatten(fn, [IntV(3)], cache)
    second = specialize_via_flatten(fn, [IntV(3)], cache)
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


def residual(body, params=(("x", INT),)):
    stmts = parse("function f() {" + body + "}").functions()[0].body.stmts
    return ResidualFunction("f", INT, list(params), stmts,
                            SpecializationKey.for_function("f", []))


@pytest.mark.parametrize("left, right, params_b", [
    ("return x + 1;", "return x - 1;", None),
    ("return x + 1;", "return x + 2;", None),
    # u pairs with y, then with z
    ("int u = 0; int w = 0; return u + u;",
     "int y = 0; int z = 0; return y + z;", None),
    # the bound parameter x against a free x
    ("return x;", "return x;", (("y", INT),)),
    ("float a[3]; return x;", "int a[3]; return x;", None),
    ("for (int i = 0; i < x; ++i) x += 1; return x;",
     "for (int i = 0; i < x;) x += 1; return x;", None),
], ids=["operator", "literal", "inconsistent-renaming", "bound-vs-free",
        "element-type", "for-incr"])
def test_alpha_equivalence_rejects(left, right, params_b):
    a = residual(left)
    b = residual(right, params_b or (("x", INT),))
    assert not alpha_equivalent(a, b)
    assert alpha_equivalent(a, residual(left))


def test_alpha_equivalence_compares_statement_annotations():
    loop = "for (int i = 0; i < x; ++i) x += 1; return x;"
    assert not alpha_equivalent(residual(loop), residual("for@" + loop[3:]))
