import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from catat import check_stages, emit, erase_stages, parse
from catat import nodes as n
from catat.errors import (
    DepthExceeded, LiftError, OutOfBounds, ReturnTypeMismatch,
    SelfRecursiveSpecialization, TypeMismatch, UnboundVariable,
    UserStaticError,
)
from catat.specializer import (
    ResidualFunction, SpecializationCache, SpecializationKey,
    alpha_equivalent, infer_return_type, lift, mangle, residual_type,
    specialize_class, specialize_function, specialize_program,
)
from catat import values
from catat.corpus import encode_dsl
from catat.dyninterp import run, run_unstaged
from catat.staticeval import EvalLimits
from catat.values import (
    ArrayV, BOOL, BoolV, DOUBLE, FLOAT, FixedArrayTV, FloatV, INT, INT64_MAX,
    INT64_MIN, InstanceV, IntV, LONG_INT, PointerTV, TYPENAME, TypeValue,
    VOID, canonical_key, mangle_name, render_static_arg, render_type,
)

from conftest import (
    both_records, fixture_source, specialize_with_record, staged_fixture,
)


def specialize_fixture(name, entry, static_args, **kw):
    staged = staged_fixture(name)
    return specialize_program(staged, entry, static_args, **kw)


def multiply_assigns(body):
    return [s for s in body if isinstance(s, n.Assign) and s.op == "*="]


# -- residual shapes ---------------------------------------------------------

def test_pow_three_residual_shape():
    rp = specialize_fixture("pow_two_level.cat", "pow", [IntV(3)])
    fn = rp.function("pow__3")
    kinds = [type(s).__name__ for s in fn.body]
    assert kinds == ["VarDecl", "Assign", "Assign", "Assign", "Return"]
    assert len(multiply_assigns(fn.body)) == 3
    assert "for" not in emit(rp)


def test_pow_zero_residual_shape():
    rp = specialize_fixture("pow_two_level.cat", "pow", [IntV(0)])
    fn = rp.function("pow__0")
    assert [type(s).__name__ for s in fn.body] == ["VarDecl", "Return"]


@pytest.mark.parametrize("npow", range(0, 9))
def test_unroll_count(npow):
    rp = specialize_fixture("pow_two_level.cat", "pow", [IntV(npow)])
    fn = rp.function(f"pow__{npow}")
    assert len(multiply_assigns(fn.body)) == npow


def test_dot_residual():
    rp = specialize_fixture("dot.cat", "dot", [IntV(3), FLOAT])
    fn = rp.function("dot__3_float")
    adds = [s for s in fn.body if isinstance(s, n.Assign) and s.op == "+="]
    assert len(adds) == 3
    indices = [s.value.lhs.index.value for s in adds]
    assert indices == [0, 1, 2]
    assert fn.params[0][1] == PointerTV(FLOAT)
    assert fn.return_type == FLOAT


def test_average_residual():
    rp = specialize_fixture("average.cat", "average", [INT])
    fn = rp.function("average__int")
    assert fn.return_type == FLOAT
    assert fn.params == [("array", PointerTV(INT)), ("N", INT)]
    first = fn.body[0]
    assert isinstance(first, n.VarDecl)
    assert first.dtype == n.PrimType("float")
    # the dynamic loop survives as a loop
    assert any(isinstance(s, n.For) for s in fn.body)


def test_branch_pruning():
    source = """
        function choose(int@ k)(int x) {
            if@ (k > 0)
                return x + 1;
            else@
                return x - 1;
        }
    """
    staged = check_stages(parse(source), 2)
    plus = specialize_program(staged, "choose", [IntV(1)])
    minus = specialize_program(staged, "choose", [IntV(-1)])
    plus_text = emit(plus)
    minus_text = emit(minus)
    assert "x + 1" in plus_text and "x - 1" not in plus_text
    assert "x - 1" in minus_text and "x + 1" not in minus_text


def test_static_switch_selects_one_case():
    source = """
        function pick(int@ k)(int x) {
            switch@ (k) {
                case 1: return x + 1;
                case 2: return x + 2;
                default: return x;
            }
        }
    """
    staged = check_stages(parse(source), 2)
    rp = specialize_program(staged, "pick", [IntV(2)])
    text = emit(rp)
    assert "x + 2" in text and "switch" not in text and "x + 1" not in text


def test_unrolled_locals_are_renamed():
    rp = specialize_fixture("unroll_locals.cat", "windowed", [IntV(2)])
    fn = rp.function("windowed__2")
    decls = [d.name for s in fn.body if isinstance(s, n.VarDecl)
             for d in s.declarators]
    assert decls == ["acc", "t", "t_2"]
    check_stages(parse(emit(rp)), levels=1)


def test_memoization_yields_single_residual():
    rp = specialize_fixture("average_call.cat", None, [])
    avg_units = [u for u in rp.units if u.name.startswith("average_")]
    assert len(avg_units) == 1
    assert avg_units[0].name == "average__int"


def test_repeated_key_returns_same_entity():
    staged = staged_fixture("pow_two_level.cat")
    cache = SpecializationCache(staged)
    fn = staged.functions_by_key()[("pow", 1)]
    first = specialize_function(fn, [IntV(3)], cache)
    second = specialize_function(fn, [IntV(3)], cache)
    assert first is second
    assert len(cache.order) == 1


def test_residual_ordering_callees_first():
    _, order = specialize_with_record(fixture_source("volume_cube.cat"),
                                      "volumeOfCube", [], [FloatV(2.0)])
    names = [u.name for u in order]
    assert names.index("pow__3") < names.index("volumeOfCube")


def test_inferred_static_arguments():
    rp = specialize_fixture("average_call.cat", None, [])
    text = emit(rp)
    assert "result3 = average__int(data, 10);" in text


# -- mangling ----------------------------------------------------------------

def test_mangle_examples():
    assert mangle("average", SpecializationKey.for_function(
        "average", [INT])) == "average__int"
    assert mangle("pow", SpecializationKey.for_function(
        "pow", [IntV(3)])) == "pow__3"
    assert mangle("f", SpecializationKey.for_function("f", [])) == "f"
    assert mangle("f", SpecializationKey.for_function(
        "f", [IntV(-3)])) == "f__m3"
    assert mangle("g", SpecializationKey.for_function(
        "g", [LONG_INT])) == "g__long_int"
    assert mangle("g", SpecializationKey.for_function(
        "g", [PointerTV(FLOAT)])) == "g__floatp"
    assert mangle("g", SpecializationKey.for_function(
        "g", [FloatV(2.5)])) == "g__2_5"
    assert mangle("g", SpecializationKey.for_function(
        "g", [BoolV(True)])) == "g__true"


def test_mangle_collision_gets_numeric_suffix():
    staged = staged_fixture("pow_two_level.cat")
    cache = SpecializationCache(staged)
    k1 = SpecializationKey.for_function("g", [IntV(2)])
    k2 = SpecializationKey.for_function("g__2", [])
    assert cache.reserve(k1, [IntV(2)]).name == "g__2"
    assert cache.reserve(k2, []).name == "g__2_2"
    # injectivity held: the two keys map to distinct names
    assert cache.reserved_name(k1) != cache.reserved_name(k2)


# -- canonical keys --------------------------------------------------------------

def reference_key(v):
    """``canonical_key`` made from the cells every time."""
    if isinstance(v, ArrayV):
        return ("array", v.elem, tuple(reference_key(c) for c in v.cells))
    if isinstance(v, InstanceV):
        return ("instance", v.class_name,
                tuple((k, reference_key(x)) for k, x in v.members.items()))
    if isinstance(v, TypeValue):
        return ("type", v)
    if isinstance(v, FloatV) and math.copysign(1.0, v.value) < 0 \
            and v.value == 0.0:
        return ("float", v.value, "-")
    return {IntV: "int", FloatV: "float", BoolV: "bool"}[type(v)], v.value


def reference_render(v):
    if isinstance(v, ArrayV):
        return "[" + ", ".join(reference_render(c) for c in v.cells) + "]"
    if isinstance(v, InstanceV):
        return v.class_name + "(" + ", ".join(
            f"{k} = {reference_render(x)}" for k, x in v.members.items()) + ")"
    if isinstance(v, TypeValue):
        return render_type(v)
    if isinstance(v, BoolV):
        return "true" if v.value else "false"
    return repr(v.value) if isinstance(v, FloatV) else str(v.value)


def reference_mangled(arr):
    digest = hashlib.sha256(repr(reference_key(arr)).encode()).hexdigest()
    return f"g__a{len(arr.cells)}x{digest[:8]}"


def assert_keyed_as_reference(v):
    key, ref = canonical_key(v), reference_key(v)
    assert key == ref and hash(key) == hash(ref) and repr(key) == repr(ref)
    assert SpecializationKey.for_function("g", [v]) == \
        SpecializationKey("function", "g", (ref,))
    assert render_static_arg(v) == reference_render(v)


CELLS = {
    INT: st.integers(INT64_MIN, INT64_MAX).map(IntV),
    FLOAT: st.floats(allow_nan=False).map(FloatV),
    BOOL: st.booleans().map(BoolV),
    TYPENAME: st.sampled_from([INT, FLOAT, PointerTV(INT),
                               FixedArrayTV(BOOL, 3)]),
}


@st.composite
def array_and_store(draw):
    elem = draw(st.sampled_from(sorted(CELLS, key=repr)))
    cells = draw(st.lists(CELLS[elem], min_size=1, max_size=12))
    index = draw(st.integers(0, len(cells) - 1))
    return ArrayV(elem, cells), index, draw(CELLS[elem])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(array_and_store())
def test_cached_array_key_matches_one_made_from_the_cells(case):
    arr, index, cell = case
    for version in range(2):
        for _ in range(2):  # made, then reused
            assert_keyed_as_reference(arr)
            assert mangle_name("g", (canonical_key(arr),)) == \
                reference_mangled(arr)
        arr.cells[index] = cell  # a cell store, as the interpreter makes it
        arr.stores += 1


def test_nested_arrays_and_instances_are_keyed_after_an_inner_store():
    inner = ArrayV(INT, [IntV(1), IntV(2)])
    outer = ArrayV(PointerTV(INT), [inner])
    box = InstanceV("Box", {"data": inner, "n": IntV(2)})
    before = [(canonical_key(v), render_static_arg(v)) for v in (outer, box)]
    inner.cells[1] = IntV(5)
    inner.stores += 1
    for v, (key, rendering) in zip((outer, box), before):
        assert_keyed_as_reference(v)
        assert canonical_key(v) != key and render_static_arg(v) != rendering


def test_negative_zero_gets_its_own_specialization():
    source = ("function h(float@ k)(float x) { return x * k; }\n"
              "function f(int@ u)(float x) {\n"
              "    float a = h(-0.0)(x); float b = h(0.0)(x); return b;\n}\n")
    unstaged = run_unstaged(parse(source), "f", [IntV(0), FloatV(1.0)])
    assert math.copysign(1.0, unstaged.value.value) == 1.0
    for rp, order in both_records(source, "f", [IntV(0)], [FloatV(1.0)]):
        assert [u.name for u in order] == ["h__m0_0", "h__0_0", "f__0"]
        result = run(rp, rp.entry_name, [FloatV(1.0)]).value
        assert math.copysign(1.0, result.value) == 1.0


def g_units(order):
    return [(u.name, u.comment) for u in order if u.name.startswith("g")]


def test_array_stored_into_between_specializations_gives_two_units():
    source = ("function g(int@* a)(int d) { return d + a[0]; }\n"
              "function f(int@* a)(int d) {\n"
              "    int e = g(a)(d); a[0] = 5; return g(a)(e);\n}\n")
    arr = ArrayV(INT, [IntV(1), IntV(2)])
    for rp, order in both_records(source, "f", [arr], [IntV(1)]):
        (first, first_from), (second, second_from) = g_units(order)
        assert first != second
        assert (first_from, second_from) == ("specialized-from: g([1, 2])",
                                             "specialized-from: g([5, 2])")
        assert run(rp, rp.entry_name, [IntV(1)]).value == IntV(7)


def test_equal_arrays_share_one_unit():
    source = ("function g(int@* a)(int d) { return d + a[1]; }\n"
              "function f(int@* a, int@* b)(int d) {\n"
              "    return g(a)(d) + g(b)(d);\n}\n")
    args = [ArrayV(INT, [IntV(1), IntV(2)]) for _ in range(2)]
    for rp, order in both_records(source, "f", args, [IntV(1)]):
        assert len(g_units(order)) == 1
        assert run(rp, rp.entry_name, [IntV(1)]).value == IntV(6)


def test_array_of_arrays_stored_into_gives_two_units():
    source = ("function g(int@** m)(int d) { return d + m[0][1]; }\n"
              "function f(int@** m)(int d) {\n"
              "    int e = g(m)(d); m[0][1] = 5; return g(m)(e);\n}\n")
    m = ArrayV(PointerTV(INT), [ArrayV(INT, [IntV(1), IntV(2)])])
    for rp, order in both_records(source, "f", [m], [IntV(1)]):
        (first, _), (second, _) = g_units(order)
        assert first != second
        assert run(rp, rp.entry_name, [IntV(1)]).value == IntV(8)


def test_each_array_version_is_keyed_once(monkeypatch):
    # Keying a cell, or rendering one, goes through values' own
    # canonical_key and render_static_arg; a specialization keyed from
    # the whole array costs len(toks) of each per unit.
    cells = []
    for name in ("canonical_key", "render_static_arg"):
        def counting(v, *rest, real=getattr(values, name)):
            cells.append(v)
            return real(v, *rest)
        monkeypatch.setattr(values, name, counting)
    toks, count = encode_dsl("((in + 1) * (2 + in)) * (in + 3 * in)")
    rp, order = specialize_with_record(fixture_source("dsl_interp.cat"),
                                       "dsl_program", [toks, count],
                                       [IntV(3)])
    assert len(order) == 25
    assert len(cells) == 2 * len(toks.cells)


# -- lifting -------------------------------------------------------------------

def test_lift_literals():
    assert lift(IntV(3)) == n.IntLit(3)
    assert lift(IntV(-3)) == n.Unary("-", n.IntLit(3))
    assert lift(FloatV(2.5)) == n.FloatLit(2.5)
    assert lift(BoolV(True)) == n.BoolLit(True)


def test_lift_rejects_structured_values():
    with pytest.raises(LiftError):
        lift(InstanceV("Point", {}))
    with pytest.raises(LiftError):
        lift(ArrayV(INT, [IntV(1)]))
    with pytest.raises(LiftError):
        lift(INT)


def test_static_array_with_dynamic_index_fails_to_lift():
    source = """
        function first(int@* toks)(int i) {
            return toks[i];
        }
    """
    staged = check_stages(parse(source), 2)
    toks = ArrayV(INT, [IntV(7), IntV(8)])
    with pytest.raises(LiftError):
        specialize_program(staged, "first", [toks])


# -- return-type inference -----------------------------------------------------

def test_infer_float_from_mixed_returns():
    body = [n.If(n.VarRef("c"), n.Return(n.IntLit(1)),
                 n.Return(n.FloatLit(2.0)), 0, 0)]
    assert infer_return_type(body, {"c": None}) == FLOAT


def test_infer_void_from_no_returns():
    assert infer_return_type([n.ExprStmt(n.IntLit(1))], {}) == VOID


def test_infer_mismatch():
    body = [n.If(n.VarRef("c"), n.Return(n.IntLit(1)), n.Return(None), 0, 0)]
    with pytest.raises(ReturnTypeMismatch):
        infer_return_type(body, {"c": None})


TYPES = {"i": INT, "x": FLOAT, "b": BOOL, "p": PointerTV(FLOAT),
         "a": FixedArrayTV(INT, 3)}


@pytest.mark.parametrize("text, typed, exact", [
    ("!i", BOOL, BOOL),
    ("-x", FLOAT, FLOAT),
    ("++i", INT, INT),
    *((f"i {op} x", BOOL, BOOL)
      for op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||")),
    ("i + x", FLOAT, FLOAT),
    ("b ? i : i + 1", INT, INT),
    ("b ? i : x", FLOAT, None),
    ("p[i]", FLOAT, FLOAT),
    ("a[i]", INT, INT),
    ("g(i)", FLOAT, None),
    ("g(i) + 1", FLOAT, None),
    ("h(i)", None, None),
    ("q", None, None),
    ("i[0]", None, None),
])
def test_residual_type(text, typed, exact):
    # exact: every value has the type's value class, so a call (whatever
    # it returns) and a ?: whose arms differ have none
    e = parse(f"function f() {{ return {text}; }}").functions()[0] \
        .body.stmts[0].value
    callee_types = {"g": FLOAT}.get
    assert residual_type(e, TYPES, callee_types) == typed
    assert residual_type(e, TYPES, callee_types, exact=True) == exact


def test_infer_through_locals_and_calls():
    rp = specialize_fixture("volume_cube.cat", "volumeOfCube", [])
    assert rp.function("volumeOfCube").return_type == FLOAT


READS_DYNAMIC_GLOBAL = """
    int H = 4;
    float F = 0.5;
    function addh(int@ k)(int x) { return x + H + k; }
    function addf(int@ k)(int x) { return x + F; }
"""


@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "via-flatten"])
@pytest.mark.parametrize("entry, rtype", [("addh", INT), ("addf", FLOAT)])
def test_return_type_reads_dynamic_globals(entry, rtype, via_flatten):
    staged = check_stages(parse(READS_DYNAMIC_GLOBAL), 2)
    rp = specialize_program(staged, entry, [IntV(2)],
                            via_flatten=via_flatten)
    assert rp.function(f"{entry}__2").return_type == rtype
    # the globals precede the functions that read them, so the emitted
    # residual passes the single-level check and runs
    reloaded = parse(emit(rp))
    check_stages(reloaded, 1)
    expected = {"addh": IntV(7), "addf": FloatV(1.5)}[entry]
    assert run(reloaded, f"{entry}__2", [IntV(1)]).value == expected
    assert run(rp, f"{entry}__2", [IntV(1)]).value == expected


@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "via-flatten"])
def test_unresolvable_return_type_error_has_the_function_span(via_flatten):
    # g's residual type depends only on itself
    source = ("function f(int@ k)(int x) { return g(x); }\n"
              "int g(int x) { return g(x); }\n")
    staged = check_stages(parse(source), 2)
    with pytest.raises(ReturnTypeMismatch) as exc:
        specialize_program(staged, "f", [IntV(1)], via_flatten=via_flatten)
    assert tuple(exc.value.span) == (2, 5)


# -- classes -------------------------------------------------------------------

def square_array(static_args, **kw):
    staged = staged_fixture("square_array.cat")
    cache = SpecializationCache(staged, kw.get("limits"))
    cls = staged.classes_by_name()["SquareArray"]
    return specialize_class(cls, static_args, cache)


def test_square_array_4_2():
    rc = square_array([FLOAT, IntV(4), IntV(2)])
    assert rc.static_members["numElements"] == IntV(16)
    assert rc.members[0][2].size == 16
    assert rc.name == "SquareArray__float_4_2"


def test_square_array_4_3():
    rc = square_array([FLOAT, IntV(4), IntV(3)])
    assert rc.static_members["numElements"] == IntV(64)


def test_square_array_guard_message():
    with pytest.raises(UserStaticError) as exc:
        square_array([FLOAT, IntV(0), IntV(2)])
    assert exc.value.message == "N_dim and N_length must be positive."


def test_square_array_residual_constructor_lifts_size():
    rc = square_array([FLOAT, IntV(4), IntV(2)])
    loop = rc.ctor_body[0]
    assert isinstance(loop, n.For)
    assert loop.cond == n.Binary("<", n.VarRef("i"), n.IntLit(16))


def test_static_instance():
    rp = specialize_fixture("static_point.cat", None, [])
    assert rp.is_pure_static
    name, inst = rp.static_bindings[-1]
    assert name == "p"
    assert isinstance(inst, InstanceV)
    assert inst.members["magSq"] == IntV(25)


def test_static_instance_runs_its_constructors_as_unstaged_code_does():
    # an uninitialized static member starts at zero, as at run time
    source = ("class C(int@ a) { public: C@() { m = m + a; }\n"
              "    private: static int@ m; }\n"
              "C@(3) c;\n")
    rp = specialize_program(check_stages(parse(source), 2))
    assert rp.static_bindings == [("c", InstanceV("C__3", {"m": IntV(3)}))]
    unstaged = run(erase_stages(parse(source)), check=False).bindings
    assert unstaged == [("c", InstanceV("C", {"m": IntV(3)}))]


def test_static_instantiation_of_class_with_dynamic_members_rejected():
    source = fixture_source("square_array.cat") + \
        "\nSquareArray@(int, 3, 2) x;\n"
    staged = check_stages(parse(source), 2)
    with pytest.raises(TypeMismatch):
        specialize_program(staged)


def test_dynamic_class_declaration_specializes_the_class():
    rp = specialize_fixture("vector_sum.cat", None, [])
    names = [u.name for u in rp.units]
    assert "Vector__int_4" in names
    text = emit(rp)
    assert "Vector__int_4 x;" in text
    assert "int data[4];" in text


# -- guards and recursion --------------------------------------------------------

def test_depth_guard_during_specialization():
    staged = staged_fixture("runaway.cat")
    with pytest.raises(DepthExceeded):
        specialize_program(staged, limits=EvalLimits(max_depth=32))


def test_self_recursive_specialization_detected():
    source = """
        function s(int@ k)(int x) {
            return s(k)(x);
        }
    """
    staged = check_stages(parse(source), 2)
    with pytest.raises(SelfRecursiveSpecialization):
        specialize_program(staged, "s", [IntV(1)])


def test_recursive_residual_function_is_allowed():
    # plain dynamic recursion residualizes as-is, it is not a cache cycle
    staged = staged_fixture("collatz.cat")
    rp = specialize_program(staged, "foo", [])
    text = emit(rp)
    assert "foo(X % 2 == 0 ? X / 2 : 3 * X + 1)" in text


# -- residual purity --------------------------------------------------------------

@pytest.mark.parametrize("name,entry,args", [
    ("pow_two_level.cat", "pow", [IntV(5)]),
    ("dot.cat", "dot", [IntV(4), FLOAT]),
    ("average.cat", "average", [INT]),
    ("volume_cube.cat", "volumeOfCube", []),
])
def test_residual_purity(name, entry, args):
    rp = specialize_fixture(name, entry, args)
    text = emit(rp)
    assert "@" not in text
    check_stages(parse(text), levels=1)


def test_provenance_comments():
    rp = specialize_fixture("average.cat", "average", [INT])
    assert "// specialized-from: average(int)" in emit(rp)


def test_scripting_empty_residual():
    rp = specialize_fixture("ctime_pow.cat", None, [])
    assert rp.is_pure_static
    assert ("z", IntV(125)) in rp.static_bindings


def test_global_static_state_threads_through_unrolling():
    rp = specialize_fixture("factorial_script.cat", None, [])
    assert rp.is_pure_static
    assert ("Nfact", IntV(24)) in rp.static_bindings
    assert ("N", IntV(5)) in rp.static_bindings
    # the loop variable is scoped to the loop, not a global binding
    assert all(name != "i" for name, _ in rp.static_bindings)


def test_mixed_top_level():
    rp = specialize_fixture("pow_flexible.cat", None, [])
    assert not rp.is_pure_static
    assert ("result2", IntV(8)) in rp.static_bindings
    text = emit(rp)
    assert "int result1 = pow(2, 3);" in text


# -- binding times come from the stage checker ------------------------------

@pytest.mark.parametrize("source, expected", [
    ("function f(int@ k)(int d) {\n"
     "    int@ x = k; int r = 0;\n"
     "    { int x = d; r = x + 1; }\n"
     "    return r;\n}\n", 101),
    ("function f(int@ k)(int d) {\n"
     "    int@ x = k; int r = 0;\n"
     "    { int x = 0; x = d; r = x; }\n"
     "    return r;\n}\n", 100),
    ("function f(int@ k)(int d) {\n"
     "    int@ x = k; int r = 0;\n"
     "    { int x = d; ++x; r = x; }\n"
     "    return r + x;\n}\n", 106),
    ("int@ x = 7;\n"
     "function f(int@ k)(int x) { return x + k; }\n", 105),
    ("function f(int@ k)(int d) { int@ k = 1; return d + k; }\n", 101),
], ids=["read", "assign", "increment", "parameter", "body-over-parameter"])
def test_dynamic_name_shadowing_a_static_one(source, expected):
    direct, flattened = [
        specialize_program(check_stages(parse(source), 2), "f", [IntV(5)],
                           via_flatten=via_flatten)
        for via_flatten in (False, True)]
    unstaged = run_unstaged(parse(source), "f", [IntV(5), IntV(100)]).value
    assert unstaged == IntV(expected)
    assert run(direct, direct.entry_name, [IntV(100)]).value == unstaged
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))
    assert [u.name for u in direct.units] == \
        [u.name for u in flattened.units]


def test_three_level_typename_is_bound_at_the_first_specialization():
    # the checker puts T at stage 1; a typename declaration is evaluated at
    # once all the same, and the residual has the concrete type
    staged = check_stages(
        parse("typename@ T = int; T@ a = 2; T b = a + 1;"), 3)
    rp = specialize_program(staged)
    assert ("T", INT) in rp.static_bindings
    assert emit(rp) == "int@ a = 2;\nint b = a + 1;\n"


def test_three_level_static_parameter_is_declared_at_its_stage():
    source = fixture_source("pow_two_level.cat")
    first = specialize_program(check_stages(parse(source), 3), "pow",
                               [IntV(3)])
    text = emit(first)
    assert "int@ N = 3;" in text
    assert "for@ (int@ i = 0; i < N; ++i)" in text
    # the next specialization binds N and unrolls the loop
    second = specialize_program(check_stages(parse(text), 2), "pow__3", [])
    assert "for" not in emit(second)
    assert run(second, "pow__3", [FloatV(2.0)]).value == FloatV(8.0)


@pytest.mark.parametrize("stmt", ["return x + a[2];", "a[2] = 1; return x;"],
                         ids=["read", "write"])
def test_static_subscript_out_of_range_is_the_evaluators_error(stmt):
    staged = check_stages(parse(f"function f(int@* a)(int x) {{ {stmt} }}"),
                          2)
    with pytest.raises(OutOfBounds, match="index 2 outside array of length 2"):
        specialize_program(staged, "f", [ArrayV(INT, [IntV(7), IntV(8)])])


# -- one environment for both stages ------------------------------------------

@pytest.mark.parametrize("source", [
    "function f(int@ k)(int d) { int@ x = k; int x = d; return x; }\n",
    "function f(int@ k)(int d) { int x = d; int@ x = k; return x; }\n",
    "int g = 5; int@ g = 2;\n"
    "function f(int@ k)(int d) { return d + k; }\n",
    "int@ g = 2; int g = 5;\n"
    "function f(int@ k)(int d) { return d + k; }\n",
], ids=["local-static-first", "local-dynamic-first", "global-dynamic-first",
        "global-static-first"])
def test_static_and_dynamic_names_share_one_scope(source):
    with pytest.raises(TypeMismatch, match="redeclaration of"):
        run_unstaged(parse(source), "f", [IntV(5), IntV(7)])
    for via_flatten in (False, True):
        with pytest.raises(TypeMismatch, match="redeclaration of"):
            specialize_program(check_stages(parse(source), 2), "f",
                               [IntV(5)], via_flatten=via_flatten)


def both_routes(source, static_args):
    return [specialize_program(check_stages(parse(source), 2), "f",
                               static_args, via_flatten=via_flatten)
            for via_flatten in (False, True)]


def test_function_body_may_shadow_a_dynamic_parameter():
    source = "function f(int@ k)(int d) { int d = 1; return d + k; }\n"
    direct, flattened = both_routes(source, [IntV(5)])
    for rp in (direct, flattened):
        assert run(rp, rp.entry_name, [IntV(7)]).value == IntV(6)
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))
    assert run_unstaged(parse(source), "f", [IntV(5), IntV(7)]).value == \
        IntV(6)


@pytest.mark.parametrize("body, message", [
    ("return g;", "dynamic variable 'g' read at compile time"),
    ("g = 3; return 1;", "dynamic variable 'g' written at compile time"),
    ("++g; return 1;", "dynamic variable 'g' written at compile time"),
], ids=["read", "write", "increment"])
def test_compile_time_code_cannot_touch_a_dynamic_global(body, message):
    source = f"int g = 5;\nfunction h() {{ {body} }}\nint@ s = h@();\n"
    with pytest.raises(UnboundVariable, match=message):
        specialize_program(check_stages(parse(source), 2))


@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "flatten"])
def test_undecided_static_left_operand_is_kept(via_flatten):
    # ``true && d`` tests d as a bool at run time, as unstaged code does
    source = "function f(int@ k)(int d) { int r = k > 0 && d; return r; }\n"
    with pytest.raises(TypeMismatch, match="condition must be a bool"):
        run_unstaged(parse(source), "f", [IntV(5), IntV(7)])
    rp = specialize_program(check_stages(parse(source), 2), "f", [IntV(5)],
                            via_flatten=via_flatten)
    assert "int r = true && d;" in emit(rp)
    with pytest.raises(TypeMismatch, match="condition must be a bool"):
        run(rp, rp.entry_name, [IntV(7)])


def test_undecided_static_left_operand_matches_the_flatten_route():
    source = ("function f(int@ k)(int d) {\n"
              "    bool r = k < 0 || d > 3; return r;\n}\n")
    direct, flattened = [
        specialize_program(check_stages(parse(source), 2), "f", [IntV(5)],
                           via_flatten=via_flatten)
        for via_flatten in (False, True)]
    assert "bool r = false || d > 3;" in emit(direct)
    assert alpha_equivalent(direct.function("f__5"),
                            flattened.function("f__5"))


def test_deciding_static_left_operand_folds():
    for guard, decided in (("k < 0 && d > 3", "false"),
                           ("k > 0 || d > 3", "true")):
        source = (f"function f(int@ k)(int d) {{\n"
                  f"    bool r = {guard}; return r;\n}}\n")
        direct, flattened = both_routes(source, [IntV(5)])
        for rp in (direct, flattened):
            assert f"bool r = {decided};" in emit(rp)
        assert alpha_equivalent(direct.function("f__5"),
                                flattened.function("f__5"))
