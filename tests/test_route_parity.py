"""The flatten route agrees with the direct route: on every corpus fixture
with an entry, both record the same units in the same order, under the
same names and provenance comments, each pair of units is
alpha-equivalent, and so is each pair of compressed residuals, each of
which gives the value of ``run_unstaged`` on the fixture's run arguments.
Both routes also stop a specialization chain at the same depth, report a
static value that has no literal form with the same error, resolve a call
whose typename statics are inferred alike, type each residual name
alike, and let a static builder call act in the unit under way alike."""

import pytest

from catat import (
    ArrayV, CatatError, DepthExceeded, EvalLimits, IntV, check_stages, emit,
    parse, run, run_unstaged,
)
from catat.cli import parse_arg_list
from catat.corpus import provide_corpus
from catat.errors import UserStaticError
from catat.specializer import (
    ResidualFunction, SpecializationCache, alpha_equivalent,
    specialize_program,
)
from catat.values import INT

from conftest import both_records, fixture_source


def entry_fixtures():
    for fixture in provide_corpus():
        if fixture.first("entry"):
            yield pytest.param(fixture, id=fixture.name)


def assert_agree(direct, flattened):
    assert [u.name for u in direct] == [u.name for u in flattened]
    for a, b in zip(direct, flattened):
        assert a.comment == b.comment
        if isinstance(a, ResidualFunction):
            assert alpha_equivalent(a, b), a.name
        else:  # a class unit comes from the direct route on both
            assert a == b


@pytest.mark.parametrize("fixture", entry_fixtures())
def test_routes_agree_on_every_entry_fixture(fixture):
    # the instantiation record and the compressed residual alike
    (direct, direct_order), (flattened, flattened_order) = both_records(
        fixture.source(), fixture.first("entry"),
        parse_arg_list(fixture.first("static-args")),
        parse_arg_list(fixture.first("run-args")))
    assert_agree(direct_order, flattened_order)
    assert_agree(direct.units, flattened.units)
    assert direct.comments == flattened.comments


CHAIN = "function f(int@ n)(int d) { if@ (n > 0) return f(n - 1)(d); " \
    "return d; }"


def test_routes_share_the_depth_boundary():
    # f(5) needs six levels: one per unit, and on the flatten route the
    # generator's call is the entry unit's level
    for rp, order in both_records(CHAIN, "f", [IntV(5)], [IntV(2)],
                                  EvalLimits(max_depth=6)):
        assert [u.name for u in order] == [f"f__{k}" for k in range(6)]
    for via_flatten in (False, True):
        with pytest.raises(DepthExceeded):
            specialize_program(check_stages(parse(CHAIN), 2), "f", [IntV(5)],
                               EvalLimits(max_depth=5),
                               via_flatten=via_flatten)


STATIC_SWITCH = ("function h(int@ k)(int x) { return x * k; }\n"
                 "function f(int@ k)(int d) {\n"
                 "    switch@ (k) {\n"
                 "        case 1: return d + 1;\n"
                 "        case 2: { int t = h(k)(d); return t + k; }\n"
                 "        default: return h(k + 1)(d);\n"
                 "    }\n}\n")


@pytest.mark.parametrize("k", [1, 2, 5])
def test_routes_agree_on_a_static_switch(k):
    (direct, direct_order), (flattened, flattened_order) = both_records(
        STATIC_SWITCH, "f", [IntV(k)], [IntV(3)])
    assert_agree(direct_order, flattened_order)
    assert_agree(direct.units, flattened.units)


def route_errors(source, cells):
    """The error each route raises for ``f`` on a static int array."""
    errors = []
    for via_flatten in (False, True):
        with pytest.raises(CatatError) as error:
            specialize_program(check_stages(parse(source), 2), "f",
                               [ArrayV(INT, cells)],
                               via_flatten=via_flatten)
        errors.append((type(error.value).__name__, error.value.message,
                       tuple(error.value.span)))
    return errors


def test_routes_report_a_static_array_in_dynamic_code_alike():
    source = "function f(int@* a)(int d) {\n    return d + a;\n}\n"
    assert route_errors(source, [IntV(1)]) == [
        ("LiftError", "an array has no literal form in dynamic code",
         (2, 14))] * 2


def test_routes_report_a_static_array_under_a_dynamic_index_alike():
    source = "function f(int@* a)(int d) {\n    return a[d];\n}\n"
    assert route_errors(source, [IntV(1), IntV(2)]) == [
        ("LiftError", "a static array cannot flow into dynamic code "
         "(dynamic index into static data)", (2, 13))] * 2


INFERRED = """function average(typename@ T)(T* array, int N) {
    T sum = 0;
    for (int i = 0; i < N; ++i)
        sum += array[i];
    return sum / N;
}
function g(int@ k)(int* a, int n) {
    return average(a, n) + k;
}
"""


def test_routes_resolve_an_inferred_call_alike():
    # run_unstaged runs no call whose statics are inferred, so its value is
    # taken on the program that writes them out
    explicit = INFERRED.replace("average(a, n)", "average(int)(a, n)")
    data = [IntV(1), IntV(2), IntV(3), IntV(4)]
    assert run_unstaged(parse(explicit), "g", [
        IntV(2), ArrayV(INT, list(data)), IntV(4)]).value == IntV(4)
    records = []
    for via_flatten in (False, True):
        staged = check_stages(parse(INFERRED), 2)
        cache = SpecializationCache(staged)
        rp = specialize_program(staged, "g", [IntV(2)], cache=cache,
                                via_flatten=via_flatten)
        assert run(rp, "g__2", [ArrayV(INT, list(data)), IntV(4)]).value \
            == IntV(4)
        assert [u.name for u in cache.order] == ["average__int", "g__2"]
        records.append((rp, cache.order))
    (direct, direct_order), (flattened, flattened_order) = records
    assert_agree(direct_order, flattened_order)
    assert_agree(direct.units, flattened.units)


def test_routes_report_an_uninferable_call_alike():
    source = INFERRED.replace("int* a, int n", "int a, int n")
    errors = []
    for via_flatten in (False, True):
        with pytest.raises(CatatError) as error:
            specialize_program(check_stages(parse(source), 2), "g",
                               [IntV(2)], via_flatten=via_flatten)
        errors.append((type(error.value).__name__, error.value.message,
                       tuple(error.value.span)))
    assert errors == [
        ("TypeMismatch", "cannot infer static parameter 'T' of 'average' "
         "from the call's argument types", (8, 12))] * 2


@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "via-flatten"])
def test_unit_types_come_from_its_names(via_flatten):
    rp = specialize_program(
        check_stages(parse(fixture_source("unroll_locals.cat")), 2),
        "windowed", [IntV(3)], via_flatten=via_flatten)
    types = rp.function("windowed__3").types
    assert [types[t] for t in ("t", "t_2", "t_3")] == [INT] * 3


def test_a_shell_built_by_static_code_retypes_no_parameter():
    # on the flatten route the generator's own shell types ``a``; the
    # one the static code builds later must not make it a float
    source = ("function f(int@ k)(int a) {\n"
              "    ASTree@ other = make_lambda@(\"a\", float);\n"
              "    return a + k;\n}\n")
    for rp, _ in both_records(source, "f", [IntV(2)], [IntV(3)]):
        unit = rp.function("f__2")
        assert unit.types["a"] == INT and unit.return_type == INT


# A static builder call draws its names and resolves its calls in the unit
# under way, on both routes, and never in an outer unit or a callee.
UNIT_PROGRAMS = {
    "static-make-call": (
        "function h(int@ k)(int x) { return x * k; }\n"
        "function f(int@ k)(int d) {\n"
        "    ASTree@ c = make_call@(\"h\", 1, 3, 1);\n"
        "    return d + k;\n}\n", 7),
    "callee-draws-its-own-names": (
        "function g(int@ k)(int d) {\n"
        "    ASTree@ c = make_vardecl@(int, \"r\");\n"
        "    int r = d + k;\n    return r;\n}\n"
        "function f(int@ k)(int d) { int r = g(k)(d); return r + 1; }\n",
        8),
}


@pytest.mark.parametrize("name", UNIT_PROGRAMS)
def test_static_builder_calls_act_in_the_unit_under_way(name):
    # run_unstaged cannot run a static make_call: the value is written out
    source, value = UNIT_PROGRAMS[name]
    records = []
    for via_flatten in (False, True):
        cache = SpecializationCache(check_stages(parse(source), 2))
        rp = specialize_program(cache.staged, "f", [IntV(2)], cache=cache,
                                via_flatten=via_flatten)
        assert run(rp, rp.entry_name, [IntV(5)]).value == IntV(value)
        records.append((rp, cache.order))
    (direct, direct_order), (flattened, flattened_order) = records
    assert_agree(direct_order, flattened_order)
    assert emit(direct) == emit(flattened)
    if name == "static-make-call":
        assert [u.name for u in direct_order] == ["h__3", "f__2"]
    else:
        assert "int r = d + 2;" in emit(direct)


def test_no_unit_is_under_way_after_specialization():
    source, _ = UNIT_PROGRAMS["callee-draws-its-own-names"]
    failing = source.replace("int r = d + k;",
                             "Catat_error@(\"no\"); int r = d + k;")
    for via_flatten in (False, True):
        cache = SpecializationCache(check_stages(parse(source), 2))
        specialize_program(cache.staged, "f", [IntV(2)], cache=cache,
                           via_flatten=via_flatten)
        assert cache.interp.unit is None
        cache = SpecializationCache(check_stages(parse(failing), 2))
        with pytest.raises(UserStaticError):
            specialize_program(cache.staged, "f", [IntV(2)], cache=cache,
                               via_flatten=via_flatten)
        assert cache.interp.unit is None
