"""The flatten route agrees with the direct route: on every corpus fixture
with an entry, both record the same units in the same order, under the
same names and provenance comments, each pair of units is
alpha-equivalent, and so is each pair of compressed residuals, each of
which gives the value of ``run_unstaged`` on the fixture's run arguments.
Both routes also stop a specialization chain at the same depth, and
report a static value that has no literal form with the same error."""

import pytest

from catat import (
    ArrayV, CatatError, DepthExceeded, EvalLimits, IntV, check_stages, parse,
)
from catat.cli import parse_arg_list
from catat.corpus import provide_corpus
from catat.specializer import (
    ResidualFunction, alpha_equivalent, specialize_program,
)
from catat.values import INT

from conftest import both_records


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
