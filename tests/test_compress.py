"""Transition compression: ``specialize_program`` unfolds one-call and
tiny units into their callers.  The compressed residual must give the
value and error category of ``run_unstaged``, take no more steps and no
more emitted text than the residual the instantiation record rebuilds,
and agree with the flatten route."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from catat import (
    DepthExceeded, EvalLimits, IntV, check_stages, emit, nodes as n, parse,
    run, run_unstaged,
)
from catat.corpus import (
    dsl_interpreter_source, dsl_reference_eval, encode_dsl,
    random_dsl_program,
)
from catat.errors import CatatError
from catat.specializer import (
    SpecializationCache, alpha_equivalent, specialize_program,
)
from catat.values import INT

from conftest import (
    both_records, both_routes, record_program, specialize_with_record,
)


def outcome(program, entry, args, unstaged=False):
    """(value, steps) of a run, or the name of the error it raised."""
    try:
        result = (run_unstaged if unstaged else run)(program, entry, args)
    except CatatError as error:
        return type(error).__name__, None
    return result.value, result.steps


def calls(unit):
    return [x for s in unit.body for x in n.walk(s) if isinstance(x, n.Call)]


def assert_compression_holds(source, entry, static_args, inputs):
    """On both routes: the compressed residual against ``run_unstaged`` and
    against its own instantiation record, and the routes against each
    other."""
    routes = []
    for via_flatten in (False, True):
        staged = check_stages(parse(source), 2)
        cache = SpecializationCache(staged)
        rp = specialize_program(staged, entry, list(static_args),
                                cache=cache, via_flatten=via_flatten)
        full = record_program(rp, cache.order)
        assert len(emit(rp)) <= len(emit(full))
        for args in inputs:
            value, steps = outcome(rp, rp.entry_name, args)
            expected, _ = outcome(parse(source), entry,
                                  list(static_args) + args, unstaged=True)
            assert value == expected, (source, args)
            full_value, full_steps = outcome(full, full.entry_name, args)
            assert full_value == value
            if steps is not None:
                assert steps <= full_steps, (source, args)
        routes.append(rp)
    direct, flattened = routes
    assert [u.name for u in direct.units] == [u.name for u in flattened.units]
    for a, b in zip(direct.units, flattened.units):
        assert alpha_equivalent(a, b), (source, a.name)
    return direct


# -- generated two-level programs ----------------------------------------------

# Callees with static ``k``: a one-return body (``a``), locals and a read
# of the dynamic global (``b``), a float parameter (``c``), a parameter
# and the global assigned (``w``), static recursion with a nested call
# (``m``), and a parameter that hides the global ``G`` that ``b`` reads
# (``h``).
CALLEES = """
int G = 3;
function a(int@ k)(int x) { return x + k; }
function b(int@ k)(int x) { int t = x * k; t += G; return t; }
function c(int@ k)(float y) { float z = y * 2; return z; }
function w(int@ k)(int x) { x += k; G += x; return x; }
function m(int@ k)(int x) {
    int r = a(k)(x);
    if@ (k > 1) r += m(k - 1)(r);
    return r;
}
function h(int@ k)(int G) { return b(k)(G) + G; }
"""


def arguments(locals_):
    return st.sampled_from(["d", "d + 1", "++d", "3", "G"] + locals_)


@st.composite
def calls_of(draw, locals_):
    callee = draw(st.sampled_from("abwmh"))
    return f"{callee}(k + {draw(st.integers(0, 1))})({draw(arguments(locals_))})"


@st.composite
def two_level_programs(draw):
    body, locals_ = [], []
    for i in range(draw(st.integers(1, 5))):
        call = draw(calls_of(locals_))
        form = draw(st.sampled_from(
            ["decl", "op", "expr", "if", "for", "and", "cond", "float"]))
        if form == "float":  # an int argument for a float parameter
            body.append(f"float z{i} = c(k)({draw(arguments(locals_))});")
            body.append(f"if (z{i} > 4.0) d += 1;")
        elif form == "decl":
            body.append(f"int v{i} = {call};")
            locals_.append(f"v{i}")
        elif form == "op":
            body.append(f"d {draw(st.sampled_from(['=', '+=', '-=']))} "
                        f"{call};")
        elif form == "expr":
            body.append(f"{call};")
        elif form == "if":
            body.append(f"if ({call} > 0) {{ d += {draw(calls_of(locals_))}; "
                        "}")
        elif form == "for":
            body.append(f"for (int i = 0; i < {call} % 3; ++i) "
                        f"d += {draw(calls_of(locals_))};")
        elif form == "and":
            body.append(f"if (d > 0 && {call} > 1) d -= 1;")
        else:
            body.append(f"d = d > 2 ? {call} : d;")
    body.append(f"return {draw(calls_of(locals_))};"
                if draw(st.booleans()) else "return d;")
    return CALLEES + "function f(int@ k)(int d) {\n    " + \
        "\n    ".join(body) + "\n}\n"


@settings(derandomize=True, max_examples=30, deadline=None)
@given(two_level_programs(), st.integers(1, 3))
def test_compression_keeps_the_mix_equation(source, k):
    assert_compression_holds(source, "f", [IntV(k)],
                             [[IntV(d)] for d in (-2, 0, 5)])


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_compression_keeps_the_interpreters_results(seed):
    text = random_dsl_program(random.Random(seed), 4)
    toks, count = encode_dsl(text)
    rp = assert_compression_holds(dsl_interpreter_source(), "dsl_program",
                                  [toks, count], [[IntV(-3)], [IntV(4)]])
    assert len(rp.units) == 1 and not calls(rp.units[0])
    assert run(rp, rp.entry_name, [IntV(4)]).value == \
        IntV(dsl_reference_eval(text, 4))


# -- the rules, one by one ---------------------------------------------------------

def compressed(source, entry, static_args, run_args):
    """Both routes' compressed residuals, checked as above; the direct one."""
    return assert_compression_holds(source, entry, static_args, [run_args])


def test_a_one_call_unit_is_hoisted_and_renamed_apart():
    # a declaration takes over the local the callee returns; elsewhere the
    # callee's locals are drawn apart from the caller's names
    rp = compressed("function g(int@ k)(int x) { int t = x * k; t += 1; "
                    "return t; }\n"
                    "function f(int@ k)(int d) { int t = d; "
                    "int u = g(k)(d + 1); t += g(k + 1)(d); return t + u; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["f__2"]
    assert emit(rp).splitlines()[2:11] == [
        "    int t = d;",
        "    int x = d + 1;",
        "    int u = x * 2;",
        "    u += 1;",
        "    int t_2 = d * 3;",
        "    t_2 += 1;",
        "    t += t_2;",
        "    return t + u;",
        "}"]


DYNAMIC_SWITCH = ("function g(int@ k)(int x) {\n"
                  "    int u = x + k; return u + 1; }\n"
                  "function f(int@ k)(int d) {\n"
                  "    switch (d) {\n"
                  "        case 1: return g(k)(d);\n"
                  "        case 2: { int u = d * 2; return u + 1; }\n"
                  "        default: return d + 3;\n"
                  "    }\n}\n")


@pytest.mark.parametrize("d, value", [(1, 4), (2, 5), (5, 8)])
def test_a_call_is_hoisted_into_a_switch_case(d, value):
    # the direct route only: a dynamic switch does not flatten
    rp, _ = specialize_with_record(DYNAMIC_SWITCH, "f", [IntV(2)], [IntV(d)])
    assert run(rp, rp.entry_name, [IntV(d)]).value == IntV(value)
    assert [u.name for u in rp.units] == ["f__2"]
    assert emit(rp).splitlines()[3:6] == [
        "        case 1:",
        "            int u_2 = d + 2;",
        "            return u_2 + 1;"]
    assert rp.units[0].types["u_2"] == INT


def test_arguments_keep_their_coercion_and_evaluation():
    # ++d is evaluated once, after d is read and before the body; an int
    # argument becomes a float
    rp = compressed("function g(int@ k)(float y, int x) { y += x; "
                    "return y * k; }\n"
                    "function f(int@ k)(int d) { float r = g(k)(d, ++d); "
                    "return r + d; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert "float y = d;" in emit(rp) and "int x = ++d;" in emit(rp)


def test_an_argument_is_read_before_a_later_argument_steps_it():
    rp = compressed("function g(int@ k)(int x, int y) { int t = x * 10; "
                    "return t + y; }\n"
                    "function f(int@ k)(int d) { int r = g(k)(d, ++d); "
                    "return r; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert "int x = d;" in emit(rp)


def test_bindings_that_would_add_steps_are_refused():
    # three bound arguments cost three declarations; the call and its
    # return saved only two steps
    rp = compressed("function g(int@ k)(int x, int y, int z) { int t = x; "
                    "t += y * z; return t; }\n"
                    "function f(int@ k)(int d) { int r = g(k)(d + 1, d + 2, "
                    "d + 3); return r; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["g__2", "f__2"]


def test_unfolding_that_would_lengthen_the_text_is_refused():
    # the callee's ten lines would move four levels deeper
    body = " ".join(f"t += {i};" for i in range(10))
    rp = compressed(f"function g(int@ k)(int x) {{ int t = x; {body} "
                    "return t; }\n"
                    "function f(int@ k)(int d) { if (d > 0) { if (d > 1) { "
                    "if (d > 2) { if (d > 3) { d += g(k)(d); } } } } "
                    "return d; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["g__2", "f__2"]


def test_a_one_return_unit_larger_than_its_call_is_not_spliced():
    rp = compressed("function twice(int@ k)(int x) { return x + x; }\n"
                    "function f(int@ k)(int d) { return twice(k)(d) "
                    "* twice(k)(d); }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["twice__2", "f__2"]


def test_a_one_return_unit_is_spliced_at_every_call():
    rp = compressed("function g(int@ k)(int x) { return x; }\n"
                    "function f(int@ k)(int d) { return g(k)(d) * g(k)(d) "
                    "+ (d > 0 && g(k)(d) > 1 ? g(k)(d) : 0); }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["f__2"]
    assert "return d * d + (d > 0 && d > 1 ? d : 0);" in emit(rp)


def test_a_call_in_a_condition_or_operand_is_not_hoisted():
    rp = compressed("function g(int@ k)(int x) { int t = x + k; return t; }\n"
                    "function f(int@ k)(int d) { if (g(k)(d) > 0) d += 1; "
                    "return d; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["g__2", "f__2"]


def test_a_parameter_that_hides_a_global_the_callee_reads_blocks_it():
    rp = compressed("int G = 3;\n"
                    "function g(int@ k)(int x) { int t = x + G; return t; }\n"
                    "function f(int@ k)(int G) { int r = g(k)(G); "
                    "return r * G; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert [u.name for u in rp.units] == ["g__2", "f__2"]


def test_a_global_argument_is_bound_when_the_callee_writes_it():
    rp = compressed("int G = 3;\n"
                    "function g(int@ k)(int x) { G += k; return x + G; }\n"
                    "function f(int@ k)(int d) { int r = g(k)(G); "
                    "return r; }\n",
                    "f", [IntV(2)], [IntV(5)])
    assert "int x = G;" in emit(rp)


def test_a_unit_on_a_call_cycle_is_kept():
    # q has one call site, in p, but p and q call each other
    rp = compressed("int p(int x) { int r = 0; if (x > 0) r = q(x - 1); "
                    "return r + 1; }\n"
                    "int q(int x) { int s = p(x); return s * 2; }\n"
                    "function f(int@ k)(int d) { int r = p(d); return r; }\n",
                    "f", [IntV(2)], [IntV(3)])
    assert [u.name for u in rp.units] == ["q", "p", "f__2"]


def test_recursion_the_entry_and_top_level_calls_are_kept():
    rp = compressed("int g(int x) { if (x > 0) return g(x - 1); return 0; }\n"
                    "function f(int@ k)(int d) { int r = g(d); return r; }\n",
                    "f", [IntV(2)], [IntV(3)])
    assert [u.name for u in rp.units] == ["g", "f__2"]
    staged = check_stages(parse(
        "function g(int@ k)(int x) { return x * 2 + k; }\n"
        "int r = g(1)(4);\n"), 2)
    rp = specialize_program(staged)
    assert [u.name for u in rp.units] == ["g__1"]


def test_a_forwarded_return_keeps_its_type():
    rp = compressed("function f(int@ k)(int d) { int t = d * k; "
                    "int u = t + 1; return u; }\n"
                    "function g(int@ k)(int d) { float r = d + k; "
                    "return r; }\n"
                    "function h(int@ k)(int d) { return f(k)(d) + g(k)(d); }\n",
                    "h", [IntV(2)], [IntV(5)])
    # f and g are called from operands, so each keeps its unit
    text = emit(rp)
    # a ?: of an int and a float is not always a float, and an int local
    # does not become a float declaration
    other = compressed("function id(int@ k)(int x) { return x; }\n"
                       "function g(int@ k)(int d) { int t = d * k; t += 1; "
                       "return t; }\n"
                       "function m(int@ k)(int d) { int e = id(k)(d); "
                       "float u = g(k)(e); float r = e > 0 ? u : e; "
                       "return r; }\n",
                       "m", [IntV(2)], [IntV(-1)])
    assert "float u = t;" in emit(other)
    assert emit(other).endswith("    return r;\n}\n")
    assert "    int t = d * 2;\n    return t + 1;\n" in text
    assert "    float r = d + 2;\n    return r;\n" in text  # an int sum


def test_dead_statements_after_a_return_are_dropped():
    # at n = 0 the specializer stops at the selected return, so the
    # unselected one is never made
    source = ("function t(int@ n)(int x) { if@ (n == 0) return x; "
              "return x + n; }\n"
              "function g(int@ n)(int x) { int y = t(n)(x); return y * 2; }\n")
    (rp, order), _ = both_records(source, "g", [IntV(0)], [IntV(4)])
    assert [type(s).__name__ for s in order[0].body] == ["Return"]
    assert "x + 0" not in emit(rp)
    # a return under dynamic control leaves the statements after it in its
    # block; compress drops them, and with them the one call of f(0)
    source = ("function f(int@ k)(int d) { return d + k; }\n"
              "function t(int@ n)(int x) { if (x > n) { return x; "
              "x = f(n)(x); } return x + n; }\n"
              "function g(int@ n)(int x) { int y = t(n)(x); return y * 2; }\n")
    for rp, order in both_records(source, "g", [IntV(0)], [IntV(4)]):
        assert [u.name for u in order] == ["f__0", "t__0", "g__0"]
        then = order[1].body[0].then_stmt
        assert [type(s).__name__ for s in then.stmts] == ["Return", "Assign"]
        assert [u.name for u in rp.units] == ["t__0", "g__0"]
        assert "f__0" not in emit(rp)


def test_a_unit_called_only_from_dropped_statements_is_dropped():
    # h(0) keeps its first return; g(1), called after it, and the call of
    # f(1) in g go with it, so f(1) has one call site left
    rp = compressed("function f(int@ k)(int d) { return d + k; }\n"
                    "function g(int@ k)(int d) { int r = f(k)(d); "
                    "return r * 2; }\n"
                    "function h(int@ n)(int x) { if@ (n == 0) return x; "
                    "return g(1)(x); }\n"
                    "function top(int@ k)(int d) { int a = h(0)(d); "
                    "int b = f(1)(d); return a + b; }\n",
                    "top", [IntV(1)], [IntV(3)])
    assert [u.name for u in rp.units] == ["top__1"]
    assert "int b = d + 1;" in emit(rp)


def test_doubling_recursion_stays_linear():
    # t(n - 1) is called twice, so only its node count could unfold it:
    # t__0 (return x) is spliced, t__1 (return x + x) is already larger
    # than its call, and each level keeps one unit
    source = ("function t(int@ n)(int x) { if@ (n == 0) return x; "
              "else return t(n - 1)(x) + t(n - 1)(x); }\n")
    compressed(source, "t", [IntV(6)], [IntV(1)])
    for rp in both_routes(source, "t", [IntV(20)]):
        assert [u.name for u in rp.units] == [f"t__{k}" for k in range(1, 21)]
        assert len(emit(rp)) < 2500


def test_compressing_a_chain_builds_nodes_in_proportion(monkeypatch):
    # each level's body lands once, in the entry, and is not copied again
    # on the way up
    from catat import compress
    built = []
    real_map = n.map_children

    def counting_map(node, fn):
        built.append(node)
        return real_map(node, fn)

    real_compress = compress.compress

    def counting_compress(rp, sites):
        classes = [cls for cls in vars(n).values()
                   if isinstance(cls, type) and issubclass(cls, n.Node)]
        with monkeypatch.context() as m:
            m.setattr(n, "map_children", counting_map)
            for cls in classes:
                def init(self, *args, real=cls.__init__, **kw):
                    built.append(self)
                    real(self, *args, **kw)
                m.setattr(cls, "__init__", init)
            return real_compress(rp, sites)

    monkeypatch.setattr(compress, "compress", counting_compress)
    source = ("function f(int@ n)(int d) { if@ (n == 0) return d; "
              "else { int t = f(n - 1)(d); t += n; return t; } }\n")
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged)
    rp = specialize_program(staged, "f", [IntV(199)], cache=cache)
    assert [u.name for u in rp.units] == ["f__199"]
    size = sum(1 for u in cache.order for s in u.body for _ in n.walk(s))
    assert size > 1000
    assert len(built) <= 3 * size
    assert run(rp, rp.entry_name, [IntV(1)]).value == IntV(1 + 199 * 100)


# -- a return under static control ends the unit -------------------------------

@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "flatten"])
def test_code_after_a_static_return_is_not_specialized(via_flatten):
    source = ("function t(int@ n)(int x) { if@ (n == 0) return x; "
              "return t(n - 1)(x) + t(n - 1)(x); }\n")
    assert run_unstaged(parse(source), "t", [IntV(3), IntV(1)]).value == \
        IntV(8)
    try:
        rp = specialize_program(check_stages(parse(source), 2), "t",
                                [IntV(3)], via_flatten=via_flatten)
    except DepthExceeded as error:
        message = str(error)  # not its traceback, thousands of frames deep
    else:
        assert run(rp, rp.entry_name, [IntV(1)]).value == IntV(8)
        return
    raise DepthExceeded(message)


STATIC_RETURNS = {
    # a later unrolled iteration must not run its static store
    "for-then-read": (
        "int@ g = 0;\n"
        "function f(int@ k)(int d) { for@ (int@ i = 0; i < k; ++i) "
        "{ g = g + 1; return d + i; } return d; }\n"
        "function h(int@ k)(int d) { int a = f(k)(d); int@ c = g; "
        "return a + c; }\n", "h"),
    # a loop that never ends statically ends at its first return
    "endless-for": (
        "function f(int@ k)(int d) { for@ (int@ i = 0; i < 1; i = i) "
        "{ return d + k; } return d; }\n", "f"),
    # the static division after the block would divide by zero at k = 3
    "plain-block": (
        "function f(int@ k)(int d) { { if@ (k > 0) return d; } "
        "int@ z = 1 / (k - 3); return d + 1; }\n", "f"),
    # so does a return in the selected case of a switch@
    "switch": (
        "function f(int@ k)(int d) { switch@ (k) { case 3: return d; "
        "default: d += 1; } int@ z = 1 / (k - 3); return d + k; }\n", "f"),
}


@pytest.mark.parametrize("name", STATIC_RETURNS)
def test_a_return_under_static_control_ends_the_unit(name):
    source, entry = STATIC_RETURNS[name]
    direct, flattened = both_routes(source, entry, [IntV(3)],
                                    EvalLimits(loop_cap=1000), [IntV(10)])
    assert emit(direct) == emit(flattened)


def test_a_return_under_dynamic_control_does_not_end_the_unit():
    source = ("function f(int@ k)(int d) { for@ (int@ i = 0; i < k; ++i) "
              "{ if (d > i) return d + i; } return d; }\n")
    for rp in both_routes(source, "f", [IntV(3)], run_args=[IntV(1)]):
        assert emit(rp).count("return") == 4


def test_a_unit_called_from_a_class_unit_is_kept():
    # a class unit is never rebuilt, so the call in its constructor stays
    source = ("function g(int@ k)(int x) { return x * k; }\n"
              "class C(int@ k) { public: int v; C() { v = g(k)(3); } }\n"
              "C(2) c;\n")
    rp = specialize_program(check_stages(parse(source), 2))
    assert [u.name for u in rp.units] == ["g__2", "C__2"]
    assert "v = g__2(3);" in emit(rp)
    check_stages(parse(emit(rp)), 1)
