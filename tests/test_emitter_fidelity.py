"""``catat.emitter`` against ``reference_emitter``, the emitter it replaced:
``emit``, ``emit_function``, ``emit_stmt`` and ``emit_expr`` give the same
text, or the same error, on every corpus and golden file, every residual
of one, every fixture's residual on both routes, and a derandomized
strategy over every expression class and operator, in the statement
positions whose operands the emitter reads inline."""

import pytest
from hypothesis import given, settings, strategies as st

from catat import emit, emitter, nodes as n, parse
from catat.cli import parse_arg_list
from catat.corpus import corpus_path, provide_corpus
from catat.errors import CatatError
from catat.specializer import specialize_program

import reference_emitter
from conftest import front_end_texts, staged_fixture


def outcome(write, node):
    try:
        return write(node)
    except TypeError as error:
        return (TypeError, str(error))


def assert_same(name, node):
    expected = outcome(getattr(reference_emitter, name), node)
    assert outcome(getattr(emitter, name), node) == expected


def assert_same_everywhere(program):
    """The program, each function, statement and expression in it."""
    assert_same("emit", program)
    for node in n.walk(program):
        if isinstance(node, n.FunctionDef):
            assert_same("emit_function", node)
        elif isinstance(node, n.Stmt):
            assert_same("emit_stmt", node)
        elif isinstance(node, n.Expr):
            assert_same("emit_expr", node)


def parsed(text):
    try:
        return parse(text)
    except CatatError:
        return None


GOLDEN = sorted(p.name for p in corpus_path("golden").glob("*.cat"))
TEXTS = dict(front_end_texts())


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_files(name):
    text = corpus_path(f"golden/{name}").read_text(encoding="utf-8")
    program = parse(text)
    assert emit(program) == reference_emitter.emit(program)
    assert_same_everywhere(program)


@pytest.mark.parametrize("label", TEXTS)
def test_corpus_and_residual_texts(label):
    program = parsed(TEXTS[label])
    if program is not None:
        assert_same_everywhere(program)


RESIDUAL_JOBS = [(f.name, f.first("entry"), f.first("static-args") or "")
                 for f in provide_corpus() if f.first("check") == "ok"]


@pytest.mark.parametrize("via_flatten", [False, True],
                         ids=["direct", "flatten"])
@pytest.mark.parametrize("name, entry, args", RESIDUAL_JOBS,
                         ids=[job[0] for job in RESIDUAL_JOBS])
def test_fixture_residuals_on_both_routes(name, entry, args, via_flatten):
    try:
        rp = specialize_program(staged_fixture(name), entry,
                                parse_arg_list(args),
                                via_flatten=via_flatten)
    except CatatError:
        return
    text = emit(rp)
    assert text == reference_emitter.emit(rp)
    assert parse(text) == rp.to_program_ast()
    assert_same_everywhere(rp.to_program_ast())


# -- generated trees --------------------------------------------------------

NAMES = st.sampled_from(["x", "a", "acc", "t_2", "T"])
COUNTS = st.integers(0, 2)


def var(name):
    return n.VarRef(name)


# Shapes whose text turns on a sign, a precedence or an escape.
HAND_BUILT = [
    n.IntLit(-3), n.IntLit(-2 ** 63), n.IntLit(2 ** 63 - 1),
    n.Unary("-", n.Unary("-", var("x"))), n.Unary("-", n.IntLit(-3)),
    n.Unary("-", n.FloatLit(-0.0)), n.Binary("-", n.IntLit(1), n.IntLit(-3)),
    n.Unary("!", n.Unary("!", var("b"))),
    n.Cond(n.Cond(var("a"), var("b"), var("c")),
           n.Cond(var("d"), var("e"), var("f")),
           n.Cond(var("g"), var("h"), var("i"))),
    n.Unary("-", n.Subscript(var("a"), n.IntLit(0))),
    n.Unary("-", n.Call("f", [var("x")])),
    n.Incr("++", n.Subscript(var("a"), var("i"))),
    n.Subscript(n.Unary("-", var("a")), n.IntLit(1)),
    n.Subscript(n.Subscript(var("m"), n.IntLit(1)), n.IntLit(-2)),
    n.FloatLit(float("inf")), n.FloatLit(float("-inf")),
    n.Unary("-", n.FloatLit(float("inf"))), n.FloatLit(-0.0),
    n.StringLit('a"b\\c\nd\te'), n.StringLit(""),
]


def types(exprs):
    prim = st.builds(n.PrimType, st.sampled_from(n.PRIM_TYPE_NAMES),
                     COUNTS)
    named = st.builds(n.NamedType, NAMES, COUNTS)
    return st.recursive(
        st.one_of(prim, named),
        lambda inner: st.one_of(
            st.builds(n.ClassAppType, NAMES, st.lists(exprs, max_size=2),
                      st.booleans(), COUNTS),
            st.builds(n.PointerType, inner),
            st.builds(n.ArrayType, inner, exprs)),
        max_leaves=3)


LEAVES = {
    n.IntLit: st.builds(n.IntLit, st.integers(-2 ** 63, 2 ** 63 - 1)),
    n.FloatLit: st.builds(n.FloatLit, st.floats(allow_nan=False)),
    n.BoolLit: st.builds(n.BoolLit, st.booleans()),
    n.StringLit: st.builds(n.StringLit,
                           st.text(alphabet='ab "\\\n\t', max_size=5)),
    n.VarRef: st.builds(n.VarRef, NAMES),
}
LEAF = st.one_of(*LEAVES.values(), st.sampled_from(HAND_BUILT))
# a[3], the other shape read inline
INDEXED = st.builds(n.Subscript, st.builds(n.VarRef, NAMES),
                    st.builds(n.IntLit, st.integers(-5, 5)))


def compound(exprs):
    return {
        n.TypeLit: st.builds(n.TypeLit, types(LEAF)),
        n.Unary: st.builds(n.Unary, st.sampled_from(["-", "!"]), exprs),
        n.Incr: st.builds(n.Incr, st.sampled_from(["++", "--"]), exprs),
        n.Binary: st.builds(n.Binary, st.sampled_from(sorted(emitter._PREC)),
                            exprs, exprs),
        n.Cond: st.builds(n.Cond, exprs, exprs, exprs),
        n.Subscript: st.builds(n.Subscript, exprs, exprs),
        n.Call: st.builds(n.Call, NAMES, st.lists(exprs, max_size=3),
                          st.none() | st.lists(exprs, max_size=2), COUNTS),
    }


EXPRS = st.recursive(
    LEAF, lambda exprs: st.one_of(INDEXED, *compound(exprs).values()),
    max_leaves=10)


def test_the_strategy_builds_every_expression_class_and_operator():
    assert set(LEAVES) | set(compound(LEAF)) == set(emitter._EXPR)
    assert emitter._PREC == reference_emitter._PREC


# Leaf operands in each position a statement reads inline.
HAND_BUILT_STMTS = [
    n.Assign(n.Subscript(var("a"), n.IntLit(-1)), "=",
             n.Subscript(var("a"), n.IntLit(-2))),
    n.Assign(var("x"), "-=", n.IntLit(-3)),
    n.Assign(var("x"), "+=", n.Binary("*", n.Subscript(var("a"), n.IntLit(-1)),
                                      n.IntLit(-2))),
    n.Assign(n.Subscript(n.Unary("-", var("a")), n.IntLit(0)), "=",
             n.Unary("-", n.IntLit(-1))),
    n.VarDecl(n.PrimType("int"), [
        n.Declarator("x", None, n.IntLit(-1)),
        n.Declarator("y", n.IntLit(2), n.Subscript(var("a"), n.IntLit(-2))),
        n.Declarator("z", None, var("x"))]),
]


@pytest.mark.parametrize("stmt", HAND_BUILT_STMTS)
def test_hand_built_statements(stmt):
    assert_same("emit_stmt", stmt)


# statements hold smaller expressions, as residuals do
SMALL = st.recursive(
    LEAF, lambda exprs: st.one_of(INDEXED, *compound(exprs).values()),
    max_leaves=3)
OPERANDS = st.one_of(LEAF, INDEXED, SMALL)
SIMPLE = st.one_of(
    st.builds(n.Assign, OPERANDS,
              st.sampled_from(["=", "+=", "-=", "*=", "/=", "%="]), OPERANDS),
    st.builds(n.VarDecl, types(LEAF), st.lists(st.builds(
        n.Declarator, NAMES, st.none() | OPERANDS, st.none() | OPERANDS),
        min_size=1, max_size=3), st.booleans()),
    st.builds(n.ExprStmt, SMALL),
    st.builds(n.Return, st.none() | OPERANDS),
    st.sampled_from(HAND_BUILT_STMTS),
)


def _statements(stmts):
    body = st.lists(stmts, max_size=3)
    clause = st.none() | SIMPLE
    return st.one_of(
        st.builds(n.Block, body),
        st.builds(n.If, SMALL, stmts, st.none() | stmts, COUNTS, COUNTS),
        st.builds(n.For, clause, st.none() | SMALL, clause, stmts, COUNTS),
        st.builds(n.Switch, SMALL, st.lists(st.builds(
            n.SwitchCase, st.none() | SMALL, body), max_size=2), COUNTS),
    )


STMTS = st.recursive(SIMPLE, _statements, max_leaves=5)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(EXPRS)
def test_generated_expressions(expr):
    assert_same("emit_expr", expr)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(STMTS, min_size=1, max_size=3), types(LEAF))
def test_generated_statements_and_functions(stmts, rtype):
    for s in stmts:
        assert_same("emit_stmt", s)
    fn = n.FunctionDef("f", None, [n.Param("x", rtype)], n.Block(stmts),
                       rtype)
    assert_same("emit_function", fn)
    assert_same("emit", n.Program([fn, *stmts]))


def test_an_unknown_node_is_the_same_type_error_in_every_position():
    class Strange(n.Expr):
        __slots__ = ()

    class Odd(n.Stmt):
        __slots__ = ()

    for node in [
        Strange(), n.Binary("+", Strange(), var("x")),
        n.Binary("*", n.IntLit(1), Strange()),
        n.Subscript(Strange(), n.IntLit(0)), n.Subscript(var("a"), Strange()),
        n.Assign(Strange(), "=", n.IntLit(1)),
        n.Assign(var("x"), "+=", Strange()),
        n.VarDecl(n.PrimType("int"), [n.Declarator("x", None, Strange())]),
        n.Block([n.Return(var("x")), Odd()]), n.If(var("c"), Odd()),
        n.For(None, None, None, Odd()), Odd(),
    ]:
        name = "emit_expr" if isinstance(node, n.Expr) else "emit_stmt"
        assert_same(name, node)
        assert isinstance(outcome(getattr(emitter, name), node), tuple)
