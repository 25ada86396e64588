"""Cross-module invariants that do not belong to a single unit suite."""

from catat import check_stages, emit, parse, specialize_program
from catat import nodes as n
from catat import specializer, staging, staticeval
from catat.specializer import (
    SpecializationCache, alpha_equivalent, specialize_function,
)
from catat.values import FLOAT, FloatV, IntV

from conftest import all_checkable_fixture_names, fixture_source


def test_span_sanity():
    for name in all_checkable_fixture_names():
        source = fixture_source(name)
        line_count = source.count("\n") + 1
        program = parse(source)
        for node in n.walk(program):
            if node.span is None:
                continue
            assert type(node.span) is tuple, (name, node)
            line, col = node.span
            assert 1 <= line <= line_count, (name, node)
            assert col >= 1


def test_statement_nodes_carry_spans():
    program = parse(fixture_source("square_array.cat"))
    missing = [node for node in n.walk(program)
               if isinstance(node, n.Stmt) and node.span is None]
    assert not missing


def test_no_duplicate_residual_names():
    for name, entry, args in (
            ("average_call.cat", None, []),
            ("volume_cube.cat", "volumeOfCube", []),
            ("vector_sum.cat", "sum",
             [__import__("catat").values.INT])):
        staged = check_stages(parse(fixture_source(name)), 2)
        rp = specialize_program(staged, entry, args)
        names = [u.name for u in rp.units]
        assert len(names) == len(set(names)), name


def test_builder_closure_covers_dynamic_control():
    # a static loop over dynamic statements, then a dynamic if with a
    # multi-statement block and unary negation: all of it flattens
    source = """
        function clamp(int@ lo)(int x) {
            int y = 0;
            for@ (int@ i = 0; i < 2; ++i)
                y += lo;
            if (x < lo) {
                int z = -x;
                x = z + y;
            }
            return x;
        }
    """
    staged = check_stages(parse(source), 2)
    fn = staged.functions_by_key()[("clamp", 1)]
    direct = specialize_function(fn, [IntV(3)], SpecializationCache(staged))
    flattened = specialize_function(fn, [IntV(3)],
                                    SpecializationCache(staged),
                                    via_flatten=True)
    assert alpha_equivalent(direct, flattened)
    text = emit(n.Program([direct.to_function_def()]))
    assert "if (x < 3)" in text and "-x" in text


def test_dynamic_for_flattens():
    source = """
        function scale(int@ k)(int* a, int n) {
            for (int i = 0; i < n; ++i)
                a[i] *= k;
            return a[0];
        }
    """
    staged = check_stages(parse(source), 2)
    fn = staged.functions_by_key()[("scale", 1)]
    direct = specialize_function(fn, [IntV(5)], SpecializationCache(staged))
    flattened = specialize_function(fn, [IntV(5)],
                                    SpecializationCache(staged),
                                    via_flatten=True)
    assert alpha_equivalent(direct, flattened)


def test_three_level_residual_is_two_level():
    source = "int@@ a = 2;\nint@ b = a + 1;\nint c = b + 1;\n"
    staged = check_stages(parse(source), levels=3)
    rp = specialize_program(staged)
    assert ("a", IntV(2)) in rp.static_bindings
    text = emit(rp)
    assert "int@ b = 3;" in text
    assert "int c = b + 1;" in text
    # the residual is itself a well-staged two-level program,
    # and specializing it once more discharges the remaining stage
    second = check_stages(parse(text), levels=2)
    final = specialize_program(second)
    assert ("b", IntV(3)) in final.static_bindings
    assert "int c = 4;" in emit(final)


def test_float_static_arguments_lift_exactly():
    source = """
        function scaled(float@ f)(float x) {
            return f * x;
        }
    """
    staged = check_stages(parse(source), 2)
    rp = specialize_program(staged, "scaled", [FloatV(2.5)])
    assert "return 2.5 * x;" in emit(rp)


def node_classes(base):
    found = set()
    for cls in base.__subclasses__():
        found.add(cls)
        found |= node_classes(cls)
    return found


def test_every_node_class_has_a_handler_in_every_table():
    exprs = node_classes(n.Expr)
    stmts = node_classes(n.Stmt)
    assert set(staging._STMT_CHECK) == stmts
    assert set(staticeval._STMT) == stmts
    assert set(specializer._STMT) == stmts
    assert set(staging._EXPR_STAGE) == exprs
    assert set(staticeval._EXPR) == exprs
    # the specializer hands every stage-0 expression to the evaluator, so
    # it needs no handler for the classes the checker always puts at stage 0
    always_static = exprs - set(specializer._REXPR)
    assert always_static == {n.IntLit, n.FloatLit, n.BoolLit, n.StringLit,
                             n.TypeLit}
    for cls in always_static:
        assert staging._EXPR_STAGE[cls] in (staging._Checker.literal_stage,
                                            staging._Checker.type_lit_stage)
    # the call memo's purity walk decides every class, so a new one is not
    # taken for pure by default
    admitted, refused = staticeval._PURE_NODES, staticeval._IMPURE_NODES
    assert not admitted & refused
    assert exprs | stmts | node_classes(n.TypeExpr) <= admitted | refused
