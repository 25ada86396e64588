"""The walker reads a ``VarRef`` or ``IntLit`` operand inside its parent's
handler: ``a[3]`` whole, a literal operand of a binary operator, the value
and ``VarRef`` target of an assignment, and a scalar declaration.  Those
paths must give what the generic handlers give, which dispatch every leaf
through ``eval_expr``: the same value and step count, and the same error
class, message and span, also at the step limit.

The generic handlers below are the reference.  Each case runs with the
walker as it stands and with the reference handlers swapped in.  Each case
also has a twin whose operands are not leaves (``a[3]`` and ``a[2 + 1]``),
which must give the same value or error, in as many more steps as it has
more nodes."""

import pytest

from catat import CatatError, EvalLimits, check_stages, emit, parse, run
from catat import nodes as n
from catat import staticeval
from catat.specializer import specialize_program
from catat.staticeval import (
    Interpreter, array_of, binop, cell_index, store, store_cell,
)
from catat.values import ArrayV, DOUBLE, FloatV, INT, IntV, Slot, coerce


def generic_subscript(self, e, env):
    arr = array_of(self.eval_expr(e.base, env), e.span)
    return arr.cells[cell_index(arr, self.eval_expr(e.index, env), e.span)]


def generic_binary(self, e, env):
    if e.op in ("&&", "||"):
        return Interpreter._eval_binary(self, e, env)
    return binop(e.op, self.eval_expr(e.lhs, env), self.eval_expr(e.rhs, env),
                 e.span)


def generic_assign(self, stmt, env):
    value = self.eval_expr(stmt.value, env)
    target = stmt.target
    if isinstance(target, n.VarRef):
        store(env, target.name, stmt.op, value, stmt.span)
        return
    arr = array_of(self.eval_expr(target.base, env), target.span)
    store_cell(arr, cell_index(arr, self.eval_expr(target.index, env),
                               target.span), stmt.op, value, stmt.span)


def generic_var_decl(self, stmt, env):
    for d in stmt.declarators:
        dtype = stmt.dtype
        if d.array_size is not None:
            dtype = n.ArrayType(dtype, d.array_size)
        tv = self.resolve_type(dtype, env, stmt.span)
        value = coerce(self.eval_expr(d.init, env), tv, d.span) \
            if d.init is not None else self.default_value(tv, d.span)
        env.declare(d.name, Slot(value, tv), d.span)


@pytest.fixture
def generic(monkeypatch):
    """Swap the reference handlers in, for the rest of the test."""
    def swap():
        for table, cls, handler in (
                (staticeval._EXPR, n.Subscript, generic_subscript),
                (staticeval._EXPR, n.Binary, generic_binary),
                (staticeval._STMT, n.Assign, generic_assign),
                (staticeval._STMT, n.VarDecl, generic_var_decl)):
            monkeypatch.setitem(table, cls, handler)
    return swap


def outcome(thunk):
    """("ok", result) or the error's (class name, message, span)."""
    try:
        return "ok", thunk()
    except CatatError as e:
        return type(e).__name__, e.message, e.span


def run_outcome(source, args, step_limit=None):
    """Run ``f`` without the stage check, which would catch an unbound
    name first: (value, steps) or the error."""
    def go():
        result = run(parse(source), "f", args,
                     EvalLimits(step_limit=step_limit), check=False)
        return result.value, result.steps
    return outcome(go)


def size(source):
    return sum(1 for node in n.walk(parse(source))
               if isinstance(node, (n.Expr, n.Stmt)))


def ints(*values):
    return ArrayV(INT, [IntV(v) for v in values])


def doubles(*values):
    return ArrayV(DOUBLE, [FloatV(v) for v in values])


# (id, leaf program, twin without leaf operands, arguments of f): programs
# that run to a value, then programs that raise
VALUES = [
    ("literal index", "function f(int* a) { return a[1] + a[2]; }",
     "function f(int* a) { return a[0 + 1] + a[(1 + 1)]; }",
     [ints(4, 5, 6)]),
    ("literal operands", "function f(int d) { return 3 * d - d * 2; }",
     "function f(int d) { return (1 + 2) * d - d * (1 + 1); }", [IntV(7)]),
    ("compound assignment",
     "function f(double* a) { double r = 0; r += a[0] * a[1]; r *= r; "
     "r -= 1; int k = 2; k = 5; k %= 3; return r + k; }",
     "function f(double* a) { double r = 0 + 0; r += a[0] * a[1]; "
     "r *= r + 0.0; r -= 0 + 1; int k = 2 + 0; k = 5 + 0; k %= 1 + 2; "
     "return r + k; }",
     [doubles(1.5, 2.0)]),
    ("int and float compound assignment",
     "function f(int d) { int x = d; float y = 1; y += x; x += d; "
     "x *= 3; return x + y; }",
     "function f(int d) { int x = d + 0; float y = 1 + 0; y += x + 0; "
     "x += d + 0; x *= 1 + 2; return x + y; }", [IntV(4)]),
    ("scalar declarations",
     "function f(int d) { int x = d, y = 7; double z = y; bool b = true; "
     "long int w; return x + y + z + w; }",
     "function f(int d) { int x = d + 0, y = 3 + 4; double z = y + 0; "
     "bool b = true; long int w; return x + y + z + w; }", [IntV(2)]),
]
ERRORS = [
    ("literal index out of bounds", "function f(int* a) { return a[5]; }",
     "function f(int* a) { return a[4 + 1]; }", [ints(1, 2)]),
    ("non-array base", "function f(int d) { return d[0]; }",
     "function f(int d) { return d[0 + 0]; }", [IntV(1)]),
    ("unbound base", "function f(int d) { return q[0]; }",
     "function f(int d) { return q[0 + 0]; }", [IntV(1)]),
    ("unbound initializer", "function f(int d) { int y = q; return y; }",
     "function f(int d) { int y = q + 0; return y; }", [IntV(1)]),
    ("unbound value", "function f(int d) { d = q; return d; }",
     "function f(int d) { d = q + 0; return d; }", [IntV(1)]),
    ("unbound target", "function f(int d) { q = d; return d; }",
     "function f(int d) { q = d + 0; return d; }", [IntV(1)]),
    ("int64 overflow in +=",
     "function f(int d) { int x = 4611686018427387904; x += x; return x; }",
     "function f(int d) { int x = 4611686018427387904; x += x + 0; "
     "return x; }", [IntV(1)]),
    ("int64 overflow in *=",
     "function f(int d) { int x = 4611686018427387904; x *= 2; return x; }",
     "function f(int d) { int x = 4611686018427387904; x *= 1 + 1; "
     "return x; }", [IntV(1)]),
    ("bad coerce in a declaration",
     "function f(int d) { bool b = 1; return d; }",
     "function f(int d) { bool b = 0 + 1; return d; }", [IntV(1)]),
    ("bad coerce in an assignment",
     "function f(int d) { bool b = true; b = d; return d; }",
     "function f(int d) { bool b = true; b = d + 0; return d; }", [IntV(1)]),
    ("redeclared scalar", "function f(int d) { int x = 1, x = 2; return d; }",
     "function f(int d) { int x = 1, x = 1 + 1; return d; }", [IntV(1)]),
]


@pytest.mark.parametrize("leaf, twin, args, raises_nothing",
                         [pytest.param(*case[1:], True, id=case[0])
                          for case in VALUES] +
                         [pytest.param(*case[1:], False, id=case[0])
                          for case in ERRORS])
def test_inline_paths_run_as_the_generic_handlers(generic, leaf, twin, args,
                                                  raises_nothing):
    inline, twinned = run_outcome(leaf, args), run_outcome(twin, args)
    assert (inline[0] == "ok") == raises_nothing
    generic()
    assert run_outcome(leaf, args) == inline
    if inline[0] != "ok":
        assert twinned == inline
        return
    # the step count is one per statement and expression node evaluated:
    # the twin evaluates each of its extra nodes once
    (value, steps), (twin_value, twin_steps) = inline[1], twinned[1]
    assert twin_value == value
    assert twin_steps - steps == size(twin) - size(leaf)


@pytest.mark.parametrize("leaf, args",
                         [pytest.param(case[1], case[3], id=case[0])
                          for case in VALUES])
def test_inline_paths_keep_the_step_limit_boundary(generic, leaf, args):
    steps = run_outcome(leaf, args)[1][1]
    inline = {limit: run_outcome(leaf, args, limit)
              for limit in range(1, steps + 1)}
    assert inline[steps][0] == "ok"
    assert inline[steps - 1][0] == "StepLimitExceeded"
    generic()
    assert {limit: run_outcome(leaf, args, limit)
            for limit in range(1, steps + 1)} == inline


def test_the_step_limit_falls_at_the_leaf_that_passes_it():
    # return a[1]: the return is step 1, the subscript 2, its base 3 and
    # its index 4
    source = "function f(int* a) { return a[1]; }"
    index = parse(source).functions()[0].body.stmts[0].value.index
    assert run_outcome(source, [ints(4, 5)], 4)[0] == "ok"
    assert run_outcome(source, [ints(4, 5)], 3) == (
        "StepLimitExceeded", "step limit (3) exceeded", index.span)


# Static evaluation while specializing: (id, leaf program, twin, static
# arguments).  Each static leaf is read by the walker.
SPECIALIZATIONS = [
    ("static leaves",
     "function f(int@* s)(int d) { int@ x = s[1]; x += s[0] * 2; x *= 3; "
     "int@ y = x, z = 4; return d + y * z; }",
     "function f(int@* s)(int d) { int@ x = s[0 + 1]; x += s[0 + 0] * "
     "(1 + 1); x *= 1 + 2; int@ y = x + 0, z = 2 + 2; return d + y * z; }",
     [ints(4, 5)]),
    ("static literal index out of bounds",
     "function f(int@* s)(int d) { int@ x = s[5]; return d + x; }",
     "function f(int@* s)(int d) { int@ x = s[4 + 1]; return d + x; }",
     [ints(4, 5)]),
    ("static non-array base",
     "function f(int@ k)(int d) { int@ x = k[0]; return d + x; }",
     "function f(int@ k)(int d) { int@ x = k[0 + 0]; return d + x; }",
     [IntV(3)]),
    ("static int64 overflow",
     "function f(int@ k)(int d) { int@ x = 4611686018427387904; x += x; "
     "return d + x; }",
     "function f(int@ k)(int d) { int@ x = 4611686018427387904; "
     "x += x + 0; return d + x; }", [IntV(3)]),
    ("static bad coerce",
     "function f(int@ k)(int d) { bool@ b = k; return d; }",
     "function f(int@ k)(int d) { bool@ b = k + 0; return d; }", [IntV(3)]),
    ("dynamic array read at compile time",
     "int a[2];\nfunction h() { return a[0]; }\nint@ s = h@();\n",
     "int a[2];\nfunction h() { return a[0 + 0]; }\nint@ s = h@();\n", []),
    ("dynamic scalar read at compile time",
     "int g = 5;\nfunction h() { int t = g; return t; }\nint@ s = h@();\n",
     "int g = 5;\nfunction h() { int t = g + 0; return t; }\n"
     "int@ s = h@();\n", []),
]


def specialize_outcome(source, static_args):
    staged = check_stages(parse(source), 2)
    entry = "f" if static_args else None
    return outcome(lambda: emit(specialize_program(staged, entry,
                                                   static_args)))


@pytest.mark.parametrize("leaf, twin, static_args",
                         [pytest.param(*case[1:], id=case[0])
                          for case in SPECIALIZATIONS])
def test_static_evaluation_reads_leaves_as_the_generic_handlers(
        generic, leaf, twin, static_args):
    inline = specialize_outcome(leaf, static_args)
    assert specialize_outcome(twin, static_args) == inline
    generic()
    assert specialize_outcome(leaf, static_args) == inline
