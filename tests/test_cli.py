import contextlib
import io
import random
import re
import subprocess
import sys

import pytest

from catat import cli
from catat.corpus import corpus_path, provide_corpus
from catat.lexer import AT, IDENT, INT, PUNCT, STRING, tokenize

from test_compress import DYNAMIC_SWITCH

CLI = [sys.executable, "-m", "catat.cli"]


def catat(*args):
    return subprocess.run(CLI + [str(a) for a in args],
                          capture_output=True, text=True)


def fixture(name):
    return str(corpus_path(name))


def test_check_ok():
    result = catat("check", fixture("dot.cat"))
    assert result.returncode == 0
    assert result.stdout.strip() == "ok: 1 declarations"


def test_check_stage_error_exit_2():
    result = catat("check", fixture("flow_bad.cat"))
    assert result.returncode == 2
    assert "stage error" in result.stderr
    assert "DynamicToStaticFlow" in result.stderr
    # file:line:col prefix
    assert result.stderr.startswith(fixture("flow_bad.cat") + ":4:")


def test_check_congruence_error():
    result = catat("check", fixture("congruence_bad.cat"))
    assert result.returncode == 2
    assert "StaticMutationUnderDynamicControl" in result.stderr


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.cat"
    bad.write_text("function f( {")
    result = catat("check", bad)
    assert result.returncode == 1
    assert "parse error" in result.stderr


def test_specialize_writes_golden(tmp_path):
    out = tmp_path / "pow3.cat"
    result = catat("specialize", fixture("pow_two_level.cat"),
                   "--entry", "pow", "--static-args", "3", "--out", out)
    assert result.returncode == 0
    golden = corpus_path("golden/pow_3.cat").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden


def test_specialize_deterministic(tmp_path):
    args = ("specialize", fixture("average.cat"), "--entry", "average",
            "--static-args", "int")
    first = catat(*args)
    second = catat(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_specialize_error_quotes_constructor_message():
    result = catat("specialize", fixture("square_array.cat"),
                   "--entry", "SquareArray", "--static-args", "float,0,2")
    assert result.returncode == 3
    assert "compile-time error" in result.stderr
    assert "N_dim and N_length must be positive." in result.stderr


def test_via_flatten_matches_direct(tmp_path):
    for name, entry, static_args in (
            ("pow_two_level.cat", "pow", "3"),
            ("dot.cat", "dot", "3,float"),
            ("average.cat", "average", "int"),
            ("volume_cube.cat", "volumeOfCube", None)):
        base = ["specialize", fixture(name), "--entry", entry]
        if static_args:
            base += ["--static-args", static_args]
        direct = catat(*base)
        flattened = catat(*base, "--via-flatten")
        assert direct.returncode == flattened.returncode == 0, name
        assert direct.stdout == flattened.stdout, name


def test_specialized_interpreter_prints_one_function():
    # (in + 3) * (in + 1) + in * 2 + 4 * (in * 5 + 1), 27 units unfolded
    toks = "[3, 5, 1, 6, 3, 4, 2, 3, 5, 1, 6, 1, 4, 1, 5, 2, 6, 2, 1, 6, 4, " \
        "2, 3, 5, 2, 6, 5, 1, 6, 1, 4, 0]"
    result = catat("specialize", fixture("dsl_interp.cat"), "--entry",
                   "dsl_program", "--static-args", f"{toks},31")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert [line for line in lines if line.endswith("{")] == \
        ["int dsl_program__a32x997fa227_31(int in) {"]
    assert lines[-2:] == ["    return acc;", "}"]


def test_second_declaration_in_one_scope_exits_3(tmp_path):
    bad = tmp_path / "redeclared.cat"
    bad.write_text("function f(int@ k)(int d) { if (d > 5) { int t = 1; "
                   "int t = 2; d += t; } return d; }\n")
    result = catat("check", bad)
    assert result.returncode == 3
    assert result.stderr.strip() == (
        f"{bad}:1:57: compile-time error: redeclaration of 't' in the same "
        "scope")


def test_a_static_make_call_specializes_alike_on_both_routes(tmp_path):
    source = tmp_path / "builder.cat"
    source.write_text(
        "function h(int@ k)(int x) { return x * k; }\n"
        "function f(int@ k)(int d) { ASTree@ c = make_call@(\"h\", 1, 3, 1); "
        "return d + k; }\n")
    base = ("specialize", source, "--entry", "f", "--static-args", "2")
    direct, flattened = catat(*base), catat(*base, "--via-flatten")
    assert direct.returncode == flattened.returncode == 0
    assert direct.stdout == flattened.stdout
    assert "int h__3(int x) {" in direct.stdout


def test_via_flatten_with_a_class_entry_is_a_flatten_error():
    result = catat("specialize", fixture("vector_sum.cat"), "--entry",
                   "Vector", "--static-args", "int,3", "--via-flatten")
    assert result.returncode == 3
    assert result.stderr.strip() == (
        f"{fixture('vector_sum.cat')}:2:1: flatten error: class types do "
        "not flatten")


def test_dump_generator():
    result = catat("specialize", fixture("pow_two_level.cat"),
                   "--entry", "pow", "--static-args", "3",
                   "--dump-generator", "--via-flatten")
    assert result.returncode == 0
    assert "function pow_gen(int N)" in result.stdout
    assert 'make_op("*=", result, x)' in result.stdout


def test_flatten_subcommand():
    result = catat("flatten", fixture("dot.cat"), "--entry", "dot")
    assert result.returncode == 0
    assert "function dot_gen(int N, typename T)" in result.stdout


def test_flatten_beyond_two_levels_is_a_flatten_error():
    result = catat("flatten", fixture("pow_two_level.cat"), "--entry", "pow",
                   "--levels", "3")
    assert result.returncode == 3
    assert "flatten error" in result.stderr
    assert "Traceback" not in result.stderr


def test_run_residual_prints_stable_value(tmp_path):
    out = tmp_path / "pow3.cat"
    catat("specialize", fixture("pow_two_level.cat"), "--entry", "pow",
          "--static-args", "3", "--out", out)
    result = catat("run", out, "--entry", "pow__3", "--dyn-args", "2.0")
    assert result.returncode == 0
    assert result.stdout.strip() == "float 8.0"


def test_run_two_level_specializes_first():
    result = catat("run", fixture("dot.cat"), "--entry", "dot",
                   "--static-args", "3,float",
                   "--dyn-args", "[1.0,2.0,3.0],[4.0,5.0,6.0]")
    assert result.returncode == 0
    assert result.stdout.strip() == "float 32.0"


def test_run_script_prints_bindings_and_writes_nothing(tmp_path):
    out = tmp_path / "residual.cat"
    result = catat("run", fixture("factorial_script.cat"), "--out", out)
    assert result.returncode == 0
    assert "Nfact = 24" in result.stdout
    assert not out.exists()


def test_specialize_script_prints_bindings_and_writes_nothing(tmp_path):
    out = tmp_path / "residual.cat"
    result = catat("specialize", fixture("ctime_pow.cat"), "--out", out)
    assert result.returncode == 0
    assert "z = 125" in result.stdout
    assert not out.exists()


def test_depth_guard_exit_4():
    result = catat("specialize", fixture("runaway.cat"), "--max-depth", "32")
    assert result.returncode == 4
    assert "depth" in result.stderr
    assert "32" in result.stderr


def test_runtime_error_exit_5(tmp_path):
    out = tmp_path / "dot.cat"
    catat("specialize", fixture("dot.cat"), "--entry", "dot",
          "--static-args", "3,float", "--out", out)
    result = catat("run", out, "--entry", "dot__3_float",
                   "--dyn-args", "[1.0],[1.0]")
    assert result.returncode == 5
    assert "runtime error" in result.stderr


def test_levels_flag():
    result = catat("check", fixture("pow_two_level.cat"), "--levels", "3")
    assert result.returncode == 0


def test_missing_file_is_a_clean_error():
    result = catat("check", "no_such_file.cat")
    assert result.returncode == 1
    assert "catat:" in result.stderr
    assert "Traceback" not in result.stderr


def test_loop_cap_exit_4(tmp_path):
    looping = tmp_path / "loop.cat"
    looping.write_text("int@ i = 0;\nfor@ (;;)\n    i += 1;\n")
    result = catat("specialize", looping, "--loop-cap", "100")
    assert result.returncode == 4
    assert "loop" in result.stderr


def test_limits_must_be_positive():
    result = catat("check", fixture("dot.cat"), "--max-depth", "0")
    assert result.returncode == 2  # argparse usage error
    assert "must be >= 1" in result.stderr


@pytest.mark.parametrize("text, message", [
    ("int x = ²;", ":1:9: lex error: illegal character '²'"),
    ("int y = " + "(" * 5000 + "1" + ")" * 5000 + ";",
     "parse error: expression nested too deeply"),
], ids=["non-decimal-digit", "deep-nesting"])
def test_front_end_errors_exit_1_without_traceback(tmp_path, text, message):
    bad = tmp_path / "bad.cat"
    bad.write_text(text, encoding="utf-8")
    result = catat("run", bad)
    assert result.returncode == 1
    assert message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("script, code, category", [
    ("int@ r = countdown@(300);", 4, "depth error"),
    ("int r = countdown(300);", 5, "runtime error"),
], ids=["compile-time", "run-time"])
def test_deep_recursion_exits_without_traceback(tmp_path, script, code,
                                                category):
    deep = tmp_path / "deep.cat"
    countdown = corpus_path("countdown.cat").read_text(encoding="utf-8")
    deep.write_text(countdown + script + "\n", encoding="utf-8")
    result = catat("run", deep)
    assert result.returncode == code
    assert category in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("call, code, category", [
    ("int@ r = countdown@({k});", 4, "depth error"),
    ("int r = countdown({k});", 5, "runtime error"),
], ids=["compile-time", "run-time"])
def test_max_depth_is_the_binding_limit(tmp_path, call, code, category):
    countdown = corpus_path("countdown.cat").read_text(encoding="utf-8")
    outcomes = {}
    for k in (255, 256):
        script = tmp_path / f"countdown_{k}.cat"
        script.write_text(countdown + call.format(k=k) + "\n",
                          encoding="utf-8")
        outcomes[k] = catat("run", script)
    assert outcomes[255].returncode == 0
    assert outcomes[255].stdout.strip() == "r = 0"
    deep = outcomes[256]
    assert deep.returncode == code
    assert f"{category}: static call/specialization chain exceeded the " \
        "depth limit (256)" in deep.stderr
    assert "Traceback" not in deep.stderr


def test_static_loop_control_under_plain_for_exit_2(tmp_path):
    source = tmp_path / "static_for.cat"
    source.write_text("function f(int@ k)(int x) { for (int@ i = 0; i < 3; "
                      "++i) x += k; return x; }\n", encoding="utf-8")
    result = catat("specialize", source, "--entry", "f", "--static-args", "2")
    assert result.returncode == 2
    assert "StaticMutationUnderDynamicControl" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("text", ["int x = 1;\nreturn 2;\n",
                                  "int x = 1;\n{ return 2; }\n"],
                         ids=["statement", "block"])
@pytest.mark.parametrize("command", ["check", "specialize", "run"])
def test_top_level_return_exits_1(tmp_path, text, command):
    script = tmp_path / "script.cat"
    script.write_text(text, encoding="utf-8")
    result = catat(command, script)
    assert result.returncode == 1
    assert ":2:" in result.stderr
    assert "parse error: return outside a function" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["specialize", "run"])
def test_static_error_message_string_exits_3(command):
    # "in in": the DSL interpreter rejects the trailing tokens through
    # Catat_error@("...")
    extra = ["--dyn-args", "3"] if command == "run" else []
    result = catat(command, fixture("dsl_interp.cat"), "--entry",
                   "dsl_program", "--static-args", "[5,5,0],2", *extra)
    assert result.returncode == 3
    assert "compile-time error: malformed program: trailing tokens" \
        in result.stderr
    assert "Traceback" not in result.stderr


def test_static_subscript_out_of_range_exits_3(tmp_path):
    source = tmp_path / "oob.cat"
    source.write_text("function f(int@* a)(int x) { return x + a[2]; }\n")
    result = catat("specialize", source, "--entry", "f", "--static-args",
                   "[7,8]")
    assert result.returncode == 3
    assert "index 2 outside array of length 2" in result.stderr
    assert "Traceback" not in result.stderr


UNROLLED = ("function f(int@ k)(int d) {\n"
            "    int r = d;\n"
            "    for@ (int@ i = 0; i < k; ++i) r += 1;\n"
            "    return r;\n}\n")
RESIDUAL_LOOP = ("int f(int d) {\n"
                 "    int r = 0;\n"
                 "    for (int i = 0; i < d; ++i) r += 1;\n"
                 "    return r;\n}\n")


@pytest.mark.parametrize("route", [[], ["--via-flatten"]],
                         ids=["direct", "flatten"])
def test_loop_cap_is_exact_when_unrolling(tmp_path, route):
    source = tmp_path / "unrolled.cat"
    source.write_text(UNROLLED)
    spec = ["specialize", source, "--entry", "f", "--loop-cap", "5", *route,
            "--static-args"]
    assert catat(*spec, "5").returncode == 0
    over = catat(*spec, "6")
    assert over.returncode == 4
    # the for@ is on line 3, column 5, on both routes
    assert over.stderr.strip() == (
        f"{source}:3:5: loop error: loop iteration cap (5) exceeded during "
        "unrolling")


def test_loop_cap_is_exact_at_run_time(tmp_path):
    source = tmp_path / "loop.cat"
    source.write_text(RESIDUAL_LOOP)
    run = ["run", source, "--entry", "f", "--loop-cap", "5", "--dyn-args"]
    ok = catat(*run, "5")
    assert ok.returncode == 0
    assert ok.stdout.strip() == "int 5"
    over = catat(*run, "6")
    assert over.returncode == 5
    assert "loop iteration cap (5) exceeded" in over.stderr


def test_dynamic_global_read_at_compile_time_exits_2(tmp_path):
    source = tmp_path / "leak.cat"
    source.write_text("int g = 5;\nfunction h() { return g; }\n"
                      "int@ s = h@();\n")
    result = catat("specialize", source)
    assert result.returncode == 2
    assert "dynamic variable 'g' read at compile time" in result.stderr
    assert "Traceback" not in result.stderr


# Each error class the flatten route's generator can raise, with the line
# ``catat specialize --via-flatten`` prints and its exit code.  A static
# value with no literal form is reported where the direct route reports it:
# each builder call the flattener writes has its source node's span.
GENERATOR_ERRORS = {
    "loop cap": (
        "function f(int@ k)(int d) {\n    int r = d;\n"
        "    for@ (int@ i = 0; i < k; ++i) r += 1;\n    return r;\n}\n",
        ["--static-args", "6", "--loop-cap", "5"], 4,
        "3:5: loop error: loop iteration cap (5) exceeded during unrolling"),
    "depth of the chain": (
        "function f(int@ n)(int d) {\n"
        "    if@ (n > 0) return f(n - 1)(d);\n    return d;\n}\n",
        ["--static-args", "5", "--max-depth", "5"], 4,
        "1:1: depth error: static call/specialization chain exceeded the "
        "depth limit (5)"),
    "depth of a static call": (
        "function r(int n) { if (n == 0) return 0; return r(n - 1) + 1; }\n"
        "function f(int@ k)(int d) {\n    int@ z = r@(k);\n"
        "    return d + z;\n}\n",
        ["--static-args", "9", "--max-depth", "6"], 4,
        "1:50: depth error: static call/specialization chain exceeded the "
        "depth limit (6)"),
    "a static array in dynamic code": (
        "function f(int@* a)(int d) {\n    return d + a;\n}\n",
        ["--static-args", "[1]"], 3,
        "2:14: compile-time error: an array has no literal form in dynamic "
        "code"),
    "a static array indexed by a dynamic value": (
        "function f(int@* a)(int d) {\n    return a[d];\n}\n",
        ["--static-args", "[1,2]"], 3,
        "2:13: compile-time error: a static array cannot flow into dynamic "
        "code (dynamic index into static data)"),
    "malformed fragment": (
        "function f(int@ k)(int d) {\n"
        "    ASTree@ t = make_op(\"+\", make_varref(\"d\"), make_block());\n"
        "    return d;\n}\n",
        ["--static-args", "1"], 3,
        "2:17: compile-time error: Block is not an expression fragment"),
    "Catat_error@": (
        "function f(int@ k)(int d) {\n"
        "    if@ (k > 2) Catat_error@(\"too big\");\n    return d;\n}\n",
        ["--static-args", "3"], 3, "2:17: compile-time error: too big"),
}


def test_a_dynamic_switch_is_a_flatten_error(tmp_path):
    source = tmp_path / "switch.cat"
    source.write_text(DYNAMIC_SWITCH)
    result = catat("specialize", source, "--entry", "f", "--static-args",
                   "2", "--via-flatten")
    assert result.returncode == 3
    assert result.stderr.strip() == (
        f"{source}:4:5: flatten error: dynamic switch does not flatten")


@pytest.mark.parametrize("case", GENERATOR_ERRORS.values(),
                         ids=GENERATOR_ERRORS.keys())
def test_generator_errors_keep_their_message_and_exit_code(tmp_path, case):
    text, args, code, message = case
    source = tmp_path / "gen.cat"
    source.write_text(text)
    result = catat("specialize", source, "--entry", "f", "--via-flatten",
                   *args)
    assert result.returncode == code
    assert result.stderr.strip() == f"{source}:{message}"


@pytest.mark.parametrize("case", [
    GENERATOR_ERRORS["a static array in dynamic code"],
    GENERATOR_ERRORS["a static array indexed by a dynamic value"],
], ids=["lifted", "indexed"])
def test_static_arrays_in_dynamic_code_print_alike_on_both_routes(tmp_path,
                                                                  case):
    text, args, code, message = case
    source = tmp_path / "array.cat"
    source.write_text(text)
    spec = ["specialize", source, "--entry", "f", *args]
    for result in (catat(*spec), catat(*spec, "--via-flatten")):
        assert result.returncode == code
        assert result.stderr.strip() == f"{source}:{message}"


# -- the CLI contract on mutated input: every command on every mutant exits
# -- with a documented code, 0 to 5, and no exception escapes

MUTANT_INTS = ("0", "1", "2", "3", "7", "100", str(2 ** 63 - 1))
MUTANT_OPS = ("+", "-", "*", "/", "%", "==", "!=", "<", ">", "<=", ">=",
              "&&", "||")
STRING_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def token_extents(source):
    """(start, end, token) of each token of ``source``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    extents = []
    for tok in tokenize(source):
        start = starts[tok.line - 1] + tok.col - 1
        end = STRING_TOKEN.match(source, start).end() \
            if tok.kind == STRING else start + len(tok.text)
        extents.append((start, end, tok))
    return extents


def mutate(source, extents, rng):
    """``source`` with one token changed: an int literal replaced, a binary
    operator swapped, an ``@`` run dropped or doubled, an identifier
    replaced by another of the file's or given an ``@``, or any other
    token deleted."""
    start, end, tok = rng.choice(extents)
    if tok.kind == INT:
        new = rng.choice(MUTANT_INTS)
    elif tok.kind == PUNCT and tok.text in MUTANT_OPS:
        new = rng.choice([op for op in MUTANT_OPS if op != tok.text])
    elif tok.kind == AT:
        new = rng.choice(("", tok.text * 2))
    elif tok.kind == IDENT:
        names = sorted({t.text for _, _, t in extents if t.kind == IDENT})
        new = rng.choice([*names, tok.text + "@"])
    else:
        new = ""
    return source[:start] + new + source[end:]


def mutant_commands(path, fixture):
    """The commands each mutant of ``fixture`` runs, with a loop cap."""
    commands = [["check", path]]
    entry = fixture.first("entry")
    if entry:
        spec = ["--entry", entry]
        if fixture.first("static-args") is not None:
            spec += ["--static-args", fixture.first("static-args")]
        commands += [["specialize", path, *spec],
                     ["specialize", path, *spec, "--via-flatten"],
                     ["run", path, *spec,
                      "--dyn-args", fixture.first("run-args", ""),
                      "--step-limit", "100000"]]
    return [[*c, "--loop-cap", "1000"] for c in commands]


def test_mutated_corpus_exits_with_a_documented_code(tmp_path):
    rng = random.Random(0)
    fixtures = [(f, f.source()) for f in provide_corpus()]
    fixtures = [(f, text, token_extents(text)) for f, text in fixtures]
    for i in range(400):
        fixture, source, extents = fixtures[i % len(fixtures)]
        path = tmp_path / f"mutant{i}.cat"
        path.write_text(mutate(source, extents, rng), encoding="utf-8")
        for command in mutant_commands(str(path), fixture):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(command)
            assert code in range(6), (command, path.read_text())
