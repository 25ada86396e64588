import contextlib
import io
import random
import subprocess
import sys

import pytest

from catat import cli
from catat.corpus import corpus_path, provide_corpus
from catat.lexer import (
    AT, IDENT, INT, PUNCT, STRING, STRING_LITERAL, tokenize,
)

from test_compress import DYNAMIC_SWITCH
from test_parser import NESTED_TOO_DEEPLY, NESTINGS

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


@pytest.mark.parametrize("command", ["check", "run"])
def test_end_of_input_after_a_string_is_past_its_closing_quote(tmp_path,
                                                               command):
    bad = tmp_path / "bad.cat"
    bad.write_text('x = "a\\"b"', encoding="utf-8")
    result = catat(command, bad)
    assert result.returncode == 1
    assert result.stderr.strip() == \
        f"{bad}:1:11: parse error: expected ';', found end of input"


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
    # h__3 is made, but no residual statement calls it
    assert "h__3" not in direct.stdout


def test_a_top_level_static_make_call_specializes_alike_on_both_routes(
        tmp_path):
    source = tmp_path / "builder.cat"
    source.write_text(
        "function h(int@ k)(int x) { return x * k; }\n"
        "ASTree@ c = make_call@(\"h\", 1, 3, 1);\n"
        "function f(int@ k)(int d) { return d + k; }\n")
    base = ("specialize", source, "--entry", "f", "--static-args", "1")
    direct, flattened = catat(*base), catat(*base, "--via-flatten")
    assert direct.returncode == flattened.returncode == 0
    assert direct.stdout == flattened.stdout
    assert "int f__1(int d) {" in direct.stdout
    assert "h__3" not in direct.stdout


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


@pytest.mark.parametrize("args, code, message", [
    (["specialize", "{negate}", "--entry", "nope", "--static-args", "2"], 2,
     "stage error: no function 'nope' taking 1 static argument(s) and no "
     "class of that name"),
    (["flatten", "{negate}"], 1, "parse error: flatten requires --entry"),
    (["run", "{dot}", "--entry", "dot", "--static-args", "3, int",
      "--dyn-args", "[1.5,2.5,3.5],[4,5,6]"], 5,
     "runtime error: array element type float does not match int"),
], ids=["unknown-entry", "missing-entry", "argument-type"])
def test_a_diagnostic_without_a_position_names_only_the_file(tmp_path, args,
                                                            code, message):
    negate = tmp_path / "negate.cat"
    negate.write_text(NEGATE)
    files = {"negate": str(negate), "dot": fixture("dot.cat")}
    args = [a.format(**files) for a in args]
    result = catat(*args)
    assert result.returncode == code
    assert result.stderr == f"{args[1]}: {message}\n"


@pytest.mark.parametrize("name, static_args, dyn_args, printed", [
    ("dot", "3, double", "[1.0,2.0,3.0],[4.0,5.0,6.0]", "float 32.0"),
    ("dot", "3, char", "[1,2,3],[4,5,6]", "int 32"),
    ("average", "long int", "[1,2,3],3", "float 2.0"),
    ("average", "double", "[1,2,3],3", "float 2.0"),
], ids=["float-list-to-double", "int-list-to-char", "int-list-to-long-int",
        "int-list-to-double"])
def test_an_array_argument_takes_its_parameter_element_type(
        name, static_args, dyn_args, printed):
    result = catat("run", fixture(f"{name}.cat"), "--entry", name,
                   "--static-args", static_args, "--dyn-args", dyn_args)
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, printed + "\n", "")


def test_a_float_array_argument_does_not_bind_to_an_int_parameter():
    path = fixture("average.cat")
    result = catat("run", path, "--entry", "average", "--static-args", "int",
                   "--dyn-args", "[1.5],1")
    assert result.returncode == 5
    assert result.stderr == (f"{path}: runtime error: array element type "
                             "float does not match int\n")


FLAT_SUM = "function f(int@ k)(int x) {{ return {}; }}\n"


@pytest.mark.parametrize("command", [
    ["check"], ["specialize", "--entry", "f", "--static-args", "1"],
    ["run", "--entry", "f", "--static-args", "1", "--dyn-args", "2"],
], ids=["check", "specialize", "run"])
def test_a_long_flat_sum_prints_no_traceback(tmp_path, command):
    # The parser takes a sum of any length in a loop; the stage checker
    # recurses once per operator.
    source = tmp_path / "sum.cat"
    source.write_text(FLAT_SUM.format(" + ".join(["x"] * 600)))
    result = catat(command[0], source, *command[1:])
    assert 0 <= result.returncode <= 5
    assert "Traceback" not in result.stderr


def test_a_flat_sum_within_the_stack_runs(tmp_path):
    source = tmp_path / "sum.cat"
    source.write_text(FLAT_SUM.format(" + ".join(["x"] * 450)))
    result = catat("run", source, "--entry", "f", "--static-args", "1",
                   "--dyn-args", "2")
    assert (result.returncode, result.stdout) == (0, "int 900\n")


def test_levels_flag():
    result = catat("check", fixture("pow_two_level.cat"), "--levels", "3")
    assert result.returncode == 0


def test_missing_file_is_a_clean_error():
    result = catat("check", "no_such_file.cat")
    assert result.returncode == 1
    assert "catat:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", [
    ["check"], ["specialize", "--entry", "f"], ["run"],
    ["flatten", "--entry", "f"],
], ids=["check", "specialize", "run", "flatten"])
def test_a_source_that_is_not_utf8_is_a_clean_error(tmp_path, command):
    bad = tmp_path / "bad.cat"
    bad.write_bytes(b"\xff\xfe bad")
    result = catat(command[0], bad, *command[1:])
    assert result.returncode == 1
    assert result.stderr == (
        f"catat: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")


ADD_STATIC = "function f(int@ k)(int d) { return d + k; }\n"
LAST_CELL = "function g(int* a) { return a[1]; }\n"


@pytest.mark.parametrize("value, fits", [
    (str(2 ** 63 - 1), True), (str(-2 ** 63), True),
    (str(2 ** 63), False), (str(-2 ** 63 - 1), False),
    ("99999999999999999999", False),
])
def test_an_integer_argument_must_fit_in_64_bits(tmp_path, value, fits):
    source = tmp_path / "add.cat"
    source.write_text(ADD_STATIC)
    cells = tmp_path / "cells.cat"
    cells.write_text(LAST_CELL)
    residual = tmp_path / "residual.cat"
    results = [
        catat("specialize", source, "--entry", "f",
              f"--static-args={value}", "--out", residual),
        catat("run", source, "--entry", "f", "--static-args=0",
              f"--dyn-args={value}"),
        catat("run", cells, "--entry", "g", f"--dyn-args=[1, {value}]"),
    ]
    if fits:
        assert [r.returncode for r in results] == [0, 0, 0]
        assert catat("check", residual, "--levels", "1").returncode == 0
        assert [r.stdout for r in results[1:]] == [f"int {value}\n"] * 2
    else:
        options = ["--static-args", "--dyn-args", "--dyn-args"]
        for result, option in zip(results, options):
            assert result.returncode == 1
            assert result.stderr == (
                f"catat: {option}: parse error: integer argument '{value}' "
                "out of 64-bit range\n")


@pytest.mark.parametrize("option, value, message", [
    ("--static-args", "[1, x]", "cannot parse argument 'x'"),
    ("--dyn-args", "2.0,", "empty argument"),
])
def test_a_bad_argument_is_reported_against_its_option(tmp_path, option,
                                                       value, message):
    source = tmp_path / "add.cat"
    source.write_text(ADD_STATIC)
    command = "specialize" if option == "--static-args" else "run"
    extra = ["--static-args", "0"] if command == "run" else []
    result = catat(command, source, "--entry", "f", *extra,
                   f"{option}={value}")
    assert result.returncode == 1
    assert result.stderr == f"catat: {option}: parse error: {message}\n"


NEGATE = "function h(float@ k)(float d) { return d * k; }\n"


@pytest.mark.parametrize("command, option", [
    ("specialize", "--static-args"), ("run", "--static-args"),
    ("run", "--dyn-args"),
])
@pytest.mark.parametrize("value", ["-1e200", "-5", "-2.5,"])
def test_a_negative_argument_may_follow_its_option(tmp_path, command, option,
                                                   value):
    source = tmp_path / "negate.cat"
    source.write_text(NEGATE)
    base = [command, source, "--entry", "h"]
    if option == "--dyn-args":
        base += ["--static-args", "1.0"]
    elif command == "run":
        base += ["--dyn-args", "1.0"]
    separate = catat(*base, option, value)
    attached = catat(*base, f"{option}={value}")
    assert (separate.returncode, separate.stdout, separate.stderr) == \
        (attached.returncode, attached.stdout, attached.stderr)
    assert separate.returncode == (1 if value.endswith(",") else 0)


def test_an_option_is_not_taken_for_an_argument_value(tmp_path):
    source = tmp_path / "negate.cat"
    source.write_text(NEGATE)
    result = catat("specialize", source, "--static-args", "--entry", "h")
    assert result.returncode == 2
    assert "argument --static-args: expected one argument" in result.stderr


@pytest.mark.parametrize("value", ["-1e200", "2"])
def test_an_abbreviated_option_is_a_usage_error(tmp_path, value):
    source = tmp_path / "negate.cat"
    source.write_text(NEGATE)
    result = catat("specialize", source, "--entry", "h", "--static", value)
    assert result.returncode == 2
    assert f"unrecognized arguments: --static {value}" in result.stderr
    assert catat("specialize", source, "--entry", "h", "--static-args",
                 value).returncode == 0


ROUTES = pytest.mark.parametrize("route", [[], ["--via-flatten"]],
                                 ids=["direct", "via-flatten"])
SQUARE = ("function h(float@ k)(float d) { float@ z = k * k; "
          "return d * z; }\n")


@ROUTES
@pytest.mark.parametrize("k", ["1e200", "-1e200", "1e999"])
def test_an_infinite_static_float_is_a_literal_that_checks(tmp_path, route,
                                                           k):
    source = tmp_path / "square.cat"
    source.write_text(SQUARE)
    residual = tmp_path / "residual.cat"
    result = catat("specialize", source, "--entry", "h", f"--static-args={k}",
                   "--out", residual, *route)
    assert result.returncode == 0
    assert "    return d * 1e999;\n" in residual.read_text()
    assert catat("check", residual, "--levels", "1").returncode == 0
    result = catat("run", source, "--entry", "h", f"--static-args={k}",
                   "--dyn-args", "2.0")
    assert result.stdout == "float inf\n"


@pytest.mark.parametrize("command", [
    ["specialize"], ["specialize", "--via-flatten"],
    ["run", "--dyn-args", "2.0"],
], ids=["direct", "via-flatten", "run"])
def test_a_nan_static_float_is_a_lift_error(tmp_path, command):
    source = tmp_path / "nan.cat"
    source.write_text("function h(float@ k)(float d) { float@ z = k * k - "
                      "k * k; return d * z; }\n")
    result = catat(command[0], source, "--entry", "h", "--static-args",
                   "1e200", *command[1:])
    assert result.returncode == 3
    assert result.stderr == (
        f"{source}:1:68: compile-time error: the float nan has no literal "
        "form in dynamic code\n")


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


@pytest.mark.parametrize("name", NESTINGS)
def test_deep_nesting_check_exits_1_without_traceback(tmp_path, name):
    deep = tmp_path / "deep.cat"
    deep.write_text(NESTINGS[name](5000), encoding="utf-8")
    result = catat("check", deep)
    assert result.returncode == 1
    assert f"parse error: {NESTED_TOO_DEEPLY[name]}" in result.stderr
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


@pytest.mark.parametrize("command", [
    ["check"], ["specialize", "--entry", "f"],
    ["specialize", "--entry", "f", "--via-flatten"],
    ["run", "--entry", "f", "--dyn-args", "1"],
    ["flatten", "--entry", "f"],
], ids=["check", "specialize", "specialize-via-flatten", "run", "flatten"])
def test_an_increment_of_a_cell_is_one_error_on_every_command(tmp_path,
                                                              command):
    source = tmp_path / "incr.cat"
    source.write_text("function f(int d) { int a[2]; ++a[0]; "
                      "return a[0] + d; }\n")
    result = catat(command[0], source, *command[1:])
    assert result.returncode == 3
    assert result.stderr.strip() == (
        f"{source}:1:31: compile-time error: '++' needs a variable")


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


def token_extents(source):
    """(start, end, token) of each token of ``source``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    extents = []
    for tok in tokenize(source):
        kind, text, line, col = tok
        start = starts[line - 1] + col - 1
        end = STRING_LITERAL.match(source, start).end() \
            if kind == STRING else start + len(text)
        extents.append((start, end, tok))
    return extents


def mutate(source, extents, rng):
    """``source`` with one token changed: an int literal replaced, a binary
    operator swapped, an ``@`` run dropped or doubled, an identifier
    replaced by another of the file's or given an ``@``, or any other
    token deleted."""
    start, end, (kind, text, _, _) = rng.choice(extents)
    if kind == INT:
        new = rng.choice(MUTANT_INTS)
    elif kind == PUNCT and text in MUTANT_OPS:
        new = rng.choice([op for op in MUTANT_OPS if op != text])
    elif kind == AT:
        new = rng.choice(("", text * 2))
    elif kind == IDENT:
        names = sorted({t[1] for _, _, t in extents if t[0] == IDENT})
        new = rng.choice([*names, text + "@"])
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
