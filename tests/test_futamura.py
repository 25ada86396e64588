"""Specializing the expression-language interpreter on a fixed program
compiles the program away: the residual must agree with the independent
direct evaluator and contain no interpretive dispatch."""

import random

import pytest

from catat import check_stages, emit, parse, specialize_program
from catat import nodes as n
from catat.corpus import (
    dsl_interpreter_source, dsl_reference_eval, encode_dsl,
    random_dsl_program,
)
from catat.errors import UserStaticError
from catat.staticeval import value_of
from catat.dyninterp import run
from catat.specializer import SpecializationCache
from catat.values import IntV


def specialized(text):
    staged = check_stages(parse(dsl_interpreter_source()), 2)
    toks, count = encode_dsl(text)
    return specialize_program(staged, "dsl_program", [toks, count])


def run_specialized(rp, value):
    return value_of(run(rp, rp.entry_name, [IntV(value)]).value)


def test_quadratic_program():
    rp = specialized("in * in + 1")
    assert run_specialized(rp, 3) == 10
    assert run_specialized(rp, -4) == 17


def test_constant_program_has_no_dispatch():
    rp = specialized("7")
    for value in (-10, 0, 3):
        assert run_specialized(rp, value) == 7
    entry = rp.function(rp.entry_name)
    text = emit(rp)
    assert "switch" not in text and "for (" not in text and "toks" not in text
    # the entry forwards to a literal return; no loops or branches anywhere
    assert all(not isinstance(s, (n.For, n.If, n.Switch))
               for u in rp.units for s in u.body)
    assert entry.return_type.name == "int"


def test_identity_program():
    rp = specialized("in")
    for value in range(-10, 11):
        assert run_specialized(rp, value) == value


def test_malformed_token_stream_rejected():
    staged = check_stages(parse(dsl_interpreter_source()), 2)
    from catat.values import ArrayV, INT
    bad = ArrayV(INT, [IntV(1), IntV(0)])  # starts with '+'
    with pytest.raises(UserStaticError):
        specialize_program(staged, "dsl_program", [bad, IntV(1)])


@pytest.mark.parametrize("text", ["in in", "(in) 3"])
def test_trailing_tokens_raise_the_interpreters_error(text):
    # the message reaches Catat_error@ as a string literal, which has no
    # residual type and must not be typed
    with pytest.raises(UserStaticError,
                       match="malformed program: trailing tokens") as exc:
        specialized(text)
    assert exc.value.span.line == 71


def test_random_programs_match_reference():
    rng = random.Random(20260810)
    programs = [random_dsl_program(rng, 4) for _ in range(50)]
    for text in programs:
        rp = specialized(text)
        residual_text = emit(rp)
        assert "switch" not in residual_text
        assert "toks" not in residual_text
        # one straight-line function: every unit was unfolded into it
        assert len(rp.units) == 1
        assert not any(isinstance(x, n.Call)
                       for s in rp.units[0].body for x in n.walk(s))
        for value in range(-10, 11):
            expected = dsl_reference_eval(text, value)
            assert run_specialized(rp, value) == expected, (text, value)


def test_the_interpreters_call_chain_compresses_to_one_function():
    text = "(in + 3) * (in + 1) + in * 2 + 4 * (in * 5 + 1)"
    staged = check_stages(parse(dsl_interpreter_source()), 2)
    cache = SpecializationCache(staged)
    rp = specialize_program(staged, "dsl_program", list(encode_dsl(text)),
                            cache=cache)
    assert len(cache.order) == 27
    assert len(rp.units) == 1
    result = run(rp, rp.entry_name, [IntV(7)])
    assert result.value == IntV(238) == IntV(dsl_reference_eval(text, 7))
    assert result.steps <= 36
    assert len(emit(rp)) < 600
