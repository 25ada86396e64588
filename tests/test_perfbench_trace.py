"""perfbench's trace mode (``perfbench/spans.py``) measures each layer by
wrapping library functions by name, from outside.  A refactor that stops
calling one of them, say by inlining ``SpecializationCache.lookup`` or
``complete``, or by lexing without going through ``parser.tokenize``,
would zero that layer's metrics without failing anything, so this checks
that a traced parse, specialization and run reach the wrapped names, and
that uninstalling the tracer restores every original."""

import importlib.util
from pathlib import Path

import catat
from catat import FloatV, IntV

from conftest import fixture_source

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_mode_counts_every_layer_and_uninstalls():
    owners = (catat, catat.parser, catat.dyninterp, catat.flatten,
              catat.staticeval.Interpreter,
              catat.specializer.SpecializationCache)
    before = [dict(vars(owner)) for owner in owners]
    cache = catat.specializer.SpecializationCache
    tracer = load_spans().Tracer()
    tracer.install(catat)
    try:
        assert cache.lookup is not before[-1]["lookup"]
        assert cache.complete is not before[-1]["complete"]
        source = fixture_source("pow_two_level.cat")
        for via_flatten in (False, True):
            staged = catat.check_stages(catat.parse(source), 2)
            rp = catat.specialize_program(staged, "pow", [IntV(3)],
                                          via_flatten=via_flatten)
            assert catat.run(rp, rp.entry_name, [FloatV(2.0)]).value == \
                FloatV(8.0)
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        now = vars(owner)  # a lazy import may add a submodule to catat
        assert all(now.get(name) is value for name, value in old.items()), \
            owner
    names = {span[0] for span in tracer.spans}
    assert {"lexer.tokenize", "parser.parse"} <= names
    assert tracer.counts["lexer.tokens"] > 0
    assert tracer.counts["specializer.units"] > 0
    assert tracer.counts["specializer.memo_lookups"] > 0
    assert "flatten.generator" in names
