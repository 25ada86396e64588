"""Shared helpers for the test suite."""

from __future__ import annotations

import copy
import functools

from catat import check_stages, parse, run, run_unstaged
from catat.corpus import corpus_path, provide_corpus
from catat.specializer import (
    ResidualProgram, SpecializationCache, specialize_program,
)


def fixture_source(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def staged_fixture(name: str, levels: int = 2):
    return check_stages(parse(fixture_source(name)), levels)


def all_checkable_fixture_names() -> list[str]:
    return [f.name for f in provide_corpus() if f.first("check") == "ok"]


def both_routes(source, entry, static_args, limits=None, run_args=None):
    """The direct and the flatten residual of ``source``.  With
    ``run_args``, each runs its entry on them and must give the value of
    ``run_unstaged``."""
    rps = [specialize_program(check_stages(parse(source), 2), entry,
                              static_args, limits, via_flatten=via_flatten)
           for via_flatten in (False, True)]
    if run_args is not None:
        expected = run_unstaged(parse(source), entry,
                                static_args + run_args).value
        for rp in rps:
            assert run(rp, rp.entry_name, run_args).value == expected
    return rps


def specialize_with_record(source, entry, static_args, run_args,
                           limits=None, via_flatten=False):
    """The residual of ``source`` and its instantiation record: every unit
    the specializer made, in order, before ``compress`` unfolded any
    (``cache.order`` of a cache of this call's own).  The residual runs
    its entry on ``run_args`` and must give the value of ``run_unstaged``,
    which runs on copies: a specialization or a run may store into an
    array argument."""
    expected = run_unstaged(parse(source), entry,
                            copy.deepcopy(static_args + run_args)).value
    staged = check_stages(parse(source), 2)
    cache = SpecializationCache(staged, limits)
    rp = specialize_program(staged, entry, static_args, cache=cache,
                            via_flatten=via_flatten)
    assert run(rp, rp.entry_name, copy.deepcopy(run_args)).value == expected
    return rp, cache.order


def both_records(source, entry, static_args, run_args, limits=None):
    """``specialize_with_record`` on the direct and the flatten route."""
    return [specialize_with_record(source, entry, copy.deepcopy(static_args),
                                   run_args, limits, via_flatten)
            for via_flatten in (False, True)]


def record_program(rp, order) -> ResidualProgram:
    """The residual ``rp`` would be without compression, rebuilt from its
    instantiation record."""
    return ResidualProgram(list(order), rp.top_stmts, rp.entry_name,
                           rp.static_bindings)


# Static arguments beyond the manifest's, at the shapes the unrolling
# benchmark reads back: (fixture, entry, static-args).
_EXTRA_RESIDUALS = (
    ("dot.cat", "dot", "12, double"),
    ("dot.cat", "dot", "9, int"),
    ("pow_two_level.cat", "pow", "11"),
    ("unroll_locals.cat", "windowed", "7"),
    ("average.cat", "average", "float"),
)


@functools.cache
def front_end_texts() -> tuple[tuple[str, str], ...]:
    """``(label, text)`` for every corpus fixture, and for the emitted
    residual of every checkable fixture, of a DSL stream and of the extra
    unrolled shapes above, on both routes.  A specialization that raises
    has no residual."""
    from catat import emit
    from catat.cli import parse_arg_list
    from catat.corpus import encode_dsl
    from catat.errors import CatatError

    fixtures = provide_corpus()
    texts = [(f.name, f.source()) for f in fixtures]
    jobs = [(f.name, f.first("entry"), f.first("static-args") or "")
            for f in fixtures if f.first("check") == "ok"]
    jobs += _EXTRA_RESIDUALS
    for name, entry, args in jobs:
        for via_flatten in (False, True):
            try:
                rp = specialize_program(staged_fixture(name), entry,
                                        parse_arg_list(args),
                                        via_flatten=via_flatten)
            except CatatError:
                continue
            route = "flatten" if via_flatten else "direct"
            texts.append((f"{name}:{entry}({args}):{route}", emit(rp)))
    dsl = "(in + 2) * in + 3"
    for via_flatten in (False, True):
        rp = specialize_program(staged_fixture("dsl_interp.cat"),
                                "dsl_program", list(encode_dsl(dsl)),
                                via_flatten=via_flatten)
        route = "flatten" if via_flatten else "direct"
        texts.append((f"dsl_interp.cat:dsl_program({dsl}):{route}",
                      emit(rp)))
    return tuple(texts)
