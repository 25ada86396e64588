"""Shared helpers for the test suite."""

from __future__ import annotations

import copy

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
