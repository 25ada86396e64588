"""Shared helpers for the test suite."""

from __future__ import annotations

from catat import check_stages, parse, run, run_unstaged
from catat.corpus import corpus_path, provide_corpus
from catat.specializer import specialize_program


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
