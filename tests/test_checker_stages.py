"""Every stage mark the checker leaves, pinned.

``check_stages`` marks each node it checks with its stage, and reads a
``VarRef`` or ``IntLit`` operand inside its parent's check.  For each text
of ``front_end_texts``, a corpus fixture checked at two levels and a
residual checked at one, this hashes the ``(class name, stage)`` of every
node in walk order, or the error the check raises, and compares the hash
with the one recorded in ``checker_stages.json``.  To record the hashes of
the checker as it stands:

    PYTHONPATH=src:tests python tests/test_checker_stages.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from catat import CatatError, check_stages, parse
from catat.errors import ANNOTATION_TOO_DEEP, Span
from catat.nodes import walk

from conftest import front_end_texts

RECORD = Path(__file__).with_name("checker_stages.json")


def levels_of(label: str) -> int:
    """A residual's label names its fixture, entry and route."""
    return 1 if ":" in label else 2


def stage_hash(text: str, levels: int) -> str:
    program = parse(text)
    try:
        check_stages(program, levels)
    except CatatError as e:
        sequence = [type(e).__name__, e.message, e.span]
    else:
        sequence = [(type(node).__name__, node.stage)
                    for item in program.items for node in walk(item)]
    return hashlib.sha256(repr(sequence).encode()).hexdigest()[:16]


def current_hashes() -> dict:
    return {label: stage_hash(text, levels_of(label))
            for label, text in front_end_texts()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_every_node_keeps_its_stage(recorded):
    current = current_hashes()
    assert sorted(current) == sorted(recorded)
    moved = [label for label in recorded if current[label] != recorded[label]]
    assert moved == []


# (id, source, levels, error class, message, span)
ERRORS = [
    ("unbound base", "function f(int d) { return d + q[0]; }", 1,
     "UnboundVariable", "unbound variable 'q'", Span(1, 32)),
    ("unbound index",
     "function f(int* a) { int t = 0; t += a[q]; return t; }", 1,
     "UnboundVariable", "unbound variable 'q'", Span(1, 40)),
    ("redeclared scalar", "function f(int d) { int x = 1, x = 2; return d; }",
     1, "TypeMismatch", "redeclaration of 'x' in the same scope",
     Span(1, 32)),
    ("int@ at one level", "function f(int d) { int@ x = 1; return d; }", 1,
     "StageError", f"{ANNOTATION_TOO_DEEP}: annotation of depth 1 exceeds "
     "the scope's stage 0", Span(1, 26)),
    ("first of two faults, a target",
     "function f(int d) { x = 1; return q[0]; }", 1, "UnboundVariable",
     "unbound variable 'x'", Span(1, 21)),
    ("first of two faults, an operand",
     "function f(int d) { int y = d * z; d = w; return y; }", 1,
     "UnboundVariable", "unbound variable 'z'", Span(1, 33)),
]


@pytest.mark.parametrize("source, levels, cls, message, span",
                         [pytest.param(*case[1:], id=case[0])
                          for case in ERRORS])
def test_leaf_operand_errors_keep_their_class_message_and_span(
        source, levels, cls, message, span):
    with pytest.raises(CatatError) as exc:
        check_stages(parse(source), levels)
    assert (type(exc.value).__name__, exc.value.message, exc.value.span) == \
        (cls, message, span)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(current_hashes(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
