"""Every node's span, pinned.

Node ``==`` ignores spans, so a change to the parser that drops or moves
one would pass every round-trip test.  For each text of
``front_end_texts`` (every corpus fixture and its residuals on both
routes), this hashes the ``(class name, span)`` of every node of its
parse in walk order, and compares the hash with the one recorded in
``parser_spans.json``.  To record the hashes of the parser as it stands:

    PYTHONPATH=src:tests python tests/test_parser_spans.py
"""

import gc
import hashlib
import json
from pathlib import Path

import pytest

from catat import parse
from catat.nodes import walk

from conftest import front_end_texts

RECORD = Path(__file__).with_name("parser_spans.json")


def span_hash(text: str) -> str:
    sequence = [(type(node).__name__, None if node.span is None
                 else tuple(node.span))
                for item in parse(text).items for node in walk(item)]
    return hashlib.sha256(repr(sequence).encode()).hexdigest()[:16]


def current_hashes() -> dict:
    return {label: span_hash(text) for label, text in front_end_texts()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return current_hashes()


def test_every_text_is_recorded(recorded, current):
    assert sorted(current) == sorted(recorded)


def test_every_node_keeps_its_span(recorded, current):
    moved = [label for label in recorded if current.get(label) !=
             recorded[label]]
    assert moved == []


def is_position(span) -> bool:
    """An exact tuple of two ints >= 1, as a token's ``t[2:]`` is."""
    return type(span) is tuple and len(span) == 2 and \
        all(type(v) is int and v >= 1 for v in span)


def test_every_node_has_a_span_and_no_stage():
    # A node's span is the slice of its token: a ``Span`` or a list there
    # would hash alike but keep the collector tracking it.
    texts = [*front_end_texts(),
             ("unary", "int f(int d) { d = -d; ++d; return !d ? d : -d; }")]
    odd = [(label, type(node).__name__, node.span, node.stage)
           for label, text in texts
           for item in parse(text).items for node in walk(item)
           if not is_position(node.span) or node.stage is not None]
    assert odd == []


def test_the_collector_lets_every_span_of_a_residual_go():
    # A node's span is an exact tuple of ints, which the collector stops
    # tracking once it has seen it; a NamedTuple it would track for good.
    text = dict(front_end_texts())["dot.cat:dot(9, int):direct"]
    program = parse(text)
    gc.collect()
    tracked = [(type(node).__name__, node.span)
               for item in program.items for node in walk(item)
               if gc.is_tracked(node.span)]
    assert tracked == []


if __name__ == "__main__":
    RECORD.write_text(json.dumps(current_hashes(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
