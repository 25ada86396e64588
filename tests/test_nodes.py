"""The generic walker of ``catat.nodes`` on every corpus and golden file.

A node type added later whose fields break the walker contract fails here.
"""

import pytest

from catat import nodes as n
from catat import parse
from catat.corpus import CORPUS_DIR
from catat.dyninterp import erase_stages

SOURCES = sorted(CORPUS_DIR.rglob("*.cat"))


def program_of(path):
    return parse(path.read_text(encoding="utf-8"))


def attribute_walk(node):
    """Every node reachable through the node's slots, over its classes,
    as a reference: it reads no field list of ``nodes``."""
    yield node
    for name in [name for cls in type(node).__mro__
                 for name in cls.__dict__.get("__slots__", ())]:
        value = getattr(node, name)
        if isinstance(value, n.Node):
            yield from attribute_walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, n.Node):
                    yield from attribute_walk(item)


sources = pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(CORPUS_DIR)))


@sources
def test_identity_map_copies_every_node(path):
    for x in n.walk(program_of(path)):
        copy = n.map_children(x, lambda c: c)
        assert copy == x and copy is not x


@sources
def test_walk_reaches_every_node(path):
    program = program_of(path)
    assert sorted(map(id, n.walk(program))) == \
        sorted(map(id, attribute_walk(program)))


@sources
def test_erase_stages_clears_every_annotation(path):
    for x in n.walk(erase_stages(program_of(path))):
        if isinstance(x, n.CtorDef):
            continue
        assert getattr(x, "at_count", 0) == 0, x
        assert getattr(x, "else_at_count", 0) == 0, x
        assert not getattr(x, "ctime", False), x


def test_walk_takes_a_chain_deeper_than_the_stack():
    # ((x0 + x1) + x2) + ... built from nodes, 3,000 operators deep
    depth = 3000
    chain = n.VarRef("x0")
    for i in range(1, depth + 1):
        chain = n.Binary("+", chain, n.VarRef(f"x{i}"))
    names = [x.name for x in n.walk(chain) if isinstance(x, n.VarRef)]
    assert sum(1 for _ in n.walk(chain)) == 2 * depth + 1
    assert names == [f"x{i}" for i in range(depth + 1)]
    first = next(iter(n.walk(chain)))
    assert first is chain
