"""The representation of AST nodes and scalar values.

Every node class and every scalar value class is slotted (its
``__dictoffset__`` is 0), so no instance carries a ``__dict__``: a class
added later without slots fails here rather than only in a slower
benchmark.  The scalars stay immutable and
keep the equality, hashing and copying of the frozen dataclasses they
replaced.
"""

import copy
import dataclasses
import pickle

import pytest

from catat import nodes as n
from catat.values import (
    ArrayV, BOOL, BoolV, FLOAT, FloatV, INT, IntV, StrV, Value,
)

SCALARS = [IntV(3), FloatV(2.5), BoolV(True), StrV("s")]
NODE_CLASSES = sorted((cls for cls in vars(n).values()
                       if isinstance(cls, type) and issubclass(cls, n.Node)),
                      key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_node_class_is_slotted(cls):
    assert cls.__dictoffset__ == 0


@pytest.mark.parametrize("cls", [Value, IntV, FloatV, BoolV, StrV],
                         ids=lambda c: c.__name__)
def test_every_scalar_class_is_slotted(cls):
    assert cls.__dictoffset__ == 0


@pytest.mark.parametrize("v", SCALARS, ids=repr)
def test_a_scalar_is_immutable(v):
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.value = v.value
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.value
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.other = 1


def test_scalars_equal_only_their_own_class():
    assert IntV(2) == IntV(2)
    assert hash(IntV(2)) == hash(IntV(2))
    assert IntV(2) != IntV(3)
    assert IntV(1) != FloatV(1.0)
    assert IntV(1) != BoolV(True)
    assert FloatV(1.0) != IntV(1)
    assert StrV("a") == StrV("a")
    assert IntV(1) != 1


def test_a_scalar_prints_as_a_dataclass():
    assert repr(IntV(3)) == "IntV(value=3)"
    assert repr(StrV("s")) == "StrV(value='s')"


def test_scalars_are_dict_keys():
    table = {IntV(1): "i", FloatV(1.0): "f", BoolV(True): "b", StrV("1"): "s"}
    assert len(table) == 4
    assert table[IntV(1)] == "i"
    assert table[FloatV(1.0)] == "f"
    assert table[BoolV(True)] == "b"
    assert table[StrV("1")] == "s"


@pytest.mark.parametrize("v", [
    ArrayV(INT, [IntV(1), IntV(-2)]),
    ArrayV(FLOAT, [FloatV(0.5), FloatV(-0.0)]),
    ArrayV(BOOL, [BoolV(False)]),
], ids=lambda v: repr(v.elem))
def test_an_array_of_scalars_copies_and_pickles(v):
    for twin in (copy.copy(v), copy.deepcopy(v),
                 pickle.loads(pickle.dumps(v))):
        assert twin == v
        assert [type(c) for c in twin.cells] == [type(c) for c in v.cells]


@pytest.mark.parametrize("v", SCALARS, ids=repr)
def test_a_scalar_copies_and_pickles(v):
    for twin in (copy.copy(v), copy.deepcopy(v),
                 pickle.loads(pickle.dumps(v))):
        assert twin == v and type(twin) is type(v)


def test_a_copied_node_keeps_every_field():
    loop = n.For(None, n.BoolLit(True), None, n.Block([]), 1, unrolling=True,
                 span=None, stage=0)
    copied = n.map_children(loop, lambda c: c)
    assert copied.unrolling is True
    assert copied.stage == 0 and copied.at_count == 1
    assert copied == loop and copied is not loop
