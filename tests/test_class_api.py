"""The constructor, equality, hashing, mutability and layout of every
record class of the package, pinned.

``class_api.json`` was recorded from these classes as ``dataclasses``
generated them, and each class must keep what it recorded.  For each
class it holds:

- ``signature``: ``inspect.signature`` of the class, without annotations;
- ``fields``: every field, in order, and ``compared``: those that take
  part in ``==``, found by changing each field of one of two equal
  instances in turn;
- ``repr`` of an instance built from placeholder arguments;
- whether the class is ``hashable``, whether assigning a field raises
  ``FrozenInstanceError`` (``frozen``), and whether an instance has a
  ``__dict__``.

A class may differ from its record only by having lost its ``__dict__``
(``GAINED_SLOTS``).  To record the classes as they stand, with the fields
read from their slots:

    PYTHONPATH=src:tests python tests/test_class_api.py
"""

import copy
import dataclasses
import importlib
import inspect
import json
import pickle
from pathlib import Path

import pytest

from catat import nodes as n

RECORD = Path(__file__).with_name("class_api.json")

# classes that had a ``__dict__`` while generated, and have slots now
GAINED_SLOTS = {
    "catat.values.UnitV", "catat.values.ArrayV", "catat.values.InstanceV",
    "catat.values.CodeV", "catat.values.PrimTV", "catat.values.PointerTV",
    "catat.values.FixedArrayTV", "catat.values.ClassTV",
    "catat.specializer.SpecializationKey",
    "catat.specializer.ResidualFunction", "catat.specializer.ResidualClass",
    "catat.specializer.ResidualProgram", "catat.staging.StagedAST",
    "catat.staging._Sym", "catat.staging._Scope",
    "catat.staticeval.EvalLimits", "catat.dyninterp.RunResult",
    "catat.flatten.Shell", "catat.corpus.Fixture",
}


def class_of(label: str) -> type:
    module, name = label.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


def bare_signature(cls) -> inspect.Signature:
    sig = inspect.signature(cls)
    return sig.replace(
        parameters=[p.replace(annotation=p.empty)
                    for p in sig.parameters.values()],
        return_annotation=sig.empty)


def build(cls):
    """An instance whose parameters without a default are placeholder
    strings."""
    return cls(**{p.name: f"<{p.name}>"
                  for p in bare_signature(cls).parameters.values()
                  if p.default is p.empty})


def frozen(cls, field: str) -> bool:
    try:
        setattr(build(cls), field, None)
    except dataclasses.FrozenInstanceError:
        return True
    return False


def describe(cls, fields: list) -> dict:
    """The record of ``cls``, whose fields are ``fields``."""
    base = build(cls)
    assert build(cls) == base
    compared = []
    for field in fields:
        twin = build(cls)
        object.__setattr__(twin, field, object())
        if twin != base:
            compared.append(field)
    return {
        "signature": str(bare_signature(cls)),
        "fields": fields,
        "compared": compared,
        "repr": repr(base),
        "hashable": cls.__hash__ is not None,
        "frozen": frozen(cls, fields[0] if fields else "other"),
        "dict": hasattr(base, "__dict__"),
    }


def slot_names(cls) -> list:
    return [name for c in reversed(cls.__mro__)
            for name in c.__dict__.get("__slots__", ())]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def labels():
    return sorted(json.loads(RECORD.read_text(encoding="utf-8")))


@pytest.mark.parametrize("label", labels())
def test_each_class_keeps_its_recorded_api(recorded, label):
    cls = class_of(label)
    expected = dict(recorded[label])
    if label in GAINED_SLOTS:
        assert expected["dict"]
        expected["dict"] = False
    assert describe(cls, expected["fields"]) == expected
    assert slot_names(cls) == expected["fields"]
    if issubclass(cls, n.Node):
        assert list(n.child_fields(cls)) == expected["compared"]


@pytest.mark.parametrize("label", labels())
def test_each_class_equals_only_its_own_class(label):
    value = build(class_of(label))
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


@pytest.mark.parametrize("label", labels())
def test_each_class_copies_and_pickles(recorded, label):
    cls = class_of(label)
    value = build(cls)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
        assert repr(twin) == repr(value)
        if recorded[label]["hashable"]:
            assert hash(twin) == hash(value)


def test_a_frozen_class_hashes_its_fields_and_refuses_every_change():
    frozen_ones = [(class_of(label), entry["compared"]) for label, entry in
                   json.loads(RECORD.read_text(encoding="utf-8")).items()
                   if entry["frozen"]]
    assert len(frozen_ones) == 6
    for cls, compared in frozen_ones:
        value = build(cls)
        assert hash(value) == hash(tuple(getattr(value, name)
                                         for name in compared))
        for name in [*slot_names(cls), "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)


def test_a_list_default_is_fresh_per_instance():
    first, second = n.Program(), n.Program()
    first.items.append(n.Block())
    assert second.items == [] and n.Block().stmts == []
    assert n.Call("f", None).args is None


def current_record() -> dict:
    return {label: describe(class_of(label), slot_names(class_of(label)))
            for label in labels()}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(current_record(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
