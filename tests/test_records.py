"""The record classes: construction with their defaults, field-wise
equality within one type, the `Name(field=value, ...)` repr, and for the
two frozen ones hashing, immutability, copying and pickling."""

import copy
import pickle

import pytest

from acdkit.acd import TransformResult
from acdkit.core import Edge, Product
from acdkit.docfmt import Document
from acdkit.games import MullerSolution, ParitySolution
from acdkit.loops import Loop
from acdkit.relabel import AcdShapeReport

# each class with its fields, in order, and one value for each
RECORDS = [
    (Edge, ("id", "source", "target"), ("e", "p", "q")),
    (Loop, ("edges", "states"), (frozenset({"e"}), frozenset({"p"}))),
    (Product, ("system", "condition", "projection"), ("ts", "cond", None)),
    (TransformResult,
     ("system", "condition", "acd", "vertex_map", "edge_map", "copies"),
     ("ts", "cond", "acd", {"p|": "p"}, {"e|": "e"}, {"p": ("p|",)})),
    (Document, ("system", "condition", "morphism"),
     ("ts", "cond", {"vertices": {}, "edges": {}})),
    (ParitySolution, ("regions", "strategies"),
     ({"p": "Eve"}, {"Eve": {"p": "e"}, "Adam": {}})),
    (MullerSolution, ("regions", "transform", "parity_solution", "morphism"),
     ({"p": "Eve"}, "result", "psol", "m")),
    (AcdShapeReport,
     ("rabin_acd", "streett_acd", "parity_acd", "interval", "weak_k",
      "offending"),
     (True, True, True, (0, 1), 2, {"p": [()]})),
]
FROZEN = (Edge, Loop)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def fields_of(obj, names):
    return tuple(getattr(obj, f) for f in names)


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert fields_of(by_position, names) == values
    assert fields_of(by_keyword, names) == values
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=1)


def test_defaults():
    doc = Document("ts")
    assert (doc.system, doc.condition, doc.morphism) == ("ts", None, None)
    assert Document("ts", "cond").morphism is None
    first = AcdShapeReport(True, False, False)
    second = AcdShapeReport(rabin_acd=False, streett_acd=True,
                            parity_acd=False)
    assert (first.interval, first.weak_k, first.offending) == (None, None, {})
    assert second.offending == {}
    assert first.offending is not second.offending  # a fresh dict each
    first.offending["p"] = [()]
    assert AcdShapeReport(True, False, False).offending == {}
    for cls in (Edge, Loop, Product, TransformResult, ParitySolution,
                MullerSolution):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equality_is_field_by_field_within_one_type(cls, names, values):
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    for i in range(len(values)):
        other = list(values)
        other[i] = "something else"
        assert obj != cls(*other)
    assert obj != values
    assert obj.__eq__(object()) is NotImplemented
    sub = type("Sub", (cls,), {})
    assert obj != sub(*values) and sub(*values) != obj


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    expected = "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, v) for f, v in zip(names, values)))
    assert repr(cls(*values)) == expected


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_hashing(cls, names, values):
    obj = cls(*values)
    if cls in FROZEN:
        assert hash(obj) == hash(cls(*values))
        assert {obj, cls(*values)} == {obj}
    else:
        with pytest.raises(TypeError):
            hash(obj)


def test_a_loop_keeps_frozensets():
    """A loop built from lists is hashable and equals its frozenset twin;
    a frozenset it is given is kept, not copied."""
    edges, states = frozenset({"a", "b"}), frozenset({"p"})
    loop = Loop(["a", "b"], ["p"])
    assert loop == Loop(edges, states)
    assert hash(loop) == hash(Loop(edges, states))
    assert type(loop.edges) is type(loop.states) is frozenset
    assert Loop(edges, states).edges is edges
    assert Loop(edges, states).states is states


@pytest.mark.parametrize("cls, names, values",
                         [r for r in RECORDS if r[0] in FROZEN],
                         ids=[cls.__name__ for cls in FROZEN])
def test_frozen_records_are_immutable(cls, names, values):
    obj = cls(*values)
    for f in names:
        with pytest.raises(AttributeError):
            setattr(obj, f, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, f)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert fields_of(obj, names) == values


@pytest.mark.parametrize("cls, names, values",
                         [r for r in RECORDS if r[0] in FROZEN],
                         ids=[cls.__name__ for cls in FROZEN])
def test_frozen_records_copy_and_pickle(cls, names, values):
    obj = cls(*values)
    for twin in (copy.copy(obj), copy.deepcopy(obj),
                 pickle.loads(pickle.dumps(obj)),
                 pickle.loads(pickle.dumps(obj, protocol=0))):
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj)
        assert fields_of(twin, names) == values
        with pytest.raises(AttributeError):
            setattr(twin, names[0], "changed")
