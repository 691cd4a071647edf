"""Value semantics of every record class: field-wise equality and hashing,
no assignment, a dataclass-style repr, the defaults, the base
constructor's argument errors, Brick ordering and the mutable
CheckResult."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import singlink
from singlink.augment import AugmentationSystem
from singlink.bricks import Brick, BrickQuiver
from singlink.checks import CheckResult
from singlink.cluster import DynkinType, ExchangeMatrix, Seed, initial_seed
from singlink.divides import AcampoQuiver, Divide, DivideFaces, Face, Strand
from singlink.exactmath import RingDescriptor
from singlink.links import ADELabel, BraidWord, CablePairs, LinkInvariants, PuiseuxPairs
from singlink.records import Record
from singlink.sheafmoduli import ThetaSystem

B2 = ExchangeMatrix(2, ((0, 1), (-1, 0)), (1, 1))
WORD = BraidWord(2, (1, 1, 1))
ARC = Strand(False, ())
FACE = Face(((0, 0), (0, 1)), True)

# Each class with its fields, in constructor order and normalized, and
# one field changed.
RECORDS = [
    (PuiseuxPairs, {"pairs": ((3, 2), (7, 2))}, {"pairs": ((3, 2),)}),
    (CablePairs, {"pairs": ((2, 3), (2, 13))}, {"pairs": ((2, 3),)}),
    (BraidWord, {"strands": 3, "letters": (1, 2, 1)}, {"letters": (2, 1, 2)}),
    (LinkInvariants, {"components": 1, "euler_characteristic": -1, "first_betti": 2,
                      "tb": 1, "milnor_number": 2}, {"tb": 2}),
    (ADELabel, {"family": "E", "rank": 6}, {"rank": 7}),
    (Brick, {"row": 1, "span": (1, 3)}, {"span": (1, 4)}),
    (BrickQuiver, {"bricks": (Brick(1, (1, 3)), Brick(1, (3, 5))), "arrows": ((1, 0),)},
     {"arrows": ()}),
    (ExchangeMatrix, {"n": 2, "entries": ((0, 1), (-1, 0)), "symmetrizer": (1, 1)},
     {"entries": ((0, -1), (1, 0))}),
    (Seed, {"matrix": B2, "cluster": initial_seed(B2).cluster},
     {"cluster": initial_seed(B2).cluster[::-1]}),
    (DynkinType, {"family": "B", "rank": 3}, {"family": "C"}),
    (Strand, {"closed": True, "passages": ((0, 1), (1, 3))}, {"closed": False}),
    (Divide, {"crossings": 0, "strands": (ARC,), "boundary_order": ((0, 0), (0, 1))},
     {"boundary_order": ((0, 1), (0, 0))}),
    (Face, {"corners": ((0, 0), (0, 1)), "bounded": False, "endpoints": ((0, 1),)},
     {"endpoints": ()}),
    (DivideFaces, {"faces": (FACE,)}, {"faces": ()}),
    (AcampoQuiver, {"crossings": 1, "regions": 1, "arrows": ((0, 1),)}, {"regions": 2}),
    (RingDescriptor, {"variables": ("x", "t"), "laurent": frozenset({"t"})},
     {"laurent": frozenset()}),
    (AugmentationSystem, {"strands": 2, "word": WORD, "equations": ({1: 1}, {0: 1}),
                          "t_convention": "t"}, {"t_convention": "t-inverse"}),
    (ThetaSystem, {"n": 1, "equations": ({3: 1},)}, {"equations": ({3: 2},)}),
]
# Term-map systems hold dicts, so they compare but do not hash.
UNHASHABLE = (AugmentationSystem, ThetaSystem)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, changed", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields, changed):
    a = cls(*fields.values())
    b = cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert a == a
    for name, value in fields.items():
        assert getattr(a, name) == value
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert cls(**{**fields, **changed}) != a
    assert a != object() and a != tuple(fields.values())
    assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))


@pytest.mark.parametrize("cls, fields, changed", RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, fields, changed):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


def test_every_record_class_is_listed():
    for module in pkgutil.iter_modules(singlink.__path__):
        importlib.import_module(f"singlink.{module.name}")
    classes = set()
    pending = [Record]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("singlink.") and cls not in classes:
                classes.add(cls)
                pending.append(cls)
    assert classes == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize(
    "args, kwargs, problem",
    [
        ((1, 1, 1), {}, "missing field(s) tb, milnor_number"),
        ((1, 1), {"first_betti": 1, "tb": 1}, "missing field(s) milnor_number"),
        ((1, 1, 1, 1, 1), {"genus": 0}, "unknown field(s) genus"),
        ((1, 1, 1, 1), {"tb": 1, "milnor_number": 1}, "repeated field(s) tb"),
        ((1, 1, 1, 1, 1, 1), {}, "takes 5 values, got 6"),
    ],
)
def test_base_constructor_names_the_fields_on_bad_arguments(args, kwargs, problem):
    with pytest.raises(TypeError) as error:
        LinkInvariants(*args, **kwargs)
    message = str(error.value)
    assert problem in message
    assert message.startswith(
        "LinkInvariants(components, euler_characteristic, first_betti, tb, milnor_number)"
    )


def test_same_fields_in_different_classes_differ():
    pairs = ((3, 2), (7, 2))
    assert PuiseuxPairs(pairs) != CablePairs(pairs)
    assert not PuiseuxPairs(pairs) == CablePairs(pairs)
    assert ADELabel("E", 6) != DynkinType("E", 6)
    assert str(ADELabel("E", 6)) == str(DynkinType("E", 6)) == "E6"


def test_constructors_normalize_their_fields():
    assert PuiseuxPairs([[3, 2], [7, 2]]).pairs == ((3, 2), (7, 2))
    assert CablePairs([[2, 3]]) == CablePairs(((2, 3),))
    assert BraidWord(3, [1, 2]).letters == (1, 2)
    assert ADELabel("e", 6).family == "E"
    assert DynkinType("b", 3) == DynkinType("B", 3)
    assert Strand(False, [[0, 0], [1, 2]]).passages == ((0, 0), (1, 2))
    assert Divide(0, [ARC], [[0, 0], [0, 1]]) == Divide(0, (ARC,), ((0, 0), (0, 1)))
    ring = RingDescriptor(["x", "t"], {"t"})
    assert ring.variables == ("x", "t") and ring.laurent == frozenset({"t"})


def test_defaults():
    assert Face(((0, 0),), True).endpoints == ()
    assert RingDescriptor(("x",)).laurent == frozenset()
    assert RingDescriptor(("x",)) == RingDescriptor(("x",), frozenset())


def test_repr_is_dataclass_style():
    assert repr(ADELabel("e", 6)) == "ADELabel(family='E', rank=6)"
    assert repr(Brick(1, (1, 3))) == "Brick(row=1, span=(1, 3))"
    assert repr(PuiseuxPairs(((3, 2),))) == "PuiseuxPairs(pairs=((3, 2),))"
    assert repr(RingDescriptor(("x",))) == "RingDescriptor(variables=('x',), laurent=frozenset())"


def test_ring_equality_ignores_its_index():
    a, b = RingDescriptor(("x", "y")), RingDescriptor(("x", "y"))
    object.__setattr__(b, "_index", {})
    assert a == b and hash(a) == hash(b)
    assert "_index" not in repr(b)
    assert a.index("y") == 1


def test_bricks_sort_by_row_then_span():
    bricks = [Brick(2, (1, 4)), Brick(1, (3, 5)), Brick(1, (1, 3)), Brick(2, (0, 1))]
    order = [Brick(1, (1, 3)), Brick(1, (3, 5)), Brick(2, (0, 1)), Brick(2, (1, 4))]
    assert sorted(bricks) == order
    assert Brick(1, (1, 3)) < Brick(1, (1, 4)) <= Brick(1, (1, 4)) < Brick(2, (0, 1))
    assert Brick(2, (0, 1)) > Brick(1, (9, 10)) >= Brick(1, (9, 10))
    with pytest.raises(TypeError):
        Brick(1, (1, 3)) < (1, (1, 4))


def test_check_result_is_mutable_with_a_fresh_details_dict():
    a, b = CheckResult("x", True), CheckResult("x", True)
    assert a.details == {} and a.details is not b.details
    assert a.seconds == 0.0
    a.seconds = 1.5
    a.details["k"] = 1
    assert a.seconds == 1.5 and b.details == {}
    result = CheckResult(name="y", passed=False, details={"n": 2}, seconds=0.25)
    assert result.to_json_dict() == {"name": "y", "passed": False, "details": {"n": 2}}
