"""Record against a frozen dataclass twin: construction, normalisation,
immutability, equality and hashing by class, repr, identity equality, and
cached properties, also on nested records and on the deepest expression tree
the parser builds, which must not recurse. Then the report form, `to_json`, and the keys
of the records whose JSON is report schema."""

import dataclasses
import enum
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import pytest

from crtrans.crmap import TransversalOrder
from crtrans.grammar import Exp, Imag, InputDocument, Neg, Num, parse
from crtrans.hypersurface import TypeClassification, TypeKind
from crtrans.record import Record
from crtrans.scalar import qr
from crtrans.verdict import certified_true
from crtrans.verify import SuiteStatus, TheoremSuiteResult


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


class Chain(Record):
    items: Tuple[int, ...]
    head: object = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))


class Empty(Record):
    pass


SQUARED = []


class Counted(Record):
    n: int

    @cached_property
    def square(self) -> int:
        SQUARED.append(self.n)
        return self.n * self.n


# the same classes as frozen dataclasses, under the same names
PointTwin = dataclasses.make_dataclass(
    "Point", [("x", int), ("y", int, dataclasses.field(default=0)),
              ("label", str, dataclasses.field(default="p"))], frozen=True)
ChainTwin = dataclasses.make_dataclass(
    "Chain", [("items", tuple), ("head", object, dataclasses.field(default=None))],
    frozen=True, namespace={"__post_init__": Chain.__post_init__})

CONSTRUCTIONS = [
    ((1,), {}),
    ((1, 2), {}),
    ((1, 2, "q"), {}),
    ((), {"x": 1}),
    ((1,), {"label": "q"}),
    ((), {"label": "q", "y": 3, "x": 1}),
]


def fields(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(PointTwin))


@pytest.mark.parametrize("args, kwargs", CONSTRUCTIONS)
def test_construction_matches_the_dataclass(args, kwargs):
    rec, twin = Point(*args, **kwargs), PointTwin(*args, **kwargs)
    assert fields(rec) == fields(twin)
    assert repr(rec) == repr(twin)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                       # missing x
    ((), {"y": 1}),                 # missing x
    ((1, 2, "q", 4), {}),           # one positional too many
    ((1,), {"z": 1}),               # unknown keyword
    ((1,), {"x": 2}),               # x given twice
])
def test_bad_arguments_raise_type_error_like_the_dataclass(args, kwargs):
    with pytest.raises(TypeError):
        PointTwin(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_post_init_normalises_like_the_dataclass():
    rec, twin = Chain([1, 2]), ChainTwin([1, 2])
    assert rec.items == twin.items == (1, 2)
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin)


@pytest.mark.parametrize("cls", [Point, PointTwin])
def test_assignment_and_deletion_raise(cls):
    p = cls(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        p.other = 2
    with pytest.raises(AttributeError):
        del p.x
    assert p.x == 1


def test_equality_and_hash_follow_class_and_fields():
    assert Point(1, 2) == Point(1, y=2)
    assert hash(Point(1, 2)) == hash(Point(1, y=2)) == hash(PointTwin(1, 2))
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != PointTwin(1, 2)
    assert Point(1, 2) != (1, 2, "p")
    assert len({Point(1), Point(1), Point(2)}) == 2


def test_records_of_different_classes_differ():
    x = Num(3)
    assert Neg(x) == Neg(Num(3))
    assert Neg(x) != Exp(x)
    assert Imag() == Imag()
    assert Imag() != Empty()
    assert hash(Imag()) == hash(Empty()) == hash(())
    assert InputDocument((), ()) == InputDocument((), (), None, None)


def test_repr_matches_the_dataclass():
    for args in [(1,), (-2, 5, "a'b"), (0, 0, "")]:
        assert repr(Point(*args)) == repr(PointTwin(*args))
    assert repr(Chain([Point(1)], "h")) == "Chain(items=(Point(x=1, y=0, label='p'),), head='h')"
    assert repr(Neg(Num(3))) == "Neg(arg=Num(value=3))"
    assert repr(Imag()) == "Imag()"


def test_nested_records_compare_hash_and_print_like_the_dataclass():
    shared = Point(5)
    rec = Chain((Point(1), (Point(2, 3), shared), ()), Chain([shared, shared]))
    twin = ChainTwin((PointTwin(1), (PointTwin(2, 3), PointTwin(5)), ()),
                     ChainTwin([PointTwin(5), PointTwin(5)]))
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin)
    assert rec == Chain((Point(1), (Point(2, 3), Point(5)), ()), Chain([Point(5), Point(5)]))
    assert rec != Chain((Point(1), (Point(2, 3), Point(5))), Chain([Point(5), Point(5)]))
    assert rec != Chain((Point(1), (Point(2, 3), Point(5)), ()), Chain([Point(5), Point(6)]))
    assert rec != Chain((Point(1), [Point(2, 3), Point(5)], ()), Chain([Point(5), Point(5)]))


def deep_document(inner: str = "z*chi") -> InputDocument:
    """The deepest expression the parser accepts, 100 parenthesised levels of
    (z*chi + z*chi*X^2), parses into a tree some 300 records deep: deeper than
    plain recursive == and repr reach under the default recursion limit on
    Python 3.10 to 3.12."""
    x = inner
    for _ in range(100):
        x = f"(z*chi + z*chi*{x}^2)"
    return parse(f"M = graph({x})\nclassify M\n")


def test_deeply_nested_records_compare_without_recursion():
    assert deep_document() == deep_document()
    # they differ only at the bottom, so the walk must reach it
    assert deep_document() != deep_document("2*z*chi")


def test_deeply_nested_records_hash_without_recursion():
    """A record hashes as the tuple of its field values. At the deepest tree
    the parser accepts, that plain recursion stays under the default limit,
    also with 300 frames already in use."""
    doc = deep_document()
    assert hash(doc) == hash(deep_document())

    def nested(depth):
        return hash(doc) if depth == 0 else nested(depth - 1)

    assert nested(300) == hash(doc)


def test_deeply_nested_records_print_without_recursion():
    text = repr(deep_document())
    assert text.startswith("InputDocument(declarations=(Decl(name='M', value=CtorRef(kind='graph'")
    assert text.count("Chain(first=") == 300
    assert text.endswith("tasks=(ClassifyTask(target=NameRef(name='M')),), degree=None, "
                         "convention=None)")


def test_eq_false_gives_identity_equality():
    class Analysis(Record, eq=False):
        h: int

    @dataclasses.dataclass(frozen=True, eq=False)
    class AnalysisTwin:
        h: int

    for cls in (Analysis, AnalysisTwin):
        a, b = cls(1), cls(1)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        Analysis(1).h = 2


def test_cached_property_on_a_frozen_record():
    c = Counted(4)
    assert c.square == 16
    assert c.square == 16
    assert SQUARED == [4]
    assert c == Counted(4)
    assert hash(c) == hash(Counted(4))
    assert repr(c) == "Counted(n=4)"


class Tag(str, enum.Enum):
    ONE = "one"


class Tagged(Record):
    tag: Tag
    inner: object
    data: object = None


def test_to_json_renders_fields_in_order_and_values_recursively():
    inner = Tagged(Tag.ONE, qr(Fraction(1, 2), -1))
    j = Tagged(Tag.ONE, inner, {1: (Tag.ONE, None, True, 3, 0.5), "s": [inner]}).to_json()
    rendered_inner = {"tag": "one", "inner": "1/2-i", "data": None}
    assert list(j) == ["tag", "inner", "data"]
    assert j == {
        "tag": "one",
        "inner": rendered_inner,
        "data": {"1": ["one", None, True, 3, 0.5], "s": [rendered_inner]},
    }
    # an enum renders by its value, not as the str-subclass member itself
    assert type(j["tag"]) is str and type(j["data"]["1"][0]) is str


# these keys are report schema: every report names them
REPORT_KEYS = [
    (certified_true({"k": 1}, 3), ["status", "witness", "degree_used"]),
    (TypeClassification(TypeKind.FINITE, None, {}, 4), ["kind", "m", "witness", "degree_used"]),
    (TransversalOrder(None, {}, 4, True), ["value", "witness", "degree_used", "exact"]),
    (
        TheoremSuiteResult("t", "i", {"h": certified_true()}, certified_true(),
                           SuiteStatus.CONFIRMED),
        ["theorem", "instance", "hypotheses", "conclusion", "status", "note"],
    ),
]


@pytest.mark.parametrize("record, keys", REPORT_KEYS, ids=lambda x: type(x).__name__)
def test_report_records_keep_their_keys(record, keys):
    assert list(record.to_json()) == keys
