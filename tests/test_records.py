"""The value records' contract: repr, hash, equality, immutability and validation.

Every public record is a tuple, declared one way: a subclass of a
``collections.namedtuple`` with ``__slots__ = ()``.  The three that validate
their fields (``MarkedDiagram``, ``Tag`` and ``TwoBundleData``) check in
``__new__``, which ``_make`` and ``_replace`` also go through.  Each prints as ``Name(field=value, ...)``,
hashes and compares as the tuple of its fields, and refuses assignment.  The
``repr`` strings below were pinned while some records were dataclasses.
"""
from __future__ import annotations

import pytest

from flagcalc import DomainError, classifier, drum, dynkin, homogeneous, tags

A1 = dynkin.DynkinDiagram((("A", 1),))
A2 = dynkin.DynkinDiagram((("A", 2),))
B3 = dynkin.DynkinDiagram((("B", 3),))
A2_REPR = "DynkinDiagram(components=(('A', 2),))"
B3_REPR = "DynkinDiagram(components=(('B', 3),))"
TAG = tags.Tag(A2, (1, 0))
TAG_REPR = f"Tag(diagram={A2_REPR}, values=(1, 0))"
ENTRY_FIELDS = {"diagram": A2, "i": 1, "j": 2, "r_minus": 1, "r_plus": 1, "dim": 3}
ENTRY = homogeneous.TwoBundleEntry(**ENTRY_FIELDS)
ENTRY_REPR = f"TwoBundleEntry(diagram={A2_REPR}, i=1, j=2, r_minus=1, r_plus=1, dim=3)"
SINK_FIELDS = {"variety": homogeneous.MarkedDiagram(B3, (1,)), "mu": 0, "dim": 5}
SINK = drum.FixedComponent(**SINK_FIELDS)
SINK_REPR = f"FixedComponent(variety=MarkedDiagram(diagram={B3_REPR}, marks=(1,)), mu=0, dim=5)"
SOURCE = drum.FixedComponent(homogeneous.MarkedDiagram(B3, (3,)), 1, 6)
SOURCE_REPR = f"FixedComponent(variety=MarkedDiagram(diagram={B3_REPR}, marks=(3,)), mu=1, dim=6)"

# (class, its fields in order, repr of the record built from them)
SAMPLES = [
    (dynkin.DynkinDiagram, {"components": (("B", 3),)}, B3_REPR),
    (
        dynkin.RootSystem,
        {"cartan": ((2, -1), (-1, 2)), "roots": ((0, 1), (1, 0), (1, 1))},
        "RootSystem(cartan=((2, -1), (-1, 2)), roots=((0, 1), (1, 0), (1, 1)))",
    ),
    (
        homogeneous.MarkedDiagram,
        {"diagram": B3, "marks": (1, 3)},
        f"MarkedDiagram(diagram={B3_REPR}, marks=(1, 3))",
    ),
    (
        homogeneous.ContractionFiber,
        {
            "base_marks": (1,),
            "total_marks": (1, 3),
            "fiber": homogeneous.MarkedDiagram(dynkin.DynkinDiagram((("B", 2),)), (2,)),
            "node_map": ((2, 1), (3, 2)),
            "dropped": None,
        },
        "ContractionFiber(base_marks=(1,), total_marks=(1, 3), fiber=MarkedDiagram(diagram="
        "DynkinDiagram(components=(('B', 2),)), marks=(2,)), node_map=((2, 1), (3, 2)), dropped=None)",
    ),
    (homogeneous.TwoBundleEntry, ENTRY_FIELDS, ENTRY_REPR),
    (tags.Tag, {"diagram": A2, "values": (1, 0)}, TAG_REPR),
    (tags.ZeroData, {"zeros": (2,), "support": (1,)}, "ZeroData(zeros=(2,), support=(1,))"),
    (
        tags.RestrictedTag,
        {"tag": tags.Tag(A1, (2,)), "node_map": ((3, 1),)},
        "RestrictedTag(tag=Tag(diagram=DynkinDiagram(components=(('A', 1),)), values=(2,)), "
        "node_map=((3, 1),))",
    ),
    (
        tags.TagShape,
        {"kind": tags.FIRST_NODE_ONLY, "d": 1, "reduction": None},
        "TagShape(kind='first_node_only', d=1, reduction=None)",
    ),
    (classifier.TagPair, {"plus": TAG, "minus": TAG}, f"TagPair(plus={TAG_REPR}, minus={TAG_REPR})"),
    (
        classifier.TwoBundleData,
        {"r_minus": 2, "r_plus": 2, "delta_minus": TAG, "delta_plus": TAG},
        f"TwoBundleData(r_minus=2, r_plus=2, delta_minus={TAG_REPR}, delta_plus={TAG_REPR})",
    ),
    (
        classifier.ShapeVerdict,
        {"passed": False, "shape": tags.TagShape(tags.OTHER), "reason": "rank is even"},
        "ShapeVerdict(passed=False, shape=TagShape(kind='other', d=None, reduction=None), "
        "reason='rank is even')",
    ),
    (
        classifier.HomogeneousModel,
        {"entry": ENTRY, "tag_plus": TAG, "tag_minus": TAG, "orientation": "swapped", "product": False},
        f"HomogeneousModel(entry={ENTRY_REPR}, tag_plus={TAG_REPR}, tag_minus={TAG_REPR}, "
        "orientation='swapped', product=False)",
    ),
    (drum.FixedComponent, SINK_FIELDS, SINK_REPR),
    (
        drum.HorosphericalDrum,
        {
            "diagram": B3, "i": 1, "j": 3, "dim_y": 8, "dim_z": 9, "dim_v_i": 7, "dim_v_j": 8,
            "ambient_dim": 14, "sink": SINK, "source": SOURCE,
        },
        f"HorosphericalDrum(diagram={B3_REPR}, i=1, j=3, dim_y=8, dim_z=9, dim_v_i=7, dim_v_j=8, "
        f"ambient_dim=14, sink={SINK_REPR}, source={SOURCE_REPR})",
    ),
    (
        drum.IntersectionLedger,
        {
            "class_vectors": (("Y+", (1, -1, 0)),),
            "table": ((("Y+", "ell-"), 1),),
            "m_plus_nef": True,
            "m_minus_nef": False,
        },
        "IntersectionLedger(class_vectors=(('Y+', (1, -1, 0)),), table=((('Y+', 'ell-'), 1),), "
        "m_plus_nef=True, m_minus_nef=False)",
    ),
]


def _public_classes() -> set[type]:
    return {
        obj
        for module in (dynkin, homogeneous, tags, classifier, drum)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def test_every_public_record_has_a_sample():
    assert {cls for cls, _, _ in SAMPLES} == _public_classes()
    assert all(issubclass(cls, tuple) for cls, _, _ in SAMPLES)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=[cls.__name__ for cls, _, _ in SAMPLES])
def test_record_contract(cls, fields, text):
    x = cls(**fields)
    assert cls._fields == tuple(fields)
    assert repr(x) == text
    assert hash(x) == hash(tuple(fields.values()))
    assert x == cls(**fields) and x == cls(*fields.values())
    for name in (next(iter(fields)), "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_record_defaults():
    assert tags.TagShape(tags.OTHER) == tags.TagShape(tags.OTHER, None, None)
    assert classifier.ShapeVerdict(True, tags.TagShape(tags.OTHER)).reason is None
    assert classifier.HomogeneousModel(ENTRY, TAG, TAG, "direct").product is False


def test_named_tuple_records_are_tuples():
    # fields by position, tuple equality (also across record types), _asdict and _replace
    assert ENTRY == (A2, 1, 2, 1, 1, 3) and ENTRY[1:3] == (1, 2) and len(ENTRY) == 6
    assert ENTRY._replace(dim=4).dim == 4 and ENTRY.dim == 3
    assert list(SINK._asdict()) == ["variety", "mu", "dim"]
    assert homogeneous.MarkedDiagram(A2, (1, 2)) == tags.Tag(A2, (1, 2)) == (A2, (1, 2))
    assert A2 == ((("A", 2),),) and A2.rank == 2 and A2.nodes == range(1, 3)


@pytest.mark.parametrize(
    "record, fields",
    [
        (TAG, {"values": (-1, 0)}),
        (classifier.TwoBundleData(1, 2, tags.Tag(A1, (1,)), TAG), {"r_minus": 0}),
        (homogeneous.MarkedDiagram(B3, (1,)), {"marks": (4,)}),
    ],
    ids=["Tag", "TwoBundleData", "MarkedDiagram"],
)
def test_replace_validates(record, fields):
    # namedtuple's own _make and _replace would skip __new__ and return an invalid record
    with pytest.raises(DomainError):
        record._replace(**fields)
    with pytest.raises(DomainError):
        type(record)._make({**record._asdict(), **fields}.values())


def test_replace_normalises_marks():
    marked = homogeneous.MarkedDiagram(B3, (1,))._replace(marks=(3, 1, 3))
    assert marked.marks == (1, 3) and type(marked) is homogeneous.MarkedDiagram
