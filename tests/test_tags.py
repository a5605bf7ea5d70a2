from __future__ import annotations

import itertools
import random

import pytest

from flagcalc.classifier import TwoBundleData
from flagcalc.dynkin import DynkinDiagram, parse_diagram
from flagcalc.errors import DomainError, ParseError
from flagcalc.homogeneous import MarkedDiagram
from flagcalc.tags import (
    FIRST_NODE_ONLY,
    OTHER,
    SYMMETRIC_ENDS,
    Tag,
    classify_tag_shape,
    is_trivial,
    nesting_admissible,
    parse_tag,
    restrict_tag,
    symplectic_reduce,
    tag_from_splitting,
    zero_data,
)


from oracles import canonical_tag_form


def a_tag(*values) -> Tag:
    return Tag(DynkinDiagram((("A", len(values)),)), tuple(values))


def test_parse_and_render():
    t = parse_tag("A5:1,0,0,0,1")
    assert t.values == (1, 0, 0, 0, 1)
    assert t.render() == str(t) == "A5:1,0,0,0,1"
    t2 = parse_tag("A1+A1:1,2")
    assert t2.values == (1, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tag("A5")
    with pytest.raises(ParseError, match="bad value list"):
        parse_tag("A3:1,,2")
    with pytest.raises(DomainError):
        parse_tag("A5:1,2")


def test_tag_nonnegativity_enforced():
    with pytest.raises(DomainError):
        a_tag(1, -1)


def test_tag_rank_checked():
    with pytest.raises(DomainError):
        Tag(parse_diagram("A3"), (1, 2))


def test_tag_rejects_non_integer_values():
    with pytest.raises(DomainError):
        Tag(parse_diagram("A1"), (1.5,))
    # the checks run in order: the type of each value, the length, the sign
    for text, values, message in [
        ("A2", (1.5, -1), "tag values must be integers, got (1.5, -1)"),
        ("A1", (1, -1), "tag has 2 values but diagram A1 has rank 1"),
    ]:
        with pytest.raises(DomainError) as raised:
            Tag(parse_diagram(text), values)
        assert str(raised.value) == message, (text, values)
    assert Tag(DynkinDiagram(()), ()).values == ()


def test_tag_from_splitting_example():
    assert tag_from_splitting([0, 1, 3]).values == (1, 2)
    assert tag_from_splitting([0, 1, 3]).diagram.render() == "A2"


def test_tag_from_splitting_constant_is_trivial():
    for c in (-3, 0, 5):
        assert is_trivial(tag_from_splitting([c] * 4))


def test_tag_from_splitting_cotangent_on_line():
    assert tag_from_splitting([-2, -1, -1, -1]).values == (1, 0, 0)


def test_tag_from_splitting_rejects_unsorted_or_short():
    with pytest.raises(DomainError):
        tag_from_splitting([1, 0])
    with pytest.raises(DomainError):
        tag_from_splitting([3])


def test_tag_from_splitting_twist_invariance():
    rng = random.Random(2024)
    for _ in range(300):
        length = rng.randint(2, 9)
        degrees = sorted(rng.randint(-5, 5) for _ in range(length))
        shift = rng.randint(-4, 4)
        assert (
            tag_from_splitting(degrees).values
            == tag_from_splitting([a + shift for a in degrees]).values
        )


def test_zero_data():
    zd = zero_data(parse_tag("A3:1,0,2"))
    assert zd.zeros == (2,) and zd.support == (1, 3)
    zd = zero_data(parse_tag("A4:0,0,0,0"))
    assert zd.zeros == (1, 2, 3, 4) and zd.support == ()
    zd = zero_data(parse_tag("A1:3"))
    assert zd.zeros == () and zd.support == (1,)


def test_restrict_tag_middle_node():
    r = restrict_tag(parse_tag("A3:1,0,2"), {2})
    assert r.tag.render() == "A1+A1:1,2"
    assert dict(r.node_map) == {1: 1, 3: 2}


def test_restrict_tag_first_node():
    r = restrict_tag(parse_tag("A5:1,2,3,4,5"), {1})
    assert r.tag.render() == "A4:2,3,4,5"


def test_restrict_tag_errors():
    t = parse_tag("A3:1,0,2")
    with pytest.raises(DomainError):
        restrict_tag(t, set())
    with pytest.raises(DomainError):
        restrict_tag(t, {1, 2, 3})


def test_restrict_tag_composes():
    # two-step and direct restriction agree modulo the reindexing recorded in
    # the node maps: the results are isomorphic valued diagrams and both maps
    # transport the original values faithfully
    rng = random.Random(5)
    diagrams = ["A6", "B5", "D5", "A3+B3", "E6"]
    for _ in range(200):
        d = parse_diagram(rng.choice(diagrams))
        values = tuple(rng.randint(0, 3) for _ in d.nodes)
        t = Tag(d, values)
        nodes = list(d.nodes)
        first = set(rng.sample(nodes, rng.randint(1, d.rank - 2)))
        remaining = [k for k in nodes if k not in first]
        second_orig = set(rng.sample(remaining, rng.randint(1, len(remaining) - 1)))

        step = restrict_tag(t, first)
        fwd = dict(step.node_map)
        two_step = restrict_tag(step.tag, {fwd[k] for k in second_orig})
        direct = restrict_tag(t, first | second_orig)
        assert canonical_tag_form(two_step.tag) == canonical_tag_form(direct.tag)
        composed = {k: dict(two_step.node_map)[fwd[k]] for k in fwd if k not in second_orig}
        assert set(composed) == set(dict(direct.node_map))
        for k, new in composed.items():
            assert two_step.tag.values[new - 1] == t.values[k - 1]
            assert direct.tag.values[dict(direct.node_map)[k] - 1] == t.values[k - 1]


def test_restrict_preserves_zero_sets():
    rng = random.Random(13)
    for _ in range(200):
        d = parse_diagram(rng.choice(["A6", "C5", "D6"]))
        t = Tag(d, tuple(rng.randint(0, 2) for _ in d.nodes))
        removed = set(rng.sample(list(d.nodes), rng.randint(1, d.rank - 1)))
        r = restrict_tag(t, removed)
        fwd = dict(r.node_map)
        expected = {fwd[k] for k in zero_data(t).zeros if k not in removed}
        assert set(zero_data(r.tag).zeros) == expected


def test_is_trivial():
    assert is_trivial(a_tag(0, 0))
    assert not is_trivial(a_tag(0, 1))
    assert is_trivial(Tag(parse_diagram("D4"), (0, 0, 0, 0)))


def test_symplectic_reduce_examples():
    assert symplectic_reduce(a_tag(2, 0, 2)).render() == "C2:2,0"
    assert symplectic_reduce(a_tag(1, 1)) is None
    assert symplectic_reduce(a_tag(1, 0, 2)) is None


def test_symplectic_reduce_rank_one_collapses_to_a1():
    reduced = symplectic_reduce(a_tag(3))
    assert reduced is not None and reduced.render() == "A1:3"


def test_symplectic_reduce_requires_connected_type_a():
    with pytest.raises(DomainError):
        symplectic_reduce(Tag(parse_diagram("B2"), (1, 1)))
    with pytest.raises(DomainError):
        symplectic_reduce(parse_tag("A1+A1:1,1"))


def test_symplectic_reduce_exactly_on_odd_palindromes():
    for rank in range(1, 6):
        for values in itertools.product(range(4), repeat=rank):
            t = a_tag(*values)
            reduced = symplectic_reduce(t)
            expected = rank % 2 == 1 and values == values[::-1]
            assert (reduced is not None) == expected, values
            if reduced is not None:
                assert reduced.values == values[: (rank + 1) // 2]
                assert is_trivial(t) == is_trivial(reduced)


def test_nesting_admissible():
    assert nesting_admissible(a_tag(1, 0, 1), {1}, {3})
    assert nesting_admissible(a_tag(1, 0, 1), {3}, {1})
    assert not nesting_admissible(a_tag(1, 0, 1), {2}, {3})
    assert not nesting_admissible(a_tag(1, 0, 2), {1}, {3})
    assert not nesting_admissible(a_tag(1, 1, 1, 1), {1}, {4})


def test_nesting_admissible_errors():
    t = a_tag(1, 0, 1)
    with pytest.raises(DomainError):
        nesting_admissible(t, {1, 2}, {2, 3})
    with pytest.raises(DomainError):
        nesting_admissible(t, set(), {3})


def test_classify_tag_shape():
    assert classify_tag_shape(a_tag(3, 0, 0, 0)).kind == FIRST_NODE_ONLY
    assert classify_tag_shape(a_tag(3, 0, 0, 0)).d == 3
    shape = classify_tag_shape(a_tag(2, 0, 2))
    assert shape.kind == SYMMETRIC_ENDS and shape.d == 2
    assert shape.reduction is not None and shape.reduction.render() == "C2:2,0"
    assert classify_tag_shape(a_tag(2, 0, 0, 2)).kind == OTHER
    assert classify_tag_shape(a_tag(0, 1, 0)).kind == OTHER
    assert classify_tag_shape(a_tag(0, 0, 0)).kind == FIRST_NODE_ONLY
    assert classify_tag_shape(a_tag(5)).kind == FIRST_NODE_ONLY


def test_classify_tag_shape_requires_type_a():
    with pytest.raises(DomainError):
        classify_tag_shape(Tag(parse_diagram("C3"), (1, 0, 1)))


def test_library_checks_quote_long_input():
    # each check echoes its input through quote: a 5000-element input, or
    # the longest a rank-100 diagram admits, keeps the message short
    a2, a100 = parse_diagram("A2"), parse_diagram("A100")
    for check, start in (
        (lambda: MarkedDiagram(a2, range(1, 5000)), "nodes [1, 2, 3"),
        (lambda: MarkedDiagram(a2, [1.5] * 5000), "nodes must be integers, got (1.5, "),
        (lambda: Tag(a2, [1.5] * 5000), "tag values must be integers, got (1.5, "),
        (lambda: Tag(a100, [-1] * 100), "tag values must be nonnegative, got (-1, "),
        (lambda: tag_from_splitting(range(5000, 0, -1)), "splitting type [5000, 4999, "),
        (lambda: nesting_admissible(Tag(a100, [0] * 100), a100.nodes, a100.nodes), "mark sets overlap: [1, 2, "),
        (lambda: TwoBundleData.from_values([1] * 5000, 1, (), ()), "relative dimensions must be integers, got ([1, "),
    ):
        with pytest.raises(DomainError) as caught:
            check()
        message = str(caught.value)
        assert message.startswith(start) and "..." in message and len(message) < 200, message


def test_library_checks_stand_in_for_unprintable_integers():
    # an int of more than 4300 digits makes repr and str raise ValueError; each check still
    # raises DomainError, with a short stand-in for the integer, the diagram or the values
    huge, line = 10**5000, Tag(parse_diagram("A1"), (0,))
    for check, start in (
        (lambda: Tag(parse_diagram("A1"), (-huge,)), "tag values must be nonnegative, got <tuple "),
        (lambda: TwoBundleData(huge, 1, line, line), "delta_minus must live on A<int "),
        (lambda: TwoBundleData.from_values(huge, 1, (0,), (0,)), "tag has 1 values but diagram <DynkinDiagram "),
    ):
        with pytest.raises(DomainError) as caught:
            check()
        message = str(caught.value)
        assert message.startswith(start) and len(message) < 200, message
