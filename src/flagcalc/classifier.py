"""Consistency analysis for varieties with two projective bundle structures.

The two structures p+ and p- of a candidate variety restrict to tags
delta_plus and delta_minus on lines of the opposite family.  This module
builds those tags for the homogeneous models from the values that
``homogeneous._side_tag`` reads in closed form off the end records of one
``homogeneous._pair_tables`` read, with no node or root list, checks the
shape trichotomy that any configuration with one-dimensional minus-fibers
must satisfy, and matches arbitrary data against the homogeneous models.
"""
from __future__ import annotations

from collections import namedtuple

from .dynkin import DynkinDiagram
from .errors import DomainError, quote
from .homogeneous import (
    TwoBundleEntry,
    MarkedDiagram,
    _check_max_rank,
    _pair_tables,
    _side_tag,
    enumerate_two_bundles,
)
from .tags import (
    FIRST_NODE_ONLY,
    SYMMETRIC_ENDS,
    Tag,
    classify_tag_shape,
    is_trivial,
)


class TagPair(namedtuple("TagPair", "plus minus")):
    """The tags (delta_plus, delta_minus) of a homogeneous model, on the fibers over D{i} and D{j}."""

    __slots__ = ()


def homogeneous_tags(d: DynkinDiagram, i: int, j: int) -> TagPair:
    """The pair (delta_plus, delta_minus) of the homogeneous model D{i,j}.

    delta_plus lives on the type A diagram of the fiber over D{i},
    delta_minus on the one of the fiber over D{j}.  The pair (d, i, j) must
    carry two projective bundle structures, tested on the ``_pair_tables``
    read whose tables over i and j ``_side_tag`` reads the values off.
    """
    if (tables := _pair_tables(d, i, j)) is None:
        raise DomainError(f"{MarkedDiagram(d, (i, j))} does not carry two projective bundle structures")
    plus, minus = (
        Tag(DynkinDiagram((("A", len(values)),)), values)
        for values in (_side_tag(d, i, j, tables[0]), _side_tag(d, j, i, tables[1]))
    )
    return TagPair(plus, minus)


def _check_relative_dimensions(*ranks) -> None:
    """``DomainError`` unless each relative dimension is a positive ``int``, a ``bool`` not being one."""
    if any(type(r) is not int for r in ranks):
        raise DomainError(f"relative dimensions must be integers, got {quote(ranks)}")
    if min(ranks) < 1:
        raise DomainError("relative dimensions must be positive")


class TwoBundleData(namedtuple("TwoBundleData", "r_minus r_plus delta_minus delta_plus")):
    """Relative dimensions r-+ and the tags delta-+ of a variety with two bundle structures."""

    __slots__ = ()
    # namedtuple's ``_make`` and ``_replace`` build with ``tuple.__new__``; these go through ``__new__``
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r_minus: int, r_plus: int, delta_minus: Tag, delta_plus: Tag) -> TwoBundleData:
        _check_relative_dimensions(r_minus, r_plus)
        for r, tag, name in ((r_minus, delta_minus, "delta_minus"), (r_plus, delta_plus, "delta_plus")):
            if not (tag.diagram.is_connected() and tag.diagram.components[0] == ("A", r)):
                raise DomainError(f"{name} must live on A{quote(r)}, got {quote(tag.diagram, str)}")
        return super().__new__(cls, r_minus, r_plus, delta_minus, delta_plus)

    @classmethod
    def from_values(cls, r_minus, r_plus, minus_values, plus_values) -> TwoBundleData:
        _check_relative_dimensions(r_minus, r_plus)
        return cls(
            r_minus=r_minus,
            r_plus=r_plus,
            delta_minus=Tag(DynkinDiagram((("A", r_minus),)), tuple(minus_values)),
            delta_plus=Tag(DynkinDiagram((("A", r_plus),)), tuple(plus_values)),
        )


class ShapeVerdict(namedtuple("ShapeVerdict", "passed shape reason", defaults=(None,))):
    """Outcome of the shape check: the tag shape and, on failure, the clauses it violates (else None)."""

    __slots__ = ()


def check_shape_constraint(data: TwoBundleData) -> ShapeVerdict:
    """Shape check for configurations whose minus-side fibers are lines.

    delta_plus must be either (d, 0, ..., 0) with d >= 0 or
    (d, 0, ..., 0, d) with d > 0 and odd rank; anything else fails.
    """
    if data.r_minus != 1:
        raise DomainError("the shape check applies only when r_minus = 1")
    shape = classify_tag_shape(data.delta_plus)
    if shape.kind in (FIRST_NODE_ONLY, SYMMETRIC_ENDS):
        return ShapeVerdict(passed=True, shape=shape)
    # the shape is OTHER, so a value past node 1 is nonzero
    v = data.delta_plus.values
    clauses = ["first-node clause: support extends past node 1"]
    if len(v) % 2 == 0:
        clauses.append("symmetric-ends clause: rank is even")
    elif not (v[0] == v[-1] > 0):
        clauses.append("symmetric-ends clause: end values differ or vanish")
    else:
        clauses.append("symmetric-ends clause: interior values are nonzero")
    return ShapeVerdict(passed=False, shape=shape, reason="; ".join(clauses))


class HomogeneousModel(
    namedtuple("HomogeneousModel", "entry tag_plus tag_minus orientation product", defaults=(False,))
):
    """A catalogue entry whose invariants match the request, its tags and the matching orientation."""

    __slots__ = ()


def _product_entry(r_minus: int, r_plus: int) -> TwoBundleEntry:
    """P^r_minus x P^r_plus, marked at each first node of A_r_minus + A_r_plus: dim r_minus + r_plus."""
    return TwoBundleEntry(
        diagram=DynkinDiagram((("A", r_minus), ("A", r_plus))),
        i=1,
        j=r_minus + 1,
        r_minus=r_minus,
        r_plus=r_plus,
        dim=r_minus + r_plus,
    )


def match_model(data: TwoBundleData, max_rank: int) -> tuple[HomogeneousModel, ...]:
    """All homogeneous models with the given invariants.

    A pair of zero tags matches the product of two projective spaces, which
    is reported as a product model at any valid ``max_rank``.  Every other
    model is drawn from the connected classification of rank <= max_rank,
    matched in both orientations: the rank bound limits only that catalogue,
    and an empty result means no homogeneous model exists within it.
    ``max_rank`` is an ``int`` from 2 to ``dynkin.MAX_RANK`` on both paths,
    whatever the relative dimensions: C_n{1,2} has r_plus = 2n - 3.
    """
    _check_max_rank(max_rank)
    product = is_trivial(data.delta_minus) and is_trivial(data.delta_plus)
    entries = (_product_entry(data.r_minus, data.r_plus),) if product else enumerate_two_bundles(max_rank)
    request = (data.r_minus, data.r_plus, data.delta_minus.values, data.delta_plus.values)
    matches: list[HomogeneousModel] = []
    for entry in entries:
        tags = homogeneous_tags(entry.diagram, entry.i, entry.j)
        for orientation, model in (
            ("direct", (entry.r_minus, entry.r_plus, tags.minus.values, tags.plus.values)),
            ("swapped", (entry.r_plus, entry.r_minus, tags.plus.values, tags.minus.values)),
        ):
            if model == request:
                matches.append(HomogeneousModel(entry, tags.plus, tags.minus, orientation, product))
                break
    return tuple(matches)
