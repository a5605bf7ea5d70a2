"""Consistency analysis for varieties with two projective bundle structures.

The two structures p+ and p- of a candidate variety restrict to tags
delta_plus and delta_minus on lines of the opposite family.  This module
computes those tags for the homogeneous models in closed form, off the
end records of ``_fiber_table`` (the node b joined to the base node and its
position p) and with no node or root list, checks the shape
trichotomy that any configuration with one-dimensional minus-fibers must
satisfy, and matches arbitrary data against the homogeneous models.
"""
from __future__ import annotations

from collections import namedtuple

from .dynkin import DynkinDiagram, _bonds
from .errors import DomainError
from .homogeneous import (
    TwoBundleEntry,
    MarkedDiagram,
    _check_max_rank,
    _fiber_table,
    enumerate_two_bundles,
    is_two_bundle_pair,
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


def _side_tag(d: DynkinDiagram, base: int, other: int) -> Tag:
    """Tag of the bundle contracted to D{base}, on lines of the opposite side, in closed form.

    Its splitting type is, up to twist, {0} with -<beta, alpha_base^v> over
    the positive roots beta with beta_base = 0 and beta_other > 0: the roots
    of F, the component of D - {base} holding ``other``.  At most one node b
    of F is joined to base, so each degree is c * beta_b, c = -C[b][base],
    read off the bonds of base in ``dynkin._bonds``.
    ``other`` is an end of F, and r is its rank in the end map of
    ``_fiber_table``, whose record of F gives b and its position in F's
    standard order.  Read from ``other``, F is A_r, or C_k with r = 2k - 1
    (B2 read from node 2 is C2); let b sit at position p.  By the Bourbaki
    plates the roots are alpha_1 + ... + alpha_m, m = 1..r, for A_r, so p
    degrees are 0 and the rest c.  C_k adds alpha_1 + ... + alpha_{m-1} +
    2(alpha_m + ... + alpha_{k-1}) + alpha_k, m < k, so for p < k the
    degrees are p zeros, p 2c's and the rest c, and for p = k, k zeros and k
    c's.  Differencing the sorted degrees, the tag is c at node p, and for C
    also at node r + 1 - p.  It is zero when no node of F is joined to base,
    as for a product.
    """
    _, ranks, ends = _fiber_table(d, base)
    r = ranks[other]
    family, k, first, _, b, p = next(end for end in ends if other in (end[2], end[3]))
    values = [0] * r
    if p:
        if other != first:
            p = k + 1 - p
        values[p - 1] = values[p - 1 if family == "A" else r - p] = -_bonds(d)[base - 1][b]
    return Tag(DynkinDiagram((("A", r),)), tuple(values))


def homogeneous_tags(d: DynkinDiagram, i: int, j: int) -> TagPair:
    """The pair (delta_plus, delta_minus) of the homogeneous model D{i,j}.

    delta_plus lives on the type A diagram of the fiber over D{i},
    delta_minus on the one of the fiber over D{j}.  The pair (d, i, j) must
    carry two projective bundle structures.
    """
    if is_two_bundle_pair(d, i, j) is None:
        raise DomainError(f"{MarkedDiagram(d, (i, j))} does not carry two projective bundle structures")
    return TagPair(plus=_side_tag(d, i, j), minus=_side_tag(d, j, i))


def _check_relative_dimensions(*ranks) -> None:
    """``DomainError`` unless each relative dimension is a positive ``int``, a ``bool`` not being one."""
    if any(type(r) is not int for r in ranks):
        raise DomainError(f"relative dimensions must be integers, got {ranks}")
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
                raise DomainError(f"{name} must live on A{r}, got {tag.diagram}")
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
    ``max_rank`` is an ``int`` from max(r_minus, r_plus) + 1 to
    ``dynkin.MAX_RANK`` on both paths.
    """
    _check_max_rank(max_rank)
    if max_rank < max(data.r_minus, data.r_plus) + 1:
        raise DomainError("max_rank must be at least max(r_minus, r_plus) + 1")
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
