"""Tags of flag bundles over the projective line.

A tag assigns a nonnegative integer to every node of a diagram; it is the
complete discrete invariant of a flag bundle over the line.  For a bundle of
type A obtained from a direct sum of line bundles of degrees
``a_0 <= ... <= a_r`` the tag is the difference vector
``(a_1 - a_0, ..., a_r - a_{r-1})``, nodes numbered left to right.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence

from .dynkin import SPACE, DynkinDiagram, parse_diagram, parse_ints, parse_with_node_map, subdiagram
from .errors import DomainError, ParseError, quote

FIRST_NODE_ONLY = "first_node_only"
SYMMETRIC_ENDS = "symmetric_ends"
OTHER = "other"


class Tag(namedtuple("Tag", "diagram values")):
    """Nonnegative integer values, one per node of the diagram."""

    __slots__ = ()
    # namedtuple's ``_make`` and ``_replace`` build with ``tuple.__new__``; these go through ``__new__``
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, diagram: DynkinDiagram, values) -> Tag:
        values = tuple(values)
        for v in values:  # a loop, not ``all``: a tag is built per model and side in every classify request
            if type(v) is not int:
                raise DomainError(f"tag values must be integers, got {quote(values)}")
        if len(values) != diagram.rank:
            raise DomainError(
                f"tag has {len(values)} values but diagram {quote(diagram, str)} has rank {quote(diagram.rank)}"
            )
        if values and min(values) < 0:
            raise DomainError(f"tag values must be nonnegative, got {quote(values)}")
        return super().__new__(cls, diagram, values)

    def render(self) -> str:
        return f"{self.diagram.render()}:{','.join(str(v) for v in self.values)}"

    def __str__(self) -> str:
        return self.render()


class ZeroData(namedtuple("ZeroData", "zeros support")):
    """Partition of the node set into the zero set of a tag and its support."""

    __slots__ = ()


class RestrictedTag(namedtuple("RestrictedTag", "tag node_map")):
    """A tag restricted to a subdiagram, with the map from kept nodes to its nodes as sorted pairs."""

    __slots__ = ()


class TagShape(namedtuple("TagShape", "kind d reduction", defaults=(None, None))):
    """Kind of a type A tag, its first value ``d`` unless other, and a symmetric-ends C reduction."""

    __slots__ = ()


# Unstripped: ``parse_with_node_map`` and ``parse_ints`` read the ``SPACE`` around the diagram and the values.
_TAG_RE = re.compile(rf"(.*?):((?:[0-9,]|{SPACE})+)")


def parse_tag_with_node_map(text: str) -> tuple[Tag, dict[int, int]]:
    """Parse a tag string; also map the typed diagram's node indices to normalized ones."""
    m = _TAG_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"cannot parse tag {quote(text)}")
    diagram, node_map = parse_with_node_map(m.group(1))
    raw_values = parse_ints(m.group(2))
    if raw_values is None:
        raise ParseError(f"bad value list in {quote(text)}")
    if len(raw_values) != diagram.rank:
        raise DomainError(f"tag {quote(text)} has {len(raw_values)} values for a rank-{diagram.rank} diagram")
    values = [0] * diagram.rank
    for old, new in node_map.items():
        values[new - 1] = raw_values[old - 1]
    return Tag(diagram, tuple(values)), node_map


def parse_tag(text: str) -> Tag:
    """Parse a tag string such as ``A5:1,0,0,0,1``."""
    return parse_tag_with_node_map(text)[0]


def tag_from_splitting(degrees: Sequence[int]) -> Tag:
    """Tag of the flag bundle of a sum of line bundles with the given degrees.

    ``degrees`` must be nondecreasing of length at least 2; the result lives
    on the type A diagram with one node fewer, value ``a_i - a_{i-1}`` at
    node i.
    """
    degs = list(degrees)
    if len(degs) < 2:
        raise DomainError("a splitting type needs at least two degrees")
    if any(a > b for a, b in zip(degs, degs[1:])):
        raise DomainError(f"splitting type {quote(degs)} is not nondecreasing")
    diffs = tuple(b - a for a, b in zip(degs, degs[1:]))
    return Tag(DynkinDiagram((("A", len(diffs)),)), diffs)


def zero_data(t: Tag) -> ZeroData:
    zeros, support = [], []
    for i, v in enumerate(t.values, 1):
        (support if v else zeros).append(i)
    return ZeroData(zeros=tuple(zeros), support=tuple(support))


def restrict_tag(t: Tag, marks) -> RestrictedTag:
    """Restrict a tag to the subdiagram obtained by deleting ``marks``."""
    removed = set(t.diagram.check_nodes(marks))
    if not removed:
        raise DomainError("mark set must be nonempty")
    kept = [i for i in t.diagram.nodes if i not in removed]
    if not kept:
        raise DomainError("restricting by every node leaves an empty diagram")
    sub, node_map = subdiagram(t.diagram, kept)
    values = [0] * sub.rank
    for old, new in node_map.items():
        values[new - 1] = t.values[old - 1]
    return RestrictedTag(tag=Tag(sub, tuple(values)), node_map=tuple(sorted(node_map.items())))


def is_trivial(t: Tag) -> bool:
    return all(v == 0 for v in t.values)


def _require_connected_a(t: Tag) -> int:
    if not (t.diagram.is_connected() and t.diagram.components[0][0] == "A"):
        raise DomainError(f"operation requires a tag on a connected type A diagram, got {t.diagram}")
    return t.diagram.rank


def _is_palindrome(values: tuple[int, ...]) -> bool:
    return values == values[::-1]


def symplectic_reduce(t: Tag) -> Tag | None:
    """Reduce a palindromic odd-rank type A tag to the symplectic subgroup.

    Returns the tag given by the first half of the palindrome, on the C
    diagram of half the size (C1 normalizes to A1).  Returns None when the
    rank is even or the tag is not palindromic.
    """
    r = _require_connected_a(t)
    if r % 2 == 0 or not _is_palindrome(t.values):
        return None
    half = (r + 1) // 2
    return Tag(parse_diagram(f"C{half}"), t.values[:half])


def nesting_admissible(t: Tag, marks_i, marks_j) -> bool:
    """Whether a section of the contraction forgetting ``marks_j`` can exist.

    For type A bundles this requires odd rank, the two mark sets filling
    exactly the two end nodes, and a palindromic tag.
    """
    r = _require_connected_a(t)
    set_i, set_j = set(t.diagram.check_nodes(marks_i)), set(t.diagram.check_nodes(marks_j))
    if not set_i or not set_j:
        raise DomainError("mark sets must be nonempty")
    if set_i & set_j:
        raise DomainError(f"mark sets overlap: {quote(sorted(set_i & set_j))}")
    return r % 2 == 1 and set_i | set_j == {1, r} and _is_palindrome(t.values)


def classify_tag_shape(t: Tag) -> TagShape:
    """Trichotomy for type A tags: first-node-only, symmetric-ends, or other."""
    r = _require_connected_a(t)
    v = t.values
    if all(x == 0 for x in v[1:]):
        return TagShape(kind=FIRST_NODE_ONLY, d=v[0])
    if (
        r >= 3
        and r % 2 == 1
        and v[0] == v[-1] > 0
        and all(x == 0 for x in v[1:-1])
    ):
        return TagShape(kind=SYMMETRIC_ENDS, d=v[0], reduction=symplectic_reduce(t))
    return TagShape(kind=OTHER)
