"""Dynkin diagrams, Cartan matrices, and root systems in exact integer arithmetic.

A diagram is a finite disjoint union of connected components of types A-G.
Nodes carry global indices 1..n, assigned component by component following
the standard Humphreys numbering inside each component.  The Cartan
convention used throughout is

    C[i][j] = <alpha_i, alpha_j^v>,

so the pairing of a root ``beta`` (an integer coefficient vector over the
simple roots) with a simple coroot is ``<beta, alpha_i^v> = (C^T beta)_i``.
Every value is immutable and every function is pure.

``_bonds``, cached per diagram, is the one source of Cartan entries: for
each node a, a read-only map from each neighbour b to C[b][a].
``cartan_matrix`` renders the dense matrix from it.  ``positive_roots`` is
the one root generator: it grows the positive roots from the simple roots
of the whole diagram by the simple reflections that raise height, pairing
on the bonds, and sorts them once.

Parsing rejects a total rank above ``MAX_RANK`` before mapping its nodes,
keeps the components of the normalized table ``_NORMALIZED_RANKS``
and replaces the low-rank coincidences listed in ``_COINCIDENCES`` (B1, C1,
D2, D3).  Subdiagram types and diagram automorphisms are closed forms read
off the diagram's shape: ``_components`` splits a node subset into named
components, each component of the diagram by ``_split``, arithmetic on its
standard numbering with no walk on the bonds.  Every node subset of a
diagram of finite type is of finite type, so the shape read is the type.
``_renumber``, the one renumbering path, gives each component
its lexicographically smallest isomorphism onto the standard numbering, and
a rank-2 double bond is always named ``B2`` (a ``C2`` piece of ``C_n`` has
its nodes swapped).
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import groupby, permutations
from math import factorial
from types import MappingProxyType

from .errors import DomainError, ParseError, quote

Matrix = tuple[tuple[int, ...], ...]
Root = tuple[int, ...]
Bonds = tuple[MappingProxyType, ...]

_EXCEPTIONAL_WEYL = {
    ("G", 2): 12,
    ("F", 4): 1152,
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
}
_EXCEPTIONAL_ROOTS = {("G", 2): 6, ("F", 4): 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}
# Largest total rank a diagram string may have; every command stays fast up to it.
MAX_RANK = 100
# (lowest, highest) rank of each family in the normalized table; None: unbounded.
_NORMALIZED_RANKS = {
    "A": (1, None), "B": (2, None), "C": (2, None), "D": (4, None), "E": (6, 8), "F": (4, 4), "G": (2, 2)
}
# The raw components below the table: their normalized components and the
# images of their nodes.  The center of D3 becomes the middle node of A3.
_COINCIDENCES = {
    ("B", 1): ((("A", 1),), (1,)),
    ("C", 1): ((("A", 1),), (1,)),
    ("D", 2): ((("A", 1), ("A", 1)), (1, 2)),
    ("D", 3): ((("A", 3),), (2, 1, 3)),
}


def _in_table(family: str, rank: int) -> bool:
    """Whether ``family``/``rank`` is a component of the normalized table."""
    if family not in _NORMALIZED_RANKS:
        return False
    lowest, highest = _NORMALIZED_RANKS[family]
    return lowest <= rank <= (highest or rank)


class DynkinDiagram(namedtuple("DynkinDiagram", "components")):
    """A normalized diagram: an ordered tuple of (family, rank) components."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components)

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def check_nodes(self, nodes) -> tuple[int, ...]:
        """``nodes`` as a tuple; ``DomainError`` unless each is an ``int`` node of this diagram."""
        nodes = tuple(nodes)
        for a in nodes:
            if type(a) is not int:
                raise DomainError(f"nodes must be integers, got {quote(nodes)}")
        own = self.nodes
        for a in nodes:
            if a not in own:
                raise DomainError(f"nodes {quote(sorted(set(nodes)))} not all in diagram {self}")
        return nodes

    def is_connected(self) -> bool:
        return len(self.components) == 1

    def render(self) -> str:
        return "+".join(f"{fam}{rank}" for fam, rank in self.components)

    def __str__(self) -> str:
        return self.render()


class RootSystem(namedtuple("RootSystem", "cartan roots")):
    """Cartan matrix plus the full list of positive roots, sorted by (height, lex)."""

    __slots__ = ()


# The one whitespace class of the diagram, mark, tag and integer grammars: ``\s`` less
# U+001C-U+001F, which ``\s`` and ``str.strip`` take but ``int`` does not strip.
SPACE = r"[^\S\x1c-\x1f]"
_COMPONENT_RE = re.compile(rf"{SPACE}*([A-G]){SPACE}*([0-9]+){SPACE}*")


# An integer entry: ASCII digits (``int`` would also read ``1_0`` and ``٣``), an optional sign and ``SPACE``.
_INT_RE = re.compile(rf"{SPACE}*[+-]?[0-9]+{SPACE}*")


def parse_ints(text: str) -> tuple[int, ...] | None:
    """The comma-separated ``_INT_RE`` entries of ``text``, or None when any entry is malformed."""
    parts = text.split(",")
    if not all(map(_INT_RE.fullmatch, parts)):
        return None
    try:
        return tuple(map(int, parts))
    except ValueError:  # more digits than the interpreter's int limit, which depends on its settings
        return None


def parse_with_node_map(text: str) -> tuple[DynkinDiagram, dict[int, int]]:
    """Parse a diagram string, normalize it, and map raw node indices to normalized ones.

    A raw component in ``_NORMALIZED_RANKS`` is kept as typed; one in
    ``_COINCIDENCES`` is replaced by its normalized components; any other
    rank is a ``ParseError``, and a total rank above ``MAX_RANK`` is a
    ``DomainError``, raised before any node of the offending component is mapped.
    """
    comps: list[tuple[str, int]] = []
    node_map: dict[int, int] = {}
    for part in text.replace("⊔", "+").split("+"):
        m = _COMPONENT_RE.fullmatch(part.upper())
        ranks = m and parse_ints(m.group(2))
        if not ranks:
            raise ParseError(f"cannot parse diagram component {quote(part)}")
        fam, (rank,) = m.group(1), ranks
        if (fam, rank) in _COINCIDENCES:
            normal, images = _COINCIDENCES[(fam, rank)]
        elif _in_table(fam, rank):
            normal, images = ((fam, rank),), range(1, rank + 1)
        else:
            raise ParseError(f"rank {quote(rank)} out of range for family {fam}")
        offset = len(node_map)
        if offset + rank > MAX_RANK:
            raise DomainError(f"diagram {quote(text)} has rank above the ceiling {MAX_RANK}")
        node_map.update((offset + k, offset + image) for k, image in enumerate(images, 1))
        comps.extend(normal)
    return DynkinDiagram(tuple(comps)), node_map


def parse_diagram(text: str) -> DynkinDiagram:
    """Parse a diagram string such as ``A5``, ``B3`` or ``A2+A1`` and normalize it."""
    return parse_with_node_map(text)[0]


def typed_nodes(nodes, node_map: dict[int, int], text: str) -> tuple[int, ...]:
    """``nodes``, numbered as in the diagram typed in ``text``, in the normalized numbering of ``node_map``."""
    if any(k not in node_map for k in nodes):
        raise DomainError(f"nodes {quote(list(nodes))} not all in {quote(text)}")
    return tuple(node_map[k] for k in nodes)


@lru_cache(maxsize=None)
def _bonds(d: DynkinDiagram) -> Bonds:
    """Off-diagonal Cartan entries of ``d``: entry ``a - 1`` maps each neighbour b of node a to C[b][a].

    ``bond(a, b, ab, ba)`` joins nodes a < b of a component, in its standard
    numbering (Humphreys §11.4), with C[a][b] = ab and C[b][a] = ba.  Bonds
    are added in increasing order, and a double bond overwrites its simple
    one in place, so each map lists its neighbours in increasing order.
    """
    columns: list[dict[int, int]] = []

    def bond(a: int, b: int, ab: int = -1, ba: int = -1) -> None:
        columns[offset + b - 1][offset + a] = ab
        columns[offset + a - 1][offset + b] = ba

    for family, rank in d.components:
        if not _in_table(family, rank):
            raise DomainError(f"component {family}{rank} is not in the normalized table")
        offset = len(columns)
        columns.extend({} for _ in range(rank))
        if family in "ABC":
            for k in range(1, rank):
                bond(k, k + 1)
            if family == "B":
                bond(rank - 1, rank, ab=-2)
            if family == "C":
                bond(rank - 1, rank, ba=-2)
        elif family == "D":
            for k in range(1, rank - 1):
                bond(k, k + 1)
            bond(rank - 2, rank)
        elif family == "E":
            for a, b in ((1, 3), (2, 4), *zip(range(3, rank), range(4, rank + 1))):
                bond(a, b)
        elif family == "F":
            bond(1, 2)
            bond(2, 3, ab=-2)
            bond(3, 4)
        else:
            bond(1, 2, ba=-3)
    return tuple(MappingProxyType(column) for column in columns)


def cartan_matrix(d: DynkinDiagram) -> Matrix:
    """Block-diagonal Cartan matrix of a normalized diagram, rendered from ``_bonds``."""
    rows = [[0] * d.rank for _ in d.nodes]
    for a, column in enumerate(_bonds(d)):
        rows[a][a] = 2
        for b, entry in column.items():
            rows[b - 1][a] = entry
    return tuple(map(tuple, rows))


def pairing(d: DynkinDiagram, beta: Root, i: int) -> int:
    """Pairing <beta, alpha_i^v> = (C^T beta)_i."""
    return 2 * beta[i - 1] + sum(beta[b - 1] * entry for b, entry in _bonds(d)[i - 1].items())


@lru_cache(maxsize=None)
def positive_roots(d: DynkinDiagram) -> RootSystem:
    """The positive roots of ``d`` as global coefficient vectors, grown from the simple roots.

    A positive root beta that is not simple has a node i with
    <beta, alpha_i^v> > 0, and s_i(beta) is a positive root of lower height
    (Humphreys §10.2, Lemmas A and B).  Conversely s_i permutes the positive
    roots other than alpha_i.  So the positive roots are exactly what the
    simple roots reach by the reflections beta -> beta - <beta, alpha_i^v>
    alpha_i with <beta, alpha_i^v> < 0, which raise the height.  The pairing
    reads only node i and its neighbours, the entries of ``_bonds``.  A
    reflection never leaves a component, so the components need no separate
    handling.
    """
    n = d.rank
    # columns[i] lists (b, C[b][i]), 0-based, over the neighbours b of node i + 1
    columns = [[(b - 1, entry) for b, entry in column.items()] for column in _bonds(d)]
    found: set[Root] = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    layer = list(found)
    while layer:
        grown: list[Root] = []
        for beta in layer:
            for i, column in enumerate(columns):
                pair = 2 * beta[i]
                for b, entry in column:
                    pair += beta[b] * entry
                if pair < 0:
                    image = beta[:i] + (beta[i] - pair,) + beta[i + 1 :]
                    if image not in found:
                        found.add(image)
                        grown.append(image)
        layer = grown
    return RootSystem(cartan=cartan_matrix(d), roots=tuple(sorted(found, key=lambda r: (sum(r), r))))


def weyl_order(d: DynkinDiagram) -> int:
    """Order of the Weyl group, as a product of per-component closed forms."""
    total = 1
    for fam, rank in d.components:
        if fam == "A":
            total *= factorial(rank + 1)
        elif fam in ("B", "C"):
            total *= 2**rank * factorial(rank)
        elif fam == "D":
            total *= 2 ** (rank - 1) * factorial(rank)
        else:
            total *= _EXCEPTIONAL_WEYL[(fam, rank)]
    return total


def _component_root_count(family: str, rank: int) -> int:
    """Number of positive roots of a connected diagram (Humphreys §12.2, Bourbaki plates)."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return _EXCEPTIONAL_ROOTS[(family, rank)]


def _component_automorphisms(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Sorted automorphisms: the identity, the A_n flip, the D_n end swap, S3 on D4, the E6 flip."""
    identity = tuple(range(1, rank + 1))
    if family == "A" and rank > 1:
        return identity, identity[::-1]
    if (family, rank) == ("D", 4):
        return tuple((a, 2, b, c) for a, b, c in permutations((1, 3, 4)))
    if family == "D":
        return identity, identity[:-2] + (rank, rank - 1)
    if (family, rank) == ("E", 6):
        return identity, (6, 2, 5, 4, 3, 1)
    return (identity,)


def automorphisms(d: DynkinDiagram) -> tuple[tuple[int, ...], ...]:
    """Diagram automorphisms of a connected diagram, as node permutations.

    Each permutation ``sigma`` is a tuple with ``sigma[k-1]`` the image of
    node ``k``.
    """
    if not d.is_connected():
        raise DomainError("automorphisms are only computed for connected diagrams")
    return _component_automorphisms(*d.components[0])


def _components(d: DynkinDiagram, nodes) -> list[tuple[str, list[int]]]:
    """(family, nodes in standard order) for each component of the subdiagram on ``nodes``.

    Components are ordered by their smallest node.  Each component of ``d``
    is split by ``_split`` on its own numbering, shifted by its node offset.
    """
    members = set(nodes)
    comps, offset = [], 0
    for family, n in d.components:
        kept = {a - offset for a in range(offset + 1, offset + n + 1) if a in members}
        comps += [(name, [offset + a for a in order]) for name, order in _split(family, n, kept)]
        offset += n
    return comps


def _split(family: str, n: int, kept) -> list[tuple[str, list[int]]]:
    """(family, nodes in standard order) for each component of ``family``/``n`` on the nodes ``kept``.

    Arithmetic on the standard numbering (Humphreys §11.4), by smallest node.
    The kept nodes of the spine, 1..n less the leaf (node n of D_n, joined at
    its hub n - 2, or node 2 of E_n, joined at 4), fall into runs.  The leaf
    joins the run holding its hub: at an end of the run they form a path,
    read from its smaller end; between two arms, D when two of the three arms
    have length 1, else E.  A run holding the multiple bond (nodes 2, 3 of F4,
    else n - 1, n) is of the diagram's family, F4 less an end is B3 on 1..3
    or C3 on 4..2, and a rank-2 double bond is named B2.  Any other run is A.
    """
    leaf, hub = {"D": (n, n - 2), "E": (2, 4)}.get(family, (0, 0))
    leaf_kept = leaf in kept
    comps = [("A", [leaf])] if leaf_kept and hub not in kept else []
    spine = (a for a in range(1, n + 1) if a != leaf)
    for run in (list(nodes) for held, nodes in groupby(spine, kept.__contains__) if held):
        first, last = run[0], run[-1]
        if leaf_kept and hub in (first, last):
            path = (run if last == hub else run[::-1]) + [leaf]
            comps.append(("A", path if path[0] < leaf else path[::-1]))
        elif leaf_kept and first < hub < last:
            cut = run.index(hub)
            short, mid, long = sorted(([leaf], run[cut - 1 :: -1], run[cut + 1 :]), key=lambda arm: (len(arm), arm[0]))
            comps.append(("D", long[::-1] + [hub] + short + mid) if len(mid) == 1 else ("E", sorted(run + [leaf])))
        elif family in "BCFG" and first <= (2 if family == "F" else n - 1) < last:
            if family == "F" and len(run) < 4:
                comps.append(("B", run) if last == 3 else ("C", run[::-1]))
            else:
                comps.append(("B", run[::-1]) if (family, len(run)) == ("C", 2) else (family, run))
        else:
            comps.append(("A", run))
    return sorted(comps, key=lambda comp: min(comp[1]))


def subdiagram(d: DynkinDiagram, nodes) -> tuple[DynkinDiagram, dict[int, int]]:
    """Induced subdiagram on a node subset, renumbered, and the map from old node indices to new ones."""
    nodes = d.check_nodes(nodes)
    if not nodes:
        raise DomainError("empty node set has no subdiagram")
    return _renumber(_components(d, nodes))


def _renumber(comps: list[tuple[str, list[int]]]) -> tuple[DynkinDiagram, dict[int, int]]:
    """Diagram of the ``_components`` output ``comps``, in order, and the map from its nodes to new indices.

    Each component, given in the standard order that ``_split`` reads, takes
    its lexicographically smallest isomorphism onto its standard numbering.
    """
    parts: list[tuple[str, int]] = []
    mapping: dict[int, int] = {}
    for family, order in comps:
        k, comp = len(order), sorted(order)
        position = {a: s + 1 for s, a in enumerate(order)}
        sigma = min(
            tuple(tau[position[a] - 1] for a in comp) for tau in _component_automorphisms(family, k)
        )
        offset = len(mapping)
        mapping.update((a, offset + s) for a, s in zip(comp, sigma))
        parts.append((family, k))
    return DynkinDiagram(tuple(parts)), mapping
