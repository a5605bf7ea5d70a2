"""Marked diagrams and the geometry they encode.

A marked diagram ``D{I}`` stands for the quotient of the group of ``D`` by
the parabolic subgroup determined by the unmarked nodes.  This module
computes dimensions, Picard numbers, fibers of the forgetful contractions
between marked diagrams, and the search for diagrams carrying two projective
bundle structures.

The fibers over a base node are read off one split of the other nodes, kept
as one end record per component: its family, rank, first and last node in
standard order, the node b joined to base and b's position p.  ``_end_map``
gives the records of every connected diagram by arithmetic on the standard
numbering, with no node list; a union takes those of the component holding
base, shifted, and the ends of each other component whole, read off
``dynkin._split``.  ``_rank_ends`` takes
dim D{base} and the projective ranks at the component ends, the only marks
a projective fiber can have, from the records.  One ``_pair_tables`` read of
the cached ``_fiber_table`` over i and over j serves the pair test, the
tags and the drum of D{i,j}: the pair test and the drum take ranks and
dimensions, dim D{i,j} = dim D{i} + r_plus, and ``_side_tag`` reads the
tags' values off b and p.  The catalogue builds each diagram and each
record once, A-D one family per ``_classical_pairs`` call, straight from
its closed forms (Humphreys §11.4, the Bourbaki plates), E6-8, F4 and G2
from a scan of uncached ``_end_map`` tables with no per-pair test, so it
leaves no table behind, splits no node set and reads no bond.
"""
from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .dynkin import (
    MAX_RANK,
    SPACE,
    DynkinDiagram,
    _NORMALIZED_RANKS,
    _bonds,
    _component_root_count,
    _components,
    _renumber,
    _split,
    automorphisms,
    parse_ints,
    parse_with_node_map,
    typed_nodes,
)
from .errors import DomainError, ParseError, quote


def _marked_name(diagram: str, marks) -> str:
    """``B3{1,3}``: a rendered diagram and its marks, the one spelling of a marked diagram."""
    return f"{diagram}{{{','.join(str(i) for i in marks)}}}"


class MarkedDiagram(namedtuple("MarkedDiagram", "diagram marks")):
    """A diagram with a nonempty set of marked nodes, stored sorted and without repeats."""

    __slots__ = ()
    # namedtuple's ``_make`` and ``_replace`` build with ``tuple.__new__``; these go through ``__new__``
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, diagram: DynkinDiagram, marks) -> MarkedDiagram:
        marks = tuple(sorted(set(diagram.check_nodes(marks))))
        if not marks:
            raise DomainError("mark set must be nonempty")
        return super().__new__(cls, diagram, marks)

    def render(self) -> str:
        return _marked_name(self.diagram.render(), self.marks)

    def __str__(self) -> str:
        return self.render()


class ContractionFiber(namedtuple("ContractionFiber", "base_marks total_marks fiber node_map dropped")):
    """Fiber of the contraction forgetting the marks outside ``base_marks``.

    ``fiber`` lives on the subdiagram spanned by the components of the
    complement of ``base_marks`` that actually meet the remaining marks;
    components without marks contribute points and are recorded in
    ``dropped`` (None when there are none).  ``node_map`` sends original
    node indices to fiber indices, as sorted (old, new) pairs.
    """

    __slots__ = ()


_MARKED_RE = re.compile(rf"(.*?)\{{((?:[0-9,]|{SPACE})+)\}}{SPACE}*")


def parse_marked_with_node_map(text: str) -> tuple[MarkedDiagram, dict[int, int]]:
    """Parse a marked diagram; also map the typed diagram's node indices to normalized ones."""
    m = _MARKED_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"cannot parse marked diagram {quote(text)}")
    diagram, node_map = parse_with_node_map(m.group(1))
    raw_marks = parse_ints(m.group(2))
    if raw_marks is None:
        raise ParseError(f"bad mark list in {quote(text)}")
    return MarkedDiagram(diagram, typed_nodes(raw_marks, node_map, text)), node_map


def parse_marked(text: str) -> MarkedDiagram:
    """Parse a marked diagram such as ``B3{1,3}``."""
    return parse_marked_with_node_map(text)[0]


def dimension(m: MarkedDiagram) -> int:
    """Dimension of D{I}: the number of positive roots whose support meets I.

    Computed as dim D{I} = |Φ⁺(D)| - |Φ⁺(L)|, where the Levi diagram L is the
    subdiagram on the unmarked nodes, from the closed-form counts per
    component: n(n+1)/2 for A_n, n² for B_n and C_n, n(n-1) for D_n, 36, 63,
    120 for E6, E7, E8, 24 for F4 and 6 for G2.  Each component of L is named
    by its shape alone; every node subset of a diagram of finite type is of
    finite type, and B and C have the same count.
    """
    d = m.diagram
    unmarked = [a for a in d.nodes if a not in m.marks]
    levi = sum(_component_root_count(family, len(order)) for family, order in _components(d, unmarked))
    return sum(_component_root_count(*comp) for comp in d.components) - levi


def picard_number(m: MarkedDiagram) -> int:
    return len(m.marks)


def contraction_fiber(
    d: DynkinDiagram, total_marks, base_marks
) -> ContractionFiber:
    """Fiber of the contraction ``D{total_marks} -> D{base_marks}``."""
    total = set(d.check_nodes(total_marks))
    base = set(d.check_nodes(base_marks))
    if not base:
        raise DomainError("base mark set must be nonempty")
    if not base < total:
        if base == total:
            raise DomainError("contraction along equal mark sets is the identity")
        raise DomainError(f"base marks {sorted(base)} not contained in {sorted(total)}")
    extra = total - base
    kept, dropped = [], []
    for comp in _components(d, [i for i in d.nodes if i not in base]):
        (kept if extra.intersection(comp[1]) else dropped).append(comp)
    fiber_diag, node_map = _renumber(kept)
    return ContractionFiber(
        base_marks=tuple(sorted(base)),
        total_marks=tuple(sorted(total)),
        fiber=MarkedDiagram(fiber_diag, tuple(node_map[i] for i in sorted(extra))),
        node_map=tuple(sorted(node_map.items())),
        dropped=_renumber(dropped)[0] if dropped else None,
    )


def _projective_rank(family: str, rank: int, position: int) -> int | None:
    """r when the connected diagram ``family``/``rank`` marked at ``position`` is projective r-space."""
    if family == "A" and position in (1, rank):
        return rank
    if family == "C" and position == 1:
        return 2 * rank - 1
    if (family, rank, position) == ("B", 2, 2):
        return 3
    return None


def is_projective_space(m: MarkedDiagram) -> int | None:
    """Return r when the marked diagram is projective r-space, else None.

    Exactly the marked forms that are projective spaces qualify: ``A_r``
    marked at either end (dimension r), ``C_r`` marked at node 1 (the
    projectivized symplectic vector space, dimension 2r-1), and the rank-2
    coincidence ``B2{2}``, isomorphic to ``C2{1}``.  Diagrams with more than
    one mark or with unmarked components are never reported as projective
    spaces: fibers of contractions discard unmarked components before this
    test is applied.
    """
    if len(m.marks) != 1 or len(m.diagram.components) != 1:
        return None
    return _projective_rank(*m.diagram.components[0], m.marks[0])


def is_two_bundle_pair(d: DynkinDiagram, i: int, j: int) -> tuple[int, int] | None:
    """(r_minus, r_plus) when both contractions of D{i,j} are projective bundles.

    r_plus is the fiber dimension over D{i} and r_minus the one over D{j},
    each one lookup in a table of the ``_pair_tables`` read.
    """
    return None if (tables := _pair_tables(d, i, j)) is None else (tables[1][1][i], tables[0][1][j])


def _pair_tables(d: DynkinDiagram, i: int, j: int) -> tuple[tuple, tuple] | None:
    """The ``_fiber_table``s over i and j when D{i,j} carries two projective bundles, else None.

    One read serves the pair test, ``classifier.homogeneous_tags`` and
    ``drum.build_drum``: j has a rank over i when the fiber over D{i} is
    projective, and i over j likewise.
    """
    d.check_nodes((i, j))
    if i == j:
        raise DomainError(f"{(i, j)} is not a pair of distinct nodes of {d}")
    over_i, over_j = _fiber_table(d, i), _fiber_table(d, j)
    return (over_i, over_j) if j in over_i[1] and i in over_j[1] else None


def _rank_ends(total: int, ends) -> tuple[int, dict[int, int]]:
    """(dim D{base}, ranks) from ``total`` = |Φ⁺(D)| and the ``_end_map`` records ``ends`` of D - {base}.

    ranks maps ``mark`` to r when the fiber of D{base,mark} -> D{base}, the
    component holding ``mark``, is projective r-space.  Such a fiber is
    marked at an end of its standard order, so the keys are component ends
    only, each with ``_projective_rank`` of that end.  The same components
    make up the Levi diagram of D{base}, so
    dim D{base} = |Φ⁺(D)| - Σ |Φ⁺(component)|, as in ``dimension``.
    """
    ranks: dict[int, int] = {}
    for family, k, first, last, _, _ in ends:
        total -= _component_root_count(family, k)
        if (r := _projective_rank(family, k, k)) is not None:
            ranks[last] = r
        if (r := _projective_rank(family, k, 1)) is not None:
            ranks[first] = r
    return total, ranks


def _end_map(family: str, n: int, base: int) -> list[tuple[str, int, int, int, int, int]]:
    """End records of D - {base} for the connected diagram D = ``family``/``n``.

    A record (family, k, first, last, b, p) is one component of rank k,
    named by its shape, with the first and last node of its standard order,
    the node b joined to base and the position p of b in that order; b and p
    are 0 when no node is joined.  The records are read by arithmetic on the
    standard numbering (Humphreys §11.4), in the order of their smallest
    nodes: nodes 1..base-1 form A_{base-1}, joined at its last node, and the
    tail base+1..n of rank k = n - base is of the same family, or A in F4,
    joined at its first node.  D_n falls apart at its last three nodes and
    has D3 (= A3) and D4 tails of its own, and a C2 tail is a reversed B2.
    E_n, the path 1, 3, 4, ..., n with node 2 joined to node 4, has type A
    tails past node 4; F4 less an end node is C3, read from node 4, or B3.
    Kept beside ``dynkin._split``: derived from it, the records of the 27
    E-G bases of a cold catalogue take 166-221 µs, not 16-21 (2 vCPUs).
    """
    k = n - base
    if family == "D" and k < 2:  # a spin node: the path 1..n-2 and the other spin node
        return [("A", n - 1, 1, n - 1 + k, n - 2, n - 2)]
    if family == "E":
        ends = [  # by base; from base 4 on, nodes 1..base-1 form A2 + A1, A4, D5, E6 or E7
            [("D", n - 1, n, 3, 3, n - 1)], [("A", n - 1, 1, n, 4, 3)],
            [("A", 1, 1, 1, 1, 1), ("A", n - 2, 2, n, 4, 2)],
            [("A", 2, 1, 3, 3, 2), ("A", 1, 2, 2, 2, 1)], [("A", 4, 1, 2, 4, 3)],
            [("D", 5, 1, 5, 5, 5)], [("E", 6, 1, 6, 6, 6)], [("E", 7, 1, 7, 7, 7)],
        ][base - 1]
        return ends + [("A", k, base + 1, n, base + 1, 1)] if 3 < base < n else ends
    if family == "F" and base in (1, 4):
        return [("C", 3, 4, 2, 2, 3) if base == 1 else ("B", 3, 1, 3, 3, 3)]
    ends = [("A", base - 1, 1, base - 1, base - 1, base - 1)] if base > 1 else []
    if family == "D" and k == 2:  # the branch node
        ends += [("A", 1, n - 1, n - 1, n - 1, 1), ("A", 1, n, n, n, 1)]
    elif family == "D" and k < 5:  # D3 is A3 centred at its branch node n - 2
        ends.append(("A", 3, n - 1, n, n - 2, 2) if k == 3 else ("D", 4, n, n - 1, n - 3, 3))
    elif (family, k) == ("C", 2):  # a rank-2 double bond is named B2
        ends.append(("B", 2, n, n - 1, n - 1, 2))
    elif k:
        ends.append(("A" if k == 1 or family == "F" else family, k, base + 1, n, base + 1, 1))
    return ends


@lru_cache(maxsize=None)
def _fiber_table(d: DynkinDiagram, base: int) -> tuple[int, dict[int, int], list]:
    """(dim D{base}, ranks, records) of D over ``base``, cached and read through ``_pair_tables``.

    The records are ``_end_map``'s of the component holding base, shifted
    by its node offset, and one record per other component, joined to no
    node (b = p = 0), with the ends of its ``dynkin._split`` order; so a
    union's records are ordered by smallest node too.  ``_rank_ends`` reads
    them.  The ranks and records are shared by every caller and must not be
    mutated.  ``check_nodes`` in ``_pair_tables`` checks the table first.
    """
    ends, offset = [], 0
    for family, n in d.components:
        if not offset < base <= offset + n:
            (name, order), = _split(family, n, range(1, n + 1))
            ends.append((name, n, offset + order[0], offset + order[-1], 0, 0))
        else:
            ends += [
                (name, k, offset + first, offset + last, offset + b, p)
                for name, k, first, last, b, p in _end_map(family, n, base - offset)
            ]
        offset += n
    return (*_rank_ends(sum(_component_root_count(*comp) for comp in d.components), ends), ends)


def _side_tag(d: DynkinDiagram, base: int, other: int, table: tuple) -> tuple[int, ...]:
    """Values of the tag of the bundle contracted to D{base}, on lines of the opposite side, in closed form.

    Its splitting type is, up to twist, {0} with -<beta, alpha_base^v> over
    the positive roots beta with beta_base = 0 and beta_other > 0: the roots
    of F, the component of D - {base} holding ``other``.  At most one node b
    of F is joined to base, so each degree is c * beta_b, c = -C[b][base],
    read off the bonds of base in ``dynkin._bonds``.  ``other`` is an end of
    F, and r is its rank in ``table``, the ``_fiber_table`` over base of the
    ``_pair_tables`` read, whose record of F gives b and its position in F's
    standard order.  Read from ``other``, F is A_r, or C_k with r = 2k - 1
    (B2 read from node 2 is C2); let b sit at position p.  By the Bourbaki
    plates the roots are alpha_1 + ... + alpha_m, m = 1..r, for A_r, so p
    degrees are 0 and the rest c.  C_k adds alpha_1 + ... + alpha_{m-1} +
    2(alpha_m + ... + alpha_{k-1}) + alpha_k, m < k, so for p < k the
    degrees are p zeros, p 2c's and the rest c, and for p = k, k zeros and k
    c's.  Differencing the sorted degrees, the r values are c at node p, and
    for C also at node r + 1 - p.  They are zero when no node of F is joined
    to base, as for a product.
    """
    _, ranks, ends = table
    r = ranks[other]
    for family, k, first, last, b, p in ends:
        if other in (first, last):
            break
    values = [0] * r
    if p:
        if other != first:
            p = k + 1 - p
        values[p - 1] = values[p - 1 if family == "A" else r - p] = -_bonds(d)[base - 1][b]
    return tuple(values)


class TwoBundleEntry(namedtuple("TwoBundleEntry", "diagram i j r_minus r_plus dim")):
    """A marked diagram D{i,j} with two projective bundle structures, their ranks and its dimension."""

    __slots__ = ()

    def marked(self) -> MarkedDiagram:
        return MarkedDiagram(self.diagram, (self.i, self.j))

    def render(self) -> str:
        return self.marked().render()


def _scan_ranks(family: str, max_rank: int) -> range:
    """Normalized ranks of ``family`` from 2 to ``max_rank``, C2 left out: its marked varieties are B2's."""
    lowest, highest = _NORMALIZED_RANKS[family]
    return range(max(lowest, 3 if family == "C" else 2), min(highest or max_rank, max_rank) + 1)


def _check_max_rank(max_rank) -> None:
    """``DomainError`` unless ``max_rank`` is an ``int`` (not a ``bool``) from 2 to ``dynkin.MAX_RANK``."""
    if type(max_rank) is not int:
        raise DomainError(f"max_rank must be an integer, got {quote(max_rank)}")
    if max_rank < 2:
        raise DomainError("max_rank must be at least 2")
    if max_rank > MAX_RANK:
        raise DomainError(f"max_rank must be at most {MAX_RANK}")


def _classical_pairs(family: str, ranks: range) -> list[TwoBundleEntry]:
    """The ``TwoBundleEntry`` records of A_n, B_n, C_n or D_n, ``family``, for n in ``ranks``, in (n, i, j) order.

    Each diagram is built once per rank and each record once, by
    ``tuple.__new__`` on the fields its closed form computes.  On the
    standard numbering (Humphreys §11.4, the Bourbaki plates) the fiber over
    D{i} is the component of D - {i} holding j, projective when it is A_r
    marked at an end (P^r) or C_k at its first node (P^(2k-1)), and the fiber
    over D{j} likewise.  So (r_minus, r_plus) is (i, n - i) for A_n{i,i+1},
    (n - 1, n - 1) for A_n{1,n}, (i, 2(n - i) - 1) for C_n{i,i+1},
    (n - 1, 1) for B_n{n-1,n}, (2, 3) for B3{1,3}, whose fiber over D{1} is
    B2 = C2, and (n - 1, n - 1) for D_n{n-1,n}.  dim D{i,j} is
    dim D{i} + r_plus, with the dimension i(n + 1 - i) of the Grassmannian
    A_n{i}, 2i(n - i) + i(i + 1)/2 of the isotropic Grassmannian C_n{i},
    n(n + 1)/2 and n(n - 1)/2 of the spinor varieties B_n{n} and D_n{n}, and
    5 of the quadric B3{1}; summed, i(n - i) + n for A_n{i,i+1}, 2n - 1 for
    A_n{1,n} and (i + 1)(4n - 3i)/2 - 1 for C_n{i,i+1}.  Up to the
    automorphisms of D_n these are all the pairs, the list that
    ``tests/oracles.expected_two_bundle_keys`` writes out; type A keeps both
    pairs of each flip orbit.
    """
    pairs = []
    for n in ranks:
        d = tuple.__new__(DynkinDiagram, (((family, n),),))
        if family == "A":
            pairs.append(tuple.__new__(TwoBundleEntry, (d, 1, 2, 1, n - 1, 2 * n - 1)))
            if n > 2:
                pairs.append(tuple.__new__(TwoBundleEntry, (d, 1, n, n - 1, n - 1, 2 * n - 1)))
            pairs += [tuple.__new__(TwoBundleEntry, (d, i, i + 1, i, n - i, i * (n - i) + n)) for i in range(2, n)]
        elif family == "C":
            pairs += [
                tuple.__new__(TwoBundleEntry, (d, i, i + 1, i, 2 * (n - i) - 1, (i + 1) * (4 * n - 3 * i) // 2 - 1))
                for i in range(1, n)
            ]
        elif family == "B":
            if n == 3:
                pairs.append(tuple.__new__(TwoBundleEntry, (d, 1, 3, 2, 3, 8)))
            pairs.append(tuple.__new__(TwoBundleEntry, (d, n - 1, n, n - 1, 1, n * (n + 3) // 2 - 1)))
        else:
            pairs.append(tuple.__new__(TwoBundleEntry, (d, n - 1, n, n - 1, n - 1, (n - 1) * (n + 2) // 2)))
    return pairs


@lru_cache(maxsize=None)
def enumerate_two_bundles(max_rank: int) -> tuple[TwoBundleEntry, ...]:
    """All connected diagrams of rank <= max_rank carrying two bundle structures.

    Built in (family, rank, marks) order, each diagram and each record
    once, by ``tuple.__new__`` on its fields.  A, B, C and D take theirs,
    dimensions included, from the closed forms of ``_classical_pairs``
    (Humphreys §11.4, the Bourbaki plates), one call per family, with no
    fiber table.  E6-8, F4 and G2 are
    scanned: the uncached ``_rank_ends`` of ``_end_map`` at every node, with
    |Φ⁺(D)| computed once per diagram, so ``_components`` splits no node set.
    For each end j > i in the table over i, in ascending order, r_plus is
    its rank, r_minus is the rank of i in the table over j, if any, and
    dim D{i,j} = dim D{i} + r_plus, as in
    ``is_two_bundle_pair``, which is not called.  C2 is not listed, as
    C2{1,2} is B2{1,2}.  Outside type A each automorphism orbit of pairs
    (such as the three D4 pairs, kept as {3,4}) is listed once, by its
    largest sorted image; type A pairs are all kept, so the flip-related
    pairs (r, r+1) and (n-r, n-r+1) are both listed, matching the usual
    presentation of the classification.  ``max_rank`` runs from 2 to
    ``dynkin.MAX_RANK``, the ceiling of every diagram, and must be an ``int``.
    """
    _check_max_rank(max_rank)
    entries = []
    for family in "ABCD":
        entries += _classical_pairs(family, _scan_ranks(family, max_rank))
    for family in "EFG":
        for rank in _scan_ranks(family, max_rank):
            d = tuple.__new__(DynkinDiagram, (((family, rank),),))
            autos = automorphisms(d)[1:]  # the identity comes first
            total = _component_root_count(family, rank)
            tables = [_rank_ends(total, _end_map(family, rank, base)) for base in range(1, rank + 1)]
            for i, (dim, ranks) in enumerate(tables, 1):
                for j in sorted(ranks):
                    if j > i and (r_minus := tables[j - 1][1].get(i)) is not None and all(
                        (i, j) >= tuple(sorted((s[i - 1], s[j - 1]))) for s in autos
                    ):
                        entries.append(tuple.__new__(TwoBundleEntry, (d, i, j, r_minus, ranks[j], dim + ranks[j])))
    return tuple(entries)
