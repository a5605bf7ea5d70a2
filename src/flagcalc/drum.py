"""Drums: one-dimensional-torus geometry built over two-bundle varieties.

Given a variety with two projective bundle structures, embedding it through
the two fundamental representations attached to its marks produces a variety
one dimension higher carrying a torus action whose fixed components are the
two contraction targets.  This module computes, in exact arithmetic, the
dimension data of that construction and the integer intersection ledger of
the associated blowup, which is one table shared by every drum.  The two
fundamental dimensions come from Weyl's formula on the positive coroots, the
roots of the dual diagram, uncached; the module states no root lengths.
"""
from __future__ import annotations

from collections import namedtuple

from .dynkin import DynkinDiagram, positive_roots
from .errors import DomainError
from .homogeneous import MarkedDiagram, _pair_tables

BASIS = ("alpha*L", "pi*L-", "pi*L+")
DIVISOR_CLASSES = (*BASIS, "Y+", "Y-", "M+", "M-")
CURVE_CLASSES = ("ell-", "ell+")


def weyl_dim(d: DynkinDiagram, node: int) -> int:
    """Dimension of the irreducible representation of the fundamental weight at ``node``.

    Weyl's formula (Humphreys §24.3) on the positive coroots gamma, written
    over the simple coroots: as (rho, alpha_i^v) = 1 and (omega_k, alpha_i^v) =
    delta_ik, dim V(omega_k) is the product of (ht gamma + gamma_k) / ht gamma
    over the gamma with gamma_k > 0.  The coroots are the roots of the dual
    diagram, whose Cartan matrix is the transpose: B_n and C_n swap, F4 and G2
    are self-dual with the node order reversed, and A, D and E are self-dual.
    The product is divided once, exactly; a remainder raises ``ArithmeticError``.
    ``check_nodes`` checks the normalized table before the family is read.
    """
    d.check_nodes((node,))
    if not d.is_connected():
        raise DomainError("fundamental representation dimensions require a connected diagram")
    ((family, rank),) = d.components
    # the dual diagram, and the index in it of the coroot of ``node``
    dual = DynkinDiagram((({"B": "C", "C": "B"}.get(family, family), rank),))
    k = rank - node if family in "FG" else node - 1
    num = den = 1
    for gamma in positive_roots(dual).roots:
        if gamma[k]:
            height = sum(gamma)
            num *= height + gamma[k]
            den *= height
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"non-integral representation dimension for {d} node {node}")
    return dim


class FixedComponent(namedtuple("FixedComponent", "variety mu dim")):
    """A torus-fixed component of the drum: its variety, torus weight ``mu`` and dimension."""

    __slots__ = ()


class HorosphericalDrum(
    namedtuple("HorosphericalDrum", "diagram i j dim_y dim_z dim_v_i dim_v_j ambient_dim sink source")
):
    """Dimensions of the drum over D{i,j}, its ambient space and its two fixed components."""

    __slots__ = ()


def build_drum(d: DynkinDiagram, i: int, j: int) -> HorosphericalDrum:
    """Drum over the two-bundle variety D{i,j}.

    The ambient projective space of the orbit closure has dimension
    dim V_i + dim V_j - 1; the drum itself gains one dimension over the base
    variety.  The torus weight is normalized to 0 on the sink D{i} and 1 on
    the source D{j}.  dim D{i,j} = dim D{i} + r_plus, from the ``_pair_tables`` read.
    """
    if (tables := _pair_tables(d, i, j)) is None:
        raise DomainError(f"{MarkedDiagram(d, (i, j))} is not a two-bundle model")
    (dim_i, ranks_i, _), (dim_j, _, _) = tables
    dim_y = dim_i + ranks_i[j]
    dim_v_i = weyl_dim(d, i)
    dim_v_j = weyl_dim(d, j)
    return HorosphericalDrum(
        diagram=d,
        i=i,
        j=j,
        dim_y=dim_y,
        dim_z=dim_y + 1,
        dim_v_i=dim_v_i,
        dim_v_j=dim_v_j,
        ambient_dim=dim_v_i + dim_v_j - 1,
        sink=FixedComponent(variety=MarkedDiagram(d, (i,)), mu=0, dim=dim_i),
        source=FixedComponent(variety=MarkedDiagram(d, (j,)), mu=1, dim=dim_j),
    )


def bandwidth(drum: HorosphericalDrum) -> int:
    """Spread of the torus weight over the two fixed components, sink and source.

    Weight 0 on V_i and 1 on V_j is the construction of ``build_drum``, so a
    built drum has bandwidth 1 by definition; the spread is read off the
    weights, so a drum assembled with other weights reports its own.
    """
    if not isinstance(drum, HorosphericalDrum):
        raise TypeError(f"bandwidth needs a built drum, got {type(drum).__name__}")
    return abs(drum.source.mu - drum.sink.mu)


class IntersectionLedger(namedtuple("IntersectionLedger", "class_vectors table m_plus_nef m_minus_nef")):
    """Integer pairing table between divisor and curve classes on the blowup.

    Divisor classes are recorded as vectors over the basis
    (alpha*L, pi*L-, pi*L+); the exceptional classes satisfy
    Y+ = alpha*L - pi*L- and Y- = alpha*L - pi*L+, and M+- = alpha*L - Y+-.
    ``m_plus_nef`` (``m_minus_nef``) is true exactly when M+ (M-) meets both
    ell- and ell+ nonnegatively: nefness tested on the two line classes of
    the table, the only curves it records.  ``class_vectors`` pairs each
    divisor class with its vector and ``table`` each (divisor, curve) with
    their product, both as tuples of pairs.
    """

    __slots__ = ()

    def vector(self, divisor: str) -> tuple[int, int, int]:
        return dict(self.class_vectors)[divisor]

    def product(self, divisor: str, curve: str) -> int:
        return dict(self.table)[(divisor, curve)]


def _build_ledger() -> IntersectionLedger:
    vectors = {name: tuple(int(k == n) for k in range(3)) for n, name in enumerate(BASIS)}
    alpha = vectors["alpha*L"]
    for sign, other in (("+", "-"), ("-", "+")):
        vectors[f"Y{sign}"] = tuple(a - b for a, b in zip(alpha, vectors[f"pi*L{other}"]))
        vectors[f"M{sign}"] = tuple(a - y for a, y in zip(alpha, vectors[f"Y{sign}"]))
    # the six basis pairings, over (alpha*L, pi*L-, pi*L+): L.ell+- = 1, and
    # each pi*L-+ is 0 on the line ell-+ it contracts and 1 on the other
    basis_pairings = {"ell-": (1, 0, 1), "ell+": (1, 1, 0)}
    table: dict[tuple[str, str], int] = {}
    for name in DIVISOR_CLASSES:
        for curve in CURVE_CLASSES:
            table[(name, curve)] = sum(c * p for c, p in zip(vectors[name], basis_pairings[curve]))
    return IntersectionLedger(
        class_vectors=tuple((name, vectors[name]) for name in DIVISOR_CLASSES),
        table=tuple(sorted(table.items())),
        m_plus_nef=all(table[("M+", curve)] >= 0 for curve in CURVE_CLASSES),
        m_minus_nef=all(table[("M-", curve)] >= 0 for curve in CURVE_CLASSES),
    )


_LEDGER = _build_ledger()


def ledger(drum: HorosphericalDrum) -> IntersectionLedger:
    """Pairing table of the drum blowup against the two line classes.

    Every entry is a number of the construction, not of the diagram: the
    class relations hold on every drum blowup, L has degree 1 on both line
    classes by normalization, and each pi*L-+ is pulled back along the
    contraction of ell-+.  So every drum gets the same table, built once at
    import; the drum is still required, and anything else is a TypeError.
    """
    if not isinstance(drum, HorosphericalDrum):
        raise TypeError(f"ledger needs a built drum, got {type(drum).__name__}")
    return _LEDGER
