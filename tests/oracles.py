"""Independent oracles used across the test suite.

Everything here recomputes expected values by routes deliberately different
from the library implementation: dense Cartan blocks written entry by entry
per component instead of rendered from the bond table, an alpha_i-string
walk per component and a naive reflection closure instead of height-raising
reflections on the whole diagram, breadth-first group enumeration instead
of closed forms, orthogonal-basis arithmetic instead of simple-root
bookkeeping, and tautological short exact sequences instead of Cartan
pairings, a backtracking isomorphism search over every candidate Cartan
matrix instead of reading a subdiagram's type off its shape, a running
product of rationals instead of one exact integer division for the Weyl
dimension, a scan of the root list instead of closed-form root counts for
the dimension of a marked diagram, fibers built as renumbered subdiagrams
instead of read off their shape for the two-bundle test, a two-bundle
catalogue built by canonicalizing every pair, deduplicating and sorting
instead of in one ordered pass, and one read off the components walked on
the bonds at every base node instead of listed from the closed forms of A,
B, C and D and split by arithmetic on E, F and G, contraction
fibers built by splitting the residual diagram three times instead of
renumbering one split, homogeneous tags from Cartan pairings over the whole
root list instead of read off the fiber's shape in closed form, fiber ranks
tested at every position of each component instead of written at its two
ends, the split of a diagram less one node walked on its bonds instead of
read as end records by arithmetic, the components of every node set walked
on the bonds instead of split by arithmetic on the standard numbering, each
drum identified with a known variety from the geometry of its orbit closure
instead of measured by the dimension formulas of ``build_drum``, and
typed integers read as the CLI and the mark and tag parsers read them
before ``dynkin.parse_ints``: by a regex per entry, or by ``int`` on each
entry, instead of by one grammar.

Module-level code is stdlib-only: the benchmark loads this file by path.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

Matrix = tuple[tuple[int, ...], ...]


def reflection_closure(cartan: Matrix) -> set[tuple[int, ...]]:
    """Positive roots as the fixpoint of simple reflections on nonnegative vectors.

    Start from the simple roots and repeatedly apply
    beta -> beta - <beta, alpha_i^v> alpha_i, keeping every image whose
    coefficients are all nonnegative, until nothing new appears.
    """
    n = len(cartan)
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    changed = True
    while changed:
        changed = False
        for beta in list(roots):
            for i in range(n):
                pair = sum(beta[j] * cartan[j][i] for j in range(n))
                image = list(beta)
                image[i] -= pair
                vec = tuple(image)
                if all(x >= 0 for x in vec) and vec not in roots:
                    roots.add(vec)
                    changed = True
    return roots


def component_roots_by_strings(c: Matrix) -> tuple[tuple[int, ...], ...]:
    """Generate the positive roots of a connected diagram with Cartan matrix ``c`` by height.

    A root of height h+1 is beta + alpha_i for some root beta of height h;
    beta + alpha_i is a root iff the alpha_i-string through beta continues
    upward, i.e. iff p - <beta, alpha_i^v> >= 1 where p counts how far the
    string extends downward.
    """
    rank = len(c)
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    found: set[tuple[int, ...]] = set(simple)
    layer = list(simple)
    while layer:
        nxt: set[tuple[int, ...]] = set()
        for beta in layer:
            for i in range(rank):
                pair = sum(beta[j] * c[j][i] for j in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in found:
                        break
                    p += 1
                if p - pair >= 1:
                    up = list(beta)
                    up[i] += 1
                    new = tuple(up)
                    if new not in found:
                        nxt.add(new)
        found.update(nxt)
        layer = list(nxt)
    return tuple(sorted(found, key=lambda r: (sum(r), r)))


def component_cartan(family: str, rank: int) -> Matrix:
    """Dense Cartan matrix of a normalized component, written entry by entry in its standard numbering."""
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def edge(a: int, b: int, ab: int = -1, ba: int = -1) -> None:
        c[a - 1][b - 1] = ab
        c[b - 1][a - 1] = ba

    if family in ("A", "B", "C"):
        for k in range(1, rank):
            edge(k, k + 1)
        if family == "B" and rank >= 2:
            edge(rank - 1, rank, ab=-2, ba=-1)
        if family == "C" and rank >= 2:
            edge(rank - 1, rank, ab=-1, ba=-2)
    elif family == "D":
        for k in range(1, rank - 1):
            edge(k, k + 1)
        edge(rank - 2, rank)
    elif family == "E":
        chain = [1] + list(range(3, rank + 1))
        for a, b in zip(chain, chain[1:]):
            edge(a, b)
        edge(2, 4)
    elif family == "F":
        edge(1, 2)
        edge(2, 3, ab=-2, ba=-1)
        edge(3, 4)
    elif family == "G":
        edge(1, 2, ab=-1, ba=-3)
    return tuple(tuple(row) for row in c)


def cartan_matrix_by_blocks(d) -> Matrix:
    """Block-diagonal Cartan matrix of ``d``, one dense ``component_cartan`` block per component."""
    n = d.rank
    c = [[0] * n for _ in range(n)]
    offset = 0
    for fam, rank in d.components:
        block = component_cartan(fam, rank)
        for a in range(rank):
            c[offset + a][offset : offset + rank] = block[a]
        offset += rank
    return tuple(tuple(row) for row in c)


def positive_roots_by_strings(d):
    """``positive_roots(d)`` from the string walk on each component, embedded and sorted by (height, lex)."""
    from flagcalc.dynkin import RootSystem

    n = d.rank
    roots = []
    offset = 0
    for fam, rank in d.components:
        for r in component_roots_by_strings(component_cartan(fam, rank)):
            vec = [0] * n
            vec[offset : offset + rank] = r
            roots.append(tuple(vec))
        offset += rank
    roots.sort(key=lambda r: (sum(r), r))
    return RootSystem(cartan=cartan_matrix_by_blocks(d), roots=tuple(roots))


def reflection_matrices(cartan: Matrix) -> list[Matrix]:
    n = len(cartan)
    mats = []
    for i in range(n):
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        for b in range(n):
            m[i][b] -= cartan[b][i]
        mats.append(tuple(tuple(row) for row in m))
    return mats


def _matmul(x: Matrix, y: Matrix) -> Matrix:
    n = len(x)
    return tuple(
        tuple(sum(x[a][k] * y[k][b] for k in range(n)) for b in range(n))
        for a in range(n)
    )


def bfs_group_order(cartan: Matrix) -> int:
    """Order of the group generated by the simple reflections, by closure."""
    gens = reflection_matrices(cartan)
    n = len(cartan)
    identity = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = _matmul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def closed_form_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "G":
        return 6
    if family == "F":
        return 24
    return {6: 36, 7: 63, 8: 120}[rank]


def expected_two_bundle_keys(max_rank: int) -> set[tuple[str, int, tuple[int, int]]]:
    """The classification list instantiated up to max_rank.

    One entry per printed form, with the rank-2 B/C coincidence folded into
    the B form and the triality images of the smallest D entry folded into
    the (rank-1, rank) form.
    """
    expected: set[tuple[str, int, tuple[int, int]]] = set()
    for n in range(2, max_rank + 1):
        expected.add(("A", n, (1, n)))
        for r in range(1, n):
            expected.add(("A", n, (r, r + 1)))
        expected.add(("B", n, (n - 1, n)))
    if max_rank >= 3:
        expected.add(("B", 3, (1, 3)))
        for n in range(3, max_rank + 1):
            for r in range(1, n):
                expected.add(("C", n, (r, r + 1)))
    for n in range(4, max_rank + 1):
        expected.add(("D", n, (n - 1, n)))
    if max_rank >= 4:
        expected.add(("F", 4, (2, 3)))
    expected.add(("G", 2, (1, 2)))
    return expected


def cotangent_line_degrees(n: int) -> list[int]:
    """Splitting of the cotangent bundle of projective n-space on a line.

    The conormal sequence of the line twists down n-1 trivial summands and
    leaves the cotangent of the line itself:
    0 -> O(-1)^(n-1) -> Omega|line -> O(-2) -> 0, and the extension splits
    because Ext^1(O(-2), O(-1)) = H^1(O(1)) = 0.
    """
    return sorted([-1] * (n - 1) + [-2])


def adjacent_flag_degrees(n: int, r: int) -> tuple[list[int], list[int]]:
    """Splitting data for the flag of consecutive subspaces W_r in W_{r+1}.

    Moving W_r in a pencil between a fixed W_{r-1} and a fixed W_{r+1}, the
    tautological subbundle restricts to O^(r-1) + O(-1), its quotient to
    O(1) + O^(n-r); the bundle whose projectivization realizes the plus-side
    fibration over the r-step base is the dual of that quotient, the one on
    the minus side is the (r+1)-step tautological bundle O^r + O(-1).
    """
    plus = sorted([-1] + [0] * (n - r))
    minus = sorted([-1] + [0] * r)
    return plus, minus


def point_hyperplane_degrees(n: int) -> tuple[list[int], list[int]]:
    """Splitting data for the incidence variety of points on hyperplanes.

    Over a pencil of points on a line, hyperplanes through the moving point
    are the rank-one quotients of O^(n+1)/O(-1) = O(1) + O^(n-1); the flip
    automorphism exchanges the two sides, which therefore carry equal data.
    """
    deg = sorted([0] * (n - 1) + [1])
    return deg, list(deg)


def signature(m: Matrix, a: int) -> tuple:
    off = sorted((m[a][b], m[b][a]) for b in range(len(m)) if b != a and m[a][b] != 0)
    return (m[a][a], tuple(off))


def isomorphisms(sub: Matrix, target: Matrix, find_all: bool) -> list[tuple[int, ...]]:
    """Permutations sigma with sub[a][b] == target[sigma(a)][sigma(b)] for all a, b.

    Candidates are tried in increasing order, so with ``find_all`` false the
    one permutation returned is the lexicographically smallest.
    """
    k = len(sub)
    if len(target) != k:
        return []
    sub_sig = [signature(sub, a) for a in range(k)]
    tgt_sig = [signature(target, a) for a in range(k)]
    if sorted(sub_sig) != sorted(tgt_sig):
        return []
    results: list[tuple[int, ...]] = []
    assign = [-1] * k
    used = [False] * k

    def extend(a: int) -> bool:
        if a == k:
            results.append(tuple(assign))
            return not find_all
        for cand in range(k):
            if used[cand] or tgt_sig[cand] != sub_sig[a]:
                continue
            ok = True
            for b in range(a):
                if (
                    sub[a][b] != target[cand][assign[b]]
                    or sub[b][a] != target[assign[b]][cand]
                ):
                    ok = False
                    break
            if ok:
                assign[a] = cand
                used[cand] = True
                if extend(a + 1):
                    return True
                used[cand] = False
                assign[a] = -1
        return False

    extend(0)
    return results


def candidate_types(k: int) -> list[tuple[str, int]]:
    cands = [("A", k)]
    if k >= 2:
        cands += [("B", k), ("C", k)]
    if k >= 4:
        cands.append(("D", k))
    if k in (6, 7, 8):
        cands.append(("E", k))
    if k == 4:
        cands.append(("F", 4))
    if k == 2:
        cands.append(("G", 2))
    return cands


def classify_component(c: Matrix, comp: list[int]) -> tuple[str, int, dict[int, int]]:
    """First candidate type with an isomorphism from the induced matrix on ``comp``."""
    from flagcalc.errors import DomainError

    k = len(comp)
    sub = tuple(tuple(c[a - 1][b - 1] for b in comp) for a in comp)
    for fam, rank in candidate_types(k):
        isos = isomorphisms(sub, component_cartan(fam, rank), find_all=False)
        if isos:
            sigma = isos[0]
            return fam, rank, {comp[a]: sigma[a] + 1 for a in range(k)}
    raise DomainError(f"nodes {comp} do not span a diagram of finite type")


def connected_components(c: Matrix, nodes) -> list[list[int]]:
    """Connected components of the induced graph on ``nodes``, ordered by smallest node."""
    remaining = sorted(set(nodes))
    comps = []
    while remaining:
        comp = [remaining.pop(0)]
        for a in comp:
            for b in [b for b in remaining if c[a - 1][b - 1] != 0]:
                remaining.remove(b)
                comp.append(b)
        comps.append(sorted(comp))
    return comps


def subdiagram_by_search(c: Matrix, nodes) -> tuple[tuple[tuple[str, int], ...], dict[int, int]]:
    """Components and node map of the induced subdiagram, each component named by search."""
    parts = []
    mapping: dict[int, int] = {}
    offset = 0
    for comp in connected_components(c, nodes):
        fam, rank, local = classify_component(c, comp)
        parts.append((fam, rank))
        for orig, pos in local.items():
            mapping[orig] = offset + pos
        offset += rank
    return tuple(parts), mapping


def component_spans(d) -> tuple[tuple[str, int, int], ...]:
    """(family, first_node, last_node) for each component of the diagram ``d``."""
    spans = []
    offset = 0
    for fam, rank in d.components:
        spans.append((fam, offset + 1, offset + rank))
        offset += rank
    return tuple(spans)


def canonical_tag_form(tag):
    """Components with values, up to diagram isomorphism.

    Each component's value vector is minimized over the component's diagram
    automorphisms and the component list is sorted, so two tags compare equal
    exactly when they differ by a reindexing.
    """
    from flagcalc.dynkin import DynkinDiagram, automorphisms

    comps = []
    for fam, first, last in component_spans(tag.diagram):
        rank = last - first + 1
        vals = tag.values[first - 1 : last]
        single = DynkinDiagram(((fam, rank),))
        images = [
            tuple(vals[sigma.index(p + 1)] for p in range(rank))
            for sigma in automorphisms(single)
        ]
        comps.append((fam, rank, min(images)))
    return tuple(sorted(comps))


def b3_spin_dimension() -> Fraction:
    """Dimension of the third fundamental representation of the rank-3 odd
    orthogonal algebra, evaluated in the orthogonal basis.

    Positive roots are e_i - e_j, e_i + e_j (i < j) and e_i; the half-sum is
    (5/2, 3/2, 1/2) and the shifted weight (1/2, 1/2, 1/2) + rho = (3, 2, 1).
    """
    roots = [
        (1, -1, 0),
        (1, 0, -1),
        (0, 1, -1),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    rho = (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    lam = (Fraction(3), Fraction(2), Fraction(1))
    result = Fraction(1)
    for beta in roots:
        result *= sum(l * b for l, b in zip(lam, beta)) / sum(
            r * b for r, b in zip(rho, beta)
        )
    return result


def symmetrizer_fraction(d) -> tuple[Fraction, ...]:
    """Positive rationals d_i with C[i][j] * d_j == C[j][i] * d_i, 1 on each component's first node."""
    from flagcalc.dynkin import cartan_matrix

    c = cartan_matrix(d)
    n = d.rank
    vals: list[Fraction | None] = [None] * n
    for _, first, last in component_spans(d):
        vals[first - 1] = Fraction(1)
        frontier = [first]
        while frontier:
            a = frontier.pop()
            for b in range(first, last + 1):
                if vals[b - 1] is None and c[a - 1][b - 1] != 0:
                    vals[b - 1] = vals[a - 1] * c[b - 1][a - 1] / c[a - 1][b - 1]
                    frontier.append(b)
    return tuple(vals)  # type: ignore[arg-type]


def weyl_dim_fraction(d, node: int) -> int:
    """Weyl dimension of the fundamental weight at ``node``, as a running product of Fractions.

    Multiplies (rho + omega, beta) / (rho, beta) over every positive root
    beta, one Fraction per root; the result is asserted to be an integer.
    """
    from flagcalc.dynkin import positive_roots
    from flagcalc.errors import DomainError

    if not d.is_connected():
        raise DomainError("fundamental representation dimensions require a connected diagram")
    if node not in d.nodes:
        raise DomainError(f"node {node} not in diagram {d}")
    sym = symmetrizer_fraction(d)
    result = Fraction(1)
    for beta in positive_roots(d).roots:
        rho_beta = sum(beta[k] * sym[k] for k in range(d.rank))
        result *= (rho_beta + beta[node - 1] * sym[node - 1]) / rho_beta
    if result.denominator != 1:
        raise ArithmeticError(f"non-integral representation dimension for {d} node {node}")
    return int(result)


def dimension_by_roots(m) -> int:
    """Number of positive roots whose support meets the mark set, counted on the root list."""
    from flagcalc.dynkin import positive_roots

    marks = set(m.marks)
    return sum(
        1
        for beta in positive_roots(m.diagram).roots
        if any(beta[i - 1] > 0 for i in marks)
    )


def side_tag_by_roots(d, base: int, other: int):
    """Tag of the bundle contracted to D{base}, scanning the whole root list of D.

    The fiber of the contraction to D{base} is cut out by the positive roots
    beta with beta_base = 0 and beta_other > 0, and the splitting type of the
    bundle realizing that fiber on a line of the base-node class is, up to
    twist, {0} together with the negated pairings -<beta, alpha_base^v>.
    Differencing the sorted degrees gives the tag.
    """
    from flagcalc.dynkin import pairing, positive_roots
    from flagcalc.tags import tag_from_splitting

    degrees = [0]
    for beta in positive_roots(d).roots:
        if beta[base - 1] == 0 and beta[other - 1] > 0:
            degrees.append(-pairing(d, beta, base))
    return tag_from_splitting(sorted(degrees))


def is_two_bundle_pair_by_fibers(d, i: int, j: int) -> tuple[int, int] | None:
    """(r_minus, r_plus) for D{i,j}, testing each fiber as a renumbered marked subdiagram.

    The fiber of D{i,j} -> D{i} is the component of the other nodes holding
    j; it is built with ``subdiagram`` and handed to ``is_projective_space``.
    """
    from flagcalc.dynkin import cartan_matrix, subdiagram
    from flagcalc.homogeneous import MarkedDiagram, is_projective_space

    c = cartan_matrix(d)
    ranks = []
    for base, mark in ((j, i), (i, j)):
        comp = next(comp for comp in connected_components(c, [a for a in d.nodes if a != base]) if mark in comp)
        fiber, node_map = subdiagram(d, comp)
        ranks.append(is_projective_space(MarkedDiagram(fiber, (node_map[mark],))))
    return None if None in ranks else (ranks[0], ranks[1])


def fiber_ranks_by_positions(d, base: int) -> tuple[int | None, ...]:
    """Fiber ranks over ``base``: ``_projective_rank`` at every position of every component.

    Entry ``mark - 1`` is the rank of D{base,mark} -> D{base}, None when that
    fiber is not a projective space and at ``base`` itself.  The end map of
    ``homogeneous._fiber_table`` is this row with the None entries left out,
    keyed by ``mark``: ``{a: r for a, r in enumerate(row, 1) if r is not None}``.
    """
    from flagcalc.homogeneous import _projective_rank

    ranks = [None] * d.rank
    for family, order in split_by_walk(d, base):
        for position, mark in enumerate(order, 1):
            ranks[mark - 1] = _projective_rank(family, len(order), position)
    return tuple(ranks)


def contraction_fiber_by_subdiagrams(d, total_marks, base_marks):
    """Fiber of ``D{total_marks} -> D{base_marks}``, splitting the residual diagram three times.

    The components of D - base that meet the extra marks are picked with
    ``components_by_walk``, then the kept and the dropped nodes are each
    built again with ``subdiagram``.
    """
    from flagcalc.dynkin import subdiagram
    from flagcalc.errors import DomainError
    from flagcalc.homogeneous import ContractionFiber, MarkedDiagram

    total = set(d.check_nodes(total_marks))
    base = set(d.check_nodes(base_marks))
    if not base:
        raise DomainError("base mark set must be nonempty")
    if not base < total:
        if base == total:
            raise DomainError("contraction along equal mark sets is the identity")
        raise DomainError(f"base marks {sorted(base)} not contained in {sorted(total)}")
    extra = total - base
    residual = [i for i in d.nodes if i not in base]
    kept = [a for _, order in components_by_walk(d, residual) if extra & set(order) for a in order]
    fiber_diag, node_map = subdiagram(d, kept)
    dropped_nodes = [i for i in residual if i not in node_map]
    return ContractionFiber(
        base_marks=tuple(sorted(base)),
        total_marks=tuple(sorted(total)),
        fiber=MarkedDiagram(fiber_diag, tuple(node_map[i] for i in sorted(extra))),
        node_map=tuple(sorted(node_map.items())),
        dropped=subdiagram(d, dropped_nodes)[0] if dropped_nodes else None,
    )


def components_by_walk(d, nodes) -> list[tuple[str, list[int]]]:
    """(family, nodes in standard order) for each component of the subdiagram on ``nodes``, walked on the bonds.

    The differential reference of ``dynkin._components``, which reads the
    same split by arithmetic on the standard numbering.  Components are
    found by a breadth-first walk on ``dynkin._bonds`` restricted to
    ``nodes``, ordered by their smallest node, and each is named and ordered
    by ``read_shape`` on that same neighbour dict.
    """
    from flagcalc.dynkin import _bonds

    bonds = _bonds(d)
    members = set(nodes)
    neighbours = {a: [b for b in bonds[a - 1] if b in members] for a in sorted(members)}
    comps = []
    for start in neighbours:
        if start not in members:
            continue
        members.remove(start)
        comp = [start]
        for a in comp:  # comp grows while it is read: a breadth-first walk
            for b in neighbours[a]:
                if b in members:
                    members.remove(b)
                    comp.append(b)
        comps.append(read_shape(bonds, neighbours, comp))
    return comps


def walk_path(neighbours: dict[int, list[int]], start: int, prev: int | None) -> list[int]:
    """Nodes met going from ``start`` away from ``prev`` until the path ends or branches.

    ``prev`` is None or a neighbour of ``start``, so the path goes on exactly
    while the node reached has one neighbour besides the one it came from.
    """
    path, a = [start], start
    while len(ahead := neighbours[a]) == (1 if prev is None else 2):
        prev, a = a, ahead[0] if ahead[-1] == prev else ahead[-1]
        path.append(a)
    return path


def read_shape(bonds, neighbours: dict[int, list[int]], comp: list[int]) -> tuple[str, list[int]]:
    """Family of the connected node set ``comp`` and its nodes in standard order, read off its shape.

    ``bonds`` is the diagram's ``dynkin._bonds``, which gives each bond's
    product C[a][b] C[b][a] and direction C[a][b]; ``neighbours`` maps each
    node of ``comp`` to its neighbours in ``comp``.  A connected diagram of
    finite type is a path with at most one multiple bond, or a tree with one
    branch node whose arms have lengths (1, 1, k) (type D) or (1, 2, 2|3|4)
    (type E); see Humphreys §11.4.
    """
    hubs = [a for a in comp if len(neighbours[a]) > 2]
    if hubs:
        hub = hubs[0]
        short, mid, long = sorted((walk_path(neighbours, b, hub) for b in neighbours[hub]), key=len)
        if len(mid) == 1:
            return "D", long[::-1] + [hub] + short + mid
        return "E", [mid[-1], short[0], mid[0], hub] + long
    path = walk_path(neighbours, min(a for a in comp if len(neighbours[a]) < 2), None)
    products = [bonds[b - 1][a] * bonds[a - 1][b] for a, b in zip(path, path[1:])]
    heavy = max(products, default=1)
    if heavy == 1:
        return "A", path
    k, t = len(path), products.index(heavy)
    # Put the multiple bond past the middle of the path.  On the middle (G2,
    # B2, F4) it must read -1 for G2 and -2 otherwise, so that a rank-2
    # double bond is named B2: B is the first family that fits it.
    middle_reads = -1 if heavy == 3 else -2
    if 2 * t < k - 2 or 2 * t == k - 2 and bonds[path[t + 1] - 1][path[t]] != middle_reads:
        path, t = path[::-1], k - 2 - t
    if heavy == 3:
        return "G", path
    if (k, t) == (4, 1):
        return "F", path
    return "B" if bonds[path[t + 1] - 1][path[t]] == -2 else "C", path


@lru_cache(maxsize=None)
def split_by_walk(d, base: int) -> list[tuple[str, list[int]]]:
    """``components_by_walk`` of the nodes of ``d`` other than ``base``, cached per (d, base).

    Every oracle of D - {base} reads it, so the checks of
    ``dynkin._components`` and ``homogeneous._end_map`` at every base and the
    fiber-read catalogue walk each base once: 1.5 s at every base up to the
    ceiling (2 vCPUs), kept in about 25 MB.  The lists are shared by every
    caller and must not be mutated.
    """
    return components_by_walk(d, [a for a in d.nodes if a != base])


def end_records_by_split(d, base: int) -> list[tuple[str, int, int, int, int, int]]:
    """The end records of ``homogeneous._fiber_table``, read off the walked components of D - {base}.

    Each component of ``split_by_walk`` gives (family, k, first, last, b, p):
    its rank, the two ends of its node list, the node b of it joined to base
    in ``dynkin._bonds`` and the position p of b in the list; b and p are 0
    when no node of the component is joined.  No case of the standard
    numbering is restated: the walk names and orders each component by its
    shape alone.
    """
    from flagcalc.dynkin import _bonds

    joined = _bonds(d)[base - 1]
    records = []
    for family, order in split_by_walk(d, base):
        b = next((a for a in order if a in joined), 0)
        records.append((family, len(order), order[0], order[-1], b, order.index(b) + 1 if b else 0))
    return records


def _canonical_pair(d, i: int, j: int):
    """Canonical representative of a two-bundle pair.

    C2 pairs are rewritten on B2 through the node swap identifying the two
    rank-2 varieties.  For non-A diagrams the mark set is canonicalized under
    diagram automorphisms (this folds the three equivalent D4 pairs into
    {3,4}).  Type A mark sets are kept as found.
    """
    from flagcalc.dynkin import DynkinDiagram, automorphisms

    if d == DynkinDiagram((("C", 2),)):
        swap = {1: 2, 2: 1}
        a, b = sorted((swap[i], swap[j]))
        return DynkinDiagram((("B", 2),)), a, b
    fam = d.components[0][0]
    if fam == "A":
        a, b = sorted((i, j))
        return d, a, b
    best = max(tuple(sorted((s[i - 1], s[j - 1]))) for s in automorphisms(d))
    return d, best[0], best[1]


def enumerate_two_bundles_by_canonical_pairs(max_rank: int):
    """The two-bundle catalogue by canonicalize, deduplicate, then sort.

    Scans every pair i < j of every normalized connected diagram of rank 2
    to ``max_rank``, C2 included, maps it to its ``_canonical_pair``, tests
    each canonical pair once (rejected ones are remembered too), and sorts
    the accepted entries by (family, rank, marks).
    """
    from flagcalc.dynkin import DynkinDiagram
    from flagcalc.homogeneous import MarkedDiagram, TwoBundleEntry, dimension, is_two_bundle_pair

    lo = {"A": 2, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
    hi = {"E": 8, "F": 4, "G": 2}
    seen = {}
    for family in "ABCDEFG":
        for rank in range(lo[family], min(hi.get(family, max_rank), max_rank) + 1):
            d = DynkinDiagram(((family, rank),))
            for i in d.nodes:
                for j in range(i + 1, rank + 1):
                    key = _canonical_pair(d, i, j)
                    if key in seen:
                        continue
                    ranks = is_two_bundle_pair(*key)
                    cd, ci, cj = key
                    seen[key] = None if ranks is None else TwoBundleEntry(
                        cd, ci, cj, *ranks, dim=dimension(MarkedDiagram(cd, (ci, cj)))
                    )
    return tuple(
        sorted(
            (e for e in seen.values() if e is not None),
            key=lambda e: (e.diagram.components[0][0], e.diagram.rank, e.i, e.j),
        )
    )


def enumerate_two_bundles_by_fiber_reads(max_rank: int):
    """The two-bundle catalogue with every base node's table read off its split.

    The differential check of the closed forms of ``enumerate_two_bundles``:
    the records of ``homogeneous._classical_pairs`` (A-D) and the E6-8, F4 and
    G2 splits of ``homogeneous._end_map``.  Every diagram, A-D included, is
    scanned as the library scans E6-8, F4 and G2, but with each table
    ``homogeneous._rank_ends`` of the records that ``end_records_by_split``
    reads off the components of D - {base} walked on the bonds by
    ``components_by_walk``.  The pair loop runs over every
    end in the table, skipping j < i, and outside type A over every
    automorphism, the identity included.
    """
    from flagcalc.dynkin import DynkinDiagram, _component_root_count, automorphisms
    from flagcalc.homogeneous import TwoBundleEntry, _rank_ends, _scan_ranks

    entries = []
    for family in "ABCDEFG":
        for rank in _scan_ranks(family, max_rank):
            d = DynkinDiagram(((family, rank),))
            autos = () if family == "A" else automorphisms(d)
            total = _component_root_count(family, rank)
            tables = [_rank_ends(total, end_records_by_split(d, base)) for base in d.nodes]
            for i, (dim, ranks) in enumerate(tables, 1):
                for j, r_plus in sorted(ranks.items()):
                    if j < i or (r_minus := tables[j - 1][1].get(i)) is None:
                        continue
                    if all((i, j) >= tuple(sorted((s[i - 1], s[j - 1]))) for s in autos):
                        entries.append(TwoBundleEntry(d, i, j, r_minus, r_plus, dim=dim + r_plus))
    return tuple(entries)


def drum_identification(family: str, n: int, i: int, j: int) -> str | int:
    """What the drum over X_n{i,j} is, from the geometry of the orbit closure.

    The drum is the closure of the orbit of [v_i + v_j] in P(V_i + V_j).
    When it is homogeneous the target is returned as a marked diagram text,
    whose dimension is the drum's and whose fundamental representation is
    V_i + V_j; otherwise it is one of Pasquier's smooth horospherical
    varieties of Picard number one (Math. Ann. 2009), and its dimension is
    returned.

    - A_n{i,i+1}: the Grassmannian A_{n+1}{i+1}; A2{1,2} is read here.
    - A_n{1,n}: the quadric Q^{2n} = D_{n+1}{1}.
    - D_n{n-1,n}: the spinor variety D_{n+1}{n+1}.
    - B_m{m-1,m}: dimension m(m+3)/2; B3{1,3}: dimension 9.
    - C_m{i,i+1}: the odd symplectic Grassmannian IG(i+1, 2m+1) of Mihai
      (Transform. Groups 2007), of dimension (i+1)(2m-i) - i(i+1)/2.
    - F4{2,3}: dimension 23; G2{1,2}: dimension 7.
    """
    if family == "A" and j == i + 1:
        return f"A{n + 1}{{{i + 1}}}"
    if family == "A" and (i, j) == (1, n):
        return f"D{n + 1}{{1}}"
    if family == "D" and (i, j) == (n - 1, n):
        return f"D{n + 1}{{{n + 1}}}"
    if family == "B" and (i, j) == (n - 1, n):
        return n * (n + 3) // 2
    if family == "C" and j == i + 1:
        return (i + 1) * (2 * n - i) - i * (i + 1) // 2
    return {("B", 3, 1, 3): 9, ("F", 4, 2, 3): 23, ("G", 2, 1, 2): 7}[(family, n, i, j)]


def ints_by_entry_regex(text: str) -> tuple[int, ...] | None:
    """The CLI's integer reader: each comma-separated entry must match ``\\s*[+-]?[0-9]+\\s*``.

    None when an entry does not match; otherwise ``int`` reads each entry,
    which raises ``ValueError`` when an entry is padded with U+001C-U+001F:
    ``\\s`` matches those, but ``int`` does not strip them.
    """
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", p) for p in parts):
        return None
    return tuple(int(p) for p in parts)


def ints_by_split(text: str) -> tuple[int, ...]:
    """The mark and tag list reader: ``int`` on each comma-separated entry; ``ValueError`` on a bad one.

    The mark and tag grammars pass it only text of ``[0-9,\\s]+``, so no
    entry it reads has a sign, an underscore or a non-ASCII digit.
    """
    return tuple(int(p) for p in text.split(","))
