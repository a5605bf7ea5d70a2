"""Independent oracles used across the test suite.

Everything here recomputes expected values by routes deliberately different
from the library implementation: an alpha_i-string walk per component and
a naive reflection closure instead of height-raising reflections on the
whole diagram, breadth-first group enumeration instead of closed
forms, orthogonal-basis arithmetic instead of simple-root bookkeeping, and
tautological short exact sequences instead of Cartan pairings, a
backtracking isomorphism search over every candidate Cartan matrix instead
of reading a subdiagram's type off its shape, a running product of
rationals instead of one exact integer division for the Weyl dimension, a
scan of the root list instead of closed-form root counts for the
dimension of a marked diagram, fibers built as renumbered subdiagrams
instead of read off their shape for the two-bundle test, a two-bundle
catalogue built by canonicalizing every pair, deduplicating and sorting
instead of in one ordered pass, contraction fibers built by splitting
the residual diagram three times instead of renumbering one split, and
homogeneous tags from Cartan pairings over the whole root list instead of
read off the fiber's shape in closed form, and fiber ranks tested at every
position of each component instead of written at its two ends.

Module-level code is stdlib-only: the benchmark loads this file by path.
"""
from __future__ import annotations

from fractions import Fraction

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


def positive_roots_by_strings(d):
    """``positive_roots(d)`` from the string walk on each component, embedded and sorted by (height, lex)."""
    from flagcalc.dynkin import RootSystem, _component_cartan, cartan_matrix

    n = d.rank
    roots = []
    offset = 0
    for fam, rank in d.components:
        for r in component_roots_by_strings(_component_cartan(fam, rank)):
            vec = [0] * n
            vec[offset : offset + rank] = r
            roots.append(tuple(vec))
        offset += rank
    roots.sort(key=lambda r: (sum(r), r))
    return RootSystem(cartan=cartan_matrix(d), roots=tuple(roots))


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
    from flagcalc.dynkin import _component_cartan
    from flagcalc.errors import DomainError

    k = len(comp)
    sub = tuple(tuple(c[a - 1][b - 1] for b in comp) for a in comp)
    for fam, rank in candidate_types(k):
        isos = isomorphisms(sub, _component_cartan(fam, rank), find_all=False)
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
    fiber is not a projective space and at ``base`` itself.
    """
    from flagcalc.dynkin import _components
    from flagcalc.homogeneous import _projective_rank

    ranks = [None] * d.rank
    for family, order in _components(d, [a for a in d.nodes if a != base]):
        for position, mark in enumerate(order, 1):
            ranks[mark - 1] = _projective_rank(family, len(order), position)
    return tuple(ranks)


def contraction_fiber_by_subdiagrams(d, total_marks, base_marks):
    """Fiber of ``D{total_marks} -> D{base_marks}``, splitting the residual diagram three times.

    The components of D - base that meet the extra marks are picked with
    ``_components``, then the kept and the dropped nodes are each built
    again with ``subdiagram``.
    """
    from flagcalc.dynkin import _components, subdiagram
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
    kept = [a for _, order in _components(d, residual) if extra & set(order) for a in order]
    fiber_diag, node_map = subdiagram(d, kept)
    dropped_nodes = [i for i in residual if i not in node_map]
    return ContractionFiber(
        base_marks=tuple(sorted(base)),
        total_marks=tuple(sorted(total)),
        fiber=MarkedDiagram(fiber_diag, tuple(node_map[i] for i in sorted(extra))),
        node_map=tuple(sorted(node_map.items())),
        dropped=subdiagram(d, dropped_nodes)[0] if dropped_nodes else None,
    )


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
