from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from flagcalc import classifier, drum, dynkin, homogeneous
from flagcalc.classifier import TwoBundleData, _product_entry, homogeneous_tags, match_model
from flagcalc.drum import build_drum
from flagcalc.drum import weyl_dim
from flagcalc.dynkin import MAX_RANK, parse_diagram, positive_roots, subdiagram
from flagcalc.errors import DomainError, ParseError
from flagcalc.homogeneous import (
    MarkedDiagram,
    contraction_fiber,
    dimension,
    enumerate_two_bundles,
    is_projective_space,
    is_two_bundle_pair,
    parse_marked,
    picard_number,
)
from flagcalc.tags import nesting_admissible, parse_tag, restrict_tag

from oracles import (
    components_by_walk,
    contraction_fiber_by_subdiagrams,
    dimension_by_roots,
    end_records_by_split,
    enumerate_two_bundles_by_canonical_pairs,
    enumerate_two_bundles_by_fiber_reads,
    expected_two_bundle_keys,
    fiber_ranks_by_positions,
    is_two_bundle_pair_by_fibers,
    side_tag_by_roots,
    split_by_walk,
)

EXCEPTIONAL = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
CONNECTED_UP_TO_RANK_8 = [
    f"{fam}{n}" for fam, lowest in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for n in range(lowest, 9)
] + ["E6", "E7", "E8", "F4", "G2"]


def entry_key(e):
    return (e.diagram.components[0][0], e.diagram.rank, (e.i, e.j))


def test_parse_marked():
    m = parse_marked("B3{1,3}")
    assert m.diagram.render() == "B3" and m.marks == (1, 3)
    assert m.render() == "B3{1,3}"


def test_parse_marked_normalizes_coincidences():
    # the center of the raw rank-3 D diagram becomes the middle node of A3
    m = parse_marked("D3{1,3}")
    assert m.diagram.render() == "A3" and m.marks == (2, 3)


def test_parse_marked_errors():
    for bad in ("B3", "B3{1,,3}", "B3{,1}"):
        with pytest.raises(ParseError):
            parse_marked(bad)
    with pytest.raises(DomainError):
        parse_marked("B3{4}")
    with pytest.raises(DomainError):
        MarkedDiagram(parse_diagram("A2"), ())


def test_marked_diagram_rejects_non_integer_marks():
    with pytest.raises(DomainError):
        MarkedDiagram(parse_diagram("A3"), (1.0,))


@pytest.mark.parametrize("n", range(1, 9))
def test_dimension_projective_space(n):
    assert dimension(parse_marked(f"A{n}{{1}}")) == n


def test_dimension_examples():
    assert dimension(parse_marked("B3{1}")) == 5
    assert dimension(parse_marked("A2{1,2}")) == 3
    assert dimension(parse_marked("B3{1,3}")) == 8


def test_dimension_complete_flag_is_root_count():
    for text in ["A3", "B3", "C4", "D4", "G2", "F4"]:
        d = parse_diagram(text)
        all_marks = tuple(d.nodes)
        assert dimension(MarkedDiagram(d, all_marks)) == len(positive_roots(d).roots)


def test_dimension_matches_root_scan_oracle():
    # every nonempty mark subset; the disconnected diagrams include the
    # products A_r+A_s that the classifier builds for a pair of zero tags
    products = [_product_entry(r, s).diagram.render() for r, s in ((1, 1), (2, 3), (4, 1))]
    for text in CONNECTED_UP_TO_RANK_8 + ["A2+B3", "G2+A1+D4"] + products:
        d = parse_diagram(text)
        for mask in range(1, 2**d.rank):
            m = MarkedDiagram(d, tuple(a for a in d.nodes if mask >> (a - 1) & 1))
            assert dimension(m) == dimension_by_roots(m), m.render()


def test_dimension_strictly_monotone():
    rng = random.Random(7)
    diagrams = [parse_diagram(t) for t in ["A5", "B4", "C5", "D5", "F4", "E6"]]
    for _ in range(200):
        d = rng.choice(diagrams)
        nodes = list(d.nodes)
        size_j = rng.randint(2, len(nodes))
        j = set(rng.sample(nodes, size_j))
        i = set(rng.sample(sorted(j), rng.randint(1, size_j - 1)))
        assert dimension(MarkedDiagram(d, tuple(i))) < dimension(MarkedDiagram(d, tuple(j)))


def test_picard_number():
    assert picard_number(parse_marked("A5{2}")) == 1
    assert picard_number(parse_marked("G2{1,2}")) == 2
    assert picard_number(parse_marked("A3{1,2,3}")) == 3


def test_contraction_fiber_examples():
    f = contraction_fiber(parse_diagram("B3"), {1, 3}, {1})
    assert f.fiber.render() == "B2{2}"
    assert dimension(f.fiber) == 3
    assert f.dropped is None

    f = contraction_fiber(parse_diagram("A5"), {1, 5}, {1})
    assert f.fiber.render() == "A4{4}"

    f = contraction_fiber(parse_diagram("F4"), {2, 3}, {3})
    assert f.fiber.render() == "A2{2}"
    assert f.dropped is not None and f.dropped.render() == "A1"


def test_contraction_fiber_errors():
    d = parse_diagram("A3")
    with pytest.raises(DomainError):
        contraction_fiber(d, {1, 2}, {3})
    with pytest.raises(DomainError):
        contraction_fiber(d, {1, 2}, {1, 2})
    with pytest.raises(DomainError):
        contraction_fiber(d, {1, 2}, set())


def _nonempty_subsets(nodes):
    return [set(s) for k in range(1, len(nodes) + 1) for s in combinations(nodes, k)]


def test_contraction_fiber_matches_subdiagram_oracle_on_every_mark_pair():
    # every (total, base) with {} != base < total, 6750 pairs
    texts = [f"A{n}" for n in range(1, 8)] + [f"{fam}{n}" for fam in "BC" for n in range(2, 7)]
    texts += ["D4", "D5", "D6", "E6", "F4", "G2", "A2+A1", "B3+A2", "D4+C2"]
    pairs = 0
    for text in texts:
        d = parse_diagram(text)
        for total in _nonempty_subsets(d.nodes):
            for base in _nonempty_subsets(sorted(total)):
                if base != total:
                    pairs += 1
                    expected = contraction_fiber_by_subdiagrams(d, total, base)
                    assert contraction_fiber(d, total, base) == expected, (text, total, base)
    assert pairs == 6750


def test_contraction_fiber_splits_the_residual_once(monkeypatch):
    calls = []
    components = dynkin._components

    def counting_components(d, nodes):
        calls.append(sorted(nodes))
        return components(d, nodes)

    for module in (dynkin, homogeneous):
        monkeypatch.setattr(module, "_components", counting_components)
    f = contraction_fiber(parse_diagram("F4"), {2, 3}, {3})
    assert (f.fiber.render(), f.dropped.render()) == ("A2{2}", "A1")
    assert calls == [[1, 2, 4]]


def test_fiber_dimension_additivity():
    rng = random.Random(11)
    diagrams = [parse_diagram(t) for t in ["A6", "B5", "C4", "D6", "F4", "E7"]]
    for _ in range(200):
        d = rng.choice(diagrams)
        nodes = list(d.nodes)
        size_j = rng.randint(2, len(nodes))
        j = set(rng.sample(nodes, size_j))
        i = set(rng.sample(sorted(j), rng.randint(1, size_j - 1)))
        fiber = contraction_fiber(d, j, i)
        total = dimension(MarkedDiagram(d, tuple(j)))
        base = dimension(MarkedDiagram(d, tuple(i)))
        assert total == base + dimension(fiber.fiber)


def test_is_two_bundle_pair_matches_fiber_oracle():
    # every ordered pair of every connected diagram of rank <= 20
    pairs = 0
    families = (("A", 1, 20), ("B", 2, 20), ("C", 2, 20), ("D", 4, 20), ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))
    for fam, lowest, highest in families:
        for n in range(lowest, highest + 1):
            d = dynkin.DynkinDiagram(((fam, n),))
            for i in d.nodes:
                for j in d.nodes:
                    if i != j:
                        assert is_two_bundle_pair(d, i, j) == is_two_bundle_pair_by_fibers(d, i, j), (d, i, j)
                        pairs += 1
    assert pairs == 10774


def test_fiber_table_ranks_match_every_position_oracle():
    # the table keeps ranks at component ends only; the oracle tests every position
    connected = [
        dynkin.DynkinDiagram(((fam, n),))
        for fam, (lowest, highest) in dynkin._NORMALIZED_RANKS.items()
        for n in range(lowest, (highest or 20) + 1)
    ]
    unions = [parse_diagram(t) for t in ("A2+A1", "B3+A2", "D4+C2", "G2+F4+A1", "E8+E6")]
    bases = 0
    for d in connected + unions:
        for base in d.nodes:
            table = homogeneous._fiber_table(d, base)
            by_positions = fiber_ranks_by_positions(d, base)
            assert table[1] == {a: r for a, r in enumerate(by_positions, 1) if r is not None}, (d, base)
            assert table[2] == end_records_by_split(d, base), (d, base)
            bases += 1
    assert bases == 894


# every component of the normalized table up to the rank ceiling
TABLE_COMPONENTS = [
    (fam, k)
    for fam, (lowest, highest) in dynkin._NORMALIZED_RANKS.items()
    for k in range(lowest, (highest or MAX_RANK) + 1)
]


def test_end_map_matches_split_records_at_every_base():
    # the closed-form records must give the families, ranks, ends, joined
    # nodes and their positions of the components walked on the bonds
    # exactly, at every base of every connected diagram up to the ceiling,
    # and on unions, where the fiber table shifts the end map of the
    # component holding base
    bases = 0
    for fam, n in TABLE_COMPONENTS:
        d = dynkin.DynkinDiagram(((fam, n),))
        for base in d.nodes:
            assert homogeneous._end_map(fam, n, base) == end_records_by_split(d, base), (d, base)
            bases += 1
    assert bases == 20219
    for text in ("A1+A1", "D4+C2", "B3+A2", "G2+E6+C3", "E8+F4", "A3+E7+D5"):
        d = parse_diagram(text)
        for base in d.nodes:
            assert homogeneous._fiber_table(d, base)[2] == end_records_by_split(d, base), (d, base)


def _random_union(rng, cap):
    """A union of two to four random table components of total rank at most ``cap``."""
    comps, room = [], cap
    for left in range(rng.randint(2, 4), 0, -1):
        comps.append(rng.choice([c for c in TABLE_COMPONENTS if c[1] <= room - left + 1]))
        room -= comps[-1][1]
    return dynkin.DynkinDiagram(tuple(comps))


def test_random_unions_match_oracles():
    # on unions every component outside the one holding base is joined to no
    # node (b = p = 0); half the unions are small enough for the root scan of
    # the tags
    rng = random.Random(21)
    joined = unjoined = pairs = tagged = 0
    for case in range(60):
        d = _random_union(rng, 12 if case % 2 else MAX_RANK)
        for base in rng.sample(d.nodes, min(4, d.rank)):
            dim, ranks, ends = homogeneous._fiber_table(d, base)
            assert ends == end_records_by_split(d, base), (d, base)
            assert dim == dimension(MarkedDiagram(d, (base,))), (d, base)
            joined += sum(1 for end in ends if end[5])
            unjoined += sum(1 for end in ends if not end[5])
            for j in [*rng.sample(sorted(ranks), min(2, len(ranks))), rng.choice(d.nodes)]:
                if j == base:
                    continue
                got = is_two_bundle_pair(d, base, j)
                assert got == is_two_bundle_pair_by_fibers(d, base, j), (d, base, j)
                if got is not None:
                    pairs += 1
                    if d.rank <= 12:
                        tagged += 1
                        tags = homogeneous_tags(d, base, j)
                        assert tags.plus == side_tag_by_roots(d, base, j), (d, base, j)
                        assert tags.minus == side_tag_by_roots(d, j, base), (d, base, j)
                total = (base, j, rng.choice(d.nodes))
                for marks in ((base,), (base, j)):
                    if set(marks) < set(total):
                        got = contraction_fiber(d, total, marks)
                        assert got == contraction_fiber_by_subdiagrams(d, total, marks), (d, total, marks)
    assert min(joined, unjoined, pairs, tagged) > 20, (joined, unjoined, pairs, tagged)


def test_components_match_walk_oracle_on_every_node_subset():
    # the arithmetic split must give the walk's families, node orders and
    # component order exactly: on every node subset, the empty one included,
    # of every connected diagram of rank <= 9 and of E6-E8, F4 and G2, on the
    # nodes other than base at every base of every connected diagram up to
    # the ceiling and of two unions (the walks the end map test reads), and
    # on seeded node subsets, in shuffled order, of unions up to the ceiling
    subsets = 0
    for fam, lowest in (("A", 1), ("B", 2), ("C", 2), ("D", 4), *EXCEPTIONAL):
        for n in range(lowest, (lowest if fam in "EFG" else 9) + 1):
            d = dynkin.DynkinDiagram(((fam, n),))
            for mask in range(2**n):
                nodes = [a for a in d.nodes if mask >> (a - 1) & 1]
                assert dynkin._components(d, nodes) == components_by_walk(d, nodes), (d, nodes)
                subsets += 1
    assert subsets == 4538
    bases = 0
    unions = [parse_diagram("D4+C2"), parse_diagram("B3+A2")]
    for d in [dynkin.DynkinDiagram((comp,)) for comp in TABLE_COMPONENTS] + unions:
        for base in d.nodes:
            assert dynkin._components(d, [a for a in d.nodes if a != base]) == split_by_walk(d, base), (d, base)
            bases += 1
    assert bases == 20230
    rng = random.Random(31)
    for _ in range(2000):
        d = _random_union(rng, MAX_RANK)
        share = rng.random()
        nodes = [a for a in d.nodes if rng.random() < share]
        rng.shuffle(nodes)
        assert dynkin._components(d, nodes) == components_by_walk(d, nodes), (d, nodes)


def test_projective_rank_is_none_inside_every_component():
    for fam, (lowest, highest) in dynkin._NORMALIZED_RANKS.items():
        for k in range(lowest, (highest or dynkin.MAX_RANK) + 1):
            assert all(homogeneous._projective_rank(fam, k, p) is None for p in range(2, k)), (fam, k)


@pytest.mark.parametrize("check", [is_two_bundle_pair, homogeneous_tags, build_drum])
@pytest.mark.parametrize("nodes", [(1.0, 3.0), (1, 3.0), (True, 3), (1, True)])
def test_two_bundle_checks_reject_non_integer_nodes(check, nodes):
    with pytest.raises(DomainError, match="nodes must be integers"):
        check(parse_diagram("B3"), *nodes)


# Every public entry point that takes nodes of a diagram shares one check,
# ``DynkinDiagram.check_nodes``.
B3, A3_TAG = parse_diagram("B3"), parse_tag("A3:1,0,2")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: subdiagram(B3, [1.0, 2.0]), id="subdiagram-float"),
        pytest.param(lambda: subdiagram(B3, [True, 2]), id="subdiagram-bool"),
        pytest.param(lambda: contraction_fiber(B3, [1.0, 3], [1.0]), id="contraction_fiber"),
        pytest.param(lambda: contraction_fiber(B3, [1, 3], [1.0]), id="contraction_fiber-base"),
        pytest.param(lambda: restrict_tag(A3_TAG, [1, 1.0]), id="restrict_tag-repeat"),
        pytest.param(lambda: restrict_tag(A3_TAG, [2.0]), id="restrict_tag"),
        pytest.param(lambda: nesting_admissible(A3_TAG, [1.0], [3]), id="nesting_admissible"),
        pytest.param(lambda: MarkedDiagram(B3, (1, 2.0)), id="MarkedDiagram"),
        pytest.param(lambda: weyl_dim(B3, True), id="weyl_dim"),
    ],
)
def test_node_checks_reject_non_integer_nodes(call):
    with pytest.raises(DomainError, match="nodes must be integers"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: MarkedDiagram(B3, (1, 4)), id="MarkedDiagram"),
        pytest.param(lambda: is_two_bundle_pair(B3, 1, 4), id="is_two_bundle_pair"),
        pytest.param(lambda: weyl_dim(B3, 4), id="weyl_dim"),
        pytest.param(lambda: subdiagram(B3, [1, 4]), id="subdiagram"),
        pytest.param(lambda: contraction_fiber(B3, [1, 4], [1]), id="contraction_fiber"),
        pytest.param(lambda: restrict_tag(A3_TAG, [4, 1]), id="restrict_tag"),
        pytest.param(lambda: nesting_admissible(A3_TAG, [1], [4]), id="nesting_admissible"),
    ],
)
def test_node_checks_reject_nodes_outside_the_diagram(call):
    with pytest.raises(DomainError, match=r"nodes \[(1, )?4\] not all in diagram [AB]3$"):
        call()


def test_is_projective_space():
    assert is_projective_space(parse_marked("A4{4}")) == 4
    assert is_projective_space(parse_marked("A4{1}")) == 4
    assert is_projective_space(parse_marked("C3{1}")) == 5
    assert is_projective_space(parse_marked("B3{1}")) is None
    assert is_projective_space(parse_marked("B2{2}")) == 3
    assert is_projective_space(parse_marked("C2{1}")) == 3
    assert is_projective_space(parse_marked("B2{1}")) is None
    assert is_projective_space(parse_marked("A4{2}")) is None
    assert is_projective_space(parse_marked("A4{1,4}")) is None
    assert is_projective_space(parse_marked("A2+A1{1}")) is None
    assert is_projective_space(parse_marked("D4{1}")) is None


def test_is_projective_space_dimension_consistency():
    # whenever a marked diagram is reported as projective r-space its
    # dimension must be r
    for text in ["A1{1}", "A5{5}", "C2{1}", "C4{1}", "B2{2}"]:
        m = parse_marked(text)
        r = is_projective_space(m)
        assert r is not None and dimension(m) == r


def test_enumerate_rank_two():
    got = {entry_key(e) for e in enumerate_two_bundles(2)}
    assert got == {("A", 2, (1, 2)), ("B", 2, (1, 2)), ("G", 2, (1, 2))}


def test_enumerate_rank_three():
    got = {entry_key(e) for e in enumerate_two_bundles(3)}
    assert got == {
        ("A", 2, (1, 2)),
        ("A", 3, (1, 2)),
        ("A", 3, (2, 3)),
        ("A", 3, (1, 3)),
        ("B", 2, (1, 2)),
        ("B", 3, (2, 3)),
        ("B", 3, (1, 3)),
        ("C", 3, (1, 2)),
        ("C", 3, (2, 3)),
        ("G", 2, (1, 2)),
    }


def test_enumerate_matches_classification_list():
    for max_rank in (2, 3, 4, 6, 8, 12, 20, 30, 50, MAX_RANK):
        got = {entry_key(e) for e in enumerate_two_bundles(max_rank)}
        assert got == expected_two_bundle_keys(max_rank), max_rank


def test_max_rank_must_be_an_int():
    data = TwoBundleData.from_values(1, 1, (1,), (3,))
    product = TwoBundleData.from_values(1, 1, (0,), (0,))
    assert len(enumerate_two_bundles(12)) == 164 and match_model(data, 8) and match_model(product, 8)
    # 12.0 and 8.0 equal ranks already cached; no cached entry may answer them
    for max_rank in (12.0, 8.0, True, "8"):
        with pytest.raises(DomainError, match="max_rank must be an integer"):
            enumerate_two_bundles(max_rank)
        for request in (data, product):
            with pytest.raises(DomainError, match="max_rank must be an integer"):
                match_model(request, max_rank)


def test_max_rank_ceiling_holds_on_every_path():
    # the product path of match_model reads no catalogue, so it must check both bounds itself
    data = TwoBundleData.from_values(1, 1, (1,), (3,))
    product = TwoBundleData.from_values(1, 1, (0,), (0,))
    assert match_model(product, MAX_RANK)[0].product and match_model(product, 2)[0].product
    for max_rank, message in ((MAX_RANK + 1, f"at most {MAX_RANK}"), (1000, f"at most {MAX_RANK}"),
                              (1, "at least 2"), (0, "at least 2"), (-3, "at least 2")):
        with pytest.raises(DomainError, match=f"max_rank must be {message}"):
            enumerate_two_bundles(max_rank)
        for request in (data, product):
            with pytest.raises(DomainError, match=f"max_rank must be {message}"):
                match_model(request, max_rank)


def test_enumerate_d4_triality_collapsed():
    entries = [e for e in enumerate_two_bundles(4) if e.diagram.render() == "D4"]
    assert [(e.i, e.j) for e in entries] == [(3, 4)]
    # the raw triality images are two-bundle pairs too
    d4 = parse_diagram("D4")
    assert is_two_bundle_pair(d4, 1, 3) is not None
    assert is_two_bundle_pair(d4, 1, 4) is not None


def test_enumerate_relative_dimensions():
    by_key = {entry_key(e): e for e in enumerate_two_bundles(6)}
    e = by_key[("A", 5, (1, 2))]
    assert (e.r_minus, e.r_plus) == (1, 4)
    e = by_key[("B", 3, (1, 3))]
    assert (e.r_minus, e.r_plus) == (2, 3)
    e = by_key[("C", 4, (1, 2))]
    assert (e.r_minus, e.r_plus) == (1, 5)
    e = by_key[("G", 2, (1, 2))]
    assert (e.r_minus, e.r_plus) == (1, 1)


def test_enumerate_entry_dimensions_consistent():
    # A-D entries take dim D{i,j} from their Levi components in closed form,
    # E-G entries dim D{i} + r_plus from the scanned tables; at MAX_RANK the
    # 30588 dimensions would take about 3 s
    for e in enumerate_two_bundles(50):
        m = MarkedDiagram(e.diagram, (e.i, e.j))
        assert e.dim == dimension(m)
        base_plus = dimension(MarkedDiagram(e.diagram, (e.i,)))
        base_minus = dimension(MarkedDiagram(e.diagram, (e.j,)))
        assert e.dim == base_plus + e.r_plus
        assert e.dim == base_minus + e.r_minus


def test_enumerate_stable_under_automorphisms():
    # type A lists every automorphism image of a pair, the other families exactly one
    entries = enumerate_two_bundles(8)
    keys = {(e.diagram, e.i, e.j) for e in entries}
    for e in entries:
        images = {(e.diagram, *sorted((s[e.i - 1], s[e.j - 1]))) for s in dynkin.automorphisms(e.diagram)}
        listed = images & keys
        assert listed == images if e.diagram.components[0][0] == "A" else len(listed) == 1, e.render()


@pytest.mark.parametrize("max_rank", [2, 3, 4, 8, 12, 20, 50])
def test_enumerate_matches_canonical_pair_oracle(max_rank):
    # whole tuples: order, diagrams, marks, r-, r+ and dim; at MAX_RANK the
    # oracle would take about 8 s, and the classification list covers it
    assert enumerate_two_bundles(max_rank) == enumerate_two_bundles_by_canonical_pairs(max_rank)


def test_enumerate_matches_fiber_read_oracle_at_the_ceiling():
    # whole tuples up to MAX_RANK, against the scan that splits every base
    # node: the differential check of the closed-form records of A-D and of the
    # closed-form E-G splits
    assert enumerate_two_bundles(MAX_RANK) == enumerate_two_bundles_by_fiber_reads(MAX_RANK)


def test_enumerate_builds_exact_record_types():
    # == on namedtuples ignores the class, so the check above would pass on
    # plain tuples; the records are built by tuple.__new__, so check each type
    for entry in enumerate_two_bundles(MAX_RANK):
        assert type(entry) is homogeneous.TwoBundleEntry and type(entry.diagram) is dynkin.DynkinDiagram, entry
        assert all(type(value) is int for value in entry[1:]), entry


def test_enumerate_at_every_rank_is_the_ceiling_catalogue_cut_at_that_rank():
    # each bound lists the same entries, in the same order, as the ceiling's
    # catalogue keeps of rank <= r; the ceiling itself is checked above
    ceiling = enumerate_two_bundles(MAX_RANK)
    for max_rank in range(2, MAX_RANK + 1):
        enumerate_two_bundles.cache_clear()
        cut = tuple(e for e in ceiling if e.diagram.rank <= max_rank)
        assert enumerate_two_bundles(max_rank) == cut, max_rank


def test_enumerate_swapping_marks_is_harmless():
    d = parse_diagram("B3")
    assert is_two_bundle_pair(d, 1, 3) == (2, 3)
    with pytest.raises(DomainError, match="not a pair of distinct nodes"):
        is_two_bundle_pair(d, 2, 2)
    # the checks before the pair test, each with its exact message; a non-model is no error
    a4 = parse_diagram("A4")
    for i, j, message in [
        (True, 2, "nodes must be integers, got (True, 2)"),
        (1.0, 2, "nodes must be integers, got (1.0, 2)"),
        (1, 5, "nodes [1, 5] not all in diagram A4"),
        (2, 2, "(2, 2) is not a pair of distinct nodes of A4"),
    ]:
        with pytest.raises(DomainError) as raised:
            is_two_bundle_pair(a4, i, j)
        assert str(raised.value) == message, (i, j)
    assert is_two_bundle_pair(a4, 1, 3) is None
    # the unordered pair is what the enumeration stores
    entries = [e for e in enumerate_two_bundles(3) if e.diagram.render() == "B3"]
    assert all(e.i < e.j for e in entries)


def test_enumerate_builds_no_root_lists():
    enumerate_two_bundles.cache_clear()
    dynkin.positive_roots.cache_clear()
    assert len(enumerate_two_bundles(12)) == 164
    assert dynkin.positive_roots.cache_info().currsize == 0
    # nor does classify: the tags are read off the fiber tables in closed form
    enumerate_two_bundles.cache_clear()
    homogeneous._fiber_table.cache_clear()
    data = TwoBundleData.from_values(1, 1, (1,), (3,))
    assert [m.entry.render() for m in match_model(data, 12)] == ["G2{1,2}"]
    assert dynkin.positive_roots.cache_info().currsize == 0


def test_enumerate_builds_no_subdiagrams(monkeypatch):
    # the two-bundle test reads each fiber's shape instead of renumbering it
    calls = []
    renumber = dynkin._renumber

    def counting_renumber(comps):
        calls.append(comps)
        return renumber(comps)

    for module in (dynkin, homogeneous):
        monkeypatch.setattr(module, "_renumber", counting_renumber)
    enumerate_two_bundles.cache_clear()
    dynkin._bonds.cache_clear()
    assert len(enumerate_two_bundles(12)) == 164
    assert calls == []


def test_enumerate_leaves_fiber_table_cache_empty():
    # A-D need no table and the E-G scan reads each of its end maps once,
    # uncached; the two-bundle test, drums and classify still share one
    # cached table per (diagram, base)
    for max_rank, entries in ((12, 164), (MAX_RANK, 10196)):
        enumerate_two_bundles.cache_clear()
        homogeneous._fiber_table.cache_clear()
        assert len(enumerate_two_bundles(max_rank)) == entries
        info = homogeneous._fiber_table.cache_info()
        assert (info.currsize, info.misses) == (0, 0), max_rank
    catalogue = enumerate_two_bundles(12)
    for e in catalogue:
        assert is_two_bundle_pair(e.diagram, e.i, e.j) == (e.r_minus, e.r_plus)
        assert is_two_bundle_pair(e.diagram, e.j, e.i) == (e.r_plus, e.r_minus)
    read = {(e.diagram, base) for e in catalogue for base in (e.i, e.j)}
    info = homogeneous._fiber_table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (len(read), len(read), 4 * len(catalogue) - len(read))


def test_cold_enumeration_retains_little_memory():
    # no fiber table outlives the scan: at the ceiling the catalogue itself is
    # about 1.5 MB, and its 20216 tables would hold about 25 MB more
    for obj in gc.get_objects():
        if isinstance(obj, type(enumerate_two_bundles)) and (obj.__module__ or "").startswith("flagcalc"):
            obj.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        assert len(enumerate_two_bundles(MAX_RANK)) == 10196
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2_000_000


def test_cold_classify_keeps_end_records_and_little_memory():
    # a classify request at the ceiling reads 10493 fiber tables and keeps
    # them all; each keeps one flat record per component, no node list, and
    # they retain about 14 MB where node lists in every table retained 20 MB
    for obj in gc.get_objects():
        if isinstance(obj, type(enumerate_two_bundles)) and (obj.__module__ or "").startswith("flagcalc"):
            obj.cache_clear()
    gc.collect()
    data = TwoBundleData.from_values(1, 1, (1,), (3,))
    tracemalloc.start()
    try:
        assert [m.entry.render() for m in match_model(data, MAX_RANK)] == ["G2{1,2}"]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    misses = homogeneous._fiber_table.cache_info().misses
    for e in enumerate_two_bundles(MAX_RANK):
        for base in (e.i, e.j):
            for end in homogeneous._fiber_table(e.diagram, base)[2]:
                assert type(end) is tuple and [type(x) for x in end] == [str] + [int] * 5, (e, base, end)
    assert homogeneous._fiber_table.cache_info().misses == misses == 10493
    assert retained < 17_000_000


def test_enumerate_builds_no_cartan_entries(monkeypatch):
    # every diagram is split in closed form, with no Cartan entries: no scan
    # builds a dense Cartan matrix or fills the bond table
    calls = []
    cartan_matrix = dynkin.cartan_matrix

    def counting_cartan_matrix(d):
        calls.append(d)
        return cartan_matrix(d)

    monkeypatch.setattr(dynkin, "cartan_matrix", counting_cartan_matrix)
    for max_rank in (20, MAX_RANK):
        for cached in (enumerate_two_bundles, homogeneous._fiber_table, dynkin.positive_roots, dynkin._bonds):
            cached.cache_clear()
        enumerate_two_bundles(max_rank)
        assert calls == [], max_rank
        info = dynkin._bonds.cache_info()
        assert (info.currsize, info.misses) == (0, 0), max_rank


def test_enumerate_splits_no_diagram(monkeypatch):
    # A-D entries come from closed forms and the 27 bases of E6, E7, E8, F4
    # and G2 from the closed-form splits of the end map: no node set is
    # split by ``_components``, at every rank bound
    calls = []
    components = dynkin._components

    def counting_components(d, nodes):
        calls.append(d.components[0])
        return components(d, nodes)

    for module in (dynkin, homogeneous):
        monkeypatch.setattr(module, "_components", counting_components)
    for max_rank in (20, MAX_RANK):
        calls.clear()
        enumerate_two_bundles.cache_clear()
        homogeneous._fiber_table.cache_clear()
        assert len(enumerate_two_bundles(max_rank)) == len(expected_two_bundle_keys(max_rank))
        assert calls == [], max_rank


def test_enumerate_reads_closed_forms_for_classical_diagrams(monkeypatch):
    # no end map is read on A-D; the end map is read at the 27 bases of
    # E6-8, F4 and G2, and automorphisms only on those 5 diagrams
    calls = Counter()

    def counting(name, original):
        def count(*args):  # a diagram, or the family, rank and base of an end map
            calls[(name, *args[:2])] += 1
            return original(*args)

        return count

    for name in ("_end_map", "automorphisms"):
        monkeypatch.setattr(homogeneous, name, counting(name, getattr(homogeneous, name)))
    exceptional = [dynkin.DynkinDiagram((comp,)) for comp in EXCEPTIONAL]
    for max_rank in (20, MAX_RANK):
        calls.clear()
        enumerate_two_bundles.cache_clear()
        homogeneous._fiber_table.cache_clear()
        assert len(enumerate_two_bundles(max_rank)) == len(expected_two_bundle_keys(max_rank))
        assert calls == {
            **{("_end_map", *comp): comp[1] for comp in EXCEPTIONAL},
            **{("automorphisms", d): 1 for d in exceptional},
        }, max_rank


def test_enumerate_makes_no_per_pair_test(monkeypatch):
    # the catalogue is read off closed forms and the E-G tables, not pair by pair
    calls = []
    monkeypatch.setattr(homogeneous, "is_two_bundle_pair", lambda *args: calls.append(args))
    enumerate_two_bundles.cache_clear()
    homogeneous._fiber_table.cache_clear()
    assert len(enumerate_two_bundles(12)) == 164
    assert calls == []


def test_entry_drum_and_product_dimensions_call_no_dimension(monkeypatch):
    # entry dimensions come from closed forms or the scanned tables, drum
    # dimensions from the fiber tables; P^a x P^b has dim a + b
    calls = []
    for module in (homogeneous, drum, classifier):
        monkeypatch.setattr(module, "dimension", calls.append, raising=False)
    enumerate_two_bundles.cache_clear()
    homogeneous._fiber_table.cache_clear()
    for e in enumerate_two_bundles(12):
        build_drum(e.diagram, e.i, e.j)
        build_drum(e.diagram, e.j, e.i)
    assert _product_entry(2, 3).dim == 5
    assert calls == []


def test_memoized_diagram_properties_keep_equality_and_hash():
    touched, fresh = parse_diagram("B3"), parse_diagram("B3")
    assert touched.nodes == range(1, 4) and touched.rank == 3
    assert touched == fresh and hash(touched) == hash(fresh)
    assert repr(touched) == repr(fresh)


def test_enumerate_rejects_small_rank():
    with pytest.raises(DomainError):
        enumerate_two_bundles(1)
