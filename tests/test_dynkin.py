from __future__ import annotations

import random
import re

import pytest

from flagcalc.dynkin import (
    _NORMALIZED_RANKS,
    MAX_RANK,
    DynkinDiagram,
    automorphisms,
    cartan_matrix,
    pairing,
    parse_diagram,
    parse_ints,
    positive_roots,
    subdiagram,
    weyl_order,
)
from flagcalc.errors import DomainError, ParseError
from flagcalc.homogeneous import MarkedDiagram, parse_marked
from flagcalc.tags import Tag, parse_tag

from oracles import (
    bfs_group_order,
    cartan_matrix_by_blocks,
    closed_form_root_count,
    ints_by_entry_regex,
    ints_by_split,
    isomorphisms,
    positive_roots_by_strings,
    reflection_closure,
    subdiagram_by_search,
)

ALL_CONNECTED = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(2, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
# every connected diagram of the normalized table, up to the rank ceiling
EVERY_CONNECTED = [
    DynkinDiagram(((fam, n),))
    for fam, (lowest, highest) in _NORMALIZED_RANKS.items()
    for n in range(lowest, (highest or MAX_RANK) + 1)
]


def test_parse_simple():
    d = parse_diagram("A2")
    assert d.components == (("A", 2),)
    assert list(d.nodes) == [1, 2]


def test_parse_products_and_separators():
    assert parse_diagram("A2+A1") == parse_diagram("A2⊔A1")
    assert parse_diagram("A2 + A1").components == (("A", 2), ("A", 1))


@pytest.mark.parametrize(
    "text,expected",
    [("B1", "A1"), ("C1", "A1"), ("D2", "A1+A1"), ("D3", "A3")],
)
def test_low_rank_coincidences(text, expected):
    assert parse_diagram(text).render() == expected


def test_d3_coincidence_oracle():
    # The raw rank-3 D matrix (center node 1 joined to nodes 2 and 3) is a
    # relabeling of the A3 matrix, which justifies the normalization.
    raw_d3 = ((2, -1, -1), (-1, 2, 0), (-1, 0, 2))
    a3 = cartan_matrix(parse_diagram("A3"))
    perm = (2, 1, 3)  # raw node -> chain position
    relabeled = tuple(
        tuple(raw_d3[a][b] for b in (perm.index(q + 1) for q in range(3)))
        for a in (perm.index(p + 1) for p in range(3))
    )
    assert relabeled == a3


def test_normalization_idempotent():
    for text in ALL_CONNECTED + ["D2", "D3", "B1", "A2+D3", "C1+B2"]:
        d = parse_diagram(text)
        assert parse_diagram(d.render()) == d


@pytest.mark.parametrize(
    "bad", ["A0", "B0", "C0", "D0", "D1", "E5", "E9", "E10", "F3", "G3", "H2", "", "A", "2A", "A2++A1"]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_diagram(bad)


def test_parse_rejects_rank_above_ceiling():
    assert parse_diagram(f"A{MAX_RANK}").rank == MAX_RANK == 100
    assert parse_diagram("D3+A97").rank == MAX_RANK
    for text in [f"A{MAX_RANK + 1}", "A50+A51", "D3+A98", "A1000000", "B3+A99999999999"]:
        with pytest.raises(DomainError, match="above the ceiling 100") as info:
            parse_diagram(text)
        assert type(info.value) is DomainError, text


# digits, separators, signs, what ``int`` reads but the grammar does not (``_``,
# ``٣``), junk, the four separators U+001C-U+001F and three non-ASCII spaces
GRAMMAR_ALPHABET = [*"0123456789", *", \t+-_\u0663x", *"\x1c\x1d\x1e\x1f", *"\xa0\u2007\u3000"]


def _outcome(call):
    """The value of ``call()``, or the type of the ``ValueError`` it raises (``DomainError`` is one)."""
    try:
        return call()
    except ValueError as exc:
        return type(exc)


def _split_reader_outcome(body: str, build):
    """What a mark or tag list ``body`` gave when the split reader read it: ``build(values)`` or an error type."""
    if not re.fullmatch(r"[0-9,\s]+", body):  # the outer mark and tag grammar
        return ParseError
    try:
        values = ints_by_split(body)
    except ValueError:
        return ParseError
    return _outcome(lambda: build(values))


def test_parse_ints_agrees_with_the_readers_it_replaced():
    rng = random.Random(23)
    texts = sorted({"".join(rng.choices(GRAMMAR_ALPHABET, k=rng.randint(0, 6))) for _ in range(3000)})
    assert len(texts) >= 2000
    a9 = DynkinDiagram((("A", 9),))
    for text in texts:
        try:
            expected = ints_by_entry_regex(text)
        except ValueError:  # the CLI reader crashed: only on U+001C-U+001F, which parse_ints rejects
            assert re.search("[\x1c-\x1f]", text) and parse_ints(text) is None, repr(text)
        else:
            assert parse_ints(text) == expected, repr(text)
        assert _outcome(lambda: parse_marked(f"A9{{{text}}}")) == _split_reader_outcome(
            text, lambda values: MarkedDiagram(a9, values)
        ), repr(text)
        # a tag on A_k, k its entry count
        a_k = DynkinDiagram((("A", text.count(",") + 1),))
        assert _outcome(lambda: parse_tag(f"{a_k}:{text}")) == _split_reader_outcome(
            text, lambda values: Tag(a_k, values)
        ), repr(text)


def test_cartan_anchors():
    assert cartan_matrix(parse_diagram("A2")) == ((2, -1), (-1, 2))
    assert cartan_matrix(parse_diagram("G2")) == ((2, -1), (-3, 2))
    assert cartan_matrix(parse_diagram("A1+A1")) == ((2, 0), (0, 2))
    assert cartan_matrix(parse_diagram("B2")) == ((2, -2), (-1, 2))
    assert cartan_matrix(parse_diagram("C2")) == ((2, -1), (-2, 2))
    assert cartan_matrix(parse_diagram("F4")) == (
        (2, -1, 0, 0),
        (-1, 2, -2, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_block_diagonal():
    c = cartan_matrix(parse_diagram("A2+B2"))
    assert c[0][2] == c[2][0] == 0
    assert c[2][3] == -2 and c[3][2] == -1


def test_cartan_invariants():
    for text in ALL_CONNECTED:
        c = cartan_matrix(parse_diagram(text))
        n = len(c)
        for i in range(n):
            assert c[i][i] == 2
            for j in range(n):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)


def test_cartan_matrix_matches_dense_block_oracle():
    # rendered from the bond table, against dense blocks written entry by entry
    unions = [parse_diagram(text) for text in ("A2+B2", "D4+C2", "G2+F4+A1", "E8+E6")]
    for d in EVERY_CONNECTED + unions:
        assert cartan_matrix(d) == cartan_matrix_by_blocks(d), d


@pytest.mark.parametrize("component", [("D", 2), ("B", 1), ("E", 9), ("F", 5), ("X", 3)])
def test_cartan_matrix_rejects_components_outside_normalized_table(component):
    with pytest.raises(DomainError):
        cartan_matrix(DynkinDiagram((component,)))


def test_positive_roots_a2():
    assert positive_roots(parse_diagram("A2")).roots == ((0, 1), (1, 0), (1, 1))


def test_positive_roots_g2():
    roots = positive_roots(parse_diagram("G2")).roots
    assert len(roots) == 6
    assert max(sum(r) for r in roots) == 5
    assert roots[-1] == (3, 2)


def test_positive_roots_counts_match_closed_forms():
    for text in ALL_CONNECTED:
        d = parse_diagram(text)
        fam, rank = d.components[0]
        assert len(positive_roots(d).roots) == closed_form_root_count(fam, rank), text


def test_positive_roots_match_reflection_closure_oracle():
    for text in ["A1", "A4", "B2", "B4", "C3", "C5", "D4", "D5", "G2", "F4", "E6"]:
        d = parse_diagram(text)
        assert set(positive_roots(d).roots) == reflection_closure(cartan_matrix(d)), text


def test_positive_roots_match_string_walk_oracle():
    connected = (
        [f"A{n}" for n in range(1, 21)]
        + [f"{fam}{n}" for fam in "BC" for n in range(2, 21)]
        + [f"D{n}" for n in range(4, 21)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    for text in connected + ["A2+A1", "B3+A2", "D4+C2", "G2+F4+A1", "E8+E6"]:
        d = parse_diagram(text)
        assert positive_roots(d) == positive_roots_by_strings(d), text


def test_positive_roots_contain_simples_and_are_sorted():
    for text in ["A3", "B3", "D4", "G2", "A2+B2"]:
        d = parse_diagram(text)
        roots = positive_roots(d).roots
        for i in d.nodes:
            assert tuple(int(k == i) for k in d.nodes) in roots
        assert list(roots) == sorted(roots, key=lambda r: (sum(r), r))


def test_reflections_send_roots_to_signed_roots():
    for text in ["A4", "B3", "C4", "D5", "F4", "G2"]:
        d = parse_diagram(text)
        roots = set(positive_roots(d).roots)
        signed = roots | {tuple(-x for x in r) for r in roots}
        for beta in roots:
            for i in d.nodes:
                image = list(beta)
                image[i - 1] -= pairing(d, beta, i)
                assert tuple(image) in signed


def test_reflection_closure_rule_holds_inside_list():
    for text in ["A5", "B4", "D5", "F4"]:
        d = parse_diagram(text)
        roots = set(positive_roots(d).roots)
        for beta in roots:
            for i in d.nodes:
                image = list(beta)
                image[i - 1] -= pairing(d, beta, i)
                vec = tuple(image)
                if all(x >= 0 for x in vec):
                    assert vec in roots


def test_weyl_order_values():
    assert weyl_order(parse_diagram("A1")) == 2
    assert weyl_order(parse_diagram("F4")) == 1152
    assert weyl_order(parse_diagram("B3")) == 48
    assert weyl_order(parse_diagram("E8")) == 696729600
    assert weyl_order(parse_diagram("A2+A1")) == 12


def test_weyl_order_against_bfs_oracle():
    for text in ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "A1+A1", "A1+B2"]:
        d = parse_diagram(text)
        assert bfs_group_order(cartan_matrix(d)) == weyl_order(d), text


def test_weyl_order_e8_exceeds_32_bits():
    assert weyl_order(parse_diagram("E8")) > 2**29


def test_automorphisms():
    assert automorphisms(parse_diagram("A1")) == ((1,),)
    assert automorphisms(parse_diagram("A3")) == ((1, 2, 3), (3, 2, 1))
    assert len(automorphisms(parse_diagram("D4"))) == 6
    assert all(s[1] == 2 for s in automorphisms(parse_diagram("D4")))
    assert automorphisms(parse_diagram("E6")) == ((1, 2, 3, 4, 5, 6), (6, 2, 5, 4, 3, 1))
    assert automorphisms(parse_diagram("B3")) == ((1, 2, 3),)
    assert automorphisms(parse_diagram("G2")) == ((1, 2),)
    with pytest.raises(DomainError):
        automorphisms(parse_diagram("A1+A1"))


def test_automorphisms_match_search_oracle():
    for text in ALL_CONNECTED:
        d = parse_diagram(text)
        c = cartan_matrix(d)
        found = sorted(tuple(p + 1 for p in perm) for perm in isomorphisms(c, c, find_all=True))
        assert automorphisms(d) == tuple(found), text


def test_subdiagram_matches_search_oracle_on_every_node_subset():
    # The generic search reports the lexicographically smallest isomorphism
    # onto the first candidate family, which names a rank-2 double bond B2.
    for text in [t for t in ALL_CONNECTED if parse_diagram(t).rank <= 8]:
        d = parse_diagram(text)
        c = cartan_matrix(d)
        for mask in range(1, 2**d.rank):
            nodes = [a for a in d.nodes if mask >> (a - 1) & 1]
            sub, node_map = subdiagram(d, nodes)
            assert (sub.components, node_map) == subdiagram_by_search(c, nodes), (text, nodes)


def test_subdiagram_e7_tail_is_d6():
    sub, node_map = subdiagram(parse_diagram("E7"), range(2, 8))
    assert sub.render() == "D6"
    assert node_map == {2: 5, 3: 6, 4: 4, 5: 3, 6: 2, 7: 1}


def test_automorphisms_preserve_cartan():
    for text in ["A5", "D4", "D6", "E6"]:
        d = parse_diagram(text)
        c = cartan_matrix(d)
        for sigma in automorphisms(d):
            for a in d.nodes:
                for b in d.nodes:
                    assert c[sigma[a - 1] - 1][sigma[b - 1] - 1] == c[a - 1][b - 1]


def test_subdiagram_b3():
    sub, node_map = subdiagram(parse_diagram("B3"), [2, 3])
    assert sub.render() == "B2"
    assert node_map == {2: 1, 3: 2}


def test_subdiagram_f4_tail_is_c3():
    sub, node_map = subdiagram(parse_diagram("F4"), [2, 3, 4])
    assert sub.render() == "C3"
    assert node_map == {2: 3, 3: 2, 4: 1}


def test_subdiagram_splits_components():
    sub, node_map = subdiagram(parse_diagram("A4"), [1, 3, 4])
    assert sub.render() == "A1+A2"
    assert node_map[1] == 1 and {node_map[3], node_map[4]} == {2, 3}


def test_subdiagram_d5_branch_removal():
    sub, _ = subdiagram(parse_diagram("D5"), [1, 2, 3, 5])
    assert sub.render() == "A4"


def test_subdiagram_of_e8_contains_d7():
    sub, _ = subdiagram(parse_diagram("E8"), [2, 3, 4, 5, 6, 7, 8])
    assert sub.render() == "D7"


def test_subdiagram_errors():
    with pytest.raises(DomainError):
        subdiagram(parse_diagram("A3"), [])
    with pytest.raises(DomainError):
        subdiagram(parse_diagram("A3"), [4])
