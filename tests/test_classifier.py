from __future__ import annotations

from itertools import product

import pytest

from flagcalc.classifier import (
    HomogeneousModel,
    TwoBundleData,
    _product_entry,
    check_shape_constraint,
    homogeneous_tags,
    match_model,
)
from flagcalc.dynkin import MAX_RANK, parse_diagram
from flagcalc.errors import DomainError
from flagcalc.homogeneous import enumerate_two_bundles
from flagcalc.tags import (
    FIRST_NODE_ONLY,
    OTHER,
    SYMMETRIC_ENDS,
    classify_tag_shape,
    parse_tag,
    tag_from_splitting,
)

from oracles import (
    adjacent_flag_degrees,
    cotangent_line_degrees,
    point_hyperplane_degrees,
    side_tag_by_roots,
)


def tags_of(text: str, i: int, j: int):
    pair = homogeneous_tags(parse_diagram(text), i, j)
    return pair.plus.values, pair.minus.values


def test_anchor_tags():
    assert tags_of("A2", 1, 2) == ((1,), (1,))
    assert tags_of("C2", 1, 2) == ((2,), (1,))
    assert tags_of("G2", 1, 2) == ((3,), (1,))
    assert tags_of("B2", 1, 2) == ((1,), (2,))


@pytest.mark.parametrize("n", range(2, 7))
def test_a_n_point_line_flag_long_side(n):
    plus, minus = tags_of(f"A{n}", 1, 2)
    assert plus == (1,) + (0,) * (n - 2)
    assert minus == (1,)


@pytest.mark.parametrize("n", range(2, 7))
def test_euler_oracle_point_line_flag(n):
    plus, minus = tags_of(f"A{n}", 1, 2)
    assert plus == tag_from_splitting(cotangent_line_degrees(n)).values
    oracle_plus, oracle_minus = adjacent_flag_degrees(n, 1)
    assert plus == tag_from_splitting(oracle_plus).values
    assert minus == tag_from_splitting(oracle_minus).values


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 7) for r in range(1, n)])
def test_euler_oracle_adjacent_flags(n, r):
    plus, minus = tags_of(f"A{n}", r, r + 1)
    oracle_plus, oracle_minus = adjacent_flag_degrees(n, r)
    assert plus == tag_from_splitting(oracle_plus).values
    assert minus == tag_from_splitting(oracle_minus).values


@pytest.mark.parametrize("n", range(2, 7))
def test_euler_oracle_point_hyperplane(n):
    plus, minus = tags_of(f"A{n}", 1, n)
    oracle_plus, oracle_minus = point_hyperplane_degrees(n)
    assert plus == tag_from_splitting(oracle_plus).values
    assert minus == tag_from_splitting(oracle_minus).values


def test_symplectic_models_have_symmetric_end_tags():
    # the plus-side fiber of C_n{1,2} is an odd projective space of dimension
    # 2n-3 and its tag is the palindrome (1, 0, ..., 0, 1); at n=2 the two
    # ends coincide and the values add up
    assert tags_of("C2", 1, 2)[0] == (2,)
    for n in range(3, 7):
        plus, minus = tags_of(f"C{n}", 1, 2)
        assert plus == (1,) + (0,) * (2 * n - 5) + (1,)
        assert minus == (1,)


def test_homogeneous_tags_rejects_non_models():
    # the node check, the distinct-node check and the pair test, each with its exact message
    for text, i, j, message in [
        ("A4", True, 2, "nodes must be integers, got (True, 2)"),
        ("A4", 1.0, 2, "nodes must be integers, got (1.0, 2)"),
        ("A4", 1, 5, "nodes [1, 5] not all in diagram A4"),
        ("A4", 2, 2, "(2, 2) is not a pair of distinct nodes of A4"),
        ("A4", 1, 3, "A4{1,3} does not carry two projective bundle structures"),
        ("B3", 1, 2, "B3{1,2} does not carry two projective bundle structures"),
    ]:
        with pytest.raises(DomainError) as raised:
            homogeneous_tags(parse_diagram(text), i, j)
        assert str(raised.value) == message, (text, i, j)


def test_homogeneous_tags_accepts_coincidence_forms():
    # C2{1,2} is enumerated as B2{1,2}; the tags are still computable on the
    # C2 presentation and agree with the B2 ones under the node swap
    assert tags_of("C2", 1, 2) == tuple(reversed(tags_of("B2", 1, 2)))


def test_homogeneous_tags_match_root_scan_oracle():
    # the closed form against the scan of the whole root list, both orientations
    models = [(e.diagram, e.i, e.j) for e in enumerate_two_bundles(20)]
    models.append((parse_diagram("C2"), 1, 2))
    for a in range(1, 5):
        for b in range(1, 5):
            e = _product_entry(a, b)
            models.append((e.diagram, e.i, e.j))
    for d, i, j in models:
        for base, other in ((i, j), (j, i)):
            pair = homogeneous_tags(d, base, other)
            assert pair.plus == side_tag_by_roots(d, base, other), (d, base, other)
            assert pair.minus == side_tag_by_roots(d, other, base), (d, other, base)


def test_swap_symmetry():
    for entry in enumerate_two_bundles(6):
        pair = homogeneous_tags(entry.diagram, entry.i, entry.j)
        swapped = homogeneous_tags(entry.diagram, entry.j, entry.i)
        assert pair.plus == swapped.minus
        assert pair.minus == swapped.plus


def test_tag_ranks_match_relative_dimensions():
    for entry in enumerate_two_bundles(8):
        pair = homogeneous_tags(entry.diagram, entry.i, entry.j)
        assert pair.plus.diagram.components == (("A", entry.r_plus),)
        assert pair.minus.diagram.components == (("A", entry.r_minus),)


def test_two_bundle_data_validation():
    with pytest.raises(DomainError):
        TwoBundleData.from_values(1, 2, (1,), (1,))
    data = TwoBundleData.from_values(1, 2, (1,), (1, 0))
    assert data.delta_plus.values == (1, 0)
    # built directly, the record checks the same conditions
    with pytest.raises(DomainError, match="relative dimensions must be positive"):
        TwoBundleData(r_minus=0, r_plus=2, delta_minus=data.delta_minus, delta_plus=data.delta_plus)
    with pytest.raises(DomainError, match="delta_plus must live on A2, got A3"):
        TwoBundleData(r_minus=1, r_plus=2, delta_minus=data.delta_minus, delta_plus=parse_tag("A3:1,0,0"))


def test_check_shape_constraint_cases():
    v = check_shape_constraint(TwoBundleData.from_values(1, 3, (1,), (1, 0, 0)))
    assert v.passed and v.shape.kind == FIRST_NODE_ONLY and v.shape.d == 1
    v = check_shape_constraint(TwoBundleData.from_values(1, 3, (1,), (2, 0, 2)))
    assert v.passed and v.shape.kind == SYMMETRIC_ENDS and v.shape.d == 2
    assert v.shape.reduction is not None and v.shape.reduction.values == (2, 0)
    v = check_shape_constraint(TwoBundleData.from_values(1, 3, (1,), (0, 1, 0)))
    assert not v.passed and v.shape.kind == OTHER
    assert v.reason is not None


def test_relative_dimensions_must_be_positive_ints():
    # True and 1.0 equal 1, so unchecked they would build the tags ATrue:1 and A1.0:1, which match G2{1,2}
    tag_1 = parse_tag("A1:1")
    for r in (True, 1.0, "1"):
        for args in ((r, 1, (1,), (3,)), (1, r, (1,), (3,))):
            with pytest.raises(DomainError, match="relative dimensions must be integers"):
                TwoBundleData.from_values(*args)
        with pytest.raises(DomainError, match="relative dimensions must be integers"):
            TwoBundleData(r, 1, tag_1, tag_1)
        with pytest.raises(DomainError, match="relative dimensions must be integers"):
            TwoBundleData(1, 1, tag_1, tag_1)._replace(r_plus=r)
    assert TwoBundleData(1, 1, tag_1, tag_1) == TwoBundleData.from_values(1, 1, (1,), (1,))


def test_check_shape_constraint_agrees_with_the_tag_shape_on_every_small_tag():
    # every tag on A1-A6 with values 0-2: it passes exactly when its shape is not OTHER, and a
    # failing tag has a value past node 1, so its reason starts with the first-node clause
    count = 0
    for r in range(1, 7):
        for values in product(range(3), repeat=r):
            data = TwoBundleData.from_values(1, r, (0,), values)
            verdict = check_shape_constraint(data)
            assert verdict.shape == classify_tag_shape(data.delta_plus), values
            assert verdict.passed == (verdict.shape.kind != OTHER) == (verdict.reason is None), values
            if not verdict.passed:
                assert verdict.reason.startswith("first-node clause: support extends past node 1; "), values
            count += 1
    assert count == 1092


def test_check_shape_constraint_requires_line_fibers():
    with pytest.raises(DomainError):
        check_shape_constraint(TwoBundleData.from_values(2, 3, (1, 0), (1, 0, 0)))


def test_models_with_line_fibers_pass_the_shape_check():
    for entry in enumerate_two_bundles(12):
        pair = homogeneous_tags(entry.diagram, entry.i, entry.j)
        if entry.r_minus == 1:
            data = TwoBundleData(1, entry.r_plus, pair.minus, pair.plus)
            assert check_shape_constraint(data).passed, entry.render()
        if entry.r_plus == 1:
            data = TwoBundleData(1, entry.r_minus, pair.plus, pair.minus)
            assert check_shape_constraint(data).passed, entry.render()


def test_match_model_g2():
    data = TwoBundleData.from_values(1, 1, (1,), (3,))
    matches = match_model(data, 8)
    assert [(m.entry.render(), m.orientation) for m in matches] == [("G2{1,2}", "direct")]


def test_match_model_product():
    data = TwoBundleData.from_values(1, 1, (0,), (0,))
    matches = match_model(data, 8)
    assert len(matches) == 1 and matches[0].product
    assert matches[0].entry.render() == "A1+A1{1,2}"
    data = TwoBundleData.from_values(2, 3, (0, 0), (0, 0, 0))
    matches = match_model(data, 8)
    assert matches[0].entry.render() == "A2+A3{1,3}"
    assert matches[0].entry.dim == 5


def test_match_model_point_line_flags():
    for n in range(3, 7):
        data = TwoBundleData.from_values(1, n - 1, (1,), (1,) + (0,) * (n - 2))
        matches = match_model(data, 8)
        names = {m.entry.render() for m in matches}
        assert f"A{n}{{1,2}}" in names
        # the flipped presentation of the same flag matches with swapped
        # orientation; nothing else does
        assert names <= {f"A{n}{{1,2}}", f"A{n}{{{n-1},{n}}}"}


def test_match_model_swapped_orientation():
    data = TwoBundleData.from_values(1, 1, (1,), (2,))
    matches = match_model(data, 8)
    assert [(m.entry.render(), m.orientation) for m in matches] == [("B2{1,2}", "swapped")]


def test_match_model_no_match():
    data = TwoBundleData.from_values(1, 1, (5,), (7,))
    assert match_model(data, 8) == ()


def test_match_model_rank_bound_validated():
    # the bound limits the catalogue by rank alone: A5{1,2} lies past rank 4, and 1 is no bound
    data = TwoBundleData.from_values(1, 4, (1,), (1, 0, 0, 0))
    assert match_model(data, 4) == ()
    assert [(m.entry.render(), m.orientation) for m in match_model(data, 5)] == [
        ("A5{1,2}", "direct"), ("A5{4,5}", "swapped")
    ]
    with pytest.raises(DomainError, match="max_rank must be at least 2"):
        match_model(data, 1)


def test_match_model_lists_every_model_at_its_own_rank():
    # a relative dimension may exceed the rank (C_n{1,2} has r_plus = 2n - 3): 31
    # models of rank <= 12 have max(r_minus, r_plus) >= max(2, rank), and C100{1,2}
    # has r_plus = 197, above the rank ceiling
    entries = enumerate_two_bundles(12)
    assert sum(max(e.r_minus, e.r_plus) >= max(2, e.diagram.rank) for e in entries) == 31
    c100 = next(e for e in enumerate_two_bundles(MAX_RANK) if e.render() == "C100{1,2}")
    assert (c100.r_minus, c100.r_plus) == (1, 197)
    for e in (*entries, c100):
        tags = homogeneous_tags(e.diagram, e.i, e.j)
        data = TwoBundleData(e.r_minus, e.r_plus, tags.minus, tags.plus)
        matches = match_model(data, max(2, e.diagram.rank))
        assert (e, "direct") in {(m.entry, m.orientation) for m in matches}, e.render()


def test_match_model_deterministic():
    data = TwoBundleData.from_values(1, 2, (1,), (1, 0))
    assert match_model(data, 10) == match_model(data, 10)
