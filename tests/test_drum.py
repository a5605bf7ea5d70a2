from __future__ import annotations

import pytest

from flagcalc.drum import (
    FixedComponent,
    HorosphericalDrum,
    bandwidth,
    build_drum,
    ledger,
    weyl_dim,
)
from flagcalc.dynkin import automorphisms, parse_diagram, positive_roots, pairing
from flagcalc.errors import DomainError
from flagcalc.homogeneous import MarkedDiagram, dimension, enumerate_two_bundles, is_two_bundle_pair, parse_marked

from oracles import b3_spin_dimension, drum_identification, weyl_dim_fraction


@pytest.mark.parametrize("n", range(1, 9))
def test_weyl_dim_defining_representation(n):
    assert weyl_dim(parse_diagram(f"A{n}"), 1) == n + 1


def test_weyl_dim_b3_spin_matches_orthogonal_basis_oracle():
    oracle = b3_spin_dimension()
    assert oracle.denominator == 1 and int(oracle) == 8
    assert weyl_dim(parse_diagram("B3"), 3) == 8


def test_weyl_dim_g2():
    assert weyl_dim(parse_diagram("G2"), 1) == 7
    assert weyl_dim(parse_diagram("G2"), 2) == 14


def test_weyl_dim_adjoint_oracle():
    # whenever the highest root is a fundamental weight, the corresponding
    # representation is the adjoint one, of dimension 2 * #roots + rank
    for text in ["B3", "B5", "C4", "D4", "D6", "G2", "F4", "E6", "E7", "E8"]:
        d = parse_diagram(text)
        roots = positive_roots(d).roots
        highest = roots[-1]
        coords = [pairing(d, highest, i) for i in d.nodes]
        if sorted(coords) != [0] * (d.rank - 1) + [1]:
            continue
        node = coords.index(1) + 1
        assert weyl_dim(d, node) == 2 * len(roots) + d.rank, text


def test_weyl_dim_known_values():
    assert [weyl_dim(parse_diagram("B3"), k) for k in (1, 2, 3)] == [7, 21, 8]
    assert [weyl_dim(parse_diagram("C3"), k) for k in (1, 2, 3)] == [6, 14, 14]
    assert weyl_dim(parse_diagram("E8"), 8) == 248
    assert [weyl_dim(parse_diagram("D4"), k) for k in (1, 2, 3, 4)] == [8, 28, 8, 8]


def test_weyl_dim_invariant_under_automorphisms():
    for text in ["A4", "A6", "D4", "D5", "E6"]:
        d = parse_diagram(text)
        dims = [weyl_dim(d, k) for k in d.nodes]
        for sigma in automorphisms(d):
            for k in d.nodes:
                assert dims[k - 1] == dims[sigma[k - 1] - 1]


def test_weyl_dim_sanity_floor():
    for text in ["A3", "B4", "C3", "D5", "F4", "G2", "E6"]:
        d = parse_diagram(text)
        for k in d.nodes:
            assert weyl_dim(d, k) >= d.rank + 1


def test_weyl_dim_matches_fraction_oracle():
    # Weyl's formula on the coroots of the dual diagram against the roots with their lengths
    texts = [
        f"{fam}{n}" for fam, lowest in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for n in range(lowest, 13)
    ] + ["E6", "E7", "E8", "F4", "G2"]
    for text in texts:
        d = parse_diagram(text)
        for k in d.nodes:
            assert weyl_dim(d, k) == weyl_dim_fraction(d, k), (text, k)


def test_weyl_dim_rejects_non_integer_node():
    d = parse_diagram("A3")
    assert weyl_dim(d, 1) == 4
    # 1.0 and True equal node 1, but a node must be an int
    for node in (True, 1.0, 2.5):
        with pytest.raises(DomainError):
            weyl_dim(d, node)


def test_weyl_dim_requires_connected():
    with pytest.raises(DomainError):
        weyl_dim(parse_diagram("A1+A1"), 1)
    with pytest.raises(DomainError):
        weyl_dim(parse_diagram("A2"), 3)


def test_build_drum_b3():
    drum = build_drum(parse_diagram("B3"), 1, 3)
    assert drum.dim_y == 8
    assert drum.dim_z == 9
    assert (drum.dim_v_i, drum.dim_v_j) == (7, 8)
    assert drum.ambient_dim == 14
    assert drum.sink.variety.render() == "B3{1}" and drum.sink.mu == 0
    assert drum.source.variety.render() == "B3{3}" and drum.source.mu == 1
    assert drum.sink.dim == 5


def test_build_drum_a2():
    drum = build_drum(parse_diagram("A2"), 1, 2)
    assert (drum.dim_y, drum.dim_z) == (3, 4)
    assert (drum.dim_v_i, drum.dim_v_j) == (3, 3)
    assert drum.ambient_dim == 5


def test_build_drum_g2():
    drum = build_drum(parse_diagram("G2"), 1, 2)
    assert (drum.dim_y, drum.dim_z) == (6, 7)
    assert (drum.dim_v_i, drum.dim_v_j) == (7, 14)
    assert drum.ambient_dim == 20


def test_build_drum_rejects_non_models():
    # the node check, the distinct-node check and the pair test, each with its exact message
    for text, i, j, message in [
        ("A4", True, 2, "nodes must be integers, got (True, 2)"),
        ("A4", 1.0, 2, "nodes must be integers, got (1.0, 2)"),
        ("A4", 1, 5, "nodes [1, 5] not all in diagram A4"),
        ("A4", 2, 2, "(2, 2) is not a pair of distinct nodes of A4"),
        ("A4", 1, 3, "A4{1,3} is not a two-bundle model"),
        ("B3", 1, 2, "B3{1,2} is not a two-bundle model"),
    ]:
        with pytest.raises(DomainError) as raised:
            build_drum(parse_diagram(text), i, j)
        assert str(raised.value) == message, (text, i, j)


def test_build_drum_domain_equals_two_bundle_pairs():
    for text in ["A4", "B3", "C3", "D4", "F4", "G2"]:
        d = parse_diagram(text)
        for i in d.nodes:
            for j in range(i + 1, d.rank + 1):
                valid = is_two_bundle_pair(d, i, j) is not None
                if valid:
                    assert build_drum(d, i, j).dim_z == build_drum(d, i, j).dim_y + 1
                else:
                    with pytest.raises(DomainError):
                        build_drum(d, i, j)


def test_all_drums_have_bandwidth_one_and_one_extra_dimension():
    for entry in enumerate_two_bundles(12):
        d, i, j = entry.diagram, entry.i, entry.j
        drum = build_drum(d, i, j)
        assert drum.dim_z == drum.dim_y + 1
        assert bandwidth(drum) == 1
        # the dimensions come from the fiber tables; check them against ``dimension``
        assert drum.dim_y == dimension(MarkedDiagram(d, (i, j)))
        assert drum.sink.dim == dimension(MarkedDiagram(d, (i,)))
        assert drum.source.dim == dimension(MarkedDiagram(d, (j,)))


def test_bandwidth_degenerate():
    drum = build_drum(parse_diagram("A2"), 1, 2)
    flat = HorosphericalDrum(
        diagram=drum.diagram,
        i=drum.i,
        j=drum.j,
        dim_y=drum.dim_y,
        dim_z=drum.dim_z,
        dim_v_i=drum.dim_v_i,
        dim_v_j=drum.dim_v_j,
        ambient_dim=drum.ambient_dim,
        sink=drum.sink,
        source=FixedComponent(variety=drum.sink.variety, mu=0, dim=drum.sink.dim),
    )
    assert bandwidth(flat) == 0


def test_bandwidth_rejects_non_drums():
    drum = build_drum(parse_diagram("A2"), 1, 2)
    with pytest.raises(TypeError):
        bandwidth(ledger(drum))


def test_ledger_products():
    led = ledger(build_drum(parse_diagram("B3"), 1, 3))
    assert led.product("pi*L-", "ell-") == 0
    assert led.product("pi*L+", "ell+") == 0
    assert led.product("pi*L-", "ell+") == 1
    assert led.product("pi*L+", "ell-") == 1
    assert led.product("Y+", "ell+") == 0
    assert led.product("Y+", "ell-") == 1
    assert led.product("Y-", "ell-") == 0
    assert led.product("Y-", "ell+") == 1


def test_ledger_identities():
    led = ledger(build_drum(parse_diagram("C3"), 1, 2))
    alpha = led.vector("alpha*L")
    for sign, exceptional, pulled in (("+", "Y+", "pi*L-"), ("-", "Y-", "pi*L+")):
        assert led.vector(exceptional) == tuple(
            a - b for a, b in zip(alpha, led.vector(pulled))
        ), sign
        assert led.vector(f"M{sign}") == tuple(
            a - b for a, b in zip(alpha, led.vector(exceptional))
        )
    assert led.m_plus_nef and led.m_minus_nef


def test_every_drum_gets_one_ledger_with_nef_flags_read_off_its_table():
    ledgers = {ledger(build_drum(e.diagram, e.i, e.j)) for e in enumerate_two_bundles(12)}
    assert len(ledgers) == 1
    (led,) = ledgers
    for sign, flag in (("+", led.m_plus_nef), ("-", led.m_minus_nef)):
        assert flag == all(led.product(f"M{sign}", curve) >= 0 for curve in ("ell-", "ell+"))


def test_ledger_rejects_non_drums():
    with pytest.raises(TypeError):
        ledger(parse_diagram("A2"))


def test_drums_match_their_identification_oracle():
    entries = enumerate_two_bundles(12)
    assert len(entries) == 164
    for entry in entries:
        ((family, n),) = entry.diagram.components
        drum = build_drum(entry.diagram, entry.i, entry.j)
        target = drum_identification(family, n, entry.i, entry.j)
        if isinstance(target, str):
            m = parse_marked(target)
            assert drum.dim_z == dimension(m), (entry.render(), target)
            assert drum.ambient_dim + 1 == weyl_dim(m.diagram, *m.marks), (entry.render(), target)
        else:
            assert drum.dim_z == target, entry.render()


def test_ledger_table_consistent_with_vectors():
    led = ledger(build_drum(parse_diagram("G2"), 1, 2))
    base = {"alpha*L": (1, 1), "pi*L-": (0, 1), "pi*L+": (1, 0)}
    for (name, curve), value in led.table:
        vec = led.vector(name)
        idx = 0 if curve == "ell-" else 1
        expected = sum(
            c * base[b][idx] for c, b in zip(vec, ("alpha*L", "pi*L-", "pi*L+"))
        )
        assert value == expected
