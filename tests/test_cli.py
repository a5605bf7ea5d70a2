from __future__ import annotations

import io
import json
from pathlib import Path

from flagcalc.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv: str) -> dict:
    code, text = run_cli(*argv, "--format", "json")
    assert code == 0, text
    return json.loads(text)


def test_roots_text():
    code, text = run_cli("roots", "G2")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "G2: 6 positive roots, Weyl order 12"
    assert "  5 (3, 2)" in lines


def test_roots_json_schema():
    payload = run_json("roots", "A2")
    assert payload["schema"] == 1
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["positive_roots"] == [[0, 1], [1, 0], [1, 1]]
    assert payload["count"] == 3 and payload["weyl_order"] == 6


def test_gp_dim():
    code, text = run_cli("gp", "dim", "B3{1,3}")
    assert code == 0 and text == "B3{1,3}: dim 8, picard 2\n"
    payload = run_json("gp", "dim", "B3{1,3}")
    assert payload["dim"] == 8 and payload["picard"] == 2
    assert payload["family"] == "B" and payload["marks"] == [1, 3]


def test_gp_fiber():
    code, text = run_cli("gp", "fiber", "B3{1,3}", "--base", "1")
    assert code == 0
    assert text == "fiber of B3{1,3} -> B3{1}: B2{2} (dim 3)\n"
    payload = run_json("gp", "fiber", "F4{2,3}", "--base", "3")
    assert payload["fiber"]["diagram"] == "A2"
    assert payload["fiber"]["marks"] == [2]
    assert payload["dropped"] == "A1"


def test_enumerate_text_and_alias():
    code, text = run_cli("enumerate", "--max-rank", "2")
    assert code == 0
    assert text.splitlines() == [
        "A2{1,2}  r-=1 r+=1 dim=3",
        "B2{1,2}  r-=1 r+=1 dim=4",
        "G2{1,2}  r-=1 r+=1 dim=6",
        "total: 3",
    ]
    _, via_gp = run_cli("gp", "enumerate", "--max-rank", "2")
    assert via_gp == text


def test_enumerate_json_rank4():
    payload = run_json("enumerate", "--max-rank", "4")
    names = {(e["diagram"], tuple(e["marks"])) for e in payload["entries"]}
    assert ("D4", (3, 4)) in names
    assert ("F4", (2, 3)) in names
    assert all(m != ("C2", (1, 2)) for m in names)


def test_tag_reduce():
    code, text = run_cli("tag", "reduce", "A3:2,0,2")
    assert code == 0 and text == "C2:2,0\n"
    code, text = run_cli("tag", "reduce", "A2:1,1")
    assert code == 0 and text == "no reduction: rank even\n"
    code, text = run_cli("tag", "reduce", "A3:1,0,2")
    assert code == 0 and text == "no reduction: tag is not palindromic\n"


def test_tag_restrict():
    code, text = run_cli("tag", "restrict", "A3:1,0,2", "--marks", "2")
    assert code == 0 and text == "A1+A1:1,2 (node map: 1->1, 3->2)\n"
    # a C2 piece is named B2 with its nodes swapped
    code, text = run_cli("tag", "restrict", "C3:1,2,3", "--marks", "1")
    assert code == 0 and text == "B2:3,2 (node map: 2->2, 3->1)\n"
    payload = run_json("tag", "restrict", "A5:1,2,3,4,5", "--marks", "1")
    assert payload["restricted"] == "A4:2,3,4,5"


def test_tag_shape():
    assert run_cli("tag", "shape", "A4:3,0,0,0") == (0, "FirstNodeOnly(d=3)\n")
    assert run_cli("tag", "shape", "A3:2,0,2") == (
        0,
        "SymmetricEnds(d=2), reduction C2:2,0\n",
    )
    assert run_cli("tag", "shape", "A3:0,1,0") == (0, "Other\n")


def test_classify():
    code, text = run_cli(
        "classify", "--r-minus", "1", "--r-plus", "1",
        "--tag-minus", "1", "--tag-plus", "3", "--max-rank", "8",
    )
    assert code == 0
    assert text.splitlines() == [
        "shape check: pass (first_node_only, d=3)",
        "match: G2{1,2} (direct)",
    ]
    payload = run_json(
        "classify", "--r-minus", "1", "--r-plus", "1",
        "--tag-minus", "0", "--tag-plus", "0", "--max-rank", "8",
    )
    assert payload["matches"][0]["product"] is True


def test_drum_build():
    payload = run_json("drum", "build", "B3", "1", "3")
    assert payload["dim_y"] == 8 and payload["dim_z"] == 9
    assert payload["ambient_dim"] == 14 and payload["bandwidth"] == 1
    assert payload["sink"] == {"variety": "B3{1}", "mu": 0, "dim": 5}


def test_drum_ledger():
    payload = run_json("drum", "ledger", "A2", "1", "2")
    assert payload["table"]["pi*L-"] == {"ell-": 0, "ell+": 1}
    assert payload["table"]["pi*L+"] == {"ell-": 1, "ell+": 0}
    assert payload["table"]["Y+"] == {"ell-": 1, "ell+": 0}
    assert payload["m_plus_nef"] is True


def test_exit_codes(capsys):
    code, _ = run_cli("roots", "Z9")
    assert code == 1
    code, _ = run_cli("roots", "E5")
    assert code == 1
    code, _ = run_cli("drum", "build", "A4", "1", "3")
    assert code == 1
    # a node argument outside the typed diagram is a domain error
    for argv in (
        ("drum", "build", "D3", "2", "4"),
        ("gp", "fiber", "D3{2,3}", "--base", "0"),
        ("tag", "restrict", "D3:1,2,3", "--marks", "4"),
    ):
        assert run_cli(*argv) == (1, ""), argv
    code, _ = run_cli("nonsense")
    assert code == 2
    code, _ = run_cli()
    assert code == 2
    # an empty mark entry is a parse error with a one-line message
    capsys.readouterr()
    for text in ("B3{1,,3}", "B3{,1}"):
        assert run_cli("gp", "dim", text) == (1, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), text
    # a relative dimension <= 0 is named as such, not as a tag on A0 or A-1
    for r in ("0", "-1"):
        argv = ("classify", "--r-minus", r, "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3")
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: relative dimensions must be positive"], r
    # a malformed integer list is a usage error with a one-line message
    for argv in (
        ("gp", "fiber", "B3{1,3}", "--base", "x"),
        ("tag", "restrict", "A3:1,0,2", "--marks", "1,,2"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "a", "--tag-plus", "3"),
    ):
        assert run_cli(*argv) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv


def test_node_arguments_follow_the_typed_numbering():
    # D3 is read as A3 with its nodes 1 and 2 swapped
    for typed, normalized in (
        (("drum", "build", "D3", "2", "3"), ("drum", "build", "A3", "1", "3")),
        (("drum", "ledger", "D3", "2", "3"), ("drum", "ledger", "A3", "1", "3")),
        (("gp", "fiber", "D3{2,3}", "--base", "2"), ("gp", "fiber", "A3{1,3}", "--base", "1")),
        (("tag", "restrict", "D3:1,2,3", "--marks", "1"), ("tag", "restrict", "A3:2,1,3", "--marks", "2")),
    ):
        for fmt in ("text", "json"):
            expected = run_cli(*normalized, "--format", fmt)
            assert expected[0] == 0
            assert run_cli(*typed, "--format", fmt) == expected, typed


def test_output_is_deterministic():
    for argv in (
        ("enumerate", "--max-rank", "6", "--format", "json"),
        ("roots", "F4", "--format", "json"),
        ("drum", "ledger", "B3", "1", "3", "--format", "json"),
        ("classify", "--r-minus", "1", "--r-plus", "2", "--tag-minus", "1", "--tag-plus", "1,0"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_enumerate_rank12_matches_golden_fixture():
    _, text = run_cli("enumerate", "--max-rank", "12", "--format", "json")
    golden = (FIXTURES / "enumerate_rank12.json").read_text(encoding="utf-8")
    assert text == golden


def test_json_outputs_match_golden_fixtures():
    for argv, name in (
        (("roots", "G2"), "roots_g2.json"),
        (("drum", "ledger", "B3", "1", "3"), "drum_ledger_b3_1_3.json"),
    ):
        _, text = run_cli(*argv, "--format", "json")
        assert text == (FIXTURES / name).read_text(encoding="utf-8"), name
