from __future__ import annotations

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

from flagcalc import cli, homogeneous
from flagcalc.cli import main
from flagcalc.dynkin import DynkinDiagram
from flagcalc.errors import QUOTE_LIMIT, DomainError, quote

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
# The last stderr line of a failed request: main's own or argparse's (prefixed by the prog).
ERROR_LINE = re.compile(r"(flagcalc[\w ]*: )?error: ")


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src`` first on its path."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env={**os.environ, "PYTHONPATH": path}, timeout=60
    )


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


def test_tag_text_and_json_build_one_payload(monkeypatch):
    # a tag request builds its zeros and support in either format; only JSON prints them
    calls = []
    zero_data = cli.tags_mod.zero_data
    monkeypatch.setattr(cli.tags_mod, "zero_data", lambda t: calls.append(t) or zero_data(t))
    for argv, text in (
        (("tag", "reduce", "A3:2,0,2"), "C2:2,0\n"),
        (("tag", "restrict", "A3:1,0,2", "--marks", "2"), "A1+A1:1,2 (node map: 1->1, 3->2)\n"),
    ):
        calls.clear()
        assert run_cli(*argv) == (0, text), argv
        payload = run_json(*argv)
        assert len(calls) == 2 and calls[0] == calls[1] and {"zeros", "support"} <= payload.keys(), argv
    assert run_json("tag", "reduce", "A3:1,0,2")["zeros"] == [2]


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
    # the rank bound limits only the connected catalogue: P^5 x P^5 has rank 10
    payload = run_json(
        "classify", "--r-minus", "5", "--r-plus", "5",
        "--tag-minus", "0,0,0,0,0", "--tag-plus", "0,0,0,0,0", "--max-rank", "6",
    )
    assert [(m["diagram"], m["rank"], m["product"]) for m in payload["matches"]] == [("A5+A5", 10, True)]
    # and a relative dimension may exceed the rank: C4{1,2}, of rank 4, has r_plus = 5
    code, text = run_cli(
        "classify", "--r-minus", "1", "--r-plus", "5",
        "--tag-minus", "1", "--tag-plus", "1,0,0,0,1", "--max-rank", "4",
    )
    assert code == 0 and text.splitlines()[-1] == "match: C4{1,2} (direct)", text


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
    # an empty mark or tag entry is a parse error with a one-line message
    capsys.readouterr()
    for argv in (("gp", "dim", "B3{1,,3}"), ("gp", "dim", "B3{,1}"), ("tag", "reduce", "A3:1,,2")):
        assert run_cli(*argv) == (1, ""), argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
    # U+001C-U+001F are not whitespace anywhere in a diagram, mark or tag argument
    for argv in (
        ("tag", "shape", "A1:1\x1c"),
        ("tag", "shape", "A1:\x1c1"),
        ("tag", "shape", "\x1fA1:1"),
        ("gp", "dim", "B3{1,3}\x1d"),
        ("gp", "dim", "B3\x1e{1,3}"),
        ("roots", "A\x1c2"),
        ("roots", "A2\x1f"),
    ):
        assert run_cli(*argv) == (1, ""), argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
    # other whitespace around a diagram, its ranks, marks and values is whitespace
    assert run_cli("tag", "shape", " A1 :1\t") == run_cli("tag", "shape", "A1:1")
    assert run_cli("gp", "dim", "\u3000B 3 {1, 3}\n") == (0, "B3{1,3}: dim 8, picard 2\n")
    assert run_cli("roots", "A 2 ") == run_cli("roots", "A2")
    # a relative dimension <= 0 is named as such, not as a tag on A0 or A-1
    for r in ("0", "-1"):
        argv = ("classify", "--r-minus", r, "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3")
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: relative dimensions must be positive"], r
    # enumeration stops at the documented rank ceiling of every diagram, also for a product request
    for argv in (
        ("enumerate", "--max-rank", "101"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3", "--max-rank", "101"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "0", "--tag-plus", "0", "--max-rank", "1000"),
    ):
        assert run_cli(*argv) == (1, ""), argv
        assert capsys.readouterr().err.splitlines() == ["error: max_rank must be at most 100"], argv
    # and below 2 on both paths, whatever the relative dimensions
    for tags in (("1", "3"), ("0", "0")):
        argv = ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", tags[0], "--tag-plus", tags[1])
        assert run_cli(*argv, "--max-rank", "1") == (1, ""), argv
        assert capsys.readouterr().err.splitlines() == ["error: max_rank must be at least 2"], argv
    # a malformed integer list is a usage error with a one-line message
    for argv in (
        ("gp", "fiber", "B3{1,3}", "--base", "x"),
        ("tag", "restrict", "A3:1,0,2", "--marks", "1,,2"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "a", "--tag-plus", "3"),
        # int() would read these as 10 and 3: only ASCII digits are integers
        ("gp", "fiber", "A3{1,2}", "--base", "1_0"),
        ("gp", "fiber", "A3{1,2}", "--base", "\u0663"),
        # \s matches U+001C-U+001F, but int() does not strip them
        ("gp", "fiber", "B3{1,3}", "--base", "\x1f3"),
        ("tag", "restrict", "A3:1,0,2", "--marks", "2\x1c"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "\x1d1", "--tag-plus", "3"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "\x1e3"),
    ):
        assert run_cli(*argv) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), argv
    # every integer argument takes the same ASCII grammar; argparse reports the usage error
    for argv in (
        ("enumerate", "--max-rank", "٣"),
        ("gp", "enumerate", "--max-rank", "1_0"),
        ("classify", "--r-minus", "١", "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3"),
        ("classify", "--r-minus", "1", "--r-plus", "1_0", "--tag-minus", "1", "--tag-plus", "3"),
        ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3", "--max-rank", "٨"),
        ("drum", "build", "B3", "1_0", "3"),
        ("drum", "ledger", "B3", "1", "٣"),
        ("enumerate", "--max-rank", "\x1f3"),
        ("classify", "--r-minus", "1\x1c", "--r-plus", "1", "--tag-minus", "1", "--tag-plus", "3"),
        ("drum", "build", "B3", "\x1d1", "3"),
    ):
        assert run_cli(*argv) == (2, ""), argv
        err = capsys.readouterr().err.splitlines()
        assert ERROR_LINE.match(err[-1]) and "invalid int value" in err[-1], argv
    # an entry longer than int's limit on digits (4300 by default) is malformed:
    # exit 1 in a diagram, mark set or tag, 2 in an integer list or argument
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        long = "1" * 5000
        for argv, code in (
            (("roots", f"A{long}"), 1),
            (("gp", "dim", f"A3{{{long}1}}"), 1),
            (("tag", "shape", f"A1:{long}"), 1),
            (("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", long, "--tag-plus", "3"), 2),
            (("gp", "fiber", "B3{1,3}", "--base", long), 2),
        ):
            assert run_cli(*argv) == (code, ""), argv[:2]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), argv[:2]
            # the input is echoed shortened, not digit by digit
            assert len(err[0]) < 200 and "1..." in err[0], (argv[0], len(err[0]))
        for argv in (("enumerate", "--max-rank", long), ("drum", "build", "B3", long, "3")):
            assert run_cli(*argv) == (2, ""), argv[:2]
            err = capsys.readouterr().err.splitlines()
            assert ERROR_LINE.match(err[-1]) and "invalid int value" in err[-1], argv[:2]
            assert len(err[-1]) < 200 and "1..." in err[-1], (argv[0], len(err[-1]))
    finally:
        sys.set_int_max_str_digits(limit)


def test_quote_echoes_short_input_whole_and_cuts_long_input():
    for value in ("", "A3{1,,3}", "x" * (QUOTE_LIMIT - 2), 12.0, ["8"], list(range(10))):
        assert quote(value) == repr(value), value
    for value in ("x" * (QUOTE_LIMIT - 1), "A" + "1" * 5000, list(range(3000))):
        text, cut = repr(value), quote(value)
        assert len(cut) <= QUOTE_LIMIT and "..." in cut, cut
        assert cut.startswith(text[:48]) and cut.endswith(text[-48:]), cut
    # show replaces repr; an int past the int-to-str digit limit gets a stand-in, as repr and str raise on it
    assert quote(DynkinDiagram((("A", 3),)), str) == "A3"
    for value, show in ((10**5000, repr), ((1, -(10**5000)), repr), (DynkinDiagram((("A", 10**5000),)), str)):
        assert quote(value, show) == f"<{type(value).__name__} too long to print>"


def test_typed_node_outside_the_typed_diagram_has_one_message(capsys):
    for argv, nodes, typed in (
        (("gp", "dim", "D3{4}"), "[4]", "D3{4}"),
        (("gp", "fiber", "D3{2,3}", "--base", "4"), "[4]", "D3{2,3}"),
        (("tag", "restrict", "D3:1,2,3", "--marks", "4"), "[4]", "D3:1,2,3"),
        (("drum", "build", "D3", "2", "4"), "[2, 4]", "D3"),
    ):
        assert run_cli(*argv) == (1, ""), argv
        assert capsys.readouterr().err == f"error: nodes {nodes} not all in '{typed}'\n", argv


def test_diagram_rank_ceiling_is_a_domain_error(capsys):
    assert run_cli("gp", "dim", "A100{1}") == (0, "A100{1}: dim 100, picard 1\n")
    for argv in (
        ("roots", "A101"),
        ("gp", "dim", "A1000000{1}"),
        ("tag", "shape", "A50+A51:1"),
        ("drum", "build", "A99999999999", "1", "2"),
    ):
        assert run_cli(*argv) == (1, ""), argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "above the ceiling 100" in err[0], argv


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


def test_output_is_deterministic(capsys):
    for argv in (
        ("enumerate", "--max-rank", "6", "--format", "json"),
        ("roots", "F4", "--format", "json"),
        ("drum", "ledger", "B3", "1", "3", "--format", "json"),
        ("classify", "--r-minus", "1", "--r-plus", "2", "--tag-minus", "1", "--tag-plus", "1,0"),
    ):
        first = run_cli(*argv)
        # a usage error and a domain error in between leave no trace on the next request
        assert run_cli(*argv, "--format", "xml") == (2, "")
        assert run_cli("roots", "Z9") == (1, "")
        second = run_cli(*argv)
        assert first == second
        capsys.readouterr()


# One valid argument list per leaf, keyed by the leaf's command words.
LEAF_EXAMPLES = {
    ("roots",): ["A2"],
    ("gp", "dim"): ["B3{1,3}"],
    ("gp", "fiber"): ["B3{1,3}", "--base", "1"],
    ("gp", "enumerate"): ["--max-rank", "3"],
    ("enumerate",): ["--max-rank", "3"],
    ("tag", "reduce"): ["A3:2,0,2"],
    ("tag", "restrict"): ["A3:1,0,2", "--marks", "1"],
    ("tag", "shape"): ["A3:2,0,2"],
    ("classify",): ["--r-minus", "1", "--r-plus", "2", "--tag-minus", "1", "--tag-plus", "1,0"],
    ("drum", "build"): ["B3", "1", "3"],
    ("drum", "ledger"): ["B3", "1", "3"],
}


def _edge_argvs() -> list[list[str]]:
    """Argvs at the edges of main's leaf dispatch, for every leaf and group."""
    argvs = [[], ["--format", "json", "roots", "A2"], ["roots", "A2", "x"], ["roots", "A2", "--nope"]]
    argvs += [["gp"], ["tag", "dim", "A3"], ["roots", "A2", "--format=json"], ["roots", "A2", "--form", "json"]]
    argvs += [["enumerate", "--max", "3"], ["classify", *LEAF_EXAMPLES[("classify",)], "--max", "8"]]
    for level in ([], ["gp"], ["tag"], ["drum"], *map(list, LEAF_EXAMPLES)):
        argvs += [[*level, flag] for flag in ("-h", "--help", "--he")]
    for path, rest in LEAF_EXAMPLES.items():
        argvs += _dashed([*path, *rest])
        # a last "--" after an option's value, and "--" twice
        argvs += [[*path, *rest, "--format", "json", "--"], [*path, "--", "--", *rest]]
    return argvs


def _dashed(argv: list[str]) -> list[list[str]]:
    """``argv`` with one "--" put in at each position."""
    return [[*argv[:k], "--", *argv[k:]] for k in range(len(argv) + 1)]


def _leaves_by_walk(parser, path=()) -> dict:
    """The parsers with no subcommands below ``parser``, keyed by the choices that reach them."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {key: leaf for name, p in subs[0].choices.items() for key, leaf in _leaves_by_walk(p, (*path, name)).items()}


def test_main_builds_the_parser_once(monkeypatch):
    probe = (
        "import argparse, io, json, sys\n"
        "from contextlib import redirect_stderr, redirect_stdout\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import flagcalc.cli\n"
        "print(len(built))\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):\n"
        "    for argv in json.loads(sys.argv[1]):\n"
        "        flagcalc.cli.main(argv)\n"
        "served = len(built)\n"
        "flagcalc.cli._parser_and_leaves()\n"
        "print(served, len(built) - served)\n"
    )
    argvs = [[*path, *rest] for path, rest in LEAF_EXAMPLES.items()] + _edge_argvs()
    done = _python("-c", probe, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    imported, served = done.stdout.decode().split("\n", 1)
    assert imported == "0", "importing flagcalc.cli built a parser"
    # serving every leaf and every edge builds exactly as many parsers as one full build
    count, fresh = served.split()
    assert count == fresh and int(count) >= 15, served

    # main's leaf table is exactly the leaves of its full parser, each with a handler
    parser, leaves = cli._parser_and_leaves()
    assert leaves == _leaves_by_walk(parser) and leaves.keys() == LEAF_EXAMPLES.keys()
    assert all(leaf.get_default("func") for leaf in leaves.values())

    calls = []
    build = cli._parser_and_leaves

    def counting_build():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_parsers", None)
    monkeypatch.setattr(cli, "_parser_and_leaves", counting_build)
    with redirect_stderr(io.StringIO()):
        for argv in (("roots", "G2"), ("nonsense",), ("roots", "Z9"), ("tag", "shape", "A3:0,1,0")) * 5:
            run_cli(*argv)
    assert len(calls) == 1
    assert cli._parser_and_leaves()[0] is not cli._parser_and_leaves()[0]


def _fuzz_argvs(seed: int, count: int) -> list[list[str]]:
    """Seeded argvs: valid pieces of every subcommand mixed with malformed ones.

    Ranks stay small so that the test is fast; a ceiling on input size is a
    separate question from exit codes.
    """
    rng = random.Random(seed)

    def pick(valid, malformed):
        return rng.choice(malformed if rng.random() < 0.15 else valid)

    diagrams = (["A1", "A3", "B3", "C3", "D3", "D4", "E6", "F4", "G2", "A2+B2"],
                ["Z9", "E5", "A0", "a3", "", "A 2", "B3{1}"])
    marked = (["B3{1,3}", "A3{1,2}", "F4{2,3}", "G2{1,2}", "D4{3,4}", "D3{2,3}", "E6{1,6}"],
              ["B3{1,,3}", "A3{}", "A3{4}", "A3{1,1}", "B3{x}", "A3{1", "B3{1_0}", "{1}", "A3{-1}"])
    tags = (["A3:2,0,2", "A3:1,0,2", "A2:1,1", "A4:3,0,0,0", "C3:1,2,3", "D3:1,2,3", "A1:5", "A5:2,0,0,0,2"],
            ["A3:1,2", "A3:", "A3:-1,0,0", "Z2:1,1", "A3:1_0,0,0", "A3:1.5,0,0", "A3"])
    ints = (["1", "2", "3", "0", "1,2", "2,1,0", "+2", " 3 "],
            ["-1", "1_0", "\u0663", "x", "", "1,,2", "99", "1.0"])
    ranks = (["2", "3", "4"], ["0", "-1", "x", "1_0", "\u0663"])
    drums = (["B3 1 3", "A2 1 2", "G2 1 2", "D3 2 3", "F4 2 3", "C3 1 2"],
             ["A4 1 3", "B3 1 4", "A3 x 1", "A3 1_0 3", "Z9 1 2"])
    commands = [
        lambda: ["roots", pick(*diagrams)],
        lambda: ["gp", "dim", pick(*marked)],
        lambda: ["gp", "fiber", pick(*marked), "--base", pick(*ints)],
        lambda: [*rng.choice([["enumerate"], ["gp", "enumerate"]]), "--max-rank", pick(*ranks)],
        lambda: ["tag", rng.choice(["reduce", "shape"]), pick(*tags)],
        lambda: ["tag", "restrict", pick(*tags), "--marks", pick(*ints)],
        lambda: ["classify", "--r-minus", pick(["1", "2"], ints[1]), "--r-plus", pick(["1", "2"], ints[1]),
                 "--tag-minus", pick(*ints), "--tag-plus", pick(*ints)]
        + rng.choice([[], ["--max-rank", pick(*ranks)]]),
        lambda: ["drum", rng.choice(["build", "ledger"]), *pick(*drums).split(" ")],
    ]
    junk = ["--nope", "-h", "--format", "xml", "gp", "1", "--base", "--"]
    argvs = []
    for _ in range(count):
        argv = rng.choice(commands)()
        argv += pick([[], ["--format", "text"], ["--format", "json"]], [["--format", "xml"], ["--format"]])
        if rng.random() < 0.1:
            del argv[rng.randrange(len(argv))]
        if rng.random() < 0.1:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(junk))
        argvs.append(argv)
    return argvs


def _run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_fuzz_exit_codes_and_replay():
    argvs = _fuzz_argvs(seed=4, count=300)
    results = [_run_captured(argv) for argv in argvs]
    for argv, (code, _, err) in zip(argvs, results):
        assert code in (0, 1, 2), argv
        if code:
            assert err and ERROR_LINE.match(err.splitlines()[-1]), (argv, err)
    assert {code for code, _, _ in results} == {0, 1, 2}
    # the same requests in reverse order through the same parser give the same answers
    for argv, expected in zip(reversed(argvs), reversed(results)):
        assert _run_captured(argv) == expected, argv


def _dispatch_argvs() -> list[list[str]]:
    """The transcript's argvs, each also with "--" at every position, the edges and three fuzz streams."""
    transcript = json.loads((FIXTURES / "cli_transcript.json").read_text(encoding="utf-8"))
    argvs = [dashed for argv, _, _ in transcript for dashed in (argv, *_dashed(argv))] + _edge_argvs()
    return argvs + [argv for seed in (4, 3201, 3202) for argv in _fuzz_argvs(seed=seed, count=300)]


def test_leaf_dispatch_matches_the_full_parser(monkeypatch):
    # main parses a request on the leaf its command words name; the reference
    # route parses every argv on the full parser and runs the same handler
    argvs = _dispatch_argvs()
    full, leafy = (cli._parser_and_leaves()[0], {}), cli._parser_and_leaves()
    assert sum("--" in argv for argv in argvs) > 400
    for argv in argvs:
        monkeypatch.setattr(cli, "_parsers", full)
        expected = _run_captured(argv)
        monkeypatch.setattr(cli, "_parsers", leafy)
        assert _run_captured(argv) == expected, argv


def _argparse_takes_a_leading_double_dash() -> bool:
    """Whether this Python's argparse reads "--" before a required subcommand's name as nothing."""
    probe = argparse.ArgumentParser(prog="probe")
    probe.add_subparsers(dest="command", required=True).add_parser("roots").add_argument("diagram")
    try:
        with redirect_stderr(io.StringIO()):
            return vars(probe.parse_args(["--", "roots", "A2"])) == {"command": "roots", "diagram": "A2"}
    except SystemExit:
        return False


def test_double_dash_after_the_command_words_changes_nothing():
    # fixed expectations, not a second route
    for argv in (["roots", "--", "A2"], ["roots", "A2", "--"], ["gp", "dim", "--", "B3{1,3}"]):
        plain = [word for word in argv if word != "--"]
        assert _run_captured(argv) == (0, _run_captured(plain)[1], ""), (argv, sys.version)
    # a last "--" after an option's value is an unrecognized argument
    for argv in (["enumerate", "--max-rank", "3", "--"], ["gp", "fiber", "B3{1,3}", "--base", "1", "--"]):
        code, out, err = _run_captured(argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", "flagcalc: error: unrecognized arguments: --"), (
            argv, err, sys.version
        )
    # a "--" before the command words follows this Python's argparse: Python
    # 3.13.13 reads it as nothing, 3.10.13 to 3.13.0 as an invalid command
    code, out, err = _run_captured(["--", "roots", "A2"])
    if _argparse_takes_a_leading_double_dash():
        assert (code, out, err) == (0, _run_captured(["roots", "A2"])[1], ""), sys.version
    else:
        assert (code, out) == (2, "") and err.splitlines()[-1].startswith("flagcalc: error:"), (err, sys.version)


def test_module_entry_point():
    done = _python("-m", "flagcalc.cli", "roots", "G2", "--format", "json")
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == (FIXTURES / "roots_g2.json").read_bytes()
    done = _python("-m", "flagcalc.cli", "gp", "fiber", "B3{1,3}", "--base", "x")
    assert done.returncode == 2 and done.stdout == b""
    err = done.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_package_runs_as_the_flagcalc_command():
    # ``python -m flagcalc`` runs cli.main_entry: same output, stderr and exit code as in-process main
    for argv in (["gp", "dim", "B3{1,3}"], ["gp", "dim", "B3{1,9}"]):
        done = _python("-m", "flagcalc", *argv)
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == _run_captured(argv)
    assert done.returncode == 1


def test_enumerate_rank12_matches_golden_fixture():
    _, text = run_cli("enumerate", "--max-rank", "12", "--format", "json")
    golden = (FIXTURES / "enumerate_rank12.json").read_text(encoding="utf-8")
    assert text == golden


def test_cli_transcript_matches_golden_fixture():
    # [argv, exit code, stdout] of valid requests in both formats, covering every
    # subcommand and the text branches that no other fixture pins down
    transcript = json.loads((FIXTURES / "cli_transcript.json").read_text(encoding="utf-8"))
    assert len(transcript) >= 40
    for argv, code, stdout in transcript:
        assert run_cli(*argv) == (code, stdout), argv


def test_components_outside_the_table_leave_the_transcript_unchanged():
    # A3.0 and C3.0 equal and hash like A3 and C3: a pair test on them, cold, must
    # not fill the cached fiber tables that later requests on A3 and C3 read
    homogeneous._fiber_table.cache_clear()
    for family, i, j in (("A", 1, 2), ("C", 2, 3)):
        with suppress(DomainError):
            homogeneous.is_two_bundle_pair(DynkinDiagram(((family, 3.0),)), i, j)
    transcript = json.loads((FIXTURES / "cli_transcript.json").read_text(encoding="utf-8"))
    for argv, code, stdout in transcript:
        assert run_cli(*argv) == (code, stdout), argv


def test_json_outputs_match_golden_fixtures():
    for argv, name in (
        (("roots", "G2"), "roots_g2.json"),
        (("drum", "ledger", "B3", "1", "3"), "drum_ledger_b3_1_3.json"),
    ):
        _, text = run_cli(*argv, "--format", "json")
        assert text == (FIXTURES / name).read_text(encoding="utf-8"), name
