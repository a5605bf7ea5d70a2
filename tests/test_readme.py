"""The README's examples run as written: the library quickstart as a doctest, the CLI lines through ``cli.main``."""
from __future__ import annotations

import doctest
import shlex
from pathlib import Path
from types import ModuleType

import flagcalc
from flagcalc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _code_block(heading: str, language: str = "") -> str:
    """The first fenced block, opened as ```language, under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_runs_as_doctest():
    block = _code_block("Library quickstart", "python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README quickstart", str(README), 0)
    assert tuple(doctest.DocTestRunner().run(test)) == (0, 12)


def test_readme_cli_examples_exit_zero(capsys):
    commands = [line for line in _code_block("CLI").splitlines() if line.startswith("flagcalc ")]
    assert len(commands) == 10
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert cli.main(argv[1:]) == 0, line
    assert capsys.readouterr().err == ""


def test_star_import_binds_no_submodule():
    # the quickstart's ``from flagcalc import *`` binds the public API, not ``dynkin``, ``tags`` and the rest
    modules = [name for name in flagcalc.__all__ if isinstance(getattr(flagcalc, name), ModuleType)]
    assert not modules and {"DynkinDiagram", "parse_diagram", "DomainError"} <= set(flagcalc.__all__), modules
