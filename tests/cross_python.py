"""Run the tier-1 tests on other Python interpreters, with or without pytest.

Usage: python tests/cross_python.py PYTHON [PYTHON ...]

Each interpreter runs, in one fresh process, every test function of
``tests/test_*.py`` that takes no arguments, in file and definition order,
and every case of each test whose arguments its ``pytest.mark.parametrize``
marks all name, one call per case.  It also runs ``test_cli``'s comparison
of main's leaf route with the full parser, on every argv that test lists,
those holding "--" included.  Where pytest is not installed, a stand-in
gives the three names the test modules use: ``mark.parametrize``, which
records the arg names and values on the function as pytest does, in
``pytestmark``; ``param``; and ``raises``.  The script prints one line per
interpreter and exits 1 if any test fails on any of them.  Standard library
only; the name lacks the ``test_`` prefix, so pytest does not collect it.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import traceback
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


class _Raises:
    """``pytest.raises(expected, match=...)`` as a context manager with ``value``."""

    def __init__(self, expected, match: str | None = None):
        self.expected, self.match = expected, match

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb) -> bool:
        if kind is None:
            raise AssertionError(f"DID NOT RAISE {self.expected}")
        if not issubclass(kind, self.expected):
            return False
        if self.match is not None and not re.search(self.match, str(value)):
            raise AssertionError(f"{str(value)!r} does not match {self.match!r}")
        self.value = value
        return True


class _ParameterSet:
    """``pytest.param(*values, id=...)``: the values of one case, as ``values``."""

    def __init__(self, *values, **kwargs):
        self.values = values


def _parametrize(*args, **kwargs):
    """``pytest.mark.parametrize``: append a mark holding the arg names and values to ``pytestmark``."""

    def mark(func):
        func.pytestmark = [*getattr(func, "pytestmark", []), types.SimpleNamespace(name="parametrize", args=args)]
        return func

    return mark


def _install_pytest_stand_in() -> None:
    stand_in = types.ModuleType("pytest")
    stand_in.mark = types.SimpleNamespace(parametrize=_parametrize)
    stand_in.param = _ParameterSet
    stand_in.raises = _Raises
    sys.modules["pytest"] = stand_in


def _cases(func) -> list[dict]:
    """The arguments of each case of ``func``'s ``parametrize`` marks, stacked marks multiplied; [{}] if none."""
    parameter_set = type(importlib.import_module("pytest").param(None))
    cases = [{}]
    for mark in getattr(func, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[:2]
        names = [name.strip() for name in names.split(",")] if isinstance(names, str) else list(names)
        rows = [
            value.values if isinstance(value, parameter_set) else (value,) if len(names) == 1 else tuple(value)
            for value in values
        ]
        cases = [{**case, **dict(zip(names, row))} for case in cases for row in rows]
    return cases


class _Patch:
    """``monkeypatch.setattr``, undone by ``undo``."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def setattr(self, obj, name: str, value) -> None:
        self.saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self.saved:
            setattr(*self.saved.pop())


def _failure(name: str) -> str:
    kind, value, _ = sys.exc_info()
    return f"{name}: {kind.__name__}: {str(value).splitlines()[0] if str(value) else ''}"[:300]


def _run_here() -> dict:
    """Run the tests in this process; the counts and the failures."""
    if importlib.util.find_spec("pytest") is None:
        _install_pytest_stand_in()
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    ran, calls, failures = 0, 0, []
    for path in sorted(TESTS.glob("test_*.py")):
        module = importlib.import_module(path.stem)
        tests = [
            func for name, func in vars(module).items()
            if name.startswith("test_") and inspect.isfunction(func) and func.__module__ == module.__name__
        ]
        for func in sorted(tests, key=lambda func: func.__code__.co_firstlineno):
            cases = _cases(func)
            if set(cases[0]) != set(inspect.signature(func).parameters):
                continue  # a fixture pytest would supply
            ran += 1
            for k, case in enumerate(cases):
                calls += 1
                try:
                    func(**case)
                except Exception:
                    failures.append(_failure(f"{path.stem}::{func.__name__}" + (f"[{k}]" if case else "")))
    test_cli = sys.modules["test_cli"]
    patch = _Patch()
    try:
        test_cli.test_leaf_dispatch_matches_the_full_parser(patch)
    except Exception:
        failures.append(_failure("test_cli::test_leaf_dispatch_matches_the_full_parser"))
    finally:
        patch.undo()
    dashed = sum("--" in argv for argv in test_cli._dispatch_argvs())
    return {"version": sys.version.split()[0], "ran": ran, "calls": calls, "dashed": dashed, "failures": failures}


def _run_on(python: str) -> tuple[bool, str]:
    """Run the tests in a fresh ``python`` process; whether all passed, and one line saying so."""
    done = subprocess.run(
        [python, "-B", str(Path(__file__).resolve()), "--here"],
        cwd=ROOT, capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"{python}: exit {done.returncode}, no result ({tail})"
    head = (
        f"{result['version']} {python}: {result['ran']} tests in {result['calls']} calls and the leaf route on "
        f"{result['dashed']} argvs holding \"--\""
    )
    if result["failures"]:
        return False, f"{head}: {len(result['failures'])} FAILED: " + "; ".join(result["failures"])
    return True, f"{head}: all pass"


def main(argv: list[str]) -> int:
    if argv == ["--here"]:
        try:
            result = _run_here()
        except Exception:
            traceback.print_exc()
            return 1
        print(json.dumps(result))
        return 0
    if not argv or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    passed = True
    for python in argv:
        ok, line = _run_on(python)
        print(line, flush=True)
        passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
