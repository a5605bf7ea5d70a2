"""flagcalc is stdlib-only: every import in the package is relative or names a standard module.

Four layering rules are checked on the same syntax trees: only the listed
modules name the two split rules, only ``homogeneous`` names other
``dynkin`` privates, the listed ones (it reads the tag values off the bond
table ``_bonds``, the one source of Cartan entries), root lists are built
only where they are the answer, and no module uses a banned standard module or
name: ``fractions``, as every value is an exact integer, and ``dataclasses``,
``cached_property`` and ``typing``, as every record is a tuple.  Every class
other than an exception subclasses a ``namedtuple(...)`` call and sets
``__slots__ = ()``; a record that validates does so in ``__new__``, with
``_make`` rebound to it, and ``tuple.__new__``, which skips it, builds only
records that define no ``__new__``.  No module names a private argparse
attribute, so that the CLI's leaf dispatch rests on argparse's public
surface across Python versions.  A fresh interpreter importing
``flagcalc.cli`` loads none of ``dataclasses``, the introspection modules it
pulls in and ``typing``.
"""
from __future__ import annotations

import argparse
import ast
import builtins
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagcalc"
# The two split rules of the standard numbering, each with its module and the
# other modules that may name it: ``dynkin._split`` splits any node set of a
# connected diagram, and ``homogeneous`` reads the ends of a union's whole
# components off it; ``homogeneous._end_map`` splits a connected diagram at one
# node.  Other modules split node sets through ``dynkin._components``.
SPLIT_RULES = {"_split": ("dynkin.py", {"homogeneous.py"}), "_end_map": ("homogeneous.py", set())}
# The ``dynkin`` privates that other modules name: only ``homogeneous``, which
# splits, renumbers, counts roots, reads the ends of whole components and the
# Cartan entries of the tags.
DYNKIN_PRIVATES_NAMED = {
    "homogeneous.py": {"_NORMALIZED_RANKS", "_bonds", "_component_root_count", "_components", "_renumber", "_split"},
}
# Banned standard modules and names, each with the reason (``fractions`` has its own test).
BANNED = {
    "dataclasses": "every record is a tuple; importing it loads inspect, ast and dis",
    "cached_property": "records are tuples with no instance __dict__ to cache in",
    "typing": "every record subclasses a collections.namedtuple; under postponed annotations typing's "
    "names are only annotation strings, and importing it is about a quarter of the CLI's import",
}
# The root machinery and the modules that may name it, besides the package's
# re-exports in ``__init__``: ``roots`` prints the root list and ``weyl_dim``
# takes a product over it.
ROOT_MACHINERY = {"positive_roots": {"dynkin.py", "drum.py", "cli.py"}, "pairing": {"dynkin.py"}}


def _trees() -> list[tuple[str, ast.AST]]:
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in sources]


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_package_imports_only_the_standard_library():
    outside = [
        (name, module)
        for name, tree in _trees()
        for module in _absolute_imports(tree)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_only_the_listed_modules_name_the_split_rules():
    trees = dict(_trees())
    for rule, (home, others) in SPLIT_RULES.items():
        defined = {node.name for node in trees[home].body if isinstance(node, ast.FunctionDef)}
        assert rule in defined, (home, rule)
        named = {name for name, tree in trees.items() if name != home and rule in set(_names(tree))}
        assert named == others, (rule, named)


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_other_modules_name_only_the_listed_dynkin_privates():
    trees = dict(_trees())
    private = {name for name in _top_level_names(trees["dynkin.py"]) if name.startswith("_")}
    assert {"_bonds", "_split"} <= private, private
    named = {name: set(_names(tree)) & private for name, tree in trees.items() if name != "dynkin.py"}
    assert {name: found for name, found in named.items() if found} == DYNKIN_PRIVATES_NAMED


def test_only_root_consumers_name_the_root_machinery():
    trees = dict(_trees())
    defined = {node.name for node in trees["dynkin.py"].body if isinstance(node, ast.FunctionDef)}
    assert set(ROOT_MACHINERY) <= defined, set(ROOT_MACHINERY) - defined
    named = [
        (name, function)
        for name, tree in trees.items()
        if name != "__init__.py"
        for function in _names(tree)
        if function in ROOT_MACHINERY and name not in ROOT_MACHINERY[function]
    ]
    assert not named, named


def test_no_module_imports_fractions():
    rational = [
        (name, module)
        for name, tree in _trees()
        for module in _absolute_imports(tree)
        if module.partition(".")[0] == "fractions"
    ]
    assert not rational, rational


def test_no_module_uses_a_banned_module_or_name():
    used = [
        (name, banned, reason)
        for name, tree in _trees()
        for banned, reason in BANNED.items()
        if banned in {module.partition(".")[0] for module in _absolute_imports(tree)} | set(_names(tree))
    ]
    assert not used, used


def _argparse_privates() -> set[str]:
    """The private names of argparse's module, and of a parser with a subcommand, a group and an option."""
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    objects = (
        argparse,
        parser,
        sub,
        sub.add_parser("leaf"),
        parser.add_argument_group("group"),
        parser.add_mutually_exclusive_group(),
        parser.add_argument("--option"),
        argparse.HelpFormatter("prog"),
    )
    # ``_`` is argparse's gettext alias, and the package's throwaway name
    return {name for obj in objects for name in dir(obj) if name.startswith("_") and not name.endswith("__")} - {"_"}


def test_no_module_names_a_private_argparse_attribute():
    # ``cli.main`` dispatches on argparse's public surface only (``choices``,
    # ``prog``, ``get_default``, ``parse_known_args``); a private name, also as
    # a string for ``getattr``, may change with any Python release
    privates = _argparse_privates()
    assert {"_actions", "_subparsers", "_SubParsersAction", "_name_parser_map"} <= privates
    named = sorted(
        (name, used)
        for name, tree in _trees()
        for used in {*_names(tree), *(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant))}
        if used in privates
    )
    assert not named, named


def test_only_cli_main_reads_the_output_format():
    # one payload per request: each handler builds it whatever the format, and
    # ``main`` alone reads ``args.format`` to print JSON or text
    readers = [
        getattr(node, "name", type(node).__name__)
        for node in dict(_trees())["cli.py"].body
        if any(isinstance(n, ast.Attribute) and n.attr == "format" for n in ast.walk(node))
    ]
    assert readers == ["main"], readers


def _decorator_name(node: ast.expr) -> str | None:
    """``dataclass`` for ``@dataclass``, ``@dataclasses.dataclass`` and ``@dataclass(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_dataclass_validates_or_caches():
    # No record is a dataclass any more: a record that validates checks in
    # ``__new__``, with ``_make`` (which ``_replace`` calls) rebound so that it
    # checks too; the other records only name their fields.
    dataclasses, validating, unchecked = [], set(), []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "dataclass" in map(_decorator_name, node.decorator_list):
                dataclasses.append((name, node.name))
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            assigned = {
                target.id
                for item in node.body
                if isinstance(item, ast.Assign)
                for target in item.targets
                if isinstance(target, ast.Name)
            }
            if "__new__" in methods:
                validating.add(node.name)
                if "_make" not in assigned:
                    unchecked.append((name, node.name))
    assert not dataclasses, f"records should be tuples: {dataclasses}"
    assert {"MarkedDiagram", "Tag", "TwoBundleData"} <= validating, validating
    assert not unchecked, f"_make and _replace skip __new__ in: {unchecked}"


def _is_tuple_new(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__new__" and getattr(node.value, "id", None) == "tuple"


def test_tuple_new_builds_only_records_without_a_new():
    # ``tuple.__new__(Cls, fields)`` skips ``Cls.__new__``, so it may only name,
    # as its first argument, a record class that defines none; a record that
    # gains validation in ``__new__`` then fails here instead of being built
    # around it.  Every use must be such a call, not an alias.
    trees = _trees()
    methods = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    built, bypassed = set(), []
    for name, tree in trees:
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not _is_tuple_new(node):
                continue
            call = calls.get(id(node))
            record = getattr(call.args[0], "id", None) if call and call.args else None
            if record in methods and "__new__" not in methods[record]:
                built.add(record)
            else:
                bypassed.append((name, node.lineno, record))
    assert "TwoBundleEntry" in built, built
    assert not bypassed, f"tuple.__new__ used other than on a record class without __new__: {bypassed}"


def _is_namedtuple_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "namedtuple"


def test_every_record_subclasses_a_namedtuple_with_empty_slots():
    # One record idiom.  Without ``__slots__ = ()`` a subclass grows a ``__dict__`` and takes new attributes.
    classes = [(name, node) for name, tree in _trees() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    grown = True
    while grown:  # a class with an exception among its bases is one
        grown = {node.name for _, node in classes if any(getattr(b, "id", None) in exceptions for b in node.bases)}
        grown -= exceptions
        exceptions |= grown
    records, odd = set(), []
    for name, node in classes:
        if node.name in exceptions:
            continue
        records.add(node.name)
        slots = [
            item.value
            for item in node.body
            if isinstance(item, ast.Assign) and [getattr(t, "id", None) for t in item.targets] == ["__slots__"]
        ]
        empty_slots = len(slots) == 1 and isinstance(slots[0], ast.Tuple) and not slots[0].elts
        if not (len(node.bases) == 1 and _is_namedtuple_call(node.bases[0]) and empty_slots):
            odd.append((name, node.name))
    assert len(records) >= 16 and {"DynkinDiagram", "MarkedDiagram", "HorosphericalDrum"} <= records, records
    assert not odd, f"not a namedtuple subclass with __slots__ = (): {odd}"


# Imports ``flagcalc.cli`` with the source tree, argv[1], as the only addition to the path.
_IMPORT_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
import flagcalc.cli
print(sorted({"dataclasses", "inspect", "ast", "dis", "typing"} & sys.modules.keys()))
"""


def test_cli_import_loads_no_dataclasses_or_introspection(tmp_path):
    # ``dataclasses`` imports ``inspect``, which imports ``ast`` and ``dis``: about a fifth of the CLI's
    # import; ``typing`` is about a quarter of what remains
    result = subprocess.run(
        [sys.executable, "-B", "-S", "-I", "-c", _IMPORT_CLI, str(PACKAGE.parent)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), (result.stdout, result.stderr)
