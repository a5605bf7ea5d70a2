from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Loads the oracle module by path, as perfbench/reference.py does, with the
# source tree off sys.path.
_LOAD_BY_PATH = """
import importlib.util, sys
from pathlib import Path
src = Path(sys.argv[2]).resolve()
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != src]
spec = importlib.util.spec_from_file_location("oracles_by_path", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert callable(module.weyl_dim_fraction)
# the oracles perfbench calls, run with no flagcalc module
assert len(module.expected_two_bundle_keys(12)) == 164
assert module.adjacent_flag_degrees(3, 1) == ([-1, 0, 0], [-1, 0])
assert module.point_hyperplane_degrees(3) == ([0, 0, 1], [0, 0, 1])
assert module.closed_form_root_count("E", 8) == 120
loaded = sorted(m for m in sys.modules if m == "flagcalc" or m.startswith("flagcalc."))
assert not loaded, loaded
print("ok")
"""


def test_oracle_module_loads_by_path_without_flagcalc(tmp_path):
    result = subprocess.run(
        [sys.executable, "-I", "-c", _LOAD_BY_PATH, str(TESTS / "oracles.py"), str(TESTS.parent / "src")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr


# Each reference, and the flagcalc names that it and the oracles it calls may
# import.  A reference that imports the rule it checks passes that rule's
# mutants, so: the split references check ``homogeneous._end_map`` and
# ``_component_ends`` with only the walk and the bond table of ``dynkin``;
# ``side_tag_by_roots`` checks ``classifier._side_tag`` with the public root
# machinery; and the catalogue, root and drum references import no flagcalc
# code.  These are the references that catch mutants of ``_side_tag``,
# ``_rank_ends`` and ``homogeneous._projective_rank``.
SPLIT_IMPORTS = {("flagcalc.dynkin", "_components"), ("flagcalc.dynkin", "_bonds")}
REFERENCE_IMPORTS = {
    "split_at": SPLIT_IMPORTS,
    "end_records_by_split": SPLIT_IMPORTS,
    "side_tag_by_roots": {
        ("flagcalc.dynkin", "pairing"),
        ("flagcalc.dynkin", "positive_roots"),
        ("flagcalc.tags", "tag_from_splitting"),
    },
    "expected_two_bundle_keys": set(),
    "reflection_closure": set(),
    "drum_identification": set(),
}


def test_references_import_only_their_listed_flagcalc_names():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for reference, allowed in REFERENCE_IMPORTS.items():
        todo, seen, imported = [reference], set(), set()
        while todo:  # the reference and every oracle it calls, transitively
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.ImportFrom):
                    imported.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Import):
                    imported.update((alias.name, None) for alias in node.names)
                elif isinstance(node, ast.Name) and node.id in functions:
                    todo.append(node.id)
        flagcalc = {(module, name) for module, name in imported if module.partition(".")[0] == "flagcalc"}
        assert flagcalc <= allowed, (reference, flagcalc - allowed)
