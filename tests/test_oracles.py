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


# The split references check ``homogeneous._end_map`` and ``_component_ends``,
# so they name no ``homogeneous`` rule: of flagcalc they use only the walk and
# the bond table of ``dynkin``.
SPLIT_REFERENCES = {"split_at", "end_records_by_split"}
SPLIT_REFERENCE_IMPORTS = {("flagcalc.dynkin", "_components"), ("flagcalc.dynkin", "_bonds")}


def test_split_references_import_only_components_and_bonds():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    imported, called = set(), set()
    for name in SPLIT_REFERENCES:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.Name) and node.id in functions:
                called.add(node.id)
    assert imported <= SPLIT_REFERENCE_IMPORTS, imported - SPLIT_REFERENCE_IMPORTS
    assert called <= SPLIT_REFERENCES, called - SPLIT_REFERENCES
