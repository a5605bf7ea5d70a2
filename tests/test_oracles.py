from __future__ import annotations

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
