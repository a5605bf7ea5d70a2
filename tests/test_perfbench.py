"""One seeded batch of each benchmark workload, at full size, gives no failed op."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sets up each workload of perfbench/run.py and runs one batch of it, as
# run.py does.  run.import_api re-imports flagcalc, which would swap the
# modules that other tests hold, so this runs in its own interpreter.
_ONE_BATCH_EACH = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import run
from workloads import WORKLOADS
batches = {}
for name, workload_cls in sorted(WORKLOADS.items()):
    _, workload = run.set_up(workload_cls, 26, False)
    batch = run.run_batch(workload)
    batches[name] = [batch.ops, batch.failed, batch.uncaught, batch.failures]
print(json.dumps(batches))
"""


def test_one_full_batch_of_each_workload_has_no_failed_op(tmp_path):
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-c", _ONE_BATCH_EACH, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    batches = json.loads(result.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(batches) == sorted(w["name"] for w in declared)
    for name, (ops, failed, uncaught, failures) in batches.items():
        assert ops >= 1 and (failed, uncaught) == (0, 0), (name, failures)
