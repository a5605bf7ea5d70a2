"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last stdout line is the result object
with exactly the metrics BENCHMARK.json names for that mode, each with its
unit, and that the benchmark refuses to run without the flagcalc sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    args = [str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = run(args, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(expected), sorted(set(got) ^ set(expected))
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, (name, got[name])
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
    if not trace:
        assert all(got[name]["value"] > 0 for name in expected), got


def check_refuses_without_sources() -> None:
    # The copy lives inside the checkout, so the self-test writes nowhere else.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([f"{HERE.name}/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1"], Path(tmp))
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
            print(f"ok {workload} --trace {trace}")
    check_refuses_without_sources()
    print("ok refuses to run without src/ and tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
