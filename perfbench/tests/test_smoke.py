"""Smoke test of the benchmark: every workload runs in its quick mode and
reports every metric named in BENCHMARK.json.  It makes no timing assertions.

Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert isinstance(reported["value"], (int, float)), m["name"]
        assert reported["unit"] == m["unit"], m["name"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
