"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Checks that each metric BENCHMARK.json declares is printed with its unit and
that the outputs passed their checks.  Run it alone with
``python -m pytest perfbench/test_smoke.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    completed = subprocess.run(
        [sys.executable, str(ROOT / CONTRACT["command"][1]), "--workload", "all", "--smoke",
         "--seed", "3", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= len(CONTRACT["workloads"])
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in CONTRACT["workloads"]
        for metric in CONTRACT[section]
    }
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
