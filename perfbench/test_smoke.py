"""Smoke test of the benchmark: a tiny size of every workload, untraced and
traced, in a few seconds each.  Run it from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit_and_checks_pass(workload, trace):
    res = bench(ROOT, workload, trace)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1]
               for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = bench(tmp_path, WORKLOADS[0], 0)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
