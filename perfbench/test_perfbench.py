"""Smoke test of the benchmark: every workload at its smoke size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_agrees_with_metric_tables():
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    assert all(moves for _, _, moves in PER_LAYER.values())
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    for metric in declared:
        assert any(line.startswith(f"# {workload} {metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert f"# {workload} check_fail_frac = 0.0 " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "sweep7", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
