"""Smoke test of the benchmark on reduced job lists.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "payload hashes: identical across all passes" in done.stdout


def test_missing_library_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "jobs.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text())
    done = _run("split-blocks", 0, cwd=tmp_path, script=bench / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
