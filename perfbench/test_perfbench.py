"""Tests of the benchmark itself, in quick mode:

    python3 -m pytest perfbench
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


def _run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_emits_every_metric_with_its_unit(trace):
    # --workload all fails when a workload's metrics differ from BENCHMARK.json
    # or its outputs fail their checks.
    proc = _run(["--workload", "all", "--quick", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_last_line_is_the_result_object():
    proc = _run(["--workload", "roundtrip", "--quick", "--seconds", "1"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(
            ["--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            script=bare / "perfbench" / "run.py",
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
