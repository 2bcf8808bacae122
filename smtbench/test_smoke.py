"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest smtbench/test_smoke.py

It is not part of the library's test suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "smtbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        assert result["metrics"][d["name"]]["unit"] == d["unit"]
        assert any(ln.startswith(f"metric {d['name']} = ") and ln.endswith(f" {d['unit']}")
                   for ln in lines), d["name"]
    if trace:
        frac = result["metrics"]["fail_frac"]["value"]
        assert frac == result["failed"] / result["attempted"]
        if workload in ("analyze", "sampled"):  # they carry known failures
            assert frac > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "smtbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "kernels", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
