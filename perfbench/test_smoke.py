"""Smoke test of the benchmark: every workload at its tiny smoke size.

Run from the root of a checkout with ``python -m pytest perfbench``.  It
checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, that the reference check passes, and that in a traced run the
layer self times plus the untraced remainder add up to the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs as J

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["unexpected"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
        accounted += values["trace.untraced_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], rel=0.01)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "sweep_small", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_applies_tolerance_classes():
    classes = J.FIELD_CLASSES["enclosure"]
    want = {"eigenvalues_tested": [[-2.0, 0.5]], "verdicts": ["inside"]}
    near = {"eigenvalues_tested": [[-2.0 + 1e-13, 0.5]], "verdicts": ["inside"]}
    far = {"eigenvalues_tested": [[-2.0 + 1e-6, 0.5]], "verdicts": ["inside"]}
    assert J.compare(near, want, classes) is None
    assert J.compare(far, want, classes) is not None
    assert J.compare({"eigenvalues_tested": [], "verdicts": []}, want, classes) is not None
    # norm scans are bitwise: one ulp is a mismatch
    norms = {"norms": [{"value": 1.0}]}
    assert J.compare({"norms": [{"value": 1.0 + 2.0**-52}]}, norms, {}) is not None


def test_end_to_end_scales_each_pass_by_its_reference():
    import worker as W

    class FakePass:
        def __init__(self, times, refs):
            self.times, self.refs, self.outcomes = times, refs, []

    # the second pass ran at half speed: its jobs and its kernel took twice as long
    passes = [FakePass([1.0, 3.0], [0.01, 0.01, 0.03]), FakePass([2.0, 6.0], [0.02, 0.03, 0.02])]
    metrics, raw = W.end_to_end(passes, nominal=0.01)
    assert metrics["wall_s"] == pytest.approx(4.0)
    assert metrics["job_p50_s"] == pytest.approx(2.0)
    assert raw["wall_s"] == pytest.approx(6.0)
    assert metrics["completed_ratio"] == 1.0
