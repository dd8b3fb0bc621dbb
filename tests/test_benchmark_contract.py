"""The benchmark under benchmarks/ drives the package by name: its tracer
(`benchmarks/spans.py`) resolves and wraps package functions and form
builders, and its runner calls `cli.main` and `formdsl`.  These tests run
the benchmark's own entry point as a subprocess, so a rename or deletion
that breaks that contract fails here too.  They only run the files under
benchmarks/; the runs write their records to the git-ignored
benchmarks/out/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300)


def test_benchmark_smoke_mode_passes():
    proc = _run_benchmark("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith("as expected")


@pytest.mark.parametrize("workload, metric", [
    ("fd-checks", "formcalc.exterior_d.evals"),
    # the nerve faces that d' packages, traced by name
    ("exact-checks", "nerve.face_ng.calls"),
    # the tracer replaces formdsl.interpret and EquivariantForm.eval by name
    ("dsl-eval", "formdsl.interpret.self_ms"),
], ids=["fd-checks", "exact-checks", "dsl-eval"])
def test_traced_run_is_correct(workload, metric):
    # --trace 1 installs the spans around every traced name, then checks
    # every output of the pass against the benchmark's own references
    proc = _run_benchmark("--workload", workload, "--seed", "1",
                          "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["metrics"][metric]["value"] > 0
