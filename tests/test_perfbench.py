"""The benchmark's traced rep (perfbench/child.py in "trace" mode) against
this package: it wraps and replays the package's public calls by name (the
four *_errors shims, dct2_forward(...).values, sample_grid,
nonzero_counts_by_scale and more), so a renamed or reshaped call shows up
here as a failed rep or a problem in its report."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("perfbench_spec", ROOT / "perfbench" / "spec.py")
spec = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spec)


@pytest.mark.parametrize("workload", ["cp_sparse", "cp_dense", "grid_compare"])
def test_traced_rep_replays_the_cli_run(workload, tmp_path):
    argv = spec.WORKLOADS[workload]["argv"] + [
        "--trials", "20", "--seed", "1", "--workers", "1", "--out", str(tmp_path / "out.csv"),
    ]
    job = {"mode": "trace", "src": str(ROOT / "src"), "argv": argv}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["rc"] == 0 and report["error"] is None
    assert report["problems"] == []
    assert report["trace"]["counts"]
