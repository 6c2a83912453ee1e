"""What `import cpwave.cli` loads, and what a CLI run then costs its
process, each checked in a fresh interpreter as the command line starts."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# small versions of the benchmark's workloads: cp_sparse, cp_dense and
# grid_compare
M_SPARSE = "4,8,16,32,64,128,256,512,1024"
SMALL_RUNS = [
    ["mse-curve", "--process", "cp", "--lambda", "10", "--schemes", "linear,greedy,best",
     "--m", M_SPARSE, "--trials", "20"],
    ["mse-curve", "--process", "cp", "--lambda", "500", "--schemes", "linear,greedy,best",
     "--m", M_SPARSE, "--trials", "3"],
    ["dict-compare", "--lambda", "10", "--m", "16,32,64,128,256", "--grid-log2", "10",
     "--trials", "20"],
]

MODULES_SCRIPT = """
import json, sys
import cpwave.cli
loaded = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    assert cpwave.cli.main(argv + ["--seed", "1", "--out", sys.argv[2]]) == 0
print(json.dumps({"loaded": sorted(loaded), "new": sorted(set(sys.modules) - loaded)}))
"""

FAULTS_SCRIPT = """
import json, resource, sys
import cpwave.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cpwave.cli.main(json.loads(sys.argv[1]) + ["--seed", "1", "--out", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def run_fresh(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_leaves_out_scipy_subpackages_and_runs_load_nothing(tmp_path):
    # scipy.fft (with scipy.special) was half of the start-up and a third
    # of the peak memory of every run; numpy loads numpy.random and
    # numpy.fft lazily, which would put them inside the first timed calls
    report = run_fresh(MODULES_SCRIPT, json.dumps(SMALL_RUNS), str(tmp_path / "out.csv"))
    loaded = set(report["loaded"])
    assert not loaded & {"scipy.fft", "scipy.special"}
    assert {"numpy.random", "numpy.fft"} <= loaded
    assert report["new"] == []


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
    reason="guards glibc's malloc thresholds",
)
def test_cli_run_keeps_its_heap(tmp_path):
    # harness.prepare_process raises glibc's mmap and trim thresholds; at
    # their defaults this run took about 19,600 minor page faults, against
    # about 180 with them raised
    argv = ["dict-compare", "--lambda", "10", "--m", "16,32,64,128,256", "--grid-log2", "10",
            "--trials", "1000"]
    assert run_fresh(FAULTS_SCRIPT, json.dumps(argv), str(tmp_path / "out.csv")) < 2000
