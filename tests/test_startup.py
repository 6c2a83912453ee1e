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

PEAK_SCRIPT = """
import json, sys, tracemalloc
import cpwave.cli
from cpwave import harness
peaks, run = [], harness._run_trials
def traced(*args):
    tracemalloc.start()
    try:
        return run(*args)
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
harness._run_trials = traced
assert cpwave.cli.main(json.loads(sys.argv[1]) + ["--seed", "1", "--out", sys.argv[2]]) == 0
print(json.dumps(peaks))
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
    # numpy.fft lazily, which would put them inside the first timed calls.
    # The tests' Fraction oracle stays out too: fractions took about 0.4 MB
    # of peak RSS when src/ imported it
    report = run_fresh(MODULES_SCRIPT, json.dumps(SMALL_RUNS), str(tmp_path / "out.csv"))
    loaded = set(report["loaded"])
    assert not loaded & {"scipy.fft", "scipy.special", "fractions"}
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


@pytest.mark.parametrize("argv", [
    ["mse-curve", "--process", "cp", "--lambda", "10", "--schemes", "linear,greedy,best",
     "--m", M_SPARSE, "--trials", "300"],
    ["mse-curve", "--process", "cp", "--lambda", "500", "--schemes", "linear,greedy,best",
     "--m", M_SPARSE, "--trials", "40"],
], ids=["cp_sparse", "cp_dense"])
def test_analytic_trials_hold_little_memory(tmp_path, argv):
    # the benchmark's cp runs: a 512-trial block at lambda = 10 is read in
    # errors_rows blocks within _BLOCK_TERMS, so the trials' peak of traced
    # allocations was 1.7 MB there and 1.4 MB at lambda = 500
    peaks = run_fresh(PEAK_SCRIPT, json.dumps(argv), str(tmp_path / "out.csv"))
    assert len(peaks) == 1 and peaks[0] < 2.5 * 2**20


@pytest.mark.parametrize("argv, most_mb", [
    (["dict-compare", "--lambda", "10", "--m", "16,32,64,128,256", "--grid-log2", "10",
      "--trials", "1000"], 2.5),
    (["dict-compare", "--lambda", "20000", "--m", "16,32,64,128,256", "--grid-log2", "10",
      "--trials", "128"], 17.2 * 1.1),
], ids=["grid_compare", "dense_grid"])
def test_grid_trials_hold_little_memory(tmp_path, argv, most_mb):
    # the benchmark's grid run reads 64-trial blocks of 2^10 grids: each
    # process's trials peaked at 2.2 MB of traced allocations; 2.7 MB with
    # a sorted copy of the squares beside them, or with both the Haar
    # coefficients and the DCT's reordered signal alive across the FFT. At
    # lambda = 20000 a cp block holds 16 trials, within 2^13 expected
    # jumps: 17.2 MB, as with 16-trial blocks of 2^14 samples
    peaks = run_fresh(PEAK_SCRIPT, json.dumps(argv), str(tmp_path / "out.csv"))
    assert len(peaks) == 2 and max(peaks) < most_mb * 2**20
