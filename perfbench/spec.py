"""Workloads and metrics of the cpwave benchmark, and the writer of
BENCHMARK.json.

This module is the single source of both: run.py reads the workloads from
here, and `python3 perfbench/spec.py` rewrites BENCHMARK.json at the
repository root from the same tables.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_M_SPARSE = "4,8,16,32,64,128,256,512,1024"

# Each workload is one CLI invocation run in a fresh interpreter with
# `--trials <trials> --seed <derived> --workers 1 --out <file>` appended.
# The --workers pool is never used: wall-clock scaling on 2 shared cores
# does not repeat from run to run. Trial counts give each rep about 2 s of
# cli.main on the 2-core machine the bounds were set on. On cp_sparse a
# trial with exactly one jump (probability 4.5e-4) makes greedy_errors run
# past haar.MAX_SCALE, so about one rep in eight exits 1; such reps count
# as failed and are kept in the workload on purpose.
WORKLOADS = {
    "cp_sparse": {
        "argv": ["mse-curve", "--process", "cp", "--lambda", "10",
                 "--schemes", "linear,greedy,best", "--m", _M_SPARSE],
        "trials": 300,
        "why": "lambda=10, M to 1024: ~10 jumps and ~118 scales per trial, so per-scale cost "
               "in haar.scale_table and the scheme scans dominates; an all-scales ladder must "
               "win here",
    },
    "cp_dense": {
        "argv": ["mse-curve", "--process", "cp", "--lambda", "500",
                 "--schemes", "linear,greedy,best", "--m", _M_SPARSE],
        "trials": 40,
        "why": "lambda=500: ~500 jumps, ~11 scales, so the per-jump loop and the best-M heap "
               "dominate. All runs use --workers 1: pool scaling on 2 shared cores does not "
               "repeat",
    },
    "grid_compare": {
        "argv": ["dict-compare", "--lambda", "10", "--m", "16,32,64,128,256",
                 "--grid-log2", "10"],
        "trials": 1000,
        "why": "dict-compare on a 2^10 grid: sampling, discrete Haar, DCT and "
               "best_errors_discrete; bypasses analytic Haar, so ladder changes must leave "
               "it unchanged",
    },
}

# Over ten seeds the quartile spread of trials_per_s was 2-6 % and of
# peak_rss_mb 0.1 %; setup_s gets the largest bound allowed.
END_TO_END = [
    {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# Per-layer metrics come from the traced replay (see child.py). Only
# figures with work behind them on every workload are listed; spans of
# calls a workload never makes are printed, not reported.
# Calls made on every workload: per-call median and p90.
CALL_SPANS = ["processes.derive_stream", "processes.sample_path"]
# Modules with work on every workload: mean self time per trial.
MODULES = ["processes", "haar", "schemes"]

PER_LAYER = (
    [{"name": f"{span}.{stat}", "unit": "ms", "better": "lower"}
     for span in CALL_SPANS for stat in ("ms", "p90_ms")]
    + [{"name": f"{module}.ms_per_trial", "unit": "ms", "better": "lower"} for module in MODULES]
    + [
        {"name": "trial.ms", "unit": "ms", "better": "lower"},
        {"name": "trial.p90_ms", "unit": "ms", "better": "lower"},
        {"name": "harness.run_s", "unit": "s", "better": "lower"},
        {"name": "harness.write_csv.ms", "unit": "ms", "better": "lower"},
        {"name": "harness.gap_s", "unit": "s", "better": "lower"},
        {"name": "cli.self_s", "unit": "s", "better": "lower"},
        {"name": "dct.import_s", "unit": "s", "better": "lower"},
        {"name": "processes.jumps_per_trial", "unit": "count", "better": "lower"},
        {"name": "haar.scales_per_trial", "unit": "count", "better": "lower"},
        {"name": "haar.jump_scale_visits", "unit": "count", "better": "lower"},
        {"name": "haar.calls_per_trial", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ]
)

RUN_SECONDS = 30


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
