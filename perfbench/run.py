"""The cpwave benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload cp_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from anywhere inside a checkout that holds src/cpwave; it imports
cpwave from that src/ and nothing else. The workloads are in spec.py, which
also writes BENCHMARK.json (`python3 perfbench/spec.py`).

A run is a closed loop with one caller. Each rep starts a fresh
single-threaded interpreter (child.py) that imports cpwave.cli and calls
cpwave.cli.main once, with `--trials <n> --seed <s> --workers 1 --out <file>`
appended to the workload's argv. Reps come in pairs that share a CLI seed
derived from --seed, so every output is produced twice and the two sha256
digests must agree. New pairs start until --seconds is used up and at
least one rep has completed.

--trace 0 reports the end-to-end metrics, as medians over the reps:
  trials_per_s  trials per second of cli.main
  setup_s       time from interpreter start through `import cpwave.cli`
  peak_rss_mb   ru_maxrss of the rep's process
The machine's speed drifts by tens of percent within seconds and from one
minute to the next, so both times are speed-adjusted: child.py times a
fixed reference loop every 30 ms while cli.main runs, and each rep's wall
times are divided by the length of a reference second at that moment
(16M loop iterations, about one wall second on the 2-core machine the
bounds were set on). The wall-clock medians are printed beside them.
--trace 1 reports the per-layer metrics from traced reps instead. The CLI
run is instrumented at the calls the harness makes, which gives
harness.run_s, harness.write_csv.ms, cli.self_s and harness.gap_s (run
time outside the layer spans: invariants and the reduction). Then the same
trials are replayed through the same public calls, one span per call plus
nested spans for the calls schemes makes into haar; that gives per-call
and per-trial times, mean self time per trial by module, the exact counts
(jumps, scales to the largest M from haar.nonzero_counts_by_scale,
jump-scale visits, haar calls) and the tracing overhead. dct.import_s comes
from `-X importtime`. Figures of calls that only some workloads make are
printed but are not metrics, so that no metric reads 0 by construction.

Every rep's CSV is checked: exit code 0, the fixed header and row set,
best <= greedy <= linear at each M, each curve non-increasing in M, and on
the cp curves linear mse_mean within 6 standard errors of
theory.linear_mse. A traced rep also checks that its replay reproduces the
CSV means bit for bit. `failed` counts reps that exit non-zero or fail a
check (fail_frac = failed / attempted); `correct` is false when any output
that was produced fails a check or two outputs of one seed differ.

Digests are also kept in .perfbench_out/hashes.json, keyed by workload,
CLI seed and a digest of src/: a differing digest for the same source is a
failure, one for other source is reported as a change. Machine facts
(nproc, Python, numpy, scipy) and the non-blank line count of src/ are
printed and written to .perfbench_out/, never reported as metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spec

ROOT = spec.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
HARD_LIMIT_S = 170.0  # every run must end within 180 s
_IMPORTTIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*cpwave\.dct$")


def cli_seed(seed: int, index: int) -> int:
    """The CLI master seed of the index-th pair of a run."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def src_lines() -> int:
    return sum(
        1 for path in SRC.rglob("*.py") for line in path.read_text().splitlines() if line.strip()
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(job: dict, timeout: float, importtime: bool = False):
    """Run one rep; returns its report, or None and the reason it died."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(CHILD), json.dumps(job)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"rep timed out after {timeout:.0f} s"
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        return None, f"rep exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    report["setup_s"] = report["setup_end"] - start
    report["wall_s"] = time.monotonic() - start
    found = [int(m.group(1)) for m in map(_IMPORTTIME.search, proc.stderr.splitlines()) if m]
    report["dct_import_s"] = found[0] / 1e6 if found else None
    return report, None


def quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end_metrics(reps, trials):
    done = [r for r in reps if r.get("rc") == 0]
    timed = [r for r in reps if "ref_second_s" in r]
    return {
        "trials_per_s": statistics.median(trials * r["ref_second_s"] / r["main_s"] for r in done),
        "setup_s": statistics.median(r["setup_s"] / r["ref_second_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024.0 for r in done),
    }


def per_layer_metrics(reps):
    """The reported per-layer metrics, and every other figure the traced
    replay gives (spans of calls some workload never makes), for printing."""
    traced = [r for r in reps if "trace" in r]
    traces = [r["trace"] for r in traced]
    figures = {}
    for span in sorted({name for t in traces for name in t["spans_ms"]}):
        pooled = [ms for t in traces for ms in t["spans_ms"].get(span, [])]
        figures[f"{span}.ms"] = statistics.median(pooled)
        figures[f"{span}.p90_ms"] = quantile(pooled, 0.9)
    # a module a rep never called into counts as 0 ms and 0 calls in its trials
    modules = {name for t in traces for name in t["per_trial_ms"]} - {"trial"}
    per_trial, counts = defaultdict(list), defaultdict(list)
    for t in traces:
        zeros = [0] * len(t["per_trial_ms"]["trial"])
        for name in modules | {"trial"}:
            per_trial[name].extend(t["per_trial_ms"].get(name, zeros))
        for module in modules:
            counts[f"{module}.calls"].extend(t["counts"].get(f"{module}.calls", zeros))
        for name in ("jumps", "scales", "visits"):
            counts[name].extend(t["counts"][name])
    for module in modules:
        figures[f"{module}.ms_per_trial"] = statistics.fmean(per_trial[module])
        figures[f"{module}.calls_per_trial"] = statistics.fmean(counts[f"{module}.calls"])
    imports = [r["dct_import_s"] for r in traced if r["dct_import_s"] is not None]
    figures.update({
        "trial.ms": statistics.median(per_trial["trial"]),
        "trial.p90_ms": quantile(per_trial["trial"], 0.9),
        "harness.run_s": statistics.median(t["run_s"] for t in traces),
        "harness.write_csv.ms": statistics.median(t["write_csv_s"] * 1e3 for t in traces),
        "harness.gap_s": statistics.median(t["gap_s"] for t in traces),
        "cli.self_s": statistics.median(
            r["main_s"] - r["trace"]["run_s"] - r["trace"]["write_csv_s"] for r in traced
        ),
        "dct.import_s": statistics.median(imports) if imports else 0.0,
        "processes.jumps_per_trial": statistics.fmean(counts["jumps"]),
        "haar.scales_per_trial": statistics.fmean(counts["scales"]),
        "haar.jump_scale_visits": statistics.fmean(counts["visits"]),
        "trace.overhead_pct": statistics.median(t["overhead_pct"] for t in traces),
    })
    reported = {m["name"]: figures.get(m["name"], 0.0) for m in spec.PER_LAYER}
    extra = {k: v for k, v in figures.items() if k not in reported}
    return reported, extra


def check_digests(name, trials, reps, notes):
    """Mark reps whose output digest disagrees with another output of the
    same seed and source; note digests that changed with the source."""
    record_path = OUT / "hashes.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    source = src_digest()
    by_seed = defaultdict(list)
    for r in reps:
        if r.get("sha256"):
            by_seed[r["seed"]].append(r)
    for seed, group in by_seed.items():
        key = f"{name} seed={seed} trials={trials}"
        seen = record.setdefault(key, {})
        digests = {r["sha256"] for r in group} | ({seen[source]} if source in seen else set())
        if len(digests) > 1:
            for r in group:
                r["problems"].append(f"seed {seed}: same source, different outputs {sorted(digests)}")
            continue
        sha = digests.pop()
        for other, old in seen.items():
            if other != source and old != sha:
                notes.append(f"output of {key} changed from {old[:16]} (src {other[:12]}) to {sha[:16]}")
        seen[source] = sha
        notes.append(f"output {key} sha256={sha}")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def check_counts(reps):
    """Counts of a traced rep must repeat exactly on the other rep of its seed."""
    by_seed = defaultdict(list)
    for r in reps:
        if "trace" in r:
            by_seed[r["seed"]].append(r)
    for seed, group in by_seed.items():
        if any(r["trace"]["counts"] != group[0]["trace"]["counts"] for r in group[1:]):
            for r in group:
                r["problems"].append(f"seed {seed}: counts differ between identical runs")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = spec.WORKLOADS[name]
    trials = workload["trials"]
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    out_csv = OUT / f"{name}.csv"
    warm, reason = run_child({"mode": "import", "src": str(SRC)}, timeout=60)
    if warm is None:
        raise RuntimeError(f"cannot import cpwave from {SRC}: {reason}")
    reps = []
    loop_start = time.monotonic()
    while True:
        pair = len(reps) // 2
        s = cli_seed(seed, pair)
        argv = workload["argv"] + [
            "--trials", str(trials), "--seed", str(s), "--workers", "1", "--out", str(out_csv),
        ]
        job = {"mode": "trace" if trace else "run", "src": str(SRC), "argv": argv}
        report, reason = run_child(job, timeout=max(1.0, deadline - time.monotonic()), importtime=trace)
        rep = report or {"error": reason}
        rep["seed"] = s
        rep.setdefault("problems", [])
        reps.append(rep)
        if len(reps) % 2:
            continue
        now = time.monotonic()
        est = statistics.median(r.get("wall_s", 0.0) for r in reps)
        if now + 2 * est > deadline - 5:
            break
        # a pair whose input makes the CLI fail yields no timing: go on until one completes
        if now - loop_start + est > seconds and any(r.get("rc") == 0 for r in reps):
            break
    notes = []
    check_digests(name, trials, reps, notes)
    if trace:
        check_counts(reps)
    failed = sum(r.get("rc") != 0 or bool(r["problems"]) for r in reps)
    correct = not any(r["problems"] for r in reps)
    for r in reps:
        if r.get("error"):
            notes.append(f"seed {r['seed']}: run failed: {r['error']}")
        for p in r["problems"]:
            notes.append(f"seed {r['seed']}: check failed: {p}")
    if not any("trace" in r if trace else r.get("rc") == 0 for r in reps):
        raise RuntimeError(f"{name}: no rep completed; " + "; ".join(notes[-3:]))
    if trace:
        metrics, extra = per_layer_metrics(reps)
    else:
        metrics, extra = end_to_end_metrics(reps, trials), {}
        wall_rate = statistics.median(trials / r["main_s"] for r in reps if r.get("rc") == 0)
        wall_setup = statistics.median(r["setup_s"] for r in reps if "setup_s" in r)
        notes.append(f"wall-clock medians: trials_per_s {wall_rate:.6g}, setup_s {wall_setup:.6g}")
    facts = {
        "nproc": os.cpu_count(),
        "python": warm["python"],
        "numpy": warm["numpy"],
        "scipy": warm["scipy"],
        "src_nonblank_lines": src_lines(),
        "ref_second_s": statistics.median(r["ref_second_s"] for r in reps if "ref_second_s" in r),
    }
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "trials_per_rep": trials,
        "attempted": len(reps),
        "failed": failed,
        "fail_frac": failed / len(reps),
        "correct": correct,
        "facts": facts,
        "notes": notes,
        "metrics": metrics,
        "unreported": extra,
        "reps": [
            {k: r.get(k) for k in ("seed", "rc", "error", "main_s", "setup_s", "ref_second_s", "rss_kb", "sha256")}
            for r in reps
        ],
    }
    report_path = OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    names = list(spec.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpwave" / "__init__.py").is_file():
        print(f"no cpwave sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    selected = names if args.workload == "all" else [args.workload]
    summaries = []
    for name in selected:
        try:
            s = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        summaries.append(s)
        print(f"workload {name} seed {args.seed} trace {args.trace}: "
              f"{s['attempted']} runs of {s['trials_per_rep']} trials, "
              f"{s['failed']} failed (fail_frac {s['fail_frac']:.3f})")
        print(f"facts {json.dumps(s['facts'], sort_keys=True)}")
        for note in s["notes"]:
            print(note)
        for metric, value in s["metrics"].items():
            print(f"{name} {metric} = {value:.6g} {units[metric]}")
        for figure, value in sorted(s["unreported"].items()):
            unit = "count" if figure.endswith("calls_per_trial") else "ms"
            print(f"{name} {figure} = {value:.6g} {unit} (not a metric of every workload)")
    prefix = len(selected) > 1
    result = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {
            (f"{s['workload']}.{metric}" if prefix else metric): {"value": value, "unit": units[metric]}
            for s in summaries
            for metric, value in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
