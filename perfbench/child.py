"""One benchmark rep in a fresh, single-threaded interpreter.

    python3 perfbench/child.py '<job as JSON>'

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
The job holds a mode ("import", "run" or "trace"), the cpwave source
directory the import must come from, and the CLI argv. The child imports
cpwave.cli, notes the monotonic clock (run.py turns that into the set-up
time), runs cli.main(argv) once, checks the CSV it wrote, and prints one
JSON line. In "run" mode a speed probe samples a reference loop while
cli.main runs. In "trace" mode the CLI run is instrumented at the calls
the harness makes, and afterwards the same trials are replayed through
those public calls, one span per call, and the replayed means are compared
with the CSV bit for bit.
"""

import sys
import time

import cpwave.cli

SETUP_END = time.monotonic()

import contextlib  # noqa: E402  (set-up ends at the cpwave import above)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from cpwave import cli, dct, haar, harness, processes, schemes, theory  # noqa: E402

HEADER = "process,scheme,dictionary,lambda,sigma0_sq,M,log2_M,mse_mean,mse_db,ci_lo,ci_hi,trials,seed"
CI_Z = 1.96  # the harness reports mean -/+ 1.96 standard errors
# Linear mse_mean must lie within THEORY_Z standard errors of theory. The
# mean of 40 skewed squared errors has a heavy lower tail: over 11,250
# seeded checks at lambda=500 and 40 trials the largest |z| was 5.7.
THEORY_Z = 6.0
DICT_COMPARE_CURVES = [(p, d, "best") for p in ("cp", "bm") for d in ("haar_discrete", "dct")]
HAAR_CALLS_FROM_SCHEMES = ("scale_table", "coeff", "coeff_envelope")
# The reference loop: fixed interpreter-bound work that a SIGALRM handler
# times every PROBE_PERIOD_S while cli.main runs. The machine's speed
# drifts by tens of percent within seconds, and dividing wall times by the
# speed sampled during the same rep cancels most of that. One reference
# second is the time REF_SECOND_ITERS iterations take, about one wall
# second on the 2-core machine the bounds were set on.
PROBE_ITERS = 10_000
PROBE_PERIOD_S = 0.03
REF_SECOND_ITERS = 16_000_000


def _ref_loop():
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i
    return total


class SpeedProbe:
    """Samples the reference loop's duration while the context is open."""

    def __init__(self):
        self.samples = []

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _ref_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.sample()

    def ref_second_s(self):
        return sum(self.samples) / len(self.samples) * (REF_SECOND_ITERS / PROBE_ITERS)


class Tracer:
    """Spans kept in memory: durations in seconds grouped by span name, and
    per module (the name up to its first dot) the call count and the self
    time, which is a span's duration minus that of the spans nested in it."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._inner = []

    def call(self, name, fn, *args, **kwargs):
        self._inner.append(0.0)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        inner = self._inner.pop()
        if self._inner:
            self._inner[-1] += elapsed
        module = name.partition(".")[0]
        self.samples[name].append(elapsed)
        self.self_s[module] += elapsed - inner
        self.calls[module] += 1
        return out

    def traced(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def wrap(self, module, attr, name):
        """Route calls through module.attr into spans; returns the undo."""
        fn = getattr(module, attr)
        setattr(module, attr, self.traced(name, fn))
        return lambda: setattr(module, attr, fn)


def _curves(args):
    if args.command == "dict-compare":
        return DICT_COMPARE_CURVES
    if args.process != "cp" or args.dictionary not in ("haar", "haar_analytic"):
        raise ValueError("the benchmark replays cp curves over analytic Haar only")
    return [(args.process, "haar_analytic", s) for s in args.schemes]


def check_output(text, args):
    """Problems found in a curve CSV, and its means keyed by
    (process, dictionary, scheme, M)."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return [f"unexpected CSV header {lines[:1]}"], {}
    cols = HEADER.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    curves = _curves(args)
    try:
        keys = [(r["process"], r["dictionary"], r["scheme"], int(r["M"])) for r in rows]
        means = {key: float(r["mse_mean"]) for key, r in zip(keys, rows)}
        stamps = {(int(r["trials"]), int(r["seed"])) for r in rows}
    except (KeyError, ValueError) as exc:
        return [f"malformed CSV row: {exc!r}"], {}
    if keys != [c + (m,) for c in curves for m in args.m]:
        return [f"unexpected rows {keys}"], {}
    problems = []
    if stamps != {(args.trials, args.seed)}:
        problems.append(f"trials/seed columns {sorted(stamps)}, expected {args.trials}/{args.seed}")
    for curve in curves:
        seq = [means[curve + (m,)] for m in args.m]
        if not all(math.isfinite(v) and v >= 0.0 for v in seq):
            problems.append(f"{curve}: mse_mean not finite and nonnegative: {seq}")
        if any(b > a for a, b in zip(seq, seq[1:])):
            problems.append(f"{curve}: mse_mean increases with M: {seq}")
    by_scheme = {c[2]: c for c in curves}
    for lo, hi in (("best", "greedy"), ("greedy", "linear")):
        if lo in by_scheme and hi in by_scheme:
            for m in args.m:
                a, b = means[by_scheme[lo] + (m,)], means[by_scheme[hi] + (m,)]
                if a > b:
                    problems.append(f"M={m}: {lo} {a!r} exceeds {hi} {b!r}")
    if "linear" in by_scheme:
        for key, r in zip(keys, rows):
            if key[2] != "linear":
                continue
            se = (float(r["ci_hi"]) - float(r["ci_lo"])) / (2 * CI_Z)
            expected = theory.linear_mse(key[3], args.sigma0_sq)
            if abs(means[key] - expected) > THEORY_Z * se:
                problems.append(
                    f"M={key[3]}: linear mse_mean {means[key]!r} is more than {THEORY_Z} "
                    f"standard errors ({se!r}) from theory.linear_mse {expected!r}"
                )
    return problems, means


def _count_path(path, m_max, counts):
    n = path.num_jumps
    scales = len(haar.nonzero_counts_by_scale(path, m_max))
    counts["jumps"].append(n)
    counts["scales"].append(scales)
    counts["visits"].append(n * scales)


def replay(args, tracer):
    """Re-run the CLI's trials through the public calls the harness makes,
    in the harness's order, one span per call. The calls schemes makes into
    haar are wrapped too, so the haar share of an analytic scheme shows.

    Returns per-trial self time in seconds by module plus "trial" (summed
    over the curves of dict-compare), the means keyed like check_output's,
    and the exact counts: per path, and per trial calls by module.
    """
    trials = args.trials
    per_trial = defaultdict(lambda: [0.0] * trials)
    calls = defaultdict(lambda: [0] * trials)
    counts = defaultdict(list)
    means = {}
    undo = [
        tracer.wrap(schemes, name, f"haar.{name}")
        for name in HAAR_CALLS_FROM_SCHEMES
        if hasattr(schemes, name)
    ]
    for process, dictionary, scheme_group in _replay_groups(args):
        config = harness.ExperimentConfig(
            process=process,
            schemes=scheme_group,
            dictionary=dictionary,
            m_values=args.m,
            lam=args.lam if process == "cp" else None,
            sigma0_sq=args.sigma0_sq,
            jump_variance=getattr(args, "jump_variance", None),
            grid_log2=args.grid_log2,
            trials=trials,
            master_seed=args.seed,
        )
        law = config.jump_law() if process == "cp" else None
        rows = []
        for t in range(trials):
            self_before, calls_before = dict(tracer.self_s), dict(tracer.calls)
            start = time.perf_counter()
            path, errors = _replay_trial(tracer, config, law, t)
            per_trial["trial"][t] += time.perf_counter() - start
            for module, total in tracer.self_s.items():
                per_trial[module][t] += total - self_before.get(module, 0.0)
            for module, n in tracer.calls.items():
                calls[module][t] += n - calls_before.get(module, 0)
            rows.append(errors)
            if path is not None:
                _count_path(path, max(args.m), counts)
        for si, scheme in enumerate(scheme_group):
            for mi, m in enumerate(args.m):
                values = [rows[t][si][mi] for t in range(trials)]
                means[(process, dictionary, scheme, m)] = math.fsum(values) / trials
    for restore in undo:
        restore()
    counts.update({f"{module}.calls": n for module, n in calls.items()})
    return per_trial, means, counts


def instrument_harness(tracer):
    """Rebind every reference the harness module holds to a traced public
    call, as a global or as a dict value, to a span wrapper, so that the
    CLI run itself records the layer spans inside harness.run. Returns the
    undo functions."""
    targets = {
        fn: f"{module.__name__.rpartition('.')[2]}.{fn.__name__}"
        for module, names in (
            (processes, ("derive_stream", "sample_path", "sample_grid", "brownian_grid")),
            (haar, ("discrete_haar_forward",)),
            (schemes, ("linear_errors", "greedy_errors", "best_errors", "best_errors_discrete")),
        )
        for fn in (getattr(module, name) for name in names)
    }
    undo = []
    for attr, value in list(vars(harness).items()):
        if callable(value) and value in targets:
            undo.append(tracer.wrap(harness, attr, targets[value]))
        elif isinstance(value, dict):
            for key, fn in list(value.items()):
                if callable(fn) and fn in targets:
                    value[key] = tracer.traced(targets[fn], fn)
                    undo.append(lambda d=value, k=key, f=fn: d.__setitem__(k, f))
    return undo


def _replay_trial(tracer, config, law, t):
    """One harness trial: the path (None for Brownian motion) and one list
    of squared errors per scheme."""
    ms = config.m_values
    stream = tracer.call("processes.derive_stream", processes.derive_stream, config.master_seed, t)
    path = None
    if config.process == "cp":
        path = tracer.call("processes.sample_path", processes.sample_path, config.lam, law, stream)
    if config.dictionary == "haar_analytic":
        profiles = [(s, getattr(schemes, f"{s}_errors")) for s in config.schemes]
        return path, [tracer.call(f"schemes.{s}_errors", fn, path, ms) for s, fn in profiles]
    if path is not None:
        samples = tracer.call("processes.sample_grid", processes.sample_grid, path, config.grid_log2)
    else:
        samples = tracer.call(
            "processes.brownian_grid", processes.brownian_grid,
            config.sigma0_sq, config.grid_log2, stream,
        )
    if config.dictionary == "haar_discrete":
        coeffs = tracer.call("haar.discrete_haar_forward", haar.discrete_haar_forward, samples)
    else:
        coeffs = tracer.call("dct.dct2_forward", dct.dct2_forward, samples).values
    errors = tracer.call("schemes.best_errors_discrete", schemes.best_errors_discrete, coeffs, ms)
    norm = float(2**config.grid_log2)
    return path, [[e / norm for e in errors]]


def _replay_groups(args):
    if args.command == "dict-compare":
        return [(p, d, (s,)) for p, d, s in DICT_COMPARE_CURVES]
    return [(args.process, "haar_analytic", tuple(args.schemes))]


def span_cost_s(rounds=20000):
    """Seconds one Tracer.call adds around a call, measured on a no-op."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(rounds):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        tracer.call("noop", noop)
    return max(0.0, (time.perf_counter() - start - bare) / rounds)


def trace_figures(args, cli_tracer, csv_means, problems):
    """Replay the traced CLI run's trials and gather the per-layer figures;
    returns them with the reference second measured after the replay."""
    run_s = math.fsum(cli_tracer.samples["harness.run"])
    layer_s = math.fsum(
        math.fsum(v) for name, v in cli_tracer.samples.items() if not name.startswith("harness.")
    )
    tracer = Tracer()
    start = time.perf_counter()
    per_trial, replay_means, counts = replay(args, tracer)
    replay_s = time.perf_counter() - start
    mismatched = [k for k in csv_means if replay_means.get(k) != csv_means[k]]
    if mismatched:
        problems.append(
            f"replayed means differ from the CSV at {mismatched[:3]}: "
            f"{[(replay_means.get(k), csv_means[k]) for k in mismatched[:3]]}"
        )
    speed = SpeedProbe()
    for _ in range(20):
        speed.sample()
    figures = {
        "spans_ms": {name: [s * 1e3 for s in v] for name, v in tracer.samples.items()},
        "per_trial_ms": {name: [s * 1e3 for s in v] for name, v in per_trial.items()},
        "run_s": run_s,
        "write_csv_s": math.fsum(cli_tracer.samples["harness.write_csv"]),
        "gap_s": run_s - layer_s,
        "counts": counts,
        "overhead_pct": 100.0 * span_cost_s() * sum(tracer.calls.values()) / replay_s,
    }
    return figures, speed.ref_second_s()


def main():
    job = json.loads(sys.argv[1])
    src = Path(job["src"]).resolve()
    if src not in Path(cpwave.__file__).resolve().parents:
        print(f"cpwave imported from {cpwave.__file__}, not from {src}", file=sys.stderr)
        return 3
    report = {
        "setup_end": SETUP_END,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if job["mode"] == "import":
        print(json.dumps(report))
        return 0
    argv = job["argv"]
    args = cli.build_parser().parse_args(argv)
    tracer = Tracer()
    undo = []
    if job["mode"] == "trace":
        run_attr = "run_dict_compare" if args.command == "dict-compare" else "run_mse_curve"
        undo = [
            tracer.wrap(harness, run_attr, "harness.run"),
            tracer.wrap(harness, "write_csv", "harness.write_csv"),
            tracer.wrap(dct, "dct2_forward", "dct.dct2_forward"),
        ] + instrument_harness(tracer)
    error = None
    probe = SpeedProbe()
    start = time.perf_counter()
    try:
        with probe if job["mode"] == "run" else contextlib.nullcontext():
            rc = cli.main(argv)
    except Exception as exc:  # the CLI would exit 1 with a traceback; report it instead
        rc, error = 1, "".join(traceback.format_exception_only(exc)).strip()
    report["main_s"] = time.perf_counter() - start - sum(probe.samples)
    for restore in undo:
        restore()
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if probe.samples:
        report["ref_second_s"] = probe.ref_second_s()
    report["rc"] = rc
    report["error"] = error
    if rc != 0:
        print(json.dumps(report))
        return 0
    data = Path(args.out).read_bytes()
    report["sha256"] = hashlib.sha256(data).hexdigest()
    problems, csv_means = check_output(data.decode("utf-8"), args)
    if job["mode"] == "trace" and not problems:
        report["trace"], report["ref_second_s"] = trace_figures(args, tracer, csv_means, problems)
    report["problems"] = problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
