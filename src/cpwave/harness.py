"""Seeded Monte Carlo experiment orchestration and flat-file output.

Every trial owns a private random stream derived from (master_seed, trial
index), and per-trial results are reduced in trial order, so curves are
byte-for-byte reproducible regardless of how many worker processes run the
trials. Trials run in chunks of consecutive indices, each of whole blocks
or part of one: a chunk's streams are seeded in one
processes.stream_states call, serially or in the pool worker that runs it,
and a block sets one generator to each of its trials' states in turn. A
discrete block is sized by its grids' samples, and a compound Poisson
block, discrete or analytic, by its expected jumps too. A compound Poisson
block is one processes.PathBlock (sample_block), read by one
schemes.errors_rows call or turned into grids by PathBlock.values_at; a
Brownian block is one array of grids, each trial's row drawn from its own
stream with processes.brownian_grid's bits. A discrete dictionary
transforms a block's grids as one array and sums every row's errors in
one pass. Every sum is exact and correctly rounded, so it
does not depend on the paths or rows beside it, and blocks change no byte.
With several workers, whole chunks go to the pool. Each curve point's mean
and interval come from the same exact sums, over all points at once.
Scheme-ordering and monotonicity invariants are hard-asserted on every
trial of every run, one block at a time.
"""

from __future__ import annotations

import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import dct as dct_mod
from . import schemes, theory
from .processes import (
    MAX_GRID_LOG2,
    JumpLaw,
    _check_grid_log2,
    _positive,
    _range_sums,
    _streams,
    check_expected_jumps,
    derive_stream,
    is_int,
    sample_block,
    stream_states,
)
from .haar import discrete_haar_forward
from .schemes import SCHEMES, InvariantViolation

__all__ = [
    "ExperimentConfig",
    "CurveRecord",
    "EnvelopeRow",
    "SpacingRow",
    "SpacingCheckResult",
    "InvariantViolation",
    "run_mse_curve",
    "run_spacing_check",
    "run_envelope_check",
    "run_dict_compare",
    "write_text",
    "write_csv",
    "write_json",
    "read_json",
    "prepare_process",
]

PROCESSES = ("cp", "bm")
DICTIONARIES = ("haar_analytic", "haar_discrete", "dct")

_CI_Z = 1.96  # normal-approximation 95% interval

# The energy scale of a run: lambda * jump variance for cp (sigma0_sq by
# default) or sigma0_sq for bm, times 2^grid_log2 for a discrete
# dictionary, whose coefficients hold the energy of 2^grid_log2 samples.
# A path's mean energy is half its scale; past 2^1023 the mean sits within
# a factor of four of the float max, and energies and squares overflow.
MAX_ENERGY_SCALE = 2.0**1023

# A run holds every trial's errors as one (trials, curves, M) float64
# array; one that would pass 2 GiB is refused before anything is sampled.
MAX_RESULT_BYTES = 2**31


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo curve run."""

    process: str
    schemes: tuple[str, ...]
    dictionary: str
    m_values: tuple[int, ...]
    lam: float | None = None
    sigma0_sq: float = 1.0
    jump_variance: float | None = None  # None: sigma0_sq / lam (unit process variance)
    grid_log2: int = 10
    trials: int = 1000
    master_seed: int = 0

    def validate(self, dictionaries: int = 1) -> None:
        """Refuse a run that cannot be made, naming the input; dictionaries
        is how many dictionaries read each trial (dict-compare reads two)."""
        if self.process not in PROCESSES:
            raise ValueError(f"process must be one of {PROCESSES}, got {self.process!r}")
        if not self.schemes or any(s not in SCHEMES for s in self.schemes):
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}, got {self.schemes}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes must not repeat, got {self.schemes}")
        if self.dictionary not in DICTIONARIES:
            raise ValueError(
                f"dictionary must be one of {DICTIONARIES}, got {self.dictionary!r}"
            )
        if self.process == "cp":
            if self.lam is None:
                raise ValueError("process 'cp' requires a positive, finite lambda")
            _positive("lambda", self.lam)
        if self.process == "bm" and self.dictionary == "haar_analytic":
            raise ValueError(
                "process 'bm' has no exact jump representation; use dictionary "
                "'haar_discrete' or 'dct'"
            )
        if not self.m_values or any(not is_int(m) or m < 1 for m in self.m_values):
            raise ValueError(f"m_values must be integers >= 1, got {self.m_values}")
        if any(b <= a for a, b in zip(self.m_values, self.m_values[1:])):
            raise ValueError(f"m_values must be strictly increasing, got {self.m_values}")
        _check_grid_log2(self.grid_log2)
        if self.dictionary != "haar_analytic" and max(self.m_values) > 2**self.grid_log2:
            raise ValueError(
                f"largest M {max(self.m_values)} exceeds the {2 ** self.grid_log2} "
                f"coefficients of a grid_log2={self.grid_log2} grid"
            )
        if not is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials}")
        _positive("sigma0_sq", self.sigma0_sq)
        if self.jump_variance is not None:
            _positive("jump_variance", self.jump_variance)
        if not is_int(self.master_seed) or not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.process == "cp":
            self.jump_law()  # refuses a lambda with too many expected jumps
        scale = self.energy_scale()
        if not scale <= MAX_ENERGY_SCALE:
            raise ValueError(
                f"energy scale {scale:g} exceeds {MAX_ENERGY_SCALE:g}; path energies "
                "would overflow (lower sigma0_sq or the jump variance)"
            )
        size = 8 * self.trials * dictionaries * len(self.schemes) * len(self.m_values)
        if size > MAX_RESULT_BYTES:
            raise ValueError(
                f"{self.trials} trials of {dictionaries * len(self.schemes)} curves at "
                f"{len(self.m_values)} M would hold {size / 2**30:.3g} GiB of errors, more "
                f"than the {MAX_RESULT_BYTES >> 30} GiB a run may hold (lower the trials)"
            )

    def process_variance(self) -> float:
        """lambda * jump variance for cp given a jump variance, else
        sigma0_sq: the sigma0_sq the run's rows carry."""
        given = self.process == "cp" and self.jump_variance is not None
        return self.lam * self.jump_variance if given else self.sigma0_sq

    def energy_scale(self) -> float:
        """The run's energy scale, as MAX_ENERGY_SCALE defines it."""
        scale = self.process_variance()
        if self.dictionary != "haar_analytic":
            scale *= 2.0**self.grid_log2
        return scale

    def jump_law(self) -> JumpLaw:
        return JumpLaw.for_rate(self.lam, self.sigma0_sq, self.jump_variance)


@dataclass(frozen=True)
class CurveRecord:
    """One Monte Carlo estimate of a mean squared error at one M."""

    process: str
    scheme: str
    dictionary: str
    lam: float | None
    sigma0_sq: float
    m: int
    log2_m: float
    mse_mean: float
    mse_db: float
    ci_lo: float
    ci_hi: float
    trials: int
    seed: int


@dataclass(frozen=True)
class EnvelopeRow:
    """Greedy MSE estimate at one M next to its two-sided theory envelope."""

    lam: float
    m: int
    mse_mean: float
    ci_lo: float
    ci_hi: float
    envelope_lo: float
    envelope_hi: float
    two_pow_mean: float
    mean_inside: bool
    ci_overlap: bool


@dataclass(frozen=True)
class SpacingRow:
    """Empirical vs exact conditional survival of the minimum jump spacing."""

    n: int
    delta: float
    empirical: float
    exact: float
    abs_dev: float


@dataclass(frozen=True)
class SpacingCheckResult:
    rows: list[SpacingRow]
    paths_checked: int
    bound_violations: int


# ---------------------------------------------------------------------------
# per-trial work


# A block samples its trials back to back. A discrete dictionary transforms
# a block's grids as one array, in blocks of _BLOCK_SAMPLES >> grid_log2
# trials (at least one): 64 of a 2^10 grid, one from 2^16 up. A 1000-trial
# dict-compare at 2^10 then peaks at about 2.2 MB of traced allocations in
# _run_trials (0.9 MB in blocks of 16), and the transforms and sums run in
# a quarter as many calls. A compound Poisson block, grid or analytic,
# holds at most the largest power of two of trials within _BLOCK_JUMPS
# expected jumps, at least _ANALYTIC_BLOCK: 512 at lambda = 10, so few
# errors_rows calls (about 0.4 ms fixed cost each) read sparse paths, and
# 16 past 256, so a grid block's jump arrays do not grow with lambda;
# errors_rows sizes its own builds.
_BLOCK_SAMPLES = 2**16
_BLOCK_JUMPS = 2**13
_ANALYTIC_BLOCK = 16


def _block_size(config: ExperimentConfig) -> int:
    sizes = []
    if config.dictionary != "haar_analytic":
        sizes.append(max(1, _BLOCK_SAMPLES >> config.grid_log2))
    if config.process == "cp":
        per_block = _BLOCK_JUMPS / max(config.lam, 1.0)
        sizes.append(max(_ANALYTIC_BLOCK, 2 ** (math.frexp(per_block)[1] - 1)))
    return min(sizes)


def _brownian_block(sigma0_sq: float, grid_log2: int, states: np.ndarray) -> np.ndarray:
    """brownian_grid of each row of stream_states, bit for bit, as one
    (trials, 2^L) array: each trial's stream fills its own row, and one
    scaling and one cumsum turn the block into paths. numpy's normal draws
    0.0 + scale * z; the leading 0.0 of a row does that sum, so a -0.0
    from scale * z adds up to 0.0 in both."""
    n = 2**grid_log2
    grid = np.zeros((len(states), n))
    for row, stream in zip(grid, _streams(states)):
        stream.standard_normal(out=row[1:])
    grid *= math.sqrt(sigma0_sq / n)
    return np.cumsum(grid, axis=1, out=grid)


def _trial_errors(
    config: ExperimentConfig, trials: range, dictionaries: tuple[str, ...] = (), states=None
) -> np.ndarray:
    """Squared errors for a block of trials, as a (trials, curves, M) array:
    one curve per (dictionary, scheme) pair, dictionary-major. The
    dictionaries default to the config's own; all of them read each trial's
    one path or grid, from its own stream, whose state is the trial's row of
    states (by default the block's own stream_states): a cp block is one
    PathBlock, a bm block one array of Brownian grids. The analytic
    dictionary reads the paths in one errors_rows call; a discrete one
    transforms the grids, for cp the paths' values at i / 2^L, as one
    (trials, 2^L) array."""
    dictionaries = dictionaries or (config.dictionary,)
    ms, n = config.m_values, 2**config.grid_log2
    states = stream_states(config.master_seed, trials) if states is None else states
    if config.process == "cp":
        paths = sample_block(config.lam, config.jump_law(), config.master_seed, trials, states)
        if dictionaries != ("haar_analytic",):
            grid = paths.values_at(np.arange(n) / n)
    else:
        grid = _brownian_block(config.sigma0_sq, config.grid_log2, states)
    blocks = []
    for dictionary in dictionaries:
        if dictionary == "haar_analytic":
            block = schemes.errors_rows(paths, config.schemes, ms)
        else:
            coeffs = (
                discrete_haar_forward(grid)
                if dictionary == "haar_discrete"
                else dct_mod.dct2_forward(grid).values
            )
            block = schemes.errors_discrete_rows(coeffs, config.schemes, ms) / n
            del coeffs  # freed before the next dictionary's transform
        _assert_invariants(config, trials, block)
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


def _assert_invariants(config: ExperimentConfig, trials: range, block: np.ndarray) -> None:
    """Check a (trials, schemes, M) block of errors at once: each scheme's
    error is non-increasing in M, and best <= greedy <= linear. A failure
    is reported for the lowest failing trial: its first rise in M, scheme
    by scheme, or else its first misordered pair."""
    names = config.schemes
    ordered = (("best", "greedy"), ("greedy", "linear"), ("best", "linear"))  # lower first
    pairs = [(names.index(a), names.index(b)) for a, b in ordered if a in names and b in names]
    rising = block[:, :, 1:] > block[:, :, :-1]
    above = block[:, [a for a, _ in pairs]] > block[:, [b for _, b in pairs]]
    failed = rising.any(axis=(1, 2)) | above.any(axis=(1, 2))
    if failed.any():
        t = np.argmax(failed)
        if rising[t].any():
            s, i = np.argwhere(rising[t])[0]
            raise InvariantViolation(
                f"trial {trials[t]}: {names[s]} error increased with M "
                f"({block[t, s, i]} -> {block[t, s, i + 1]})"
            )
        p, i = np.argwhere(above[t])[0]
        lo, hi = pairs[p]
        raise InvariantViolation(
            f"trial {trials[t]}, M={config.m_values[i]}: {names[lo]} error {block[t, lo, i]} "
            f"exceeds {names[hi]} error {block[t, hi, i]}"
        )


# Freeing an untouched 16 MB block that glibc had to map raises its mmap
# threshold to 16 MB and its trim threshold to 32 MB (mallopt(3), dynamic
# M_MMAP_THRESHOLD). At the default 128 KB a run's block-sized arrays are
# mapped afresh, or the heap top is returned, after every block: one
# dict-compare run at 2^10 and 1000 trials took about 19,600 minor page
# faults that way and about 180 with the raised thresholds (x86-64 Linux,
# glibc). The block adds no resident memory; other allocators ignore it.
_HEAP_RESERVE = 1 << 21  # float64 items: 16 MB


def prepare_process(err: dict) -> dict:
    """Set up a process that runs trials, once: the CLI's own and each
    pool worker. Raises glibc's heap thresholds (above) and sets numpy's
    error state to err, a np.geterr() dict; returns the state it replaced."""
    np.empty(_HEAP_RESERVE)
    return np.seterr(**err)


# Streams are seeded a chunk of trials at a time (stream_states), at a
# fixed cost of about 240 us a call: a serial run seeds _SEED_CHUNK trials
# a call, and a pool hands each worker chunks of at least _MIN_CHUNK, about
# eight per worker. Chunks hold whole blocks, or part of a larger one.
_SEED_CHUNK = 4096
_MIN_CHUNK = 256


def _chunk_errors(config: ExperimentConfig, trials: range, dictionaries) -> np.ndarray:
    """_trial_errors of a chunk of trials, block by block, from streams
    seeded for the whole chunk at once."""
    states = stream_states(config.master_seed, trials)
    size = _block_size(config)
    return np.concatenate([
        _trial_errors(config, trials[i : i + size], dictionaries, states[i : i + size])
        for i in range(0, len(trials), size)
    ])


def _chunks(config: ExperimentConfig, workers: int) -> list[range]:
    """The run's trials in consecutive chunks of whole blocks, or of part of one."""
    step = _SEED_CHUNK
    if workers > 1:
        step = min(step, max(_MIN_CHUNK, -(-config.trials // (8 * workers))))
    size = min(_block_size(config), step)
    step = -(-step // size) * size
    return [range(t, min(t + step, config.trials)) for t in range(0, config.trials, step)]


def _run_trials(
    config: ExperimentConfig, dictionaries: tuple[str, ...], workers: int
) -> np.ndarray:
    """Every trial's errors, as a (trials, curves, M) array in trial order,
    from chunks of trials run in order, or mapped to a pool of workers."""
    chunks = _chunks(config, workers)
    if workers <= 1:
        per_chunk = [_chunk_errors(config, chunk, dictionaries) for chunk in chunks]
    else:
        # the workers run under the caller's numpy error state and heap
        # set-up, whatever the start method; a fork pool starts every worker
        # at once, so it holds no more than the chunks or the CPUs
        n = len(chunks)
        with ProcessPoolExecutor(
            max_workers=min(workers, n, os.cpu_count() or 1),
            initializer=prepare_process, initargs=(np.geterr(),),
        ) as pool:
            per_chunk = list(pool.map(_chunk_errors, [config] * n, chunks, [dictionaries] * n))
    return np.concatenate(per_chunk)


def _mean_ci(values) -> tuple[float, float, float]:
    """The mean of values, floats or a numpy column, and its 95% interval,
    from fsum sums: the one-column view of _mean_ci_columns, which falls
    back on it, column in place, where squares overflow."""
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, mean, mean
    try:
        var = math.fsum((float(v) - mean) ** 2 for v in values) / (n - 1)
        half = _CI_Z * math.sqrt(var / n)
    except OverflowError:
        # a squared deviation or their sum passed the float max: scale the
        # deviations into [1/2, 1) by a power of two, which is exact for
        # normal values, as is the square root of its square
        top = max(abs(float(v) - mean) for v in values)
        scale = math.ldexp(1.0, -math.frexp(top)[1])
        var = math.fsum(((float(v) - mean) * scale) ** 2 for v in values) / (n - 1)
        half = _CI_Z * math.sqrt(var / n) / scale
    return mean, mean - half, mean + half


# The column statistics hold a few copies of the columns they read; they
# read about this many values at a time (8 MB).
_STATS_BLOCK = 2**20


def _mean_ci_columns(values: np.ndarray) -> np.ndarray:
    """_mean_ci of each column of a (trials, points) array of finite values,
    bit for bit, as a (3, points) array of means, lower and upper ends;
    raises OverflowError where a column's sum overflows, as fsum does.

    Each column's sum, and then the sum of its squared deviations, is one
    _range_sums run, with fsum's bits; np.float_power squares each
    deviation with libm's pow, as Python's ** does (np.power and the
    product v * v may round a square differently). A column whose squares
    could pass the float max, alone or summed, where ** or fsum raises,
    takes _mean_ci itself, with its power-of-two scaled path."""
    n, points = values.shape
    out = np.empty((3, points))
    step = max(1, _STATS_BLOCK // n)
    for a in range(0, points, step):
        columns = values[:, a : a + step].T.copy()
        ends = np.arange(len(columns) + 1) * n
        mean = _range_sums(columns.ravel(), ends[:-1], ends[1:]) / n
        out[:, a : a + step] = mean
        if n == 1:
            continue
        with np.errstate(over="ignore"):
            squares = np.float_power(values[:, a : a + step].T - mean[:, None], 2.0)
        fit = squares.max(axis=1) <= sys.float_info.max / n
        var = _range_sums(squares[fit].ravel(), ends[: fit.sum()], ends[1 : fit.sum() + 1]) / (n - 1)
        half = _CI_Z * np.sqrt(var / n)
        out[1, a : a + step][fit] = mean[fit] - half
        out[2, a : a + step][fit] = mean[fit] + half
        for i in np.flatnonzero(~fit).tolist():
            out[:, a + i] = _mean_ci(values[:, a + i])
    return out


def _db(mean: float) -> float:
    return 10.0 * math.log10(mean) if mean > 0.0 else float("-inf")


def _run_curves(
    config: ExperimentConfig, dictionaries: tuple[str, ...], workers: int
) -> list[CurveRecord]:
    """Monte Carlo MSE curves for every (dictionary, scheme, M), in that
    order, with every dictionary read from the same trials."""
    config.validate(len(dictionaries))
    if not is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers}")
    points = [
        (dictionary, scheme, m)
        for dictionary in dictionaries
        for scheme in config.schemes
        for m in config.m_values
    ]
    try:
        values = _run_trials(config, dictionaries, workers).reshape(config.trials, len(points))
        if not np.isfinite(values).all():
            # some mean is inf or nan, or a sum overflows: report the first
            # in curve order, summing each column in place as fsum does
            for (_, scheme, m), column in zip(points, values.T):
                mean = math.fsum(column) / config.trials
                if not math.isfinite(mean):
                    raise OverflowError(f"the {scheme} mean at M={m} is {mean}")
        stats = _mean_ci_columns(values).T.tolist()
        records = [
            CurveRecord(
                process=config.process,
                scheme=scheme,
                dictionary=dictionary,
                lam=config.lam,
                sigma0_sq=config.process_variance(),
                m=int(m),
                log2_m=math.log2(m),
                mse_mean=mean,
                mse_db=_db(mean),
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                trials=config.trials,
                seed=int(config.master_seed),
            )
            for (dictionary, scheme, m), (mean, ci_lo, ci_hi) in zip(points, stats)
        ]
    except OverflowError as exc:
        # a path below MAX_ENERGY_SCALE can still reach the float max: its
        # squared levels reach tens of times the scale
        raise ValueError(
            f"energy scale {config.energy_scale():g} overflows on these paths ({exc}); "
            "lower sigma0_sq or the jump variance"
        ) from exc
    return records


def run_mse_curve(config: ExperimentConfig, workers: int = 1) -> list[CurveRecord]:
    """Monte Carlo MSE curve for every (scheme, M) in the config.

    Deterministic for a fixed master seed: each trial draws from its own
    derived stream and the reduction is done in trial order.
    """
    return _run_curves(config, (config.dictionary,), workers)


_SPACING_BLOCK = 2**22  # uniforms drawn at once: 32 MB


def _min_spacings(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Minimum jump spacing, the first gap from 0 included, of each of rows
    paths with n jumps at sorted uniform times. Rows are drawn in blocks of
    about _SPACING_BLOCK uniforms; the generator fills them in row order, so
    the draws do not depend on the block size."""
    out = np.empty(rows)
    step = max(1, _SPACING_BLOCK // n)
    for start in range(0, rows, step):
        u = np.sort(rng.random((min(step, rows - start), n)), axis=1)
        out[start : start + step] = np.diff(u, axis=1, prepend=0.0).min(axis=1)
    return out


def run_spacing_check(
    lam: float,
    n_values=(1, 2, 5),
    delta_grid=None,
    samples: int = 100_000,
    seed: int = 0,
) -> SpacingCheckResult:
    """Empirical check of the minimum-spacing law.

    Conditionally on a jump count n, spacings are generated directly from
    sorted uniforms and the empirical survival is compared with the exact
    formula on a delta grid (default {0.05, 0.1, 1/(2n)} per n). On top of
    that, `samples` unconditioned paths at rate lam are checked against the
    hard bound spacing <= 1/N.
    """
    _positive("lambda", lam)
    if any(not is_int(n) or n < 1 for n in n_values):
        raise ValueError(f"jump counts n must be integers >= 1, got {tuple(n_values)}")
    check_expected_jumps(lam)
    check_expected_jumps(max(n_values, default=0), "jump count n")
    # the spacings and the unconditioned paths' jump counts are arrays of
    # samples entries, held to the cap of an in-memory grid
    if not 1000 <= samples <= 2**MAX_GRID_LOG2:
        raise ValueError(f"samples must lie in [1000, {2**MAX_GRID_LOG2}], got {samples}")
    # a delta past 1/n for some n is skipped for that n; outside [0, 1] it
    # fits no n at all
    if delta_grid is not None and not all(0.0 <= d <= 1.0 for d in delta_grid):
        raise ValueError(f"delta must lie in [0, 1], got {tuple(delta_grid)}")
    rows: list[SpacingRow] = []
    for n in n_values:
        delta = _min_spacings(derive_stream(seed, int(n)), samples, int(n))
        grid = delta_grid if delta_grid is not None else [0.05, 0.1, 1.0 / (2 * n)]
        for d in grid:
            if not (0.0 <= d <= 1.0 / n):
                continue
            empirical = float(np.mean(delta >= d))
            exact = theory.spacing_survival(int(n), float(d))
            rows.append(
                SpacingRow(
                    n=int(n),
                    delta=float(d),
                    empirical=empirical,
                    exact=exact,
                    abs_dev=abs(empirical - exact),
                )
            )
    # unconditioned paths: the bound spacing <= 1/N must hold on every one
    rng = derive_stream(seed, 2**32)
    counts = rng.poisson(lam, samples)
    violations = 0
    for n in np.unique(counts):
        if n == 0:
            continue  # spacing is 1 by convention; no bound applies
        delta = _min_spacings(rng, int((counts == n).sum()), int(n))
        violations += int((delta > 1.0 / n).sum())
    return SpacingCheckResult(rows=rows, paths_checked=int(samples), bound_violations=violations)


def run_envelope_check(
    lam: float,
    m_values,
    trials: int = 1000,
    seed: int = 0,
    sigma0_sq: float = 1.0,
    workers: int = 1,
) -> list[EnvelopeRow]:
    """Greedy MSE curve against its two-sided closed-form envelope.

    The containment verdict asks the Monte Carlo mean to land inside
    [envelope_lo, envelope_hi]; because MSE distributions are skewed, a
    second, weaker verdict only asks the 95% interval to intersect it.
    """
    config = ExperimentConfig(
        process="cp",
        schemes=("greedy",),
        dictionary="haar_analytic",
        m_values=tuple(int(m) for m in m_values),
        lam=float(lam),
        sigma0_sq=float(sigma0_sq),
        trials=int(trials),
        master_seed=int(seed),
    )
    # the envelope refuses a constant that is not a normal double (lambda
    # past about 348.8 at sigma0_sq = 1), so evaluate it before any trial runs
    points = [theory.greedy_mse_envelope(m, lam, sigma0_sq) for m in config.m_values]
    records = run_mse_curve(config, workers=workers)
    rows = []
    for rec, point in zip(records, points):
        rows.append(
            EnvelopeRow(
                lam=float(lam),
                m=rec.m,
                mse_mean=rec.mse_mean,
                ci_lo=rec.ci_lo,
                ci_hi=rec.ci_hi,
                envelope_lo=point.envelope_lo,
                envelope_hi=point.envelope_hi,
                two_pow_mean=point.two_pow_mean,
                mean_inside=point.envelope_lo <= rec.mse_mean <= point.envelope_hi,
                ci_overlap=not (rec.ci_hi < point.envelope_lo or rec.ci_lo > point.envelope_hi),
            )
        )
    return rows


def run_dict_compare(
    lam: float,
    m_values,
    grid_log2: int = 10,
    trials: int = 1000,
    seed: int = 0,
    sigma0_sq: float = 1.0,
    workers: int = 1,
) -> list[CurveRecord]:
    """Best-M error curves for {cp, bm} x {haar_discrete, dct} on one grid
    and one seed set: each trial samples one path or grid per process and
    reads both dictionaries from it."""
    records = []
    for process in ("cp", "bm"):
        config = ExperimentConfig(
            process=process,
            schemes=("best",),
            dictionary="haar_discrete",
            m_values=tuple(int(m) for m in m_values),
            lam=float(lam) if process == "cp" else None,
            sigma0_sq=float(sigma0_sq),
            grid_log2=int(grid_log2),
            trials=int(trials),
            master_seed=int(seed),
        )
        records.extend(_run_curves(config, ("haar_discrete", "dct"), workers))
    return records


# ---------------------------------------------------------------------------
# flat-file output


# every record type writes its fields in declaration order; CSV headers
# rename three of them
_RECORD_TYPES = (CurveRecord, EnvelopeRow, SpacingRow, theory.TheoryPoint)
_HEADER = {"lam": "lambda", "m": "M", "log2_m": "log2_M"}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_text(text: str, path: str, what: str) -> None:
    """Write text to a file, or to stdout for path '-'; what names the
    content in the error raised when the file cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path!r}: {exc}") from exc


def write_csv(records, path: str) -> None:
    """Write records as CSV to a file, or to stdout for path '-': a header
    row plus one line per record, floats rendered with 17 significant
    digits (a zero mean shows up as mse_db '-inf')."""
    cls = type(records[0]) if records else CurveRecord
    if cls not in _RECORD_TYPES:
        raise ValueError(f"no CSV schema for records of type {cls.__name__}")
    names = [f.name for f in fields(cls)]
    lines = [",".join(_HEADER.get(name, name) for name in names)]
    for rec in records:
        lines.append(",".join(_format_cell(getattr(rec, name)) for name in names))
    write_text("\n".join(lines) + "\n", path, "CSV")


def write_json(config, records, path: str) -> None:
    """Write config plus records as one JSON document (full provenance) to
    a file, or to stdout for path '-'."""
    doc = {
        "config": asdict(config) if config is not None else None,
        "kind": type(records[0]).__name__ if records else "CurveRecord",
        "records": [asdict(rec) for rec in records],
    }
    write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", path, "JSON")


def _from_dict(cls, raw: dict):
    """Build cls from the keys it knows; keys it does not know are dropped,
    so files written by earlier versions still load."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in raw.items() if k in names})


def read_json(path: str):
    """Inverse of write_json: returns (config_or_None, records)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read JSON from {path!r}: {exc}") from exc
    config = None
    if doc.get("config") is not None:
        raw = dict(doc["config"])
        raw["schemes"] = tuple(raw["schemes"])
        raw["m_values"] = tuple(raw["m_values"])
        config = _from_dict(ExperimentConfig, raw)
    cls = {c.__name__: c for c in _RECORD_TYPES}[doc.get("kind", "CurveRecord")]
    records = [_from_dict(cls, rec) for rec in doc["records"]]
    return config, records
