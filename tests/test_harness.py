"""Tests for the Monte Carlo harness, file output, and the CLI."""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpwave import JumpLaw, cli, derive_stream, harness, processes, sample_path, schemes
from cpwave.haar import structure
from cpwave.processes import PathBlock
from cpwave.harness import (
    CurveRecord,
    ExperimentConfig,
    run_dict_compare,
    run_envelope_check,
    run_mse_curve,
    run_spacing_check,
    read_json,
    write_csv,
    write_json,
    _trial_errors,
)
from cpwave.schemes import errors_discrete
from cpwave.theory import greedy_mse_envelope, linear_mse

from test_schemes import jumps, paths_of, reference_errors

CURVE_HEADER = "process,scheme,dictionary,lambda,sigma0_sq,M,log2_M,mse_mean,mse_db,ci_lo,ci_hi,trials,seed"


def small_config(**overrides):
    base = dict(
        process="cp",
        schemes=("linear", "greedy", "best"),
        dictionary="haar_analytic",
        m_values=(2, 8, 32),
        lam=10.0,
        trials=16,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


# True is an int to Python; as a count or an M it once ran as 1
@pytest.mark.parametrize(
    "call",
    [
        lambda: errors_discrete(np.ones(8), ("best",), [True]),
        lambda: schemes.errors(
            sample_path(10.0, JumpLaw(0.1), derive_stream(3, 0)), ("best",), [True]
        ),
        lambda: small_config(m_values=(True, 4)).validate(),
        lambda: small_config(trials=True).validate(),
        lambda: run_mse_curve(small_config(), workers=True),
        lambda: run_spacing_check(10.0, n_values=(1, True), samples=1000),
    ],
    ids=["discrete-m", "analytic-m", "m-values", "trials", "workers", "spacing-n"],
)
def test_bools_are_refused_as_counts(call):
    with pytest.raises(ValueError):
        call()


def test_config_rejects_missing_lambda():
    with pytest.raises(ValueError, match="lambda"):
        small_config(lam=None).validate()


def test_config_rejects_bm_analytic():
    with pytest.raises(ValueError, match="haar_discrete"):
        small_config(process="bm", lam=None).validate()


def test_config_rejects_non_increasing_m():
    with pytest.raises(ValueError, match="strictly increasing"):
        small_config(m_values=(8, 8)).validate()


def test_cli_refuses_repeated_schemes(tmp_path, capsys):
    # a repeated scheme once wrote each of its rows twice
    out = tmp_path / "twice.csv"
    argv = ["mse-curve", "--process", "cp", "--lambda", "10", "--schemes", "best,best",
            "--m", "4,16", "--trials", "5", "--seed", "1", "--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "repeat" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_config_rejects_m_beyond_grid():
    with pytest.raises(ValueError, match="exceeds"):
        small_config(dictionary="haar_discrete", m_values=(2048,), grid_log2=10).validate()


def test_config_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="schemes"):
        small_config(schemes=("linear", "magic")).validate()


def test_config_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials"):
        small_config(trials=0).validate()


# ---------------------------------------------------------------------------
# determinism and aggregation


def test_rerun_identical_records():
    cfg = small_config()
    assert run_mse_curve(cfg) == run_mse_curve(cfg)


def test_worker_count_independent():
    cfg = small_config(trials=24)
    assert run_mse_curve(cfg, workers=1) == run_mse_curve(cfg, workers=3)


def test_trial_builds_one_ladder_for_every_scheme(monkeypatch):
    # a block of trials is built once for every scheme, below each path's
    # first depth; the paths whose depth certificate fails are read again in
    # one more build, of exactly their whole ladders from scale 0 to their
    # resolutions; and every row is the whole-ladder reference's
    calls, verdicts = [], []
    real_ladders, real_certified = schemes.ladders, schemes._certified

    def counting_ladders(block, hi, split, *rest):
        calls.append((paths_of(block), hi))
        return real_ladders(block, hi, split, *rest)

    def recording_certified(*args):
        verdicts.append(real_certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(schemes, "ladders", counting_ladders)
    monkeypatch.setattr(schemes, "_certified", recording_certified)
    monkeypatch.setattr(schemes, "_BUILD_CELLS", 2**62)  # each 4-trial block in one build
    truncated = reread = 0
    configs = (
        small_config(),
        small_config(lam=500.0, m_values=(4, 64, 1024)),
        # trial 132 of this run fails its certificate
        small_config(lam=3.0, m_values=(4, 16, 64), trials=136),
    )
    for cfg in configs:
        assert len(cfg.schemes) == 3
        k = max(cfg.m_values)
        for start in range(0, cfg.trials, 4):
            calls.clear()
            verdicts.clear()
            block = _trial_errors(cfg, range(start, start + 4))
            assert [[len(row) for row in rows] for rows in block] == [[len(cfg.m_values)] * 3] * 4
            (paths, built), *rest = calls
            sampled = [sample_path(cfg.lam, cfg.jump_law(), derive_stream(cfg.master_seed, t))
                       for t in range(start, start + 4)]
            assert jumps(paths) == jumps(sampled) and len(rest) <= 1
            e = structure(PathBlock.of(paths))[1]
            assert built == [min(schemes._first_depth(p.num_jumps, k), r) for p, r in zip(paths, e)]
            (held,) = verdicts  # one certificate per block, whole ladders too
            rejected = [i for i in range(4) if not held[i]]
            if rest:
                ((again, whole),) = rest
                assert jumps(again) == jumps([paths[i] for i in rejected])
                assert whole == [e[i] for i in rejected]
                assert all(built[i] < e[i] for i in rejected)
            else:
                assert not rejected
            expected = [[reference_errors(p, s, cfg.m_values) for s in cfg.schemes] for p in paths]
            assert row_bits(block) == row_bits(expected)
            truncated += sum(b < r and ok for b, r, ok in zip(built, e, held))
            reread += len(rejected)
    assert truncated > 0 and reread > 0


def test_mean_is_fsum_of_trial_errors():
    cfg = small_config(schemes=("greedy",), m_values=(8,), trials=50)
    rec = run_mse_curve(cfg)[0]
    errors = [rows[0][0] for rows in _trial_errors(cfg, range(cfg.trials))]
    assert rec.mse_mean == math.fsum(errors) / cfg.trials


@st.composite
def stat_columns(draw):
    """A (trials, points) array: all-zero columns, and columns mixing small
    values with ones whose squared deviations, or sums, pass the float max."""
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    cell = st.one_of(
        st.just(0.0), st.floats(0.0, 10.0), st.floats(1e150, 1e160), st.floats(1e300, 1.7e308),
        st.sampled_from([5e-324, 2.0**-1022, 1e-300]),
    )
    column = st.one_of(st.just([0.0] * n), st.lists(cell, min_size=n, max_size=n))
    return np.array([draw(column) for _ in range(k)]).T.reshape(n, k)


@given(stat_columns())
@example(np.zeros((1, 3)))
@example(np.array([[2.5, 0.0]]))
@example(np.array([[1e200, 0.0], [0.0, 1.0], [3e200, 2.0]]))  # squares past the float max
@example(np.full((4, 2), 1e154))  # the squares' sum past it
@example(np.random.default_rng(3).lognormal(-10.0, 5.0, (2000, 3)))
@settings(max_examples=200, deadline=None)
def test_mean_ci_columns_equal_mean_ci_per_column(values):
    try:
        expected = [[v.hex() for v in harness._mean_ci(c)] for c in values.T.tolist()]
    except OverflowError:
        expected = None
    if expected is None:
        with pytest.raises(OverflowError):
            harness._mean_ci_columns(values)
    else:
        got = harness._mean_ci_columns(values)
        assert [[float(v).hex() for v in c] for c in got.T] == expected


# peaks when each column was read as a list: 67 and 50 MB; read in place,
# 2.1 MB, and 34 MB from the column statistics' vector passes
@pytest.mark.parametrize("fault, most", [("inf", 2**22), ("overflowing squares", 40 * 2**20)])
def test_non_finite_and_overflow_columns_are_read_in_place(monkeypatch, fault, most):
    # 2^20 trials of two points: 16 MB of errors, and as many Python floats
    # if their columns were read as lists
    values = np.ones((2**20, 1, 2))
    if fault == "inf":
        values[-1, 0, 0] = np.inf
    else:
        values[::2, 0, 1] = 1e300  # deviations of 5e299, whose squares overflow
    monkeypatch.setattr(harness, "_run_trials", lambda config, dictionaries, workers: values)
    cfg = small_config(schemes=("greedy",), m_values=(2, 8), trials=len(values))
    refused = pytest.raises(ValueError, match=r"on these paths \(the greedy mean at M=2 is inf\)")
    tracemalloc.start()
    try:
        with refused if fault == "inf" else contextlib.nullcontext():
            records = run_mse_curve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most, peak
    if fault != "inf":  # the scaled fallback's bits, as from a list
        assert [(r.mse_mean, r.ci_lo, r.ci_hi) for r in records] == [
            (1.0, 1.0, 1.0), harness._mean_ci(values[:, 0, 1].tolist())]


@st.composite
def discrete_runs(draw):
    """A small discrete-dictionary config, the dictionaries its trials read,
    and a block length: 1, 3, 16 or every trial."""
    grid_log2 = draw(st.integers(min_value=1, max_value=6))
    n = 2**grid_log2
    ms = sorted(draw(st.sets(st.integers(min_value=1, max_value=n))) | {1, n})
    process = draw(st.sampled_from(["cp", "bm"]))
    chosen = draw(st.sets(st.sampled_from(schemes.SCHEMES), min_size=1))
    config = ExperimentConfig(
        process=process,
        schemes=tuple(s for s in schemes.SCHEMES if s in chosen),
        dictionary="haar_discrete",
        m_values=tuple(ms),
        lam=draw(st.sampled_from([0.5, 10.0, 50.0])) if process == "cp" else None,
        grid_log2=grid_log2,
        trials=draw(st.integers(min_value=1, max_value=20)),
        master_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    dictionaries = draw(st.sampled_from([("haar_discrete",), ("dct",), ("haar_discrete", "dct")]))
    return config, dictionaries, draw(st.sampled_from([1, 3, 16, config.trials]))


def row_bits(per_trial):
    return [[[e.hex() for e in row] for row in rows] for rows in per_trial]


@given(discrete_runs())
@settings(max_examples=60, deadline=None)
def test_trial_blocks_give_the_rows_of_single_trials(run):
    config, dictionaries, size = run
    trials = config.trials
    single = [_trial_errors(config, range(t, t + 1), dictionaries)[0] for t in range(trials)]
    blocked = [
        rows
        for start in range(0, trials, size)
        for rows in _trial_errors(config, range(start, min(start + size, trials)), dictionaries)
    ]
    assert row_bits(blocked) == row_bits(single)


@given(
    sigma0_sq=st.floats(min_value=5e-324, max_value=1e300),
    grid_log2=st.sampled_from([1, 6, 10]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    first=st.integers(min_value=0, max_value=2**40),
    trials=st.integers(min_value=1, max_value=5),
)
# at 5e-324, sigma0_sq / 2^L underflows to 0 and scale * z is -0.0 for every
# negative z; at 1e-300 the increments are tiny but normal
@example(sigma0_sq=5e-324, grid_log2=10, seed=5, first=0, trials=5)
@example(sigma0_sq=1e-300, grid_log2=10, seed=5, first=0, trials=5)
@settings(max_examples=60, deadline=None)
def test_brownian_block_rows_have_brownian_grid_bits(sigma0_sq, grid_log2, seed, first, trials):
    block = harness._brownian_block(
        sigma0_sq, grid_log2, processes.stream_states(seed, range(first, first + trials))
    )
    expected = [
        processes.brownian_grid(sigma0_sq, grid_log2, derive_stream(seed, t)).tobytes()
        for t in range(first, first + trials)
    ]
    assert [row.tobytes() for row in block] == expected


@st.composite
def analytic_runs(draw):
    """A small analytic config of all three schemes and a block length: 1,
    3, 16, 512 (lambda = 10's harness block) or every trial."""
    ms = sorted(draw(st.sets(st.integers(min_value=1, max_value=2048), max_size=4)) | {1})
    config = small_config(
        m_values=tuple(ms),
        lam=draw(st.sampled_from([0.5, 3.0, 10.0, 500.0])),
        trials=draw(st.integers(min_value=1, max_value=40)),
        master_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    return config, draw(st.sampled_from([1, 3, 16, 512, config.trials]))


@given(analytic_runs())
# more trials than a 512-trial block, at M to 1024: several errors_rows blocks in each
@example((small_config(m_values=(4, 64, 1024), trials=600, master_seed=3), 512))
@settings(max_examples=40, deadline=None)
def test_analytic_trial_blocks_give_the_rows_of_single_trials(run):
    config, size = run
    trials = config.trials
    single = [_trial_errors(config, range(t, t + 1))[0] for t in range(trials)]
    blocked = [
        rows
        for start in range(0, trials, size)
        for rows in _trial_errors(config, range(start, min(start + size, trials)))
    ]
    assert row_bits(blocked) == row_bits(single)


def test_runs_seed_their_streams_a_chunk_at_a_time(monkeypatch):
    # chunks hold whole blocks: _SEED_CHUNK trials serially, and for a pool
    # about eight a worker, of at least _MIN_CHUNK (grids of 2^10: blocks of 64)
    grid = dict(process="bm", dictionary="dct", schemes=("best",), m_values=(4,), lam=None)
    assert harness._chunks(small_config(trials=300, **grid), 1) == [range(300)]
    assert harness._chunks(small_config(trials=300, **grid), 2) == [range(256), range(256, 300)]
    assert [len(c) for c in harness._chunks(small_config(trials=20_000, **grid), 2)] == [1280] * 15 + [800]
    assert {len(c) for c in harness._chunks(small_config(trials=10**6, **grid), 3)} == {4096, 576}
    assert [len(c) for c in harness._chunks(small_config(trials=9000), 1)] == [4096, 4096, 808]
    # one stream_states call per chunk, and the rows do not depend on the chunks
    seeded, real = [], harness.stream_states
    monkeypatch.setattr(harness, "stream_states", lambda seed, t: seeded.append(t) or real(seed, t))
    cfg = small_config(trials=100)
    whole = harness._run_trials(cfg, (cfg.dictionary,), 1)
    monkeypatch.setattr(harness, "_SEED_CHUNK", 20)  # within lambda = 10's 2048-trial block
    chunked = harness._run_trials(cfg, (cfg.dictionary,), 1)
    assert seeded == [range(100)] + [range(t, t + 20) for t in range(0, 100, 20)]
    assert chunked.tobytes() == whole.tobytes()
    # rounded up to two blocks of 16 at lambda = 2000, and part of a 64-trial block at 500
    assert [len(c) for c in harness._chunks(small_config(trials=100, lam=2000.0), 1)] == [32] * 3 + [4]
    assert [len(c) for c in harness._chunks(small_config(trials=100, lam=500.0), 1)] == [20] * 5


def test_analytic_blocks_never_widen_a_chunk():
    # a pool's chunks stay at about eight a worker, and a serial run's at
    # _SEED_CHUNK, whatever the block
    assert [len(c) for c in harness._chunks(small_config(trials=1000), 2)] == [256] * 3 + [232]
    assert harness._block_size(small_config(lam=1.0)) == 32768
    for lam in (0.01, 0.5, 1.0):
        assert [len(c) for c in harness._chunks(small_config(trials=9000, lam=lam), 1)] == [4096, 4096, 808]
    # nor does a grid block: 64 trials of 2^10, or 2^15 of 2^1
    bm = dict(process="bm", dictionary="dct", schemes=("best",), m_values=(2,), lam=None)
    assert [len(c) for c in harness._chunks(small_config(trials=1000, **bm), 2)] == [256] * 3 + [232]
    for config in (small_config(trials=9000, grid_log2=1, **bm),
                   small_config(trials=9000, grid_log2=1, lam=1.0, dictionary="dct", m_values=(2,))):
        assert harness._block_size(config) >= 8192
        assert [len(c) for c in harness._chunks(config, 1)] == [4096, 4096, 808]


def test_block_size_follows_the_sample_budget():
    blocks = [small_config(dictionary=d, grid_log2=g) for d in ("haar_discrete", "haar_analytic")
              for g in (1, 10, 13, 14, 20)]
    # analytic runs sample no grid: their blocks do not depend on grid_log2
    assert [harness._block_size(cfg) for cfg in blocks] == [2048, 64, 8, 4, 1] + [2048] * 5
    # but on lambda: the largest power of two within 2^15 expected jumps, at least 16
    rates = (0.5, 10.0, 100.0, 500.0, 513.0, 2000.0)
    assert [harness._block_size(small_config(lam=lam)) for lam in rates] == [32768, 2048, 256, 64, 32, 16]
    # a cp grid block keeps within both: 64 grids of 2^10 at lambda = 10,
    # and fewer where the jumps are dense
    grids = [small_config(dictionary="dct", lam=lam) for lam in (10.0, 600.0, 20000.0)]
    assert [harness._block_size(cfg) for cfg in grids] == [64, 32, 16]


def forged_block(trials, fault):
    """A (trials, 3 schemes, 3 M) block of valid errors with one fault in
    the given trial: (scheme, M index, value)."""
    good = np.array([[4.0, 2.0, 1.0], [3.0, 1.5, 0.5], [2.0, 1.0, 0.25]])  # linear, greedy, best
    block = np.repeat(good[None], trials, axis=0)
    trial, scheme, mi, value = fault
    block[trial, scheme, mi] = value
    return block


@pytest.mark.parametrize("chosen, fault, message", [
    ((0, 1, 2), (2, 1, 2, 1.6), "trial 9: greedy error increased with M (1.5 -> 1.6)"),
    ((0, 1, 2), (0, 0, 1, 4.5), "trial 7: linear error increased with M (4.0 -> 4.5)"),
    ((0, 1, 2), (1, 2, 0, 3.5), "trial 8, M=2: best error 3.5 exceeds greedy error 3.0"),
    ((0, 1, 2), (3, 1, 1, 2.5), "trial 10, M=4: greedy error 2.5 exceeds linear error 2.0"),
    ((0, 2), (2, 0, 2, 0.125), "trial 9, M=8: best error 0.25 exceeds linear error 0.125"),
])
def test_invariants_raise_the_message_of_the_lowest_failing_trial(chosen, fault, message):
    names = ("linear", "greedy", "best")
    cfg = small_config(schemes=tuple(names[i] for i in chosen), m_values=(2, 4, 8))
    block = forged_block(5, fault)
    block[4, :, 2] = 99.0  # a later failing trial must not change the message
    block = block[:, list(chosen)]
    with pytest.raises(schemes.InvariantViolation) as raised:
        harness._assert_invariants(cfg, range(7, 12), block)
    assert str(raised.value) == message
    valid = forged_block(4, (0, 0, 0, 4.0))[:, list(chosen)]  # 4.0 is the value already there
    harness._assert_invariants(cfg, range(7, 11), valid)


def test_cli_multi_block_analytic_run_is_worker_invariant(tmp_path):
    # lambda = 100 runs in 256-trial blocks, each read in several
    # errors_rows blocks; 600 trials make three, the last one short
    args = ["mse-curve", "--process", "cp", "--lambda", "100", "--schemes", "linear,greedy,best",
            "--m", "4,64,1024", "--trials", "600", "--seed", "11"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli(*args, "--out", str(one), "--workers", "1") == 0
    assert run_cli(*args, "--out", str(two), "--workers", "2") == 0
    assert one.read_bytes() == two.read_bytes()


# lambda = 500 runs in 64-trial blocks, each read in three errors_rows
# blocks and built about 3 paths at a time; 150 trials make three blocks,
# the last one short
DENSE_ARGV = ["mse-curve", "--process", "cp", "--lambda", "500", "--schemes", "linear,greedy,best",
              "--m", "4,8,16,32,64,128,256,512,1024", "--trials", "150", "--seed", "1"]


def test_cli_multi_block_dense_run_is_worker_invariant(tmp_path):
    args = DENSE_ARGV
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli(*args, "--out", str(one), "--workers", "1") == 0
    assert run_cli(*args, "--out", str(two), "--workers", "2") == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("args", [
    ["mse-curve", "--process", "cp", "--lambda", "10", "--schemes", "linear,greedy,best",
     "--m", "4,64,1024", "--trials", "40", "--seed", "12"],
    ["dict-compare", "--lambda", "10", "--m", "4,16,64", "--grid-log2", "6", "--trials", "40",
     "--seed", "12"],
], ids=["analytic", "grid"])
def test_cli_multi_chunk_pool_run_writes_the_serial_bytes(tmp_path, monkeypatch, args):
    # at the pool's least chunk, 256 trials, a small run is one chunk; with
    # chunks of 4 trials the pool maps ten of them to its two workers
    monkeypatch.setattr(harness, "_MIN_CHUNK", 4)
    chunked, real = [], harness._chunks
    monkeypatch.setattr(harness, "_chunks", lambda config, workers: chunked.append(
        (workers, real(config, workers))) or chunked[-1][1])
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli(*args, "--out", str(one), "--workers", "1") == 0
    assert [len(chunks) for _, chunks in chunked] == [1] * len(chunked)
    chunked.clear()
    assert run_cli(*args, "--out", str(two), "--workers", "2") == 0
    assert chunked and all(w == 2 and len(chunks) == 10 for w, chunks in chunked)
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("workers, trials, cpus, size", [
    (2, 100, 8, 1),  # one chunk
    (1_000_000, 1000, 3, 3),  # four chunks, three CPUs
    (1_000_000, 1000, None, 1),  # os.cpu_count() cannot tell
])
def test_pool_holds_no_more_workers_than_chunks_or_cpus(monkeypatch, workers, trials, cpus, size):
    # a fork pool starts all its workers at the first submit; the stand-in
    # records the size asked for and maps in this process, so none starts
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers, **_: sizes.append(
        max_workers) or contextlib.nullcontext(SimpleNamespace(map=map)))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = small_config(trials=trials)
    assert run_mse_curve(cfg, workers=workers) == run_mse_curve(cfg)
    assert sizes == [size]


def test_analytic_csv_does_not_depend_on_grid_log2(tmp_path):
    # the analytic dictionary samples no grid: its blocks follow lambda,
    # whatever --grid-log2 is, and its bytes do not move
    args = ["mse-curve", "--process", "cp", "--lambda", "10", "--dictionary", "haar",
            "--schemes", "linear,greedy,best", "--m", "4,64,1024", "--trials", "40", "--seed", "3"]
    outs = []
    for grid_log2 in (1, 10, 14):
        out = tmp_path / f"grid{grid_log2}.csv"
        assert run_cli(*args, "--grid-log2", str(grid_log2), "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_mse_db_formula_and_sentinel(tmp_path):
    cfg = small_config(
        schemes=("best",),
        dictionary="haar_discrete",
        m_values=(512, 1024),
        grid_log2=10,
        trials=4,
    )
    records = run_mse_curve(cfg)
    for rec in records:
        if rec.mse_mean > 0:
            assert rec.mse_db == pytest.approx(10.0 * math.log10(rec.mse_mean), abs=1e-12)
    # at M = 2^L every trial error is exactly zero: the db column says -inf
    assert records[-1].mse_mean == 0.0
    assert records[-1].mse_db == float("-inf")
    out = tmp_path / "curve.csv"
    write_csv(records, str(out))
    last_line = out.read_text().strip().splitlines()[-1]
    assert last_line.split(",")[8] == "-inf"


def test_per_trial_scheme_ordering_in_aggregates():
    cfg = small_config(trials=60, m_values=(4, 8, 16, 32, 64, 128, 256))
    records = run_mse_curve(cfg)
    by = {(r.scheme, r.m): r.mse_mean for r in records}
    for m in cfg.m_values:
        assert by[("best", m)] <= by[("greedy", m)] <= by[("linear", m)]
    for scheme in cfg.schemes:
        means = [by[(scheme, m)] for m in cfg.m_values]
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_trials_one_gives_degenerate_ci():
    cfg = small_config(schemes=("linear",), m_values=(8,), trials=1)
    rec = run_mse_curve(cfg)[0]
    assert rec.ci_lo == rec.mse_mean == rec.ci_hi


def test_linear_mean_within_ci_of_exact_value():
    cfg = ExperimentConfig(
        process="cp",
        schemes=("linear",),
        dictionary="haar_analytic",
        m_values=(8,),
        lam=10.0,
        trials=400,
        master_seed=100,
    )
    rec = run_mse_curve(cfg)[0]
    assert rec.ci_lo <= linear_mse(8, 1.0) <= rec.ci_hi


# ---------------------------------------------------------------------------
# csv / json output


def test_csv_schema_and_roundtrip(tmp_path):
    cfg = small_config(schemes=("greedy",), m_values=(4, 8), trials=5)
    records = run_mse_curve(cfg)
    out = tmp_path / "records.csv"
    write_csv(records, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == "cp" and first[1] == "greedy" and first[5] == "4"


def test_csv_empty_records_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv([], str(out))
    assert out.read_text() == CURVE_HEADER + "\n"


def test_csv_single_record_two_lines(tmp_path):
    cfg = small_config(schemes=("linear",), m_values=(8,), trials=2)
    records = run_mse_curve(cfg)
    out = tmp_path / "one.csv"
    write_csv(records, str(out))
    assert len(out.read_text().strip().splitlines()) == 2


def test_csv_17_significant_digits(tmp_path):
    rec = CurveRecord(
        process="cp",
        scheme="linear",
        dictionary="haar_analytic",
        lam=10.0,
        sigma0_sq=1.0,
        m=8,
        log2_m=3.0,
        mse_mean=1.0 / 3.0,
        mse_db=-4.771212547196624,
        ci_lo=0.3,
        ci_hi=0.4,
        trials=10,
        seed=0,
    )
    out = tmp_path / "digits.csv"
    write_csv([rec], str(out))
    assert "0.33333333333333331" in out.read_text()


def test_json_roundtrip_identical(tmp_path):
    cfg = small_config(schemes=("best",), m_values=(4, 16), trials=6)
    records = run_mse_curve(cfg)
    out = tmp_path / "run.json"
    write_json(cfg, records, str(out))
    cfg2, records2 = read_json(str(out))
    assert cfg2 == cfg
    assert records2 == records


def test_json_reload_byte_identical_on_rewrite(tmp_path):
    cfg = small_config(schemes=("linear",), m_values=(4,), trials=3)
    records = run_mse_curve(cfg)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(cfg, records, str(a))
    cfg2, records2 = read_json(str(a))
    write_json(cfg2, records2, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_read_json_drops_unknown_config_keys(tmp_path):
    # files written before output_path left the config still load
    cfg = small_config(schemes=("linear",), m_values=(4,), trials=3)
    records = run_mse_curve(cfg)
    out = tmp_path / "old.json"
    write_json(cfg, records, str(out))
    doc = json.loads(out.read_text())
    doc["config"]["output_path"] = "curves.csv"
    out.write_text(json.dumps(doc))
    assert read_json(str(out)) == (cfg, records)


def test_write_csv_bad_path_raises_oserror():
    with pytest.raises(OSError, match="cannot write"):
        write_csv([], "/nonexistent-dir/x.csv")


# ---------------------------------------------------------------------------
# spacing check


def test_spacing_check_rows_and_bound():
    result = run_spacing_check(10.0, n_values=(1, 2), samples=20_000, seed=3)
    assert result.bound_violations == 0
    assert result.paths_checked == 20_000
    for row in result.rows:
        assert row.abs_dev < 0.02
        assert row.abs_dev == pytest.approx(abs(row.empirical - row.exact))


def test_spacing_check_degenerate_grid_points():
    result = run_spacing_check(
        5.0, n_values=(2,), delta_grid=[0.0, 0.5], samples=5_000, seed=4
    )
    by_delta = {row.delta: row for row in result.rows}
    assert by_delta[0.0].empirical == 1.0  # survival at zero is certain
    assert by_delta[0.5].empirical == 0.0  # spacing can never reach 1/n


def test_spacing_check_rejects_tiny_sample():
    with pytest.raises(ValueError):
        run_spacing_check(10.0, samples=10)


@pytest.mark.parametrize(
    "lam, n_values, samples",
    [
        pytest.param(10.0, (1, 0), 1000, id="10.0-n_values0"),
        pytest.param(-1.0, (1, 2), 1000, id="-1.0-n_values1"),
        pytest.param(0.0, (1,), 1000, id="0.0-n_values2"),
        # past the in-memory sample cap of 2^24
        pytest.param(10.0, (1,), 2**24 + 1, id="samples"),
    ],
)
def test_spacing_check_refuses_before_sampling(monkeypatch, lam, n_values, samples):
    def no_sampling(*args):
        raise AssertionError("sampled before the input was checked")

    monkeypatch.setattr(harness, "derive_stream", no_sampling)
    with pytest.raises(ValueError, match="lambda|jump counts|samples must lie in \\[1000, 16777216\\]"):
        run_spacing_check(lam, n_values=n_values, samples=samples)


# ---------------------------------------------------------------------------
# envelope check


def test_envelope_check_rows():
    rows = run_envelope_check(10.0, m_values=(4, 16, 64), trials=200, seed=11)
    for row in rows:
        point = greedy_mse_envelope(row.m, 10.0)
        assert row.envelope_lo == point.envelope_lo
        assert row.envelope_hi == point.envelope_hi
        assert row.envelope_lo <= row.envelope_hi
        assert row.mean_inside and row.ci_overlap


def test_envelope_check_refuses_before_simulating(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran before the envelope was evaluated")

    monkeypatch.setattr(harness, "run_mse_curve", no_trials)
    with pytest.raises(ValueError, match="c_lower = 0.0"):
        run_envelope_check(400.0, m_values=(4, 16), trials=10, seed=1)


def test_envelope_check_lambda_ordering_at_m64():
    lo = run_envelope_check(1.0, m_values=(64,), trials=400, seed=12)[0]
    hi = run_envelope_check(10.0, m_values=(64,), trials=400, seed=12)[0]
    assert lo.mse_mean < hi.mse_mean  # fewer jumps decay faster


# ---------------------------------------------------------------------------
# dictionary comparison


def test_dict_compare_full_grid_zero_error():
    records = run_dict_compare(10.0, m_values=(1024,), grid_log2=10, trials=3, seed=13)
    assert len(records) == 4
    for rec in records:
        assert rec.mse_mean == 0.0


def test_dict_compare_haar_wins_for_jumps():
    records = run_dict_compare(10.0, m_values=(256,), grid_log2=10, trials=50, seed=14)
    by = {(r.process, r.dictionary): r.mse_mean for r in records}
    assert by[("cp", "haar_discrete")] < by[("cp", "dct")]


def test_dict_compare_samples_once_per_process_and_trial(monkeypatch):
    from cpwave import dct

    calls, grids, read = [], [], []

    def counting(name, fn, out=None):
        def wrapped(*args):
            calls.append(name)
            result = fn(*args)
            if out is not None:
                out.append(result)
            return result

        return wrapped

    def reading(fn):
        def wrapped(grid):
            read.append(grid)
            return fn(grid)

        return wrapped

    def counting_streams(fn):
        def wrapped(states):
            for stream in fn(states):
                calls.append("stream")
                yield stream

        return wrapped

    # the harness seeds each process's trials at once; the cp streams are
    # set inside sample_block, the bm streams by the harness, and no trial
    # derives a stream of its own
    for module in (processes, harness):
        monkeypatch.setattr(module, "derive_stream", counting("derive_stream", module.derive_stream))
        monkeypatch.setattr(module, "stream_states", counting("stream_states", module.stream_states))
        monkeypatch.setattr(module, "_streams", counting_streams(module._streams))
    monkeypatch.setattr(harness, "sample_block", counting("sample_block", harness.sample_block))
    monkeypatch.setattr(PathBlock, "values_at", counting("values_at", PathBlock.values_at, grids))
    monkeypatch.setattr(harness, "discrete_haar_forward", reading(harness.discrete_haar_forward))
    monkeypatch.setattr(dct, "dct2_forward", reading(dct.dct2_forward))
    records = run_dict_compare(10.0, m_values=(4, 16), grid_log2=6, trials=5, seed=3)
    assert [(r.process, r.dictionary) for r in records[::2]] == [
        ("cp", "haar_discrete"), ("cp", "dct"), ("bm", "haar_discrete"), ("bm", "dct"),
    ]
    # one stream and one path or grid per (process, trial): the five cp
    # trials are one block, sampled by one call and evaluated on the grid
    # by one more, and the five bm trials one block of grids, a row per stream
    assert calls == (["stream_states", "sample_block"] + ["stream"] * 5 + ["values_at"]
                     + ["stream_states"] + ["stream"] * 5)
    # both dictionaries read the same grids, one row per trial
    (cp_grid,) = grids
    assert read[0] is read[1] and read[2] is read[3]
    assert read[0] is cp_grid and cp_grid.shape == (5, 64)
    bm_grids = [processes.brownian_grid(1.0, 6, derive_stream(3, t)) for t in range(5)]
    assert [row.tobytes() for row in read[2]] == [g.tobytes() for g in bm_grids]


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_simulate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("simulate", "--lambda", "10", "--seed", "42", "--out", str(a)) == 0
    assert run_cli("simulate", "--lambda", "10", "--seed", "42", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "jump_time,jump_height"


def test_cli_simulate_json(tmp_path):
    out = tmp_path / "path.json"
    assert run_cli(
        "simulate", "--lambda", "5", "--seed", "1", "--format", "json", "--out", str(out)
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["num_jumps"] == len(doc["jump_times"]) == len(doc["jump_heights"])
    assert all(0.0 < t < 1.0 for t in doc["jump_times"])


def test_cli_mse_curve_byte_identical_and_worker_invariant(tmp_path):
    args = [
        "mse-curve",
        "--process", "cp",
        "--lambda", "10",
        "--schemes", "linear,greedy,best",
        "--m", "4,16,64",
        "--trials", "30",
        "--seed", "9",
    ]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert run_cli(*args, "--out", str(c), "--workers", "2") == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_cli_dict_compare_worker_invariant(tmp_path):
    args = ["dict-compare", "--lambda", "10", "--m", "4,16,64", "--grid-log2", "7",
            "--trials", "30", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b), "--workers", "2") == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["dict-compare", "--lambda", "10", "--sigma0-sq", "1e200", "--m", "16,64",
         "--grid-log2", "6", "--trials", "3"],
        ["dict-compare", "--lambda", "10", "--sigma0-sq", "1e306", "--m", "16,64",
         "--grid-log2", "6", "--trials", "3"],
        ["mse-curve", "--process", "cp", "--lambda", "10", "--jump-variance", "1e300",
         "--trials", "3", "--m", "4"],
    ],
    ids=["dict-compare-1e200", "dict-compare-1e306", "mse-curve-jump-variance-1e300"],
)
def test_cli_huge_variances_give_finite_intervals(tmp_path, argv):
    # the squared deviations of these errors overflow unless they are scaled
    out = tmp_path / "huge.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows
    for row in rows:
        mean, lo, hi = (float(row[i]) for i in (7, 9, 10))
        assert all(math.isfinite(v) for v in (mean, lo, hi)) and lo <= mean <= hi


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-curve", "--process", "cp", "--lambda", "100", "--sigma0-sq", "1e308",
         "--trials", "3", "--m", "4,64", "--seed", "2"],
        ["mse-curve", "--process", "cp", "--lambda", "10", "--jump-variance", "1e307",
         "--trials", "3", "--m", "4,64", "--seed", "2"],
        # 1.5e306 times the 2^6 samples of the grid
        ["dict-compare", "--lambda", "10", "--sigma0-sq", "1.5e306", "--m", "16,64",
         "--grid-log2", "6", "--trials", "3"],
    ],
    ids=["mse-curve-sigma0-sq-1e308", "mse-curve-jump-variance-1e307", "dict-compare-grid"],
)
def test_cli_refuses_energy_scales_near_float_max(monkeypatch, capsys, argv):
    # these once wrote inf and nan rows with exit 0; refused before sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the energy scale was checked")

    for module, name in ((harness, "sample_block"), (harness, "stream_states"),
                         (processes, "stream_states"), (processes, "derive_stream")):
        monkeypatch.setattr(module, name, no_sampling)
    assert run_cli(*argv) == 2
    assert "energy scale" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-curve", "--process", "cp", "--lambda", "10", "--trials", "1000000000000",
         "--m", "4"],
        ["mse-curve", "--process", "bm", "--dictionary", "dct", "--schemes", "linear,best",
         "--m", "1,4,16,64", "--trials", "40000000"],
        # 3.2e8 errors with both dictionaries; 1.6e8 (1.2 GiB) would be run
        ["dict-compare", "--lambda", "10", "--m", "16,32,64,128,256", "--trials", "32000000"],
    ],
    ids=["mse-curve-1e12", "mse-curve-bm", "dict-compare-two-dictionaries"],
)
def test_cli_refuses_results_past_2_gib(monkeypatch, capsys, argv):
    # 1e12 trials once built 6e10 block ranges and died of a MemoryError
    # (exit 1); refused before sampling
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the result size was checked")

    for module, name in ((harness, "sample_block"), (harness, "stream_states"),
                         (processes, "stream_states"), (processes, "derive_stream")):
        monkeypatch.setattr(module, name, no_sampling)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "GiB of errors" in err and "lower the trials" in err


@pytest.mark.parametrize("seed", ["1", "6"])
def test_cli_refuses_run_time_overflow(capsys, seed):
    # a scale just below MAX_ENERGY_SCALE still overflows on these paths:
    # seed 1 once wrote nan rows with exit 0, seed 6 exited 1 with an
    # OverflowError from the exact sums
    argv = ["mse-curve", "--process", "cp", "--lambda", "100", "--sigma0-sq", "8e307",
            "--trials", "20", "--m", "4,64", "--seed", seed]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "energy scale 8e+307 overflows" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("workers, start", [("1", "fork"), ("2", "fork"), ("2", "spawn")])
def test_cli_run_time_overflow_prints_only_the_refusal(workers, start):
    # numpy's overflow warnings, in the main process or in a worker started
    # either way, must not reach stderr ahead of the exit-2 message
    argv = ["mse-curve", "--process", "cp", "--lambda", "100", "--sigma0-sq", "8e307",
            "--trials", "20", "--m", "4,64", "--seed", "1", "--workers", workers]
    code = ("import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
            "from cpwave import cli; sys.exit(cli.main(sys.argv[2:]))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, start, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: energy scale 8e+307")


def test_cli_mse_curve_bm_dct_worker_invariant(tmp_path):
    args = ["mse-curve", "--process", "bm", "--dictionary", "dct",
            "--schemes", "linear,greedy,best", "--m", "1,4,16,64", "--grid-log2", "10",
            "--trials", "40", "--seed", "12"]  # three blocks of trials
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b), "--workers", "2") == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_mse_curve_bm_discrete(tmp_path):
    out = tmp_path / "bm.csv"
    assert run_cli(
        "mse-curve",
        "--process", "bm",
        "--dictionary", "haar-discrete",
        "--schemes", "linear",
        "--m", "8,16",
        "--trials", "20",
        "--seed", "2",
        "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CURVE_HEADER
    assert lines[1].startswith("bm,linear,haar_discrete,,1,8,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_stdout_bytes_equal_file_bytes(tmp_path, capsys, fmt):
    args = ["mse-curve", "--process", "cp", "--lambda", "10", "--m", "4,16", "--trials", "5",
            "--format", fmt]
    out = tmp_path / f"curve.{fmt}"
    assert run_cli(*args, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*args, "--out", "-") == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# sha256 of mse-curve CSVs written before the coefficient ladder replaced the
# per-scale scans; the curves must stay byte-identical. The lambda = 10 digest
# was retaken when a selection that keeps every candidate began to report an
# exact 0.0: only the greedy and best rows at M = 256 and 1024 changed, each
# by the Parseval residue of those trials.
@pytest.mark.parametrize(
    "lam, digest",
    [
        ("10", "0e2cc6e8c77cb07a6d2c32ec67b65d5513c9a31794a56ea7c43ddf03290991ec"),
        ("500", "31ad5c2503d866556f9e27730bf4013bd425ca7431003aeff80d75bb734769c2"),
    ],
)
def test_cli_mse_curve_golden_bytes(tmp_path, lam, digest):
    out = tmp_path / "golden.csv"
    assert run_cli(
        "mse-curve",
        "--process", "cp",
        "--lambda", lam,
        "--schemes", "linear,greedy,best",
        "--m", "4,16,64,256,1024",
        "--trials", "6",
        "--seed", "20250810",
        "--out", str(out),
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of small outputs of the other subcommands, written before the CSV
# schemas were derived from the record dataclasses and before the spacing
# check shared one minimum-gap helper; every byte must stay the same. The
# dict-compare digest was retaken when the cosine transform moved from
# scipy.fft to numpy.fft: two DCT rows changed, by at most 4.8e-16 relative.
# The simulate digests were taken while a path still stored its rate and
# jump law, before it came to hold only its checked jumps. The
# mse-curve-partial digest, taken while linear still counted its atoms by
# searching (path, scale, shift) keys, pins the M = 2^J + r with r > 0,
# where linear keeps part of scale J. The mse-curve-reread digest, taken
# while a block's rejected paths were still laid out with its first reads,
# pins paths whose certificate fails: 3 of its 64, in 3 of its 4 blocks.
# The mse-curve-sparse and mse-curve-mixed-depths digests were taken while
# a ladder build still looped over its paths: the first is the cp_sparse
# benchmark's argv, read in several builds; in the second, first depths of
# 24 to 28 share one build, so its (jump, scale) array holds scales past
# some paths' depths. The mse-curve-dense digest, of DENSE_ARGV, was taken
# while a lambda = 500 run still read 16-trial blocks and each build laid
# out its own labels.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["lemma-check", "--lambda", "10", "--n", "1,2,5", "--samples", "2000", "--seed", "4"],
         "a109e56181d48941867250bcaf15b681b0818439022d9988fb783c247235040a"),
        (["theorem1-check", "--lambda", "10", "--m", "4,16,64", "--trials", "20", "--seed", "5"],
         "1bd065cc23dbaf48e2d87aa50cc8a67e20cffd771ef055c38fd0c9be9ddb2c2a"),
        (["theory-table", "--lambda", "10", "--m", "4,8,16,64"],
         "a57adf68e0639f55560732ed63fb71ad8254116ce699f4d3c7b22be52a952a63"),
        (["dict-compare", "--lambda", "10", "--m", "16,64", "--grid-log2", "6", "--trials", "5",
          "--seed", "6"],
         "fc43c0c1223179591b37a5add47eda6291e85b614bde27e12adde2173161d4d5"),
        (["mse-curve", "--process", "cp", "--lambda", "10", "--m", "4,16,64", "--trials", "5",
          "--seed", "8", "--format", "json"],
         "2855e4e4dbc2d148cdb33bf446d9106f1b2cd912240d493106cf99751f6be7b9"),
        (["simulate", "--lambda", "10", "--seed", "42"],
         "9fa8714b677bff175505084d956526d614163a9fe27e2eeb41522d651f528ea0"),
        (["simulate", "--lambda", "5", "--seed", "1", "--format", "json"],
         "47e8b9caf3a4c032ef690d126668a7dc1daf7e65bb7ef45de1a70fcc0f8474e5"),
        (["mse-curve", "--process", "cp", "--lambda", "20", "--schemes", "linear,greedy,best",
          "--m", "3,5,100,1000,1025,5000", "--trials", "6", "--seed", "21"],
         "0963ef07b4f09a784a3cf27a0874cc2c63220f86810e8b94ba41a46f75f4a053"),
        (["mse-curve", "--process", "cp", "--lambda", "3", "--m", "2,4,8,16,32,64", "--trials", "64",
          "--seed", "39"],
         "c31084f1a0ed064a5cb0a7474f39922de405736b1f29fe3e179af940e70ecf5e"),
        (["mse-curve", "--process", "cp", "--lambda", "10", "--schemes", "linear,greedy,best",
          "--m", "4,8,16,32,64,128,256,512,1024", "--trials", "300", "--seed", "1"],
         "d7ed6000b3f384232576aea4950b6b9ba9e85f569ed6a37debf53aaf78b2b9a8"),
        (["mse-curve", "--process", "cp", "--lambda", "100", "--schemes", "linear,greedy,best",
          "--m", "4,8,16,32,64,128,256,512,1024", "--trials", "64", "--seed", "2"],
         "3922a2fff4a00ce4bee55fd33ce4927eda23c6952c73d7f31a0a6f0d1fc790aa"),
        (DENSE_ARGV, "0325385a9b81fc5b25845cdc7249e32ebb4295ef6f0913d1a5a1b8324df51f34"),
    ],
    ids=["lemma-check", "theorem1-check", "theory-table", "dict-compare", "mse-curve-json",
         "simulate", "simulate-json", "mse-curve-partial", "mse-curve-reread",
         "mse-curve-sparse", "mse-curve-mixed-depths", "mse-curve-dense"],
)
def test_cli_subcommand_golden_bytes(tmp_path, argv, digest):
    out = tmp_path / "golden.out"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_mse_curve_reads_m_past_int64(tmp_path):
    # M = 2^62 and 2^63 keep every candidate of these paths: the same rows
    out = tmp_path / "huge.csv"
    assert run_cli(
        "mse-curve", "--process", "cp", "--lambda", "10", "--trials", "3",
        "--m", "4,4611686018427387904,9223372036854775808", "--seed", "1", "--out", str(out),
    ) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    for at in range(0, 9, 3):  # each scheme's rows at M = 4, 2^62, 2^63
        assert rows[at + 1][7:] == rows[at + 2][7:]


@pytest.mark.parametrize("lam", ["0", "-1"])
def test_cli_simulate_rejects_nonpositive_lambda(capsys, lam):
    assert run_cli("simulate", "--lambda", lam) == 2
    err = capsys.readouterr().err
    assert "lambda" in err
    assert len(err.strip().splitlines()) == 1


# only invalid counts: a valid large count would start that many processes
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_workers_below_one(capsys, workers):
    code = run_cli(
        "mse-curve", "--process", "cp", "--lambda", "10", "--trials", "2", "--workers", workers
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "workers" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--lambda", "10", "--n", "0"], "jump counts"),
        (["--lambda", "-1", "--n", "1,2"], "lambda"),
        (["--delta", "-1"], "delta"),
        (["--delta", "nan"], "delta"),
        (["--delta", "0.1,1.5"], "delta"),
        (["--samples", "16777217"], "16777216"),
    ],
)
def test_cli_lemma_check_refuses_bad_input(capsys, argv, word):
    assert run_cli("lemma-check", "--samples", "1000", *argv) == 2
    err = capsys.readouterr().err
    assert word in err and "numpy" not in err and "zero-size" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mse-curve", "--process", "cp", "--lambda", "1e9", "--trials", "1"],
        ["mse-curve", "--process", "cp", "--lambda", "1e9", "--trials", "4", "--workers", "2"],
        ["simulate", "--lambda", "1e9"],
        ["dict-compare", "--lambda", "1e9", "--trials", "1"],
        ["lemma-check", "--lambda", "1e9", "--samples", "1000"],
        ["lemma-check", "--n", "1,100000000", "--samples", "1000"],
    ],
    ids=["mse-curve", "mse-curve-pool", "simulate", "dict-compare", "lemma-lambda", "lemma-n"],
)
def test_cli_refuses_jump_counts_beyond_memory(monkeypatch, capsys, argv):
    # a regression must fail here at once, not allocate a billion jumps
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the expected jump count was checked")

    for module, name in ((harness, "sample_block"), (harness, "derive_stream"),
                         (processes, "derive_stream"), (cli, "sample_path"), (cli, "derive_stream")):
        monkeypatch.setattr(module, name, no_sampling)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_sampling)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "expected jumps" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_gate_scales_with_path_energy(tmp_path):
    # at sigma0^2 = 1e8 the Parseval remainder rounds about 1e-7 below zero,
    # which is 1e-15 of the path energy: rounding, not an accounting bug
    out = tmp_path / "loud.csv"
    assert run_cli(
        "mse-curve", "--process", "cp", "--lambda", "100", "--sigma0-sq", "1e8",
        "--schemes", "greedy", "--m", "4096", "--trials", "50", "--seed", "1",
        "--out", str(out),
    ) == 0


def test_cli_gate_allows_subnormal_energies(tmp_path):
    # at sigma0^2 = 1e-320 path energies are subnormal, where rounding is
    # absolute: a remainder one 2^-1074 below zero is rounding, not a bug
    out = tmp_path / "quiet.csv"
    assert run_cli(
        "mse-curve", "--process", "cp", "--lambda", "10", "--m", "4,64", "--trials", "200",
        "--sigma0-sq", "1e-320", "--seed", "1", "--out", str(out),
    ) == 0


def test_cli_jump_variance_rows_carry_the_process_variance(tmp_path):
    # sigma0_sq is the process variance, lambda times the jump variance;
    # the JSON config keeps the inputs as given
    args = ["mse-curve", "--process", "cp", "--lambda", "10", "--jump-variance", "2",
            "--schemes", "linear", "--m", "4,64", "--trials", "200", "--seed", "1"]
    out, doc = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert run_cli(*args, "--out", str(out)) == 0
    assert run_cli(*args, "--format", "json", "--out", str(doc)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["20", "20"]
    config, records = read_json(str(doc))
    assert (config.sigma0_sq, config.jump_variance) == (1.0, 2.0)
    assert [r.sigma0_sq for r in records] == [20.0, 20.0]
    # the linear mean follows the closed form at that variance, not at 1
    assert abs(float(rows[0][7]) / linear_mse(4, 20.0) - 1.0) < 0.1


def test_cli_single_jump_paths_at_m_1024(tmp_path):
    # at lambda = 1 about a third of the paths have exactly one jump
    out = tmp_path / "thin.csv"
    assert run_cli(
        "mse-curve", "--process", "cp", "--lambda", "1", "--m", "1024", "--trials", "50",
        "--seed", "3", "--out", str(out),
    ) == 0
    by_scheme = {line.split(",")[1]: float(line.split(",")[7])
                 for line in out.read_text().splitlines()[1:]}
    assert by_scheme["best"] <= by_scheme["greedy"] <= by_scheme["linear"]


def test_cli_path_beyond_scale_1023_is_config_error(monkeypatch, capsys):
    from test_processes import make_path

    fine = make_path([2.0**-1000 + 2.0**-1050, 0.5], [1.0, -1.0])
    monkeypatch.setattr(harness, "sample_block", lambda *args: PathBlock.of([fine] * len(args[3])))
    code = run_cli("mse-curve", "--process", "cp", "--lambda", "10", "--trials", "2")
    assert code == 2
    assert "1023" in capsys.readouterr().err


def test_cli_config_error_exit_code(capsys):
    # bm with the analytic dictionary is a configuration error
    code = run_cli(
        "mse-curve", "--process", "bm", "--dictionary", "haar", "--trials", "5"
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_io_error_exit_code(capsys):
    code = run_cli(
        "mse-curve",
        "--process", "cp",
        "--lambda", "10",
        "--m", "4",
        "--trials", "2",
        "--out", "/no-such-dir/x.csv",
    )
    assert code == 3


def test_cli_invariant_violation_exit_code(monkeypatch, capsys, tmp_path):
    from cpwave.harness import SpacingCheckResult

    def fake_check(**_kwargs):
        return SpacingCheckResult(rows=[], paths_checked=10, bound_violations=3)

    monkeypatch.setattr("cpwave.cli.harness.run_spacing_check", fake_check)
    code = run_cli("lemma-check", "--samples", "5000", "--out", str(tmp_path / "x.csv"))
    assert code == 4
    assert "invariant violation" in capsys.readouterr().err


def test_cli_theory_table(tmp_path):
    out = tmp_path / "theory.csv"
    assert run_cli(
        "theory-table", "--lambda", "10", "--m", "4,8,16", "--out", str(out)
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "M,linear_mse,two_pow_mean,two_pow_tail,envelope_lo,envelope_hi,c_lower,c_upper"
    assert len(lines) == 4


def test_cli_lemma_check(tmp_path, capsys):
    out = tmp_path / "lemma.csv"
    assert run_cli(
        "lemma-check",
        "--lambda", "10",
        "--n", "1,2",
        "--samples", "5000",
        "--seed", "3",
        "--out", str(out),
    ) == 0
    err = capsys.readouterr().err
    assert "sup |empirical - exact|" in err
    assert "violations: 0" in err
    assert out.read_text().splitlines()[0] == "n,delta,empirical,exact,abs_dev"


def test_cli_theorem1_check(tmp_path):
    out = tmp_path / "env.csv"
    assert run_cli(
        "theorem1-check",
        "--lambda", "10",
        "--m", "4,16",
        "--trials", "50",
        "--seed", "5",
        "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("lambda,M,mse_mean")
    assert all(line.endswith("true,true") for line in lines[1:])


def test_cli_dict_compare(tmp_path):
    out = tmp_path / "dict.json"
    assert run_cli(
        "dict-compare",
        "--lambda", "10",
        "--m", "64,256",
        "--trials", "10",
        "--seed", "6",
        "--format", "json",
        "--out", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "CurveRecord"
    assert len(doc["records"]) == 8


def test_analytic_block_draws_each_trial_once_and_builds_no_path(monkeypatch):
    # an analytic block is sampled straight into one PathBlock: each
    # trial's stream seeded once, none derived on its own, and no
    # CompoundPoissonPath is made
    from cpwave import processes

    streams, made = [], []
    real_derive, real_init = processes.derive_stream, processes.CompoundPoissonPath.__post_init__
    real_states = processes.stream_states

    def counting_derive(seed, index):
        streams.append(index)
        return real_derive(seed, index)

    def counting_states(seed, trials):
        streams.extend(trials)
        return real_states(seed, trials)

    def counting_init(self):
        made.append(self)
        real_init(self)

    for module in (processes, harness):
        monkeypatch.setattr(module, "derive_stream", counting_derive)
        monkeypatch.setattr(module, "stream_states", counting_states)
    monkeypatch.setattr(processes.CompoundPoissonPath, "__post_init__", counting_init)
    for cfg in (small_config(), small_config(lam=500.0, m_values=(4, 64, 1024))):
        streams.clear()
        _trial_errors(cfg, range(16, 32))
        assert streams == list(range(16, 32)) and made == []
