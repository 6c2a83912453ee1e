"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see the lines as they go).

All Monte Carlo checks run at desk scale (1000 trials, 2^10 grid) with
frozen master seeds, so the whole suite is deterministic.
"""

import math
import time

import numpy as np

import cpwave as cw
from cpwave import cli
from cpwave.haar import SCALING, atom_index, coeff, discrete_haar_forward, ladder
from cpwave.harness import (
    ExperimentConfig,
    run_dict_compare,
    run_envelope_check,
    run_mse_curve,
    run_spacing_check,
)
from cpwave.schemes import select, select_discrete
from cpwave.theory import (
    exp_weighted_decay,
    linear_mse,
    nonzero_scale_bounds,
    poly_weighted_decay,
)

from test_haar import scale_table

SEED = 20250810
LAW10 = cw.JumpLaw(variance=0.1)


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_linear_mse_brownian_discrete():
    started = time.time()
    config = ExperimentConfig(
        process="bm",
        schemes=("linear",),
        dictionary="haar_discrete",
        m_values=(2, 4, 8, 16, 32, 64),
        sigma0_sq=1.0,
        grid_log2=10,
        trials=1000,
        master_seed=SEED,
    )
    records = run_mse_curve(config)
    deviations = {r.m: abs(r.mse_mean - linear_mse(r.m, 1.0)) / linear_mse(r.m, 1.0) for r in records}
    elapsed = time.time() - started
    ok = all(d <= 0.10 for d in deviations.values()) and elapsed < 60.0
    report(
        1,
        ok,
        f"bm linear MSE vs sigma0^2/(6M): max rel dev {max(deviations.values()):.4f} "
        f"(tol 0.10), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_linear_mse_compound_poisson_exact():
    config = ExperimentConfig(
        process="cp",
        schemes=("linear",),
        dictionary="haar_analytic",
        m_values=(3, 5, 8, 12, 16),
        lam=50.0,
        trials=1000,
        master_seed=1,
    )
    records = run_mse_curve(config)
    misses = [r.m for r in records if not (r.ci_lo <= linear_mse(r.m, 1.0) <= r.ci_hi)]
    report(
        2,
        not misses,
        f"cp lam=50 exact linear errors: theory inside 95% CI at M in "
        f"{[r.m for r in records]} (misses: {misses})",
    )


def test_criterion_3_greedy_mse_envelope():
    started = time.time()
    failures = []
    for lam in (1.0, 10.0):
        rows = run_envelope_check(
            lam, m_values=(4, 8, 16, 32, 64, 128, 256), trials=1000, seed=SEED
        )
        failures += [(lam, r.m) for r in rows if not (r.mean_inside and r.ci_overlap)]
    elapsed = time.time() - started
    ok = not failures and elapsed < 120.0
    report(
        3,
        ok,
        f"greedy means inside closed-form envelope for lam in (1, 10), M up to 256 "
        f"(failures: {failures}), runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_4_decay_signatures():
    config = ExperimentConfig(
        process="cp",
        schemes=("greedy",),
        dictionary="haar_analytic",
        m_values=(16, 32, 64, 128, 256),
        lam=10.0,
        trials=1000,
        master_seed=SEED,
    )
    means = {r.m: r.mse_mean for r in run_mse_curve(config)}
    ratios = [means[2 * m] / means[m] for m in (16, 32, 64, 128)]
    ratios_ok = all(a > b for a, b in zip(ratios, ratios[1:]))
    poly = poly_weighted_decay(10.0, 2, [64, 128, 256, 512])
    poly_ok = all(a > b for a, b in zip(poly, poly[1:]))
    exp = exp_weighted_decay(10.0, 0.1, [512, 1024, 2048])
    exp_ok = all(a < b for a, b in zip(exp, exp[1:]))
    report(
        4,
        ratios_ok and poly_ok and exp_ok,
        f"halving ratios strictly decrease {[f'{r:.3f}' for r in ratios]}; "
        f"M^2 E[2^(-M/N)] decreasing: {poly_ok}; e^(0.1M) E[2^(-M/N)] increasing: {exp_ok}",
    )


def test_criterion_5_minimum_spacing_law():
    result = run_spacing_check(
        lam=10.0, n_values=(1, 2, 5), delta_grid=None, samples=100_000, seed=SEED
    )
    sup_dev = max(row.abs_dev for row in result.rows)
    ok = sup_dev < 0.02 and result.bound_violations == 0
    report(
        5,
        ok,
        f"conditional survival sup dev {sup_dev:.4f} (< 0.02) over n in (1,2,5); "
        f"spacing <= 1/N on {result.paths_checked - result.bound_violations}/"
        f"{result.paths_checked} paths",
    )


def test_criterion_6_zero_structure_and_scale_bounds():
    # (a) a coefficient vanishes exactly when its support holds no jump
    bad_zero = 0
    for t in range(10_000):
        path = cw.sample_path(10.0, LAW10, cw.derive_stream(SEED + 10, t))
        n = path.num_jumps
        scaling = coeff(path, SCALING)
        if (scaling.value == 0.0) != (n == 0):
            bad_zero += 1
        lad = ladder(path)
        for j in range(11):
            at = lad.scale == j
            if lad.count[at].sum() != n:  # every jump in exactly one atom
                bad_zero += 1
            bad_zero += int(np.count_nonzero((lad.value[at] == 0.0) | (lad.count[at] == 0)))
    # (b) the scale of the M-th nonzero obeys the two-sided bound
    bad_jm = paths = 0
    for t in range(100_000):
        if paths >= 10_000:
            break
        path = cw.sample_path(10.0, LAW10, cw.derive_stream(SEED + 11, t))
        n = path.num_jumps
        if n == 0:
            continue
        paths += 1
        delta = path.min_spacing()
        counts = cw.haar.nonzero_counts_by_scale(path, 128)
        total = 0
        j_of_m = {}
        for j, c in enumerate(counts):
            for m in range(total + 1, min(total + c, 128) + 1):
                j_of_m[m] = j
            total += c
        for m in range(2, 129):
            lo, hi = nonzero_scale_bounds(m, n, delta)
            if not (lo <= j_of_m[m] <= hi):
                bad_jm += 1
    ok = bad_zero == 0 and bad_jm == 0 and paths == 10_000
    report(
        6,
        ok,
        f"(a) zero-coefficient <=> empty support exact on 10^4 paths x scales <= 10 "
        f"({bad_zero} violations); (b) M-th-nonzero scale bounds hold for "
        f"M in 2..128 on {paths} paths ({bad_jm} violations)",
    )


def test_criterion_7_coefficient_second_moment():
    trials, top_scale = 10_000, 5
    worst = 0.0
    cp_sums = np.zeros(top_scale + 1)
    for t in range(trials):
        path = cw.sample_path(10.0, LAW10, cw.derive_stream(SEED, t))
        lad = ladder(path)
        for j in range(top_scale + 1):
            cp_sums[j] += math.fsum(lad.value[lad.scale == j] ** 2)
    bm_sums = np.zeros(top_scale + 1)
    for t in range(trials):
        grid = cw.brownian_grid(1.0, 10, cw.derive_stream(SEED + 1, t))
        d = discrete_haar_forward(grid) * 2.0**-5.0
        for j in range(top_scale + 1):
            bm_sums[j] += float((d[1 << j : 1 << (j + 1)] ** 2).sum())
    for sums in (cp_sums, bm_sums):
        for j in range(top_scale + 1):
            theory_val = 2.0 ** (-2 * j) / 12.0
            worst = max(worst, abs(sums[j] / (trials * 2**j) - theory_val) / theory_val)
    report(
        7,
        worst <= 0.05,
        f"E[coeff^2] = sigma0^2 2^(-2j)/12 for j <= 5, cp lam=10 and bm: "
        f"max rel dev {worst:.4f} (tol 0.05)",
    )


def test_criterion_8_scheme_ordering_every_trial():
    # the harness hard-asserts per-trial ordering and per-scheme monotonicity;
    # any violation raises instead of producing records
    config = ExperimentConfig(
        process="cp",
        schemes=("linear", "greedy", "best"),
        dictionary="haar_analytic",
        m_values=(4, 8, 16, 32, 64, 128, 256),
        lam=10.0,
        trials=1000,
        master_seed=SEED,
    )
    records = run_mse_curve(config)
    by = {(r.scheme, r.m): r.mse_mean for r in records}
    ordered = all(
        by[("best", m)] <= by[("greedy", m)] <= by[("linear", m)] for m in config.m_values
    )
    config_bm = ExperimentConfig(
        process="bm",
        schemes=("linear", "greedy", "best"),
        dictionary="haar_discrete",
        m_values=(4, 16, 64, 256),
        trials=1000,
        master_seed=SEED,
    )
    run_mse_curve(config_bm)  # raises InvariantViolation on any per-trial breach
    report(
        8,
        ordered,
        "best <= greedy <= linear and monotone in M on every trial of 2000 "
        "(cp analytic + bm discrete; hard-asserted per trial)",
    )


def test_criterion_9_certified_best_equals_brute_force():
    def brute_force(path, m, max_scale=25):
        cands = []
        scaling = coeff(path, SCALING)
        if scaling.jump_count:
            cands.append((0, scaling.value))
        for j in range(max_scale + 1):
            for k, v, _ in scale_table(path, j):
                cands.append(((1 << j) + k, v))
        cands.sort(key=lambda iv: (-abs(iv[1]), iv[0]))
        return sorted(cands[:m])

    mismatches = thin_paths = 0
    for t in range(100):
        path = cw.sample_path(10.0, LAW10, cw.derive_stream(SEED + 2, t))
        if path.num_jumps < 2:
            thin_paths += 1  # would need scales beyond the brute-force cap
            continue
        for m in (1, 2, 4, 8, 16, 32):
            kept = sorted((atom_index(a), v) for a, v in select(path, "best", m).kept)
            if kept != brute_force(path, m):
                mismatches += 1
    report(
        9,
        mismatches == 0 and thin_paths == 0,
        f"certified best-M equals brute force over scales <= 25 on 100 paths, "
        f"M <= 32, exactly ({mismatches} mismatches)",
    )


def test_criterion_10_brownian_greedy_equals_linear():
    all_nonzero = selections_equal = True
    for t in range(1000):
        grid = cw.brownian_grid(1.0, 10, cw.derive_stream(SEED + 3, t))
        coeffs = discrete_haar_forward(grid)
        if not np.all(coeffs != 0.0):
            all_nonzero = False
        for m in (1, 16, 256):
            greedy = select_discrete(coeffs, "greedy", m)
            linear = select_discrete(coeffs, "linear", m)
            if greedy.kept != linear.kept or greedy.error_sq != linear.error_sq:
                selections_equal = False
    report(
        10,
        all_nonzero and selections_equal,
        "greedy and linear selections coincide on every of 1000 Brownian trials "
        "(all discrete coefficients nonzero)",
    )


def test_criterion_11_dictionary_comparison():
    records = run_dict_compare(
        10.0, m_values=(16, 32, 64, 128, 256), grid_log2=10, trials=1000, seed=SEED
    )
    by = {(r.process, r.dictionary, r.m): r.mse_mean for r in records}
    cp_ok = by[("cp", "haar_discrete", 256)] < by[("cp", "dct", 256)]
    bm_ratios = {
        m: by[("bm", "dct", m)] / by[("bm", "haar_discrete", m)]
        for m in (16, 32, 64, 128, 256)
    }
    bm_ok = all(ratio <= 1.5 for ratio in bm_ratios.values())
    report(
        11,
        cp_ok and bm_ok,
        f"cp@M=256: haar {by[('cp', 'haar_discrete', 256)]:.3g} < dct "
        f"{by[('cp', 'dct', 256)]:.3g}; bm dct/haar in "
        f"[{min(bm_ratios.values()):.2f}, {max(bm_ratios.values()):.2f}] (<= 1.5)",
    )


def test_criterion_12_reproducibility(tmp_path):
    args = [
        "mse-curve",
        "--process", "cp",
        "--lambda", "10",
        "--schemes", "linear,greedy,best",
        "--m", "4,16,64",
        "--trials", "40",
        "--seed", str(SEED),
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli.main(args + ["--out", str(paths[0])]) == 0
    assert cli.main(args + ["--out", str(paths[1])]) == 0
    assert cli.main(args + ["--out", str(paths[2]), "--workers", "2"]) == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    report(
        12,
        identical,
        "identical flags and seed give byte-identical CSV, independent of worker count",
    )
