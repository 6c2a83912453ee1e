"""Tests for the closed-form evaluators, against independent high-precision
and Monte Carlo oracles."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpwave import (
    ExperimentConfig,
    JumpLaw,
    brownian_grid,
    derive_stream,
    expected_two_pow,
    greedy_mse_envelope,
    linear_mse,
    sample_grid,
    sample_path,
    spacing_survival,
)

from reference import exp_weighted_decay, nonzero_scale_bounds, poly_weighted_decay, tail_energy


def reference_two_pow(lam, m, terms=None):
    """30-digit series oracle for E[2^(-M/N)], summed far past the mode."""
    with mpmath.workdps(30):
        if terms is None:
            terms = int(lam + 40 * math.sqrt(lam) + 200)
        total = mpmath.mpf(0)
        for n in range(1, terms + 1):
            total += (
                mpmath.e ** (-lam)
                * mpmath.mpf(lam) ** n
                / mpmath.factorial(n)
                * mpmath.mpf(2) ** (-mpmath.mpf(m) / n)
            )
        return float(total)


# ---------------------------------------------------------------------------
# linear MSE


def test_linear_mse_dyadic_value():
    assert linear_mse(8, 1.0) == pytest.approx(1.0 / 48.0)


def test_linear_mse_m1():
    assert linear_mse(1, 1.0) == pytest.approx(1.0 / 6.0)


def test_linear_mse_non_dyadic():
    assert linear_mse(3, 1.0) == pytest.approx(1.0 / 16.0)


def test_linear_mse_scales_with_variance():
    assert linear_mse(8, 2.5) == pytest.approx(2.5 / 48.0)


@given(st.integers(min_value=1, max_value=20))
def test_linear_mse_continuous_across_dyadic(big_j):
    # the (J, m=0) branch value equals the limit of the (J-1, m -> 2^(J-1)) branch
    at_dyadic = linear_mse(2**big_j, 1.0)
    limit = (1.0 / 12.0) * 2.0 ** -(big_j - 1) * (2.0 - 1.0)
    assert at_dyadic == pytest.approx(limit)


@given(st.integers(min_value=1, max_value=4096))
def test_linear_mse_decreasing(m):
    assert linear_mse(m + 1, 1.0) <= linear_mse(m, 1.0) + 1e-18


def test_linear_mse_validation():
    with pytest.raises(ValueError):
        linear_mse(0, 1.0)
    with pytest.raises(ValueError):
        linear_mse(4, -1.0)


# ---------------------------------------------------------------------------
# spacing survival


def test_spacing_survival_values():
    assert spacing_survival(1, 0.5) == pytest.approx(0.5)
    assert spacing_survival(2, 0.5) == 0.0
    assert spacing_survival(3, 0.0) == 1.0
    assert spacing_survival(2, 0.25) == pytest.approx(0.25)


def test_spacing_survival_domain():
    with pytest.raises(ValueError):
        spacing_survival(2, 0.6)  # beyond 1/n
    with pytest.raises(ValueError):
        spacing_survival(1, -0.1)
    with pytest.raises(ValueError):
        spacing_survival(0, 0.1)


@given(st.integers(min_value=1, max_value=30), st.data())
def test_spacing_survival_monotone(n, data):
    d1 = data.draw(st.floats(min_value=0.0, max_value=1.0 / n))
    d2 = data.draw(st.floats(min_value=0.0, max_value=1.0 / n))
    lo, hi = min(d1, d2), max(d1, d2)
    assert spacing_survival(n, hi) <= spacing_survival(n, lo) + 1e-15


# ---------------------------------------------------------------------------
# expected 2^(-M/N)


def test_expected_two_pow_m0_is_one():
    assert expected_two_pow(7.0, 0) == (1.0, 0.0)


def test_expected_two_pow_frozen_reference():
    value, tail = expected_two_pow(1.0, 1)
    assert value == pytest.approx(0.378758149090880, rel=1e-12)
    assert tail < 1e-12


@pytest.mark.parametrize("lam", [1.0, 10.0, 50.0, 100.0, 500.0])
@pytest.mark.parametrize("m", [1, 16, 64, 256, 1024])
def test_expected_two_pow_within_tail_of_reference(lam, m):
    value, tail = expected_two_pow(lam, m)
    ref = reference_two_pow(lam, m)
    assert abs(value - ref) <= tail + 1e-13 * (1.0 + ref)


def test_expected_two_pow_monte_carlo_oracle():
    rng = derive_stream(40, 0)
    draws = rng.poisson(1.0, 10**6)
    positive = draws[draws >= 1]
    empirical = float(np.sum(2.0 ** (-1.0 / positive))) / draws.size
    value, _ = expected_two_pow(1.0, 1)
    assert abs(value - empirical) < 1e-3


def test_expected_two_pow_validation():
    with pytest.raises(ValueError):
        expected_two_pow(0.0, 4)
    with pytest.raises(ValueError):
        expected_two_pow(1.0, 4, tol=0.0)


# ---------------------------------------------------------------------------
# envelope


def test_envelope_constants_lambda_one():
    point = greedy_mse_envelope(4, 1.0, 1.0)
    assert point.c_upper == pytest.approx((2.0 / 3.0) * (1.0 + math.e**2), rel=1e-12)
    assert point.c_upper == pytest.approx(5.5927, rel=1e-4)
    assert point.c_lower == pytest.approx(1.0 / (48.0 * math.e * (1.0 + math.e**2)), rel=1e-12)
    assert point.c_lower == pytest.approx(9.136e-4, rel=1e-3)


@given(
    st.integers(min_value=1, max_value=2048),
    st.floats(min_value=0.1, max_value=300.0),
)
@settings(max_examples=60, deadline=None)
def test_envelope_ordering(m, lam):
    point = greedy_mse_envelope(m, lam)
    assert point.envelope_lo <= point.envelope_hi
    assert 0.0 <= point.two_pow_mean <= 1.0
    assert point.two_pow_tail >= 0.0
    assert point.linear_mse == pytest.approx(linear_mse(m, 1.0))


def test_envelope_overflow_guard():
    with pytest.raises(ValueError):
        greedy_mse_envelope(4, 400.0)


@pytest.mark.parametrize("m, lam, sigma0_sq, message", [
    (4, 350.0, 1.0, "c_lower = 0.0"),  # its denominator overflows
    (4, 1e-320, 1.0, "c_lower = inf"),  # and c_upper is inf too
    (4, 10.0, 1e308, "c_upper = inf"),
    (2**60, 350.0, 1.0, "c_lower = 0.0"),
    (2**60, 340.0, 1.0, r"envelope_hi .* inf \* 0"),  # c_upper M overflows, the mean underflows
    (4, 348.84, 1.0, "c_lower = 2.2.*e-308 .* not a normal double"),  # subnormal
    (4, 349.2, 1.0, "c_lower = 1.07.*e-308"),
    (4, 1e9, 1.0, "c_lower = 0.0"),  # e^(2 lambda) itself overflows
    (4, 10.0, 1e-300, "c_lower = 1.57.*e-312"),
])
def test_envelope_refuses_constants_and_ends_a_double_cannot_hold(m, lam, sigma0_sq, message):
    with pytest.raises(ValueError, match=message):
        greedy_mse_envelope(m, lam, sigma0_sq)


def test_envelope_keeps_every_representable_point():
    # below the refused ranges both constants are normal doubles, and a
    # mean that underflows to 0 leaves both ends 0, not nan
    for m, lam, sigma0_sq in ((4, 340.0, 1.0), (2**60, 10.0, 1.0), (4, 1e-300, 1.0), (4, 10.0, 1e300),
                              (4, 348.8, 1.0)):
        point = greedy_mse_envelope(m, lam, sigma0_sq)
        for c in (point.c_lower, point.c_upper):
            assert sys.float_info.min <= c < math.inf
        assert 0.0 <= point.envelope_lo <= point.envelope_hi < math.inf
    assert greedy_mse_envelope(2**60, 10.0).envelope_hi == 0.0


# ---------------------------------------------------------------------------
# scale bounds for the m-th nonzero


def test_nonzero_scale_bounds_examples():
    assert nonzero_scale_bounds(10, 2, 0.1) == (4, 7)
    assert nonzero_scale_bounds(2, 1, 1.0) == (0, 1)


def test_nonzero_scale_bounds_exhaustive_order():
    deltas = [1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0]
    for n in range(1, 65):
        for m in range(2, 257):
            for d in deltas:
                if d > 1.0 / n:
                    continue
                lo, hi = nonzero_scale_bounds(m, n, d)
                assert lo <= hi


def test_nonzero_scale_bounds_validation():
    with pytest.raises(ValueError):
        nonzero_scale_bounds(1, 1, 0.5)
    with pytest.raises(ValueError):
        nonzero_scale_bounds(4, 2, 0.6)  # delta beyond 1/n
    with pytest.raises(ValueError):
        nonzero_scale_bounds(4, 0, 0.1)


# ---------------------------------------------------------------------------
# tail energy


def test_tail_energy_base():
    assert tail_energy(0, 1.0) == pytest.approx(1.0 / 12.0)


def test_tail_energy_halves_per_scale():
    values = [tail_energy(j, 1.0) for j in range(20)]
    for a, b in zip(values, values[1:]):
        assert b == pytest.approx(a / 2.0)


@given(st.integers(min_value=0, max_value=30))
def test_tail_energy_consistent_with_linear_mse(big_j):
    assert tail_energy(big_j, 1.0) == pytest.approx(linear_mse(2 ** (big_j + 1), 1.0))


# ---------------------------------------------------------------------------
# asymptotic probes


def test_poly_probe_strictly_decreasing():
    values = poly_weighted_decay(10.0, 2, [64, 128, 256, 512])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poly_probe_k0_is_plain_expectation():
    ms = [8, 16, 32, 64]
    values = poly_weighted_decay(10.0, 0, ms)
    assert values == [expected_two_pow(10.0, m)[0] for m in ms]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_exp_probe_strictly_increasing():
    values = exp_weighted_decay(10.0, 0.1, [512, 1024, 2048])
    assert all(a < b for a, b in zip(values, values[1:]))


def test_probe_validation():
    with pytest.raises(ValueError):
        poly_weighted_decay(10.0, -1, [4])
    with pytest.raises(ValueError):
        exp_weighted_decay(10.0, 0.0, [4])


PATH10 = sample_path(10.0, JumpLaw.for_rate(10.0), derive_stream(4, 0))


def grid_config(**fields):
    return ExperimentConfig(process="cp", schemes=("best",), dictionary="haar_discrete",
                            m_values=(2,), lam=10.0, trials=1, **fields)


# every count, M, scale and seed takes a numpy integer as its value and
# refuses a bool, which Python counts as an int: True once ran as 1, and
# np.int64(8) was refused as M
@pytest.mark.parametrize("call, value", [
    (lambda m: linear_mse(m, 1.0), 8),
    (lambda m: greedy_mse_envelope(m, 10.0), 8),
    (lambda m: expected_two_pow(10.0, m), 8),
    (lambda m: nonzero_scale_bounds(m, 3, 0.1), 8),
    (lambda n: nonzero_scale_bounds(8, n, 0.1), 3),
    (lambda n: spacing_survival(n, 0.1), 3),
    (lambda j: tail_energy(j, 1.0), 3),
    (lambda k: poly_weighted_decay(10.0, k, [4, 8]), 2),
    (lambda seed: derive_stream(seed, 1).random(3).tolist(), 5),
    (lambda index: derive_stream(5, index).random(3).tolist(), 1),
    (lambda g: sample_grid(PATH10, g).tolist(), 3),
    (lambda g: brownian_grid(1.0, g, derive_stream(0, 0)).tolist(), 3),
    (lambda g: grid_config(grid_log2=g).validate(), 3),
    (lambda seed: grid_config(master_seed=seed).validate(), 5),
], ids=["linear-m", "envelope-m", "two-pow-m", "bounds-m", "bounds-n", "spacing-n",
        "tail-scale", "decay-k", "seed", "stream-index", "grid", "brownian-grid",
        "config-grid", "config-seed"])
def test_integer_arguments_take_numpy_ints_and_refuse_bools(call, value):
    assert repr(call(np.int64(value))) == repr(call(value))
    with pytest.raises(ValueError):
        call(True)
