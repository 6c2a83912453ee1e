"""Tests for the orthonormal cosine dictionary against the naive definition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpwave import (
    DctCoeffs,
    JumpLaw,
    dct2_forward,
    derive_stream,
    discrete_haar_forward,
    sample_grid,
    sample_path,
)
from cpwave.schemes import errors_discrete

from reference import dct2_inverse, discrete_haar_inverse


def dct_best_errors(x, ms):
    """Best-M squared errors in the cosine dictionary at each M in ms,
    grid-normalized: the sum of all but the M largest squared coefficients,
    divided by the grid size, as dict-compare reads them."""
    coeffs = dct2_forward(x).values
    return [e / coeffs.size for e in errors_discrete(coeffs, ("best",), ms)[0]]


def naive_dct2(x):
    """O(n^2) orthonormal type-II cosine transform, straight from the
    definition: X_k = a_k * sum_i x_i cos(pi (2i + 1) k / (2n))."""
    n = len(x)
    out = np.empty(n)
    for k in range(n):
        acc = math.fsum(
            x[i] * math.cos(math.pi * (2 * i + 1) * k / (2 * n)) for i in range(n)
        )
        out[k] = acc * math.sqrt((1.0 if k == 0 else 2.0) / n)
    return out


def reference_dct2(x):
    """O(n^2) orthonormal DCT-II of the rows of x in long double, each
    cosine's argument pi m / 2n taken with m = (2i + 1) k reduced exactly
    modulo 4n."""
    n = x.shape[-1]
    k = np.arange(n)
    m = (2 * k[None, :] + 1) * k[:, None] % (4 * n)
    cosines = np.cos(np.arccos(np.longdouble(-1)) * m.astype(np.longdouble) / (2 * n))
    scale = np.sqrt(np.where(k == 0, np.longdouble(1), np.longdouble(2)) / n)
    return (x.astype(np.longdouble) @ cosines.T) * scale


@pytest.mark.parametrize("log2n", [0, 1, 2, 10])
def test_matches_long_double_reference(log2n):
    # random-walk rows, like the Brownian grids: at n = 2^10 the largest
    # error is about 2e-16 of the row's largest coefficient
    n = 2**log2n
    x = np.cumsum(derive_stream(56, log2n).normal(0.0, 1.0, (16, n)), axis=-1)
    expected = reference_dct2(x)
    bound = 2e-15 * np.abs(expected).max(axis=-1)
    assert np.all(np.abs(dct2_forward(x).values - expected).max(axis=-1) <= bound)
    for row, coeffs in zip(x, expected.astype(float)):
        back = dct2_inverse(DctCoeffs(values=coeffs, grid_log2=log2n))
        assert np.abs(back - row).max() <= 2e-15 * np.abs(row).max()


def test_constant_signal_is_dc_only():
    c = 3.7
    coeffs = dct2_forward(np.full(16, c)).values
    assert coeffs[0] == pytest.approx(c * 4.0)  # c * sqrt(n)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("log2n", [3, 6, 10])
def test_matches_naive_definition(log2n):
    rng = derive_stream(50, log2n)
    x = rng.normal(0.0, 1.0, 2**log2n)
    got = dct2_forward(x).values
    expected = naive_dct2(x)
    assert np.max(np.abs(got - expected)) < 1e-10 * max(1.0, np.max(np.abs(expected)))


@given(st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=30, deadline=None)
def test_roundtrip_and_energy(log2n, data):
    n = 2**log2n
    x = np.array(
        data.draw(st.lists(st.floats(min_value=-50, max_value=50), min_size=n, max_size=n))
    )
    coeffs = dct2_forward(x)
    back = dct2_inverse(coeffs)
    assert not back.flags.writeable
    assert np.max(np.abs(back - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))
    ex, ec = float((x**2).sum()), float((coeffs.values**2).sum())
    assert abs(ec - ex) <= 1e-10 * max(ex, 1e-300)


@pytest.mark.parametrize("log2n", [1, 3, 6, 10, 12])
def test_rows_equal_one_row_calls(log2n):
    # rows of magnitudes 10^-200 to 10^200 side by side: each row of the 2-D
    # transform has the bits of its own 1-D transform
    rng = derive_stream(51, log2n)
    rows = rng.normal(0.0, 1.0, (12, 2**log2n)) * 10.0 ** rng.integers(-200, 201, (12, 1))
    block = dct2_forward(rows)
    assert block.values.shape == rows.shape and block.grid_log2 == log2n
    for got, row in zip(block.values, rows):
        assert got.tobytes() == dct2_forward(row).values.tobytes()


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        dct2_forward(np.arange(5, dtype=float))
    with pytest.raises(ValueError):
        dct2_forward(np.zeros((4, 6)))
    with pytest.raises(ValueError):
        DctCoeffs(values=np.zeros((4, 8)), grid_log2=2)


def test_best_m_error_endpoints():
    rng = derive_stream(51, 0)
    x = rng.normal(0.0, 1.0, 64)
    assert dct_best_errors(x, [64]) == [0.0]
    assert dct_best_errors(np.full(64, 2.0), [1])[0] == pytest.approx(0.0, abs=1e-24)


def test_best_m_error_non_increasing():
    rng = derive_stream(52, 0)
    x = rng.normal(0.0, 1.0, 256)
    errors = dct_best_errors(x, list(range(0, 257, 16)))
    assert all(a >= b for a, b in zip(errors, errors[1:]))


def test_best_m_error_is_grid_normalized_dropped_energy():
    rng = derive_stream(53, 0)
    x = rng.normal(0.0, 1.0, 128)
    coeffs = dct2_forward(x).values
    sq = np.sort(coeffs**2)[::-1]
    for m in (0, 5, 100):
        assert dct_best_errors(x, [m])[0] == pytest.approx(float(sq[m:].sum()) / 128.0, rel=1e-12)


def test_grid_norm_consistency_for_step_paths():
    # (1/2^L) sum of squares tracks the exact integral of the step path
    for seed in (1, 2, 5):
        path = sample_path(10.0, JumpLaw(variance=0.1), derive_stream(54, seed))
        grid = sample_grid(path, 10)
        riemann = float((grid**2).sum()) / grid.size
        exact = path.l2_norm_sq()
        if exact > 1e-6:
            assert abs(riemann - exact) <= 2.0**-8 * exact


def test_jump_path_haar_beats_dct():
    # a sparse step signal needs few Haar atoms but many cosines
    path = sample_path(10.0, JumpLaw(variance=0.1), derive_stream(55, 0))
    grid = sample_grid(path, 10)
    m = 64
    haar_err = errors_discrete(discrete_haar_forward(grid), ("best",), [m])[0][0] / grid.size
    dct_err = dct_best_errors(grid, [m])[0]
    assert haar_err < dct_err


@pytest.mark.parametrize("call, what", [
    (lambda x: dct2_inverse(dct2_forward(x)), "coefficient"),
    (lambda x: discrete_haar_inverse(discrete_haar_forward(x)), "coefficient"),
], ids=["dct-inverse", "haar-inverse"])
def test_one_row_calls_refuse_a_block_of_rows(call, what):
    # the forward transforms take rows; these take one, and once blamed the
    # grid size, failed inside numpy's broadcasting, or named a shape the
    # caller never passed
    with pytest.raises(ValueError, match=rf"expected one {what} row, got shape \(3, 4\)"):
        call(np.ones((3, 4)))
