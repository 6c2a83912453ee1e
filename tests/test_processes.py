"""Tests for path simulation: jump laws, spacing, exact norms, grids."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from cpwave import (
    CompoundPoissonPath,
    JumpLaw,
    brownian_grid,
    derive_stream,
    poisson_count,
    sample_grid,
    sample_path,
)
from cpwave.processes import MAX_EXPECTED_JUMPS

LAW10 = JumpLaw(variance=0.1)


def make_path(times, heights, lam=10.0, variance=0.1):
    return CompoundPoissonPath(
        lam=lam,
        jump_times=np.asarray(times, dtype=float),
        jump_heights=np.asarray(heights, dtype=float),
        law=JumpLaw(variance=variance),
    )


# ---------------------------------------------------------------------------
# poisson_count


def test_poisson_zero_rate_always_zero():
    rng = derive_stream(1, 0)
    assert all(poisson_count(0.0, rng) == 0 for _ in range(100))


def test_poisson_mean_clt_band():
    rng = derive_stream(2, 0)
    draws = poisson_count(10.0, rng, size=10**6)
    assert abs(draws.mean() - 10.0) < 3.0 * math.sqrt(10.0 / 10**6)


def test_poisson_variance_matches_rate():
    rng = derive_stream(3, 0)
    draws = poisson_count(10.0, rng, size=10**6)
    assert abs(draws.var() - 10.0) < 0.05 * 10.0


@pytest.mark.parametrize("lam", [5.0, 100.0])
def test_poisson_chi_square_against_exact_pmf(lam):
    # exercises both sampler regimes (small-rate inversion, large-rate rejection)
    rng = derive_stream(4, int(lam))
    draws = poisson_count(lam, rng, size=200_000)
    lo = max(0, int(lam - 5 * math.sqrt(lam)))
    hi = int(lam + 5 * math.sqrt(lam))
    edges = list(range(lo, hi + 1))
    observed = np.array(
        [(draws == k).sum() for k in edges[:-1]]
        + [(draws >= edges[-1]).sum() + (draws < edges[0]).sum()]
    )
    probs = [scipy.stats.poisson.pmf(k, lam) for k in edges[:-1]]
    probs.append(1.0 - sum(probs))
    stat, pvalue = scipy.stats.chisquare(observed, np.array(probs) * draws.size)
    assert pvalue > 1e-4


def test_poisson_rejects_bad_rate():
    rng = derive_stream(5, 0)
    with pytest.raises(ValueError):
        poisson_count(-1.0, rng)
    with pytest.raises(ValueError):
        poisson_count(float("nan"), rng)


# ---------------------------------------------------------------------------
# sample_path


def test_sample_path_mean_jump_count():
    counts = [sample_path(10.0, LAW10, derive_stream(6, t)).num_jumps for t in range(10_000)]
    se = math.sqrt(10.0 / 10_000)
    assert abs(np.mean(counts) - 10.0) < 3.0 * se


def test_sample_path_times_strictly_increasing_in_unit_interval():
    for t in range(200):
        path = sample_path(10.0, LAW10, derive_stream(7, t))
        times = path.jump_times
        if times.size:
            assert times[0] > 0.0 and times[-1] < 1.0
            assert np.all(np.diff(times) > 0.0)


def test_sample_path_total_jump_energy_normalization():
    # with jump variance 1/lambda the process variance is 1: E[sum a_i^2] = 1
    totals = [
        float((sample_path(10.0, LAW10, derive_stream(8, t)).jump_heights ** 2).sum())
        for t in range(10_000)
    ]
    assert abs(np.mean(totals) - 1.0) < 4.0 * np.std(totals) / math.sqrt(len(totals))


def test_sample_path_deterministic_per_stream():
    a = sample_path(10.0, LAW10, derive_stream(9, 5))
    b = sample_path(10.0, LAW10, derive_stream(9, 5))
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_heights, b.jump_heights)
    c = sample_path(10.0, LAW10, derive_stream(9, 6))
    assert not np.array_equal(a.jump_times, c.jump_times)


# ---------------------------------------------------------------------------
# evaluation, spacing, norm


def test_value_at_boundary_and_jump():
    path = make_path([0.25], [1.0])
    assert path.value_at(0.0) == 0.0
    assert path.value_at(0.2) == 0.0
    assert path.value_at(0.25) == 1.0  # jump included at its location
    assert path.value_at(1.0) == 1.0
    with pytest.raises(ValueError):
        path.value_at(1.5)


def test_values_at_matches_scalar():
    path = make_path([0.2, 0.6], [1.0, -2.0])
    ts = np.array([0.0, 0.2, 0.3, 0.6, 0.9])
    assert np.array_equal(path.values_at(ts), [path.value_at(t) for t in ts])
    # about 100 jumps: a pairwise sum of a prefix and a running sum round
    # differently at most grid points
    path = sample_path(100.0, JumpLaw.for_rate(100.0), derive_stream(10, 0))
    ts = np.arange(257) / 256
    assert np.array_equal(path.values_at(ts), [path.value_at(t) for t in ts])


def test_min_spacing_empty_path_is_one():
    path = CompoundPoissonPath(
        lam=1.0, jump_times=np.array([]), jump_heights=np.array([]), law=LAW10
    )
    assert path.min_spacing() == 1.0
    assert path.l2_norm_sq() == 0.0


def test_min_spacing_counts_gap_from_zero():
    assert make_path([0.3, 0.5], [1.0, 1.0]).min_spacing() == pytest.approx(0.2)
    assert make_path([0.1, 0.9], [1.0, 1.0]).min_spacing() == pytest.approx(0.1)


def test_min_spacing_bound_on_sampled_paths():
    for t in range(2000):
        path = sample_path(10.0, LAW10, derive_stream(10, t))
        if path.num_jumps:
            assert path.min_spacing() <= 1.0 / path.num_jumps


def test_min_spacing_conditional_survival():
    # P(spacing >= d | N = n) = (1 - n d)^n, checked via constructed paths
    samples = 20_000
    for n in (1, 2, 5):
        rng = derive_stream(11, n)
        deltas = []
        for _ in range(samples):
            times = np.sort(rng.random(n))
            while times[0] == 0.0 or np.any(np.diff(times) == 0.0):
                times = np.sort(rng.random(n))
            path = make_path(times, rng.normal(0.0, 1.0, n))
            deltas.append(path.min_spacing())
        deltas = np.array(deltas)
        for d in (0.05, 0.1, 1.0 / (2 * n)):
            exact = (1.0 - n * d) ** n
            assert abs(float(np.mean(deltas >= d)) - exact) < 0.02


def test_l2_norm_single_jump():
    assert make_path([0.25], [1.0]).l2_norm_sq() == pytest.approx(0.75)


def test_l2_norm_two_jumps_by_hand():
    # levels: 2 on [0.5, 0.75), 1 on [0.75, 1) -> 4*0.25 + 1*0.25
    assert make_path([0.5, 0.75], [2.0, -1.0]).l2_norm_sq() == pytest.approx(1.25)


def test_l2_norm_matches_riemann_estimate():
    for seed in range(5):
        path = sample_path(10.0, LAW10, derive_stream(12, seed))
        grid = sample_grid(path, 16)
        riemann = float((grid.values**2).sum()) / 2**16
        exact = path.l2_norm_sq()
        assert abs(riemann - exact) <= 2**-12 * exact


@given(
    st.lists(st.floats(min_value=1e-3, max_value=0.999), min_size=1, max_size=12, unique=True),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_l2_norm_matches_quadrature(times, data):
    times = sorted(times)
    heights = data.draw(
        st.lists(
            st.floats(min_value=-3, max_value=3).filter(lambda h: abs(h) > 1e-6),
            min_size=len(times),
            max_size=len(times),
        )
    )
    path = make_path(times, heights)
    # independent oracle: integrate the step function segment by segment
    pts = [0.0] + list(times) + [1.0]
    expected = sum(
        path.value_at((a + b) / 2.0) ** 2 * (b - a) for a, b in zip(pts, pts[1:]) if b > a
    )
    assert path.l2_norm_sq() == pytest.approx(expected, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# grids


def test_sample_grid_zero_path():
    path = CompoundPoissonPath(
        lam=1.0, jump_times=np.array([]), jump_heights=np.array([]), law=LAW10
    )
    assert np.array_equal(sample_grid(path, 3).values, np.zeros(8))


def test_sample_grid_single_jump_layout():
    grid = sample_grid(make_path([0.3], [1.0]), 2)
    assert np.array_equal(grid.values, [0.0, 0.0, 1.0, 1.0])


def test_sample_grid_starts_at_zero():
    for t in range(20):
        path = sample_path(10.0, LAW10, derive_stream(13, t))
        assert sample_grid(path, 5).values[0] == 0.0


def test_sample_grid_range_check():
    path = make_path([0.3], [1.0])
    with pytest.raises(ValueError):
        sample_grid(path, 0)
    with pytest.raises(ValueError):
        sample_grid(path, 25)


def test_brownian_grid_shape_and_origin():
    grid = brownian_grid(1.0, 10, derive_stream(14, 0))
    assert grid.values.shape == (1024,)
    assert grid.values[0] == 0.0
    assert grid.process == "bm"


def test_brownian_grid_terminal_variance():
    last = np.array(
        [brownian_grid(1.0, 10, derive_stream(15, t)).values[-1] for t in range(10_000)]
    )
    expected = 1.0 - 2.0**-10  # variance of the sum of 2^L - 1 increments
    assert abs(last.var() - expected) < 0.05 * expected


def test_brownian_grid_increments_zero_mean():
    values = brownian_grid(1.0, 10, derive_stream(16, 0)).values
    incs = np.diff(values)
    sigma = math.sqrt(2.0**-10)
    assert abs(incs.mean()) < 4.0 * sigma / math.sqrt(incs.size)


def test_brownian_grid_deterministic():
    a = brownian_grid(1.0, 8, derive_stream(17, 3)).values
    b = brownian_grid(1.0, 8, derive_stream(17, 3)).values
    assert np.array_equal(a, b)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_path([0.5, 0.5], [1.0, 1.0])  # tie
    with pytest.raises(ValueError):
        make_path([0.0], [1.0])  # boundary
    with pytest.raises(ValueError):
        make_path([0.5], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        JumpLaw(variance=0.0)
    with pytest.raises(ValueError):
        brownian_grid(-1.0, 10, derive_stream(18, 0))
    with pytest.raises(ValueError):
        derive_stream(-1, 0)


def test_jump_law_refuses_rates_beyond_memory():
    assert JumpLaw.for_rate(float(MAX_EXPECTED_JUMPS)).variance == 1.0 / MAX_EXPECTED_JUMPS
    with pytest.raises(ValueError, match="expected jumps"):
        JumpLaw.for_rate(MAX_EXPECTED_JUMPS * 1.0001)
    with pytest.raises(ValueError, match="expected jumps"):
        JumpLaw.for_rate(1e9, variance=1.0)
