"""Tests for path simulation: jump laws, spacing, exact norms, grids."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from cpwave import (
    CompoundPoissonPath,
    JumpLaw,
    brownian_grid,
    derive_stream,
    sample_grid,
    sample_path,
)
from cpwave import processes
from cpwave.processes import MAX_EXPECTED_JUMPS, PathBlock, sample_block, stream_states

from reference import exact_energy, min_spacing

LAW10 = JumpLaw(variance=0.1)


def make_path(times, heights):
    return CompoundPoissonPath(np.asarray(times, dtype=float), np.asarray(heights, dtype=float))


# ---------------------------------------------------------------------------
# jump counts


@pytest.mark.parametrize("lam", [5.0, 100.0])
def test_poisson_chi_square_against_exact_pmf(lam):
    # the jump counts of sampled trials, each from its own stream; the two
    # rates exercise numpy's two Poisson samplers (small-rate inversion,
    # large-rate rejection)
    draws = sample_block(lam, JumpLaw.for_rate(lam), 4, range(20_000)).counts
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
    for lam in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            sample_path(lam, LAW10, derive_stream(5, 0))
        with pytest.raises(ValueError, match="must be positive and finite"):
            sample_block(lam, LAW10, 5, range(2))


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


@pytest.mark.parametrize("seed, index", [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (7, 132)])
def test_derive_stream_draws_equal_default_rng(seed, index):
    ours = derive_stream(seed, index)
    reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    assert ours.random(16).tobytes() == reference.random(16).tobytes()
    assert ours.poisson(10.0, 16).tolist() == reference.poisson(10.0, 16).tolist()
    assert ours.bit_generator.state == reference.bit_generator.state


# one spawn-key word below 2^32, two from 2^32 up
STREAM_INDICES = [0, 1, 77, 2**31, 2**32 - 1, 2**32, 2**32 + 5, 2**40, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 5, 2**31 + 7, 2**40 + 3, 2**64 - 1])
def test_stream_states_equal_derive_stream(seed):
    states = stream_states(seed, STREAM_INDICES)
    assert states.dtype == np.uint64 and states.shape == (len(STREAM_INDICES), 4)
    streams = processes._streams(states)
    for index, words, stream in zip(STREAM_INDICES, states.tolist(), streams):
        reference = derive_stream(seed, index)
        state = reference.bit_generator.state
        assert stream.bit_generator.state == state
        assert words == [w >> s & (2**64 - 1) for w in state["state"].values() for s in (64, 0)]
        assert stream.random(8).tobytes() == reference.random(8).tobytes()
        assert stream.normal(0.0, 1.0, 8).tobytes() == reference.normal(0.0, 1.0, 8).tobytes()
    # a range seeds its indices, as a list of them does; no trial, no row
    near = range(2**32 - 3, 2**32 + 3)
    assert stream_states(seed, near).tobytes() == stream_states(seed, list(near)).tobytes()
    assert stream_states(seed, range(0)).shape == (0, 4)


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


def test_evaluation_refuses_nan_points():
    path = sample_path(10.0, LAW10, derive_stream(19, 0))
    for evaluate in (path.values_at, path.block.values_at, PathBlock.of([path, path]).values_at):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            evaluate([0.5, math.nan])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        path.value_at(math.nan)


def test_min_spacing_empty_path_is_one():
    path = CompoundPoissonPath(np.array([]), np.array([]))
    assert min_spacing(path) == 1.0
    assert path.l2_norm_sq() == 0.0


def test_min_spacing_counts_gap_from_zero():
    assert min_spacing(make_path([0.3, 0.5], [1.0, 1.0])) == pytest.approx(0.2)
    assert min_spacing(make_path([0.1, 0.9], [1.0, 1.0])) == pytest.approx(0.1)


def test_min_spacing_bound_on_sampled_paths():
    for t in range(2000):
        path = sample_path(10.0, LAW10, derive_stream(10, t))
        if path.num_jumps:
            assert min_spacing(path) <= 1.0 / path.num_jumps


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
            deltas.append(min_spacing(path))
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
        riemann = float((grid**2).sum()) / 2**16
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
    path = CompoundPoissonPath(np.array([]), np.array([]))
    assert np.array_equal(sample_grid(path, 3), np.zeros(8))


def test_sample_grid_single_jump_layout():
    grid = sample_grid(make_path([0.3], [1.0]), 2)
    assert np.array_equal(grid, [0.0, 0.0, 1.0, 1.0]) and not grid.flags.writeable


def test_sample_grid_starts_at_zero():
    for t in range(20):
        path = sample_path(10.0, LAW10, derive_stream(13, t))
        assert sample_grid(path, 5)[0] == 0.0


def test_sample_grid_range_check():
    path = make_path([0.3], [1.0])
    with pytest.raises(ValueError):
        sample_grid(path, 0)
    with pytest.raises(ValueError):
        sample_grid(path, 25)


def test_brownian_grid_shape_and_origin():
    grid = brownian_grid(1.0, 10, derive_stream(14, 0))
    assert grid.shape == (1024,)
    assert grid[0] == 0.0
    assert not grid.flags.writeable


def test_brownian_grid_terminal_variance():
    last = np.array(
        [brownian_grid(1.0, 10, derive_stream(15, t))[-1] for t in range(10_000)]
    )
    expected = 1.0 - 2.0**-10  # variance of the sum of 2^L - 1 increments
    assert abs(last.var() - expected) < 0.05 * expected


def test_brownian_grid_increments_zero_mean():
    values = brownian_grid(1.0, 10, derive_stream(16, 0))
    incs = np.diff(values)
    sigma = math.sqrt(2.0**-10)
    assert abs(incs.mean()) < 4.0 * sigma / math.sqrt(incs.size)


def test_brownian_grid_deterministic():
    a = brownian_grid(1.0, 8, derive_stream(17, 3))
    b = brownian_grid(1.0, 8, derive_stream(17, 3))
    assert np.array_equal(a, b)


def test_constructor_validation():
    for times in ([0.5, 0.5], [0.0], [math.nan], [0.5, 0.25]):  # tie, boundary, nan, drop
        with pytest.raises(ValueError, match="strictly inside"):
            make_path(times, [1.0] * len(times))
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


# ---------------------------------------------------------------------------
# PathBlock and block sampling


class InjectedGenerator:
    """A stream whose first draw of jump times or heights has one fault put
    in: a 0.0 time, a tied pair of times, or a 0.0 height; every later
    draw, and the rest of that one, is the real generator's. It counts the
    draws, so a test can see that a redraw happened."""

    def __init__(self, fault, seed, index):
        self.rng, self.fault, self.calls = derive_stream(seed, index), fault, []

    def poisson(self, lam):
        self.calls.append("poisson")
        return 6 + self.rng.poisson(lam)  # room for a tied pair

    def random(self, n):
        self.calls.append("random")
        u = self.rng.random(n)
        if self.calls.count("random") == 1:
            if self.fault == "zero time":
                u[2] = 0.0
            elif self.fault == "tie":
                u[4] = u[1]
        return u

    def normal(self, loc, scale, n):
        self.calls.append("normal")
        h = self.rng.normal(loc, scale, n)
        if self.fault == "zero height" and self.calls.count("normal") == 1:
            h[3] = 0.0
        return h


@pytest.mark.parametrize("fault", ["zero time", "tie", "zero height"])
def test_sample_path_and_block_redraw_a_fault(monkeypatch, fault):
    # sample_path draws the faulty entries again; the block sampler finds
    # the faulty trial in its one check and draws it again whole, from a
    # fresh stream, so the trial keeps sample_path's bits
    stream = InjectedGenerator(fault, 21, 2)
    path = sample_path(10.0, LAW10, stream)
    redrawn = "random" if fault != "zero height" else "normal"
    assert stream.calls.count(redrawn) == 2
    assert path.jump_times[0] > 0.0 and np.all(np.diff(path.jump_times) > 0.0)
    assert np.all(path.jump_heights != 0.0)

    streams = []
    real_streams = processes._streams

    def derive(seed, index):
        streams.append(index)
        return InjectedGenerator(fault, seed, index) if index == 2 else derive_stream(seed, index)

    def seeded(seed, trials):
        streams.extend(trials)
        return stream_states(seed, trials)

    def injected(states):
        # the block's streams, trial 2's with the fault put in
        for t, stream in enumerate(real_streams(states)):
            yield InjectedGenerator(fault, 21, 2) if t == 2 else stream

    monkeypatch.setattr(processes, "derive_stream", derive)
    monkeypatch.setattr(processes, "stream_states", seeded)
    monkeypatch.setattr(processes, "_streams", injected)
    block = sample_block(10.0, LAW10, 21, range(5))
    assert streams == [0, 1, 2, 3, 4, 2]
    expected = PathBlock.of([sample_path(10.0, LAW10, derive(21, t)) for t in range(5)])
    for name in ("times", "heights", "bounds"):
        assert getattr(block, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("lam", [0.5, 10.0, 500.0])
def test_sample_block_equals_per_trial_sample_path(lam):
    # 2,000 trials in blocks of 4: at rate 0.5 many paths, and many whole
    # blocks, have no jump at all
    law = JumpLaw.for_rate(lam)
    empty = 0
    for start in range(0, 2000, 4):
        block = sample_block(lam, law, 22, range(start, start + 4))
        paths = [sample_path(lam, law, derive_stream(22, t)) for t in range(start, start + 4)]
        expected = PathBlock.of(paths)
        for name in ("times", "heights", "bounds"):
            assert getattr(block, name).tobytes() == getattr(expected, name).tobytes()
        empty += not block.times.size
    assert (empty > 0) == (lam < 1)


@pytest.mark.parametrize("times, heights, bounds", [
    ([0.0, 0.5], [1.0, 1.0], [0, 2]),               # a time at 0
    ([0.5, 1.0], [1.0, 1.0], [0, 1, 2]),            # a time at 1
    ([-0.25], [1.0], [0, 1]),                       # below 0
    ([math.nan], [1.0], [0, 1]),                    # nan
    ([0.25, 0.25], [1.0, 1.0], [0, 2]),             # a tie inside a path
    ([0.5, 0.25], [1.0, 1.0], [0, 2]),              # a drop inside a path
    ([0.25, 0.5], [1.0], [0, 2]),                   # mismatched shapes
    ([[0.25, 0.5]], [[1.0, 1.0]], [0, 2]),          # not 1-d
    ([0.25, 0.5], [1.0, 1.0], [0, 2, 1, 2]),        # bounds that fall
    ([0.25, 0.5], [1.0, 1.0], [0, 1]),              # bounds short of the jumps
    ([0.25, 0.5], [1.0, 1.0], [1, 2]),              # bounds not from 0
    ([0.25, 0.5], [1.0, 1.0], [0.0, 2.0]),          # bounds not integers
    ([0.25, 0.5], [1.0, 1.0], []),                  # no bounds at all
])
def test_path_block_refuses(times, heights, bounds):
    with pytest.raises(ValueError):
        PathBlock(times, heights, bounds)


def test_path_block_accepts_drops_between_paths_and_empty_paths():
    block = PathBlock([0.5, 0.75, 0.25], [1.0, -2.0, 3.0], [0, 0, 2, 2, 3, 3])
    assert len(block) == 5 and block.counts.tolist() == [0, 2, 0, 1, 0]
    assert not block.times.flags.writeable
    assert len(PathBlock([], [], [0])) == 0 and len(PathBlock.of([])) == 0
    # take gives the same paths, consecutive or not
    assert block.take([1, 3]).counts.tolist() == [2, 1]
    assert block.take([1, 2, 3]).times.tolist() == [0.5, 0.75, 0.25]
    assert block.take([3, 4]).bounds.tolist() == [0, 1, 1]


def test_paths_and_blocks_keep_their_own_copies():
    # writing to the arrays a path or a block was made from, after the
    # checks, once left the path unsorted with 7863.6 for its energy
    t, h = np.array([0.25, 0.5]), np.array([1.0, 2.0])
    path, block = CompoundPoissonPath(t, h), PathBlock(t, h, [0, 1, 2])
    t[1], h[0] = 0.1, 100.0
    for times, heights in ((path.jump_times, path.jump_heights), (block.times, block.heights)):
        assert times.tolist() == [0.25, 0.5] and heights.tolist() == [1.0, 2.0]
    assert path.l2_norm_sq() == 4.75 and block.sums()[1].tolist() == [0.75, 2.0]


def test_path_block_sums_equal_the_one_path_views():
    # the scaling coefficient and the energy of each path keep the bits of
    # the per-path fsum over its own terms, whatever the paths beside it:
    # in blocks of three, whose running sums come from one padded cumsum,
    # and in one block of all, padded too wide, which sums path by path
    paths = [make_path([], []), make_path([0.25], [1.0]), make_path([0.3, 0.3 + 2.0**-45, 0.6], [1e6, -1e6, 1.0])]
    paths += [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(23, t)) for lam in (0.5, 10.0, 500.0)
              for t in range(6)]
    sums = [PathBlock.of(paths[i : i + 3]).sums() for i in range(0, len(paths), 3)]
    blocks = [np.concatenate(part) for part in zip(*sums)]
    for scaling, energy in (blocks, PathBlock.of(paths).sums()):
        for p, c, e in zip(paths, scaling.tolist(), energy.tolist()):
            t, h = p.jump_times, p.jump_heights
            lengths = np.diff(np.append(t, 1.0))
            assert c == math.fsum((h * (1.0 - t)).tolist())
            assert e == math.fsum(((np.cumsum(h) ** 2) * lengths).tolist())
            assert e == p.l2_norm_sq()


@pytest.mark.parametrize("grid_log2", [1, 6, 14])
def test_path_block_values_at_equal_the_per_path_running_sums(grid_log2):
    # each row keeps the bits of the path's own cumsum indexed by
    # searchsorted: with jumps on grid points, several jumps in one cell and
    # jump-free paths, in blocks of four (padded running sums) and in one
    # block uneven enough that sums() and values_at read the running sums
    # path by path
    n = 2**grid_log2
    cell = 2.0**-grid_log2
    on_grid = sorted({cell, 0.5, 1.0 - cell})
    paths = [make_path([], []), make_path(on_grid, [1.0, -0.25, 0.5][: len(on_grid)]),
             make_path([0.5 + cell / 3, 0.5 + cell / 2, 0.5 + 2 * cell / 3], [0.1, 0.2, -0.7]),
             make_path([1.0 - 2.0**-53], [3.0]), make_path([], [])]
    paths += [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(24, t))
              for lam in (0.5, 10.0, 500.0) for t in range(5)]
    paths += [sample_path(3000.0, JumpLaw.for_rate(3000.0), derive_stream(24, 0))]
    ts = np.arange(n, dtype=float) / n
    shuffled = np.concatenate((ts[::-1], [0.5, 1.0, 0.0]))

    def running_sums(path, points):
        levels = np.concatenate(([0.0], np.cumsum(path.jump_heights)))
        return levels[np.searchsorted(path.jump_times, points, side="right")]

    uneven = PathBlock.of(paths)
    assert len(uneven) * uneven.counts.max() > 2 * uneven.times.size + 1024
    for points in (ts, shuffled):
        rows = [PathBlock.of(paths[i : i + 4]).values_at(points) for i in range(0, len(paths), 4)]
        for block in (np.concatenate(rows), uneven.values_at(points)):
            assert block.shape == (len(paths), points.size)
            for p, row in zip(paths, block):
                assert row.tobytes() == running_sums(p, points).tobytes()
                assert row.tobytes() == p.values_at(points).tobytes()
    grids = uneven.values_at(ts)
    for p, row in zip(paths, grids):
        assert row.tobytes() == sample_grid(p, grid_log2).tobytes()
    assert uneven.values_at(ts.reshape(2, n // 2)).tobytes() == grids.tobytes()
    for bad in ([0.5, 1.5], [-0.25]):
        with pytest.raises(ValueError, match="evaluation points"):
            uneven.values_at(bad)


def test_l2_norm_sq_keeps_its_stated_error_bound():
    # the levels are rounded running sums, so the energy is exact only up
    # to 2 (N + 2) 2^-53 sum(S_i^2 length_i); with a +-10^6 jump pair 2^-45
    # apart the levels cancel and it is off by about 1.3e-10 relative
    path = sample_path(3.0, JumpLaw.for_rate(3.0), derive_stream(79, 1))
    times = np.concatenate((path.jump_times, [0.3, 0.3 + 2.0**-45]))
    heights = np.concatenate((path.jump_heights, [1e6, -1e6]))
    order = np.argsort(times, kind="stable")
    spiked = make_path(times[order], heights[order])
    paths = [spiked] + [sample_path(lam, JumpLaw.for_rate(lam), derive_stream(80, t))
                        for lam in (3.0, 10.0, 100.0) for t in range(5)]
    for p in paths:
        energy, scale = exact_energy(p)
        error = abs(Fraction(p.l2_norm_sq()) - energy)
        assert error <= 2 * (p.num_jumps + 2) * Fraction(1, 2**53) * scale
    energy, _ = exact_energy(spiked)
    assert 1e-10 < abs(Fraction(spiked.l2_norm_sq()) - energy) / energy < 2e-10
