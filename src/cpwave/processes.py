"""Exact simulation of compound Poisson paths and Brownian motion on [0, 1].

Compound Poisson trajectories are stored exactly as sorted jump locations
plus jump heights, so path evaluation, L2 norms, and minimum jump spacing
are all computed in closed form rather than from a grid. Brownian motion
only exists here as a grid signal built from independent Gaussian
increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily, with hashlib and secrets: at import, not in a run

__all__ = [
    "JumpLaw",
    "CompoundPoissonPath",
    "SampledPath",
    "derive_stream",
    "poisson_count",
    "sample_path",
    "sample_grid",
    "brownian_grid",
    "MAX_GRID_LOG2",
    "MAX_EXPECTED_JUMPS",
    "check_expected_jumps",
    "is_int",
]

MAX_GRID_LOG2 = 24  # 2^24 samples is the largest grid we allow in memory

# Sampled jump times are multiples of 2^-53, so a path's whole coefficient
# ladder is a (53 x N) block of 8-byte cells, and building it keeps about
# five such temporaries alive at once (measured at N = 10^5: 4.9 blocks).
# Paths whose expected jump count would take that past 2 GiB are refused.
MAX_EXPECTED_JUMPS = 2**31 // (53 * 8 * 5)


def is_int(value) -> bool:
    """Whether value is a Python or numpy integer other than a bool, the
    test for every count and M an entry point takes: True is an int to
    Python, but as a count it is a slip, not 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive(name: str, value: float) -> None:
    """Refuse a value that is not positive and finite, by name."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def derive_stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Deterministic, statistically independent generator per (seed, index).

    Identical arguments always reproduce the same draw sequence; distinct
    stream indices give independent streams, which is how parallel Monte
    Carlo trials stay reproducible regardless of scheduling.
    """
    for name, value in (("master_seed", master_seed), ("stream_index", stream_index)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0 or value >= 2**64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(stream_index),))
    return np.random.Generator(np.random.PCG64(seq))  # default_rng(seq)'s bits, built faster


def check_expected_jumps(count: float, name: str = "lambda") -> None:
    """Refuse an expected jump count whose coefficient ladder cannot fit in
    memory, before anything of that size is allocated."""
    if count > MAX_EXPECTED_JUMPS:
        raise ValueError(
            f"{name} {count:g} exceeds {MAX_EXPECTED_JUMPS} expected jumps, "
            "the most whose coefficient ladder fits in memory"
        )


@dataclass(frozen=True)
class JumpLaw:
    """Gaussian law of the jump heights: zero mean, finite variance, so it
    admits a density."""

    variance: float

    def __post_init__(self) -> None:
        _positive("jump variance", self.variance)

    @classmethod
    def for_rate(cls, lam: float, sigma0_sq: float = 1.0, variance: float | None = None) -> JumpLaw:
        """The jump law of a rate-lam process: the given variance, or by
        default sigma0_sq / lam, which gives the process variance sigma0_sq."""
        _positive("lambda", lam)
        check_expected_jumps(lam)
        return cls(variance=sigma0_sq / lam if variance is None else variance)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. heights. Exact float zeros are redrawn: the law has
        a density, so a zero height is a floating-point artifact that would
        corrupt the structural zero/nonzero bookkeeping downstream."""
        heights = rng.normal(0.0, math.sqrt(self.variance), n)
        while np.any(heights == 0.0):
            zero = heights == 0.0
            heights[zero] = rng.normal(0.0, math.sqrt(self.variance), int(zero.sum()))
        return heights


@dataclass(frozen=True, eq=False)
class CompoundPoissonPath:
    """One trajectory on [0, 1]: s(t) = sum of heights of jumps at or before t.

    jump_times is strictly increasing with every entry in (0, 1); the arrays
    are frozen after construction and safe to share between threads.
    """

    lam: float
    jump_times: np.ndarray
    jump_heights: np.ndarray
    law: JumpLaw

    def __post_init__(self) -> None:
        times = np.asarray(self.jump_times, dtype=float)
        heights = np.asarray(self.jump_heights, dtype=float)
        if times.shape != heights.shape or times.ndim != 1:
            raise ValueError("jump_times and jump_heights must be 1-d arrays of equal length")
        _positive("lam", self.lam)
        if times.size:
            if times[0] <= 0.0 or times[-1] >= 1.0:
                raise ValueError("jump times must lie strictly inside (0, 1)")
            if np.any(times[1:] <= times[:-1]):
                raise ValueError("jump times must be strictly increasing")
        times.setflags(write=False)
        heights.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_heights", heights)

    @property
    def num_jumps(self) -> int:
        return int(self.jump_times.size)

    def value_at(self, t: float) -> float:
        """Path value s(t); right-continuous, so the jump at t is included."""
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {t}")
        return float(self.values_at(t))

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized value_at; both read the running sums of the heights."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        csum = np.concatenate(([0.0], np.cumsum(self.jump_heights)))
        idx = np.searchsorted(self.jump_times, ts, side="right")
        return csum[idx]

    def min_spacing(self) -> float:
        """Minimum gap between consecutive jumps, counting a virtual jump at 0.

        Equals 1 for a jump-free path, and never exceeds 1/N otherwise.
        """
        if self.num_jumps == 0:
            return 1.0
        gaps = np.diff(self.jump_times, prepend=0.0)
        return float(gaps.min())

    def l2_norm_sq(self) -> float:
        """Exact integral of s(t)^2 over [0, 1], piecewise segment by segment."""
        if self.num_jumps == 0:
            return 0.0
        # the path sits at cumsum(heights)[i] on [tau_i, tau_{i+1}) and at 0 before tau_1
        levels = np.cumsum(self.jump_heights)
        times = self.jump_times
        lengths = np.empty_like(times)
        np.subtract(times[1:], times[:-1], out=lengths[:-1])
        lengths[-1] = 1.0 - times[-1]
        return math.fsum(((levels * levels) * lengths).tolist())


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A signal on the dyadic grid {i / 2^L : 0 <= i < 2^L}."""

    values: np.ndarray
    grid_log2: int
    process: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.size != 2**self.grid_log2:
            raise ValueError(
                f"expected {2 ** self.grid_log2} samples for grid_log2={self.grid_log2}, "
                f"got {values.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def poisson_count(lam: float, stream: np.random.Generator, size: int | None = None):
    """Poisson draw(s) with mean lam; scalar int by default, array when size given."""
    if not (isinstance(lam, (int, float, np.floating, np.integer)) and math.isfinite(lam)):
        raise ValueError(f"lam must be a finite number, got {lam!r}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if size is None:
        return int(stream.poisson(lam))
    return stream.poisson(lam, size=size)


def sample_path(lam: float, law: JumpLaw, stream: np.random.Generator) -> CompoundPoissonPath:
    """Draw one compound Poisson trajectory on [0, 1].

    The jump count is Poisson(lam); given the count, locations are sorted
    i.i.d. Uniform(0, 1) draws and heights are i.i.d. from the jump law,
    independent of the locations.
    """
    _positive("lam", lam)
    n = poisson_count(lam, stream)
    times = np.sort(stream.random(n))
    # collisions and exact zeros have probability zero; redraw the offending
    # entries so the strict-ordering invariant holds even then
    while n and (times[0] == 0.0 or np.any(times[1:] == times[:-1])):
        bad = np.concatenate(([times[0] == 0.0], times[1:] == times[:-1]))
        times[bad] = stream.random(int(bad.sum()))
        times = np.sort(times)
    heights = law.sample(stream, n)
    return CompoundPoissonPath(lam=float(lam), jump_times=times, jump_heights=heights, law=law)


def _check_grid_log2(grid_log2: int) -> None:
    if not is_int(grid_log2) or not (1 <= grid_log2 <= MAX_GRID_LOG2):
        raise ValueError(f"grid_log2 must be an integer in [1, {MAX_GRID_LOG2}], got {grid_log2}")


def sample_grid(path: CompoundPoissonPath, grid_log2: int) -> SampledPath:
    """Evaluate the path at the 2^L equispaced grid points i / 2^L."""
    _check_grid_log2(grid_log2)
    n = 2**int(grid_log2)
    grid = np.arange(n, dtype=float) / n
    return SampledPath(values=path.values_at(grid), grid_log2=int(grid_log2), process="cp")


def brownian_grid(
    sigma0_sq: float, grid_log2: int, stream: np.random.Generator
) -> SampledPath:
    """Brownian motion samples on the dyadic grid, built from cumulative
    independent Gaussian increments of variance sigma0_sq / 2^L each."""
    _positive("sigma0_sq", sigma0_sq)
    _check_grid_log2(grid_log2)
    n = 2**int(grid_log2)
    increments = stream.normal(0.0, math.sqrt(sigma0_sq / n), n - 1)
    values = np.concatenate(([0.0], np.cumsum(increments)))
    return SampledPath(values=values, grid_log2=int(grid_log2), process="bm")
