"""Exact simulation of compound Poisson paths and Brownian motion on [0, 1].

Compound Poisson trajectories are stored exactly as sorted jump locations
plus jump heights, so path evaluation and L2 norms are computed in
closed form rather than from a grid. A PathBlock lays the jumps of a
block of paths end to end, with per-path bounds, and is checked once
with array operations; sample_block draws a block of trials
into one, each from its own stream as sample_path draws it. A trial's
stream is derive_stream(seed, trial); stream_states computes the PCG64
states of a whole chunk of trials at once, bit for bit, and one generator
is set to each trial's state in turn. The running
sums of each path's heights give both its values at shared points
(values_at) and, through one exact pass over the block (_range_sums, the
package's exact summation kernel), its scaling coefficient and energy.
CompoundPoissonPath holds one path's jumps, with no rate or law, as the
one-path block its constructor checks and every view reads; PathBlock.of
lays a list of paths into a block. Brownian motion only exists here as a
grid signal built from independent Gaussian increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily, with hashlib and secrets: at import, not in a run

__all__ = [
    "JumpLaw",
    "CompoundPoissonPath",
    "PathBlock",
    "derive_stream",
    "stream_states",
    "sample_path",
    "sample_block",
    "sample_grid",
    "brownian_grid",
    "MAX_GRID_LOG2",
    "MAX_EXPECTED_JUMPS",
    "check_expected_jumps",
    "is_int",
]

MAX_GRID_LOG2 = 24  # 2^24 samples is the largest grid we allow in memory

# Sampled jump times are multiples of 2^-53, so a path's whole coefficient
# ladder is a (53 x N) block of 8-byte cells. Measured by tracemalloc at
# N = 10^5, building it (haar.ladders) keeps 2.7 such blocks alive, and
# errors_rows 1.2 at M <= 1024 but 6.9 at an M past every candidate, where
# it keeps and sorts them all. Paths whose expected jump count would take
# five blocks past 2 GiB are refused.
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


_M32 = 0xFFFFFFFF


def _hashed(words, init: int, mult: int, k: int, rows: int):
    """SeedSequence's hashmix of 32-bit words: row r is xored with the
    (k + r)-th hash constant, init * mult^(k + r) mod 2^32, and multiplied
    by the next."""
    c = np.array([init * pow(mult, i, 1 << 32) & _M32 for i in range(k, k + rows + 1)], np.uint64)
    words = (words ^ c[:-1, None]) * c[1:, None] & _M32
    return words ^ words >> 16


def _mixed(pool, word, k: int):
    """SeedSequence's mix of one entropy word, hashed with its k-th to
    (k + 4)-th pool constants, into each of the four pool words."""
    value = (0xCA01F9DD * pool - 0x4973F715 * _hashed(word, 0x43B0D7E5, 0x931E8875, k, 4)) & _M32
    return value ^ value >> 16


def _mul_hi(a, b):
    """The high 64 bits of the 128-bit product of uint64 words a and b."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + ((mid & _M32) + a0 * b1 >> 32)


def stream_states(master_seed: int, trials) -> np.ndarray:
    """The PCG64 state of derive_stream(master_seed, t) for every trial t at
    once, as rows (state high, low, inc high, low) of 64-bit words.

    SeedSequence (NEP 19) mixes each spawn key's words, one below 2^32 and
    two from 2^32 up, into the pool numpy mixes from the seed, and hashes
    the pool into 128-bit initstate and initseq; PCG64 (O'Neill 2014)
    starts from inc = 2 initseq + 1 and state = (inc + initstate) MULT +
    inc mod 2^128. The trials' words are masked uint64 arrays.
    """
    t, pool = np.asarray(trials, dtype=np.uint64), np.random.SeedSequence(int(master_seed)).pool
    pool = _mixed(pool.astype(np.uint64)[:, None], t & _M32, 16)
    if np.any(t >> 32):
        pool = np.where(t >> 32 > 0, _mixed(pool, t >> 32, 20), pool)
    words = _hashed(np.concatenate((pool, pool)), 0x8B51F9DD, 0x58F38DED, 0, 8)
    hi, lo, seq_hi, seq_lo = words[0::2] | words[1::2] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo += inc_lo  # (hi, lo) = initstate + inc, with the carry
    hi += inc_hi + (lo < inc_lo)
    mult_hi, mult_lo = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # PCG64's multiplier
    state_lo = lo * mult_lo + inc_lo
    state_hi = _mul_hi(lo, mult_lo) + hi * mult_lo + lo * mult_hi + inc_hi + (state_lo < inc_lo)
    return np.stack((state_hi, state_lo, inc_hi, inc_lo), axis=1)


def _streams(states: np.ndarray):
    """One generator, set to each row of stream_states in turn."""
    stream, inner = np.random.Generator(np.random.PCG64(0)), {}
    value = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, inc_hi, inc_lo in states.tolist():
        inner["state"], inner["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
        stream.bit_generator.state = value
        yield stream


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
        default sigma0_sq / lam, which gives the process variance sigma0_sq.
        Each is refused by the name it was given under."""
        _positive("lambda", lam)
        check_expected_jumps(lam)
        _positive("sigma0_sq", sigma0_sq)
        if variance is None:
            variance = sigma0_sq / lam
            _positive("sigma0_sq / lambda", variance)
        return cls(variance=variance)

    def sample(self, rng: np.random.Generator, n: int, redraw: bool = True) -> np.ndarray:
        """Draw n i.i.d. heights. Exact float zeros are redrawn unless redraw
        is false: the law has a density, so a zero height is a
        floating-point artifact that would corrupt the structural
        zero/nonzero bookkeeping downstream."""
        heights = rng.normal(0.0, math.sqrt(self.variance), n)
        while redraw and np.any(heights == 0.0):
            zero = heights == 0.0
            heights[zero] = rng.normal(0.0, math.sqrt(self.variance), int(zero.sum()))
        return heights


@dataclass(frozen=True, eq=False)
class CompoundPoissonPath:
    """One trajectory on [0, 1]: s(t) = sum of heights of jumps at or before t.

    The constructor checks the jumps as a one-path PathBlock, block, which
    every view of the path reads: jump_times, strictly increasing in (0, 1),
    and jump_heights are its frozen copies, safe to share between threads.
    """

    jump_times: np.ndarray
    jump_heights: np.ndarray
    block: PathBlock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        block = PathBlock(self.jump_times, self.jump_heights, [0, np.size(self.jump_times)])
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "jump_times", block.times)
        object.__setattr__(self, "jump_heights", block.heights)

    @property
    def num_jumps(self) -> int:
        return int(self.jump_times.size)

    def value_at(self, t: float) -> float:
        """Path value s(t); right-continuous, so the jump at t is included."""
        return float(self.values_at(t))

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized value_at: the one-path view of PathBlock.values_at."""
        return self.block.values_at(ts)[0]

    def l2_norm_sq(self) -> float:
        """The integral of s(t)^2 over [0, 1], segment by segment: the
        one-path view of PathBlock.sums, whose error bound it has."""
        return float(self.block.sums()[1][0])


_FAULT = "jump times must lie strictly inside (0, 1) and increase strictly within each path"


def _faults(times: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Which jump times of a block lie outside (0, 1), nan included, or do
    not exceed the time before them in their own path."""
    bad = np.empty(times.size, dtype=bool)
    np.less_equal(times[1:], times[:-1], out=bad[1:])
    starts = bounds[:-1]
    bad[starts[starts < times.size]] = False  # a path's first jump follows no time of its own
    bad |= ~((times > 0.0) & (times < 1.0))
    return bad


class PathBlock:
    """The jumps of a block of compound Poisson paths laid end to end: path
    p's jump times and heights are times[bounds[p]:bounds[p + 1]] and the
    same rows of heights. The constructor checks the whole block at once,
    with array operations: bounds rise from 0 to the number of jumps, and
    within each path the times lie in (0, 1) and increase strictly; a time
    may drop from one path to the next. The arrays are frozen copies, which
    later writes to the caller's arrays leave as they were checked."""

    __slots__ = ("times", "heights", "bounds")

    def __init__(self, times, heights, bounds) -> None:
        times, heights = np.array(times, dtype=float), np.array(heights, dtype=float)
        bounds = np.asarray(bounds)
        if times.ndim != 1 or times.shape != heights.shape:
            raise ValueError("times and heights must be 1-d arrays of equal length")
        if bounds.ndim != 1 or not bounds.size or bounds.dtype.kind not in "iu":
            raise ValueError("bounds must be a nonempty 1-d integer array")
        if bounds[0] != 0 or bounds[-1] != times.size or np.any(bounds[1:] < bounds[:-1]):
            raise ValueError(f"bounds must rise from 0 to the {times.size} jumps, got {bounds}")
        if _faults(times, bounds).any():
            raise ValueError(_FAULT)
        _frozen(self, times, heights, bounds.astype(np.intp))

    @classmethod
    def of(cls, paths) -> PathBlock:
        """The block of a list of paths, each checked when it was made."""
        return _laid([(p.jump_times, p.jump_heights) for p in paths])

    def __len__(self) -> int:
        return self.bounds.size - 1

    @property
    def counts(self) -> np.ndarray:
        """Each path's number of jumps."""
        return self.bounds[1:] - self.bounds[:-1]

    def take(self, ids) -> PathBlock:
        """The block of the paths at the increasing indices ids: views of
        this block's arrays when they are consecutive."""
        ids = list(ids)
        if ids and ids[-1] - ids[0] == len(ids) - 1:
            sub = self.bounds[ids[0] : ids[-1] + 2]
            a, b = sub[[0, -1]].tolist()
            return _frozen(object.__new__(PathBlock), self.times[a:b], self.heights[a:b], sub - a)
        firsts = self.bounds[ids]
        counts = self.bounds[np.add(ids, 1, dtype=np.intp)] - firsts
        sub = _bounds(counts)
        rows = np.repeat(firsts - sub[:-1], counts) + np.arange(sub[-1])
        return _frozen(object.__new__(PathBlock), self.times[rows], self.heights[rows], sub)

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Each path's scaling coefficient and energy, from one exact pass
        over the block's terms (_range_sums), each the bits fsum gives over
        the path's own terms; both 0.0 without jumps.

        The scaling coefficient is the sum of h (1 - t) over the jumps. The
        energy, the integral of s(t)^2 over [0, 1], is the sum of level^2 *
        length over the segments, the level on [t_i, t_i+1) being the
        running sum of the heights up to h_i, and the last segment ending
        at 1. Only the sums are exact. The level is rounded: it is off by
        at most (i - 1) u S_i, where u = 2^-53 and S_i is the running sum
        of |h| up to h_i, and each term is rounded three times more; so the
        energy is off by at most about 2 (N + 2) u sum(S_i^2 length_i) for
        N jumps. That is relative accuracy when the levels do not cancel;
        on a path with a +-10^6 jump pair 2^-45 apart it is off by 1.3e-10
        relative."""
        times, bounds, counts = self.times, self.bounds, self.counts
        terms = np.empty(2 * times.size)
        np.subtract(1.0, times, out=terms[: times.size])
        terms[: times.size] *= self.heights
        lengths = terms[times.size :]
        np.subtract(times[1:], times[:-1], out=lengths[:-1])
        last = bounds[1:][counts > 0] - 1
        lengths[last] = 1.0 - times[last]
        lengths *= np.square(self._levels())
        # the scaling runs, then the energy runs, end to end
        ends = np.concatenate((bounds, bounds[1:] + times.size))
        sums = _range_sums(terms, ends[:-1], ends[1:])
        return np.array(sums[: counts.size]), np.array(sums[counts.size :])

    def values_at(self, ts) -> np.ndarray:
        """Every path's value at the points ts, of any shape, as a (paths,
        *ts.shape) array: its running sums indexed by np.searchsorted(
        jump_times, ts, side="right"), bit for bit. Over sorted points a row
        is the path's 0.0 and levels, each repeated up to the first point
        the next jump reaches, so the block is one np.repeat."""
        shape = np.shape(ts)
        ts = np.asarray(ts, dtype=float).ravel()
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # nan fails both
            raise ValueError("evaluation points must lie in [0, 1]")
        order = None if np.all(ts[1:] >= ts[:-1]) else np.argsort(ts, kind="stable")
        ts = ts if order is None else ts[order]
        # each run ends at the first point the next jump reaches, or at the row's end
        n, rows = ts.size, np.arange(len(self)) * ts.size
        ends = np.searchsorted(ts, self.times) + np.repeat(rows, self.counts)
        ends = np.insert(ends, self.bounds[1:], rows + n)
        runs = np.insert(self._levels(), self.bounds[:-1], 0.0)
        values = np.repeat(runs, np.diff(ends, prepend=0)).reshape(len(self), n)
        if order is not None:
            values[:, order] = values.copy()
        return values.reshape((len(self),) + shape)

    def _levels(self) -> np.ndarray:
        """Each jump's level, with the bits of np.cumsum over its path's
        heights: one row-wise cumsum of the heights padded with zeros to the
        longest path, or path by path if padding would double the block."""
        times, heights, bounds = self.times, self.heights, self.bounds
        counts = self.counts
        width = int(counts.max(initial=0))
        if counts.size * width <= 2 * times.size + 1024:
            # each jump's cell in the padded (paths, width) array
            cells = np.repeat(np.arange(counts.size) * width - bounds[:-1], counts)
            cells += np.arange(times.size)
            padded = np.zeros(counts.size * width)
            padded[cells] = heights
            return np.cumsum(padded.reshape(counts.size, width), axis=1).ravel()[cells]
        ends = bounds.tolist()
        return np.concatenate([np.empty(0)] + [
            np.cumsum(heights[a:b]) for a, b in zip(ends, ends[1:])
        ])


_TINY = 2.0**-1022  # the least normal float; every float is a multiple of 2^-1074


def _range_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of x[lo[i]:hi[i]] for each i, the value
    fsum over those entries gives, for a float array x of either sign that
    is overwritten on the way, from one vectorized loop of error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation,
    part I", 2008).

    With every |p| <= 2^-L sigma, where sigma is a power of two >= 2^-1022
    and 2^L >= 2(n + 2) for n entries, q = (p + sigma) - sigma is p rounded
    to a multiple of 2^-53 sigma, the remainder p - q is exact and at most
    2^-53 sigma, and |q| <= 2^-L sigma. So every partial sum of a round's
    q is a multiple of 2^-53 sigma below sigma / 2 in magnitude, which is
    exact in any order: the sums of a round between consecutive run ends, and their
    running sums, are exact, and a run's sum in the round is the
    difference of two of them. Each round scales sigma by 2^(L-53); once
    sigma is 2^-1022 the remainder is below 2^-1075, hence zero. A run's
    exact sum is the sum of its round sums, a few floats, and _nearest
    rounds them correctly. When the largest magnitude is not finite, or too
    large for sigma to be a float, each run is summed by fsum over its
    entries, which returns inf or nan, or raises OverflowError.
    """
    n = x.size
    top = max(float(x.max()), -float(x.min())) if n else 0.0
    width = (2 * (n + 2) - 1).bit_length()  # L, the least with 2^L >= 2(n + 2)
    if not lo.size or not math.isfinite(top) or math.frexp(top)[1] + width > 1023:
        terms = x.tolist()
        return np.array([math.fsum(terms[a:b]) for a, b in zip(lo.tolist(), hi.tolist())])
    sigma = max(math.ldexp(1.0, math.frexp(top)[1] + width), _TINY)
    shrink = math.ldexp(1.0, width - 53)
    # the run ends in order, without repeats; each segment between two is
    # summed per round, from the first end
    ends = np.concatenate((lo, hi))
    edges = np.sort(ends)
    distinct = np.empty(edges.size, dtype=bool)
    distinct[0] = True
    np.not_equal(edges[1:], edges[:-1], out=distinct[1:])
    edges = edges[distinct]
    if edges.size == 1:
        return np.zeros(lo.size)
    p = x[edges[0] : edges[-1]]  # the remainder, in place
    q = np.empty_like(p)
    segments = edges[:-1] - edges[0]
    # row r: 0.0, then round r's sum of each segment; running sums below
    rounds = np.zeros((4, edges.size))
    r = 0
    while True:
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        if r == len(rounds):
            rounds = np.concatenate((rounds, np.zeros_like(rounds)))
        np.add.reduceat(q, segments, out=rounds[r, 1:])
        r += 1
        if not p.any():  # -0.0 counts as zero, as in count_nonzero
            break
        sigma = max(sigma * shrink, _TINY)
    running = np.cumsum(rounds[:r], axis=1)
    at = running[:, np.searchsorted(edges, ends)]
    return _nearest(at[:, lo.size :] - at[:, : lo.size])


def _nearest(rows: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each column of the round sums of
    _range_sums, the bits fsum gives, in a few vector passes (Priest, "On
    properties of floating point arithmetics", 1991; Shewchuk, "Adaptive
    precision floating-point arithmetic", 1997; Rump, Ogita and Oishi,
    "Accurate floating-point summation, part II", 2008, NearSum).

    Row k holds multiples of its round's unit u_k = 2^-53 sigma_k, and the
    rows below it sum to less than sigma_{k+1} <= 2^52 u_k, so u_k is at
    least the unit in the last place (ulp) of their rounded sum. Adding
    each row to the sum below, from the last row up, the row is a multiple
    of the ulp of the sum, which makes Fast2Sum exact in either order of
    magnitude; and each error is a multiple of the ulp of the sum below,
    at least twice the error formed there. So the top sum and the errors
    are a nonoverlapping expansion of the exact sum. Added from the top,
    the first inexact addition leaves an error lo of at most half a unit,
    and every later term is below lo's last bit, so it moves nothing: the
    top is the correctly rounded sum unless lo is exactly half a unit, a
    tie that the sign of the terms below lo breaks: such a column, rare, is
    summed again by fsum over its round sums, which breaks it so.
    """
    top, err = rows[-1], np.zeros_like(rows)
    for k in range(len(rows) - 2, -1, -1):
        s = rows[k] + top
        np.subtract(top, s - rows[k], out=err[k])
        top = s
    for e in err[:-1]:
        s = top + e
        e -= s - top
        top = s
    lo = err[np.abs(err).argmax(axis=0), np.arange(top.size)]  # the first nonzero error
    twice = 2.0 * lo
    for i in np.flatnonzero((top + twice - top == twice) & (lo != 0.0)).tolist():
        top[i] = math.fsum(rows[:, i].tolist())
    return top


def _bounds(counts) -> np.ndarray:
    """The bounds of paths with the given jump counts, laid end to end."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


def _laid(drawn) -> PathBlock:
    """The block of paths' (times, heights) pairs laid end to end, unchecked."""
    times = np.concatenate([np.empty(0)] + [t for t, _ in drawn])
    heights = np.concatenate([np.empty(0)] + [h for _, h in drawn])
    return _frozen(object.__new__(PathBlock), times, heights, _bounds([t.size for t, _ in drawn]))


def _frozen(block: PathBlock, times, heights, bounds) -> PathBlock:
    """Set a block's arrays, which it owns or views, read-only, without
    checking them again."""
    for array in (times, heights, bounds):
        array.setflags(write=False)
    block.times, block.heights, block.bounds = times, heights, bounds
    return block


def _draw(lam: float, law: JumpLaw, stream: np.random.Generator, redraw: bool = True):
    """One path's jump times and heights, in the order every sampler draws
    them: the count, the times, then the heights. Collisions, a 0.0 time
    and zero heights have probability zero; unless redraw is false, the
    offending entries are drawn again so that the strict-ordering and
    nonzero invariants hold even then."""
    n = int(stream.poisson(lam))
    times = np.sort(stream.random(n))
    while redraw and n and (times[0] == 0.0 or np.any(times[1:] == times[:-1])):
        bad = np.concatenate(([times[0] == 0.0], times[1:] == times[:-1]))
        times[bad] = stream.random(int(bad.sum()))
        times = np.sort(times)
    return times, law.sample(stream, n, redraw)


def sample_path(lam: float, law: JumpLaw, stream: np.random.Generator) -> CompoundPoissonPath:
    """Draw one compound Poisson trajectory on [0, 1].

    The jump count is Poisson(lam); given the count, locations are sorted
    i.i.d. Uniform(0, 1) draws and heights are i.i.d. from the jump law,
    independent of the locations.
    """
    _positive("lam", lam)
    times, heights = _draw(lam, law, stream)
    return CompoundPoissonPath(times, heights)


def sample_block(lam: float, law: JumpLaw, master_seed: int, trials, states=None) -> PathBlock:
    """The paths of the given trials as one block, each with the bits
    sample_path draws from derive_stream(master_seed, trial).

    The trials' streams are states, their rows of stream_states(master_seed,
    trials), which a caller seeds for many blocks at once; by default the
    block seeds its own. Each trial makes its draws with no check; one pass
    over the block then finds the trials with a 0.0 time, a tie or a 0.0
    height (about 1e-13 per trial), and each of those is drawn again whole
    by sample_path from a fresh derive_stream, so that its redrawn bits are
    sample_path's too. Checking each draw instead cost 13 % of throughput on
    the cp_sparse benchmark argv (2-core VM, slower in 20 of 20 interleaved
    rounds), and drawing each trial by sample_path 29 %.
    """
    _positive("lam", lam)
    states = stream_states(master_seed, trials) if states is None else states
    drawn = [_draw(lam, law, stream, False) for stream in _streams(states)]
    block = _laid(drawn)
    bad = _faults(block.times, block.bounds) | (block.heights == 0.0)
    # the faulty trials; np.unique would load numpy.ma inside the run
    for p in sorted(set(np.searchsorted(block.bounds, np.flatnonzero(bad), side="right") - 1)):
        path = sample_path(lam, law, derive_stream(master_seed, trials[p]))
        drawn[p] = path.jump_times, path.jump_heights
    return _laid(drawn) if bad.any() else block


def _check_grid_log2(grid_log2: int) -> None:
    if not is_int(grid_log2) or not (1 <= grid_log2 <= MAX_GRID_LOG2):
        raise ValueError(f"grid_log2 must be an integer in [1, {MAX_GRID_LOG2}], got {grid_log2}")


def sample_grid(path: CompoundPoissonPath, grid_log2: int) -> np.ndarray:
    """The path's values at the 2^L equispaced grid points i / 2^L, as a
    read-only array."""
    _check_grid_log2(grid_log2)
    n = 2**int(grid_log2)
    values = path.values_at(np.arange(n) / n)
    values.setflags(write=False)
    return values


def brownian_grid(sigma0_sq: float, grid_log2: int, stream: np.random.Generator) -> np.ndarray:
    """Brownian motion samples on the dyadic grid {i / 2^L : 0 <= i < 2^L},
    as a read-only array, built from cumulative independent Gaussian
    increments of variance sigma0_sq / 2^L each. The harness draws a block
    of trials' grids as one array with these bits; the benchmark's traced
    replay samples one grid at a time through this call."""
    _positive("sigma0_sq", sigma0_sq)
    _check_grid_log2(grid_log2)
    n = 2**int(grid_log2)
    increments = stream.normal(0.0, math.sqrt(sigma0_sq / n), n - 1)
    values = np.concatenate(([0.0], np.cumsum(increments)))
    values.setflags(write=False)
    return values
