"""Coefficient-selection schemes and exact squared approximation errors.

Three ways of keeping M coefficients of the Haar expansion:

* linear  - the first M atoms in index order, zeros included;
* greedy  - the first M atoms, in index order, whose support contains a
  jump (a structural test, never a floating-point threshold);
* best    - the M largest-magnitude coefficients of the full infinite
  expansion, ties to the smaller index. The path's coefficient ladder
  holds every nonzero coefficient, and a certificate says when its first
  scales already hold the M largest.

errors_rows(paths, schemes, m_values) reads every requested scheme's
errors of a processes.PathBlock, or of a list of paths through
PathBlock.of; errors(path, ...) is its one-path view. A path's
candidates are its scaling coefficient and then its ladder in index
order; a scheme is an order over their squares and a kept count per M.
Every other atom a scheme keeps holds no jump, so it is exactly 0.0, and
only the errors are read: the listing of the kept atoms themselves is a
test reference (tests/reference.py).

errors_rows finds every path's time structure (haar.structure) once and
reads consecutive paths in blocks. The structure lays a block out before
it is built: each path's candidate count below its first depth d, under
its dyadic resolution, fixes where each scheme's squares go, and where
every build's cells go (haar.layout), laid out once for the block. Builds
of consecutive paths within a fixed number of (scale, jump) cells, counted
to each build's largest depth, then make their ladders (haar.ladders),
each after its path's scaling coefficient, square them in place and
write them there, each freed before the next; the block's sums
(PathBlock.sums), the certificate (_certified) that the scales below d
give every scheme its exact kept atoms up to max M, the kept counts and
the kept energies run once, with array operations. The structure also
gives linear's exact count of atoms of index below every M (_linear)
and the certificate's bound. Paths whose certificate fails, which
sampled paths rarely do, are read again as a block of their own, built
to their resolution, where the ladder is whole, and their rows replace
the first. errors_discrete_rows reads
every row of a block of finite coefficient lists with one sort;
errors_discrete reads one row. Squared errors of exact paths come from
Parseval: path energy minus kept energy (exactly 0.0 once every
candidate of the whole ladder is kept), so an error is exact only up to
about 1e-16 times the energy; those of a finite coefficient list are
sums of its dropped squares. Both are sums of runs of one array from one
exact kernel, processes._range_sums: errors_rows lays every path's
kept prefixes end to end, errors_discrete_rows each row's dropped tails.
Every sum is the correctly rounded sum of its multiset, so no path or row
changes a bit of the ones beside it, and no prefix or tail is summed
again for every M. On every path and every M the schemes obey best <=
greedy <= linear, and each scheme's error is non-increasing in M.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .haar import as_rows, ladders, layout, scale_counts, structure
from .processes import CompoundPoissonPath, PathBlock, _bounds, _range_sums, is_int

__all__ = [
    "SCHEMES",
    "InvariantViolation",
    "errors",
    "errors_rows",
    "errors_discrete",
    "errors_discrete_rows",
    "linear_errors",
    "greedy_errors",
    "best_errors",
    "best_errors_discrete",
]

SCHEMES = ("linear", "greedy", "best")

# Parseval subtraction of nearly equal sums can land a hair below zero;
# anything further below, relative to the path energy, is an accounting bug.
# Below 2^-1022 rounding is absolute, so the gate also allows 2^-1074 per
# rounded term: each kept square and each term of the energy.
_NEGATIVE_ERROR_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """An internal exactness or ordering guarantee failed."""


def _check_m(m: int) -> None:
    if not is_int(m) or m < 0:
        raise ValueError(f"M must be a nonnegative integer, got {m}")


def _check_query(schemes, m_values) -> None:
    if any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be a subset of {SCHEMES}, got {tuple(schemes)}")
    for m in m_values:
        _check_m(m)


def _first_depth(n: int, k: int) -> int:
    """The depth a path with n jumps is first built to, for M <= k, unless
    its resolution is smaller.

    Atoms start to hold single jumps near scale bit_length(n), and the k
    largest squares sit about k / n scales below it; the certificate's
    worst-case bound falls below them about 8 scales further down. On
    sampled paths with all three schemes, it failed for 1.3 % of paths at
    rate 3 and k = 64, and for 0.4 %, 0.1 % and none at rates 30, 100 and
    500 and k = 1024; those paths are built again to their resolution. The
    depth is also at least bit_length(k), which linear's kept squares need:
    with b = bit_length(k) - bit_length(n) - 1, k / n > 2^b >= b + 1 when b >= 0.
    """
    return n.bit_length() + -(-k // n) + 8 if n else 0


class _Block(NamedTuple):
    """A block of paths read for M <= k: each path's depth, whether it is
    whole (built to the resolution), candidate count and energy; kept lays
    every path's index part, then its top part, and path p's part for
    scheme s begins at heads[p, s]; split and resolution are the block's
    structure (haar.structure), which fixes the layout, linear's counts and
    the certificate's c."""

    paths: PathBlock
    k: int
    depth: np.ndarray
    whole: np.ndarray
    sizes: np.ndarray
    energy: np.ndarray
    kept: np.ndarray
    heads: np.ndarray
    split: np.ndarray
    resolution: np.ndarray


def _most_jumps(split: np.ndarray, counts: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """The most jumps in one atom at scale depth[p] - 1 of each path p, all
    N at depth 0, for paths that all have jumps: there atoms start at a
    path's first jump and at every jump that splits below depth[p]."""
    first = _bounds(counts)[:-1]
    start = split < np.repeat(depth, counts)
    start[first] = True
    at = np.flatnonzero(start)
    return np.maximum.reduceat(np.diff(at, append=split.size), np.searchsorted(at, first))


def _certified(block: _Block, schemes) -> np.ndarray:
    """Whether each path's ladder, whole or built below its depth d, serves
    every scheme exactly as its whole ladder would at every M <= k.

    Linear needs no test: its atoms of index below M <= k lie at scales
    below bit_length(k), which every first depth reaches (_first_depth).
    Greedy keeps the first k candidates in index order. An atom at scale
    j >= d holds at most the c jumps of its ancestor at scale d - 1
    (_most_jumps, read off the structure of the paths tested), each
    weighted by at most 2^(-j/2-1) in magnitude, so its square is at most
    (c * max|h|)^2 * 2^(-d-2); best's top k is already built when that
    bound, widened for rounding, is below the k-th largest built square.
    """
    k, paths = block.k, block.paths
    held = block.whole | (block.sizes >= k if "greedy" in schemes or "best" in schemes else True)
    test = held & ~block.whole
    if "best" not in schemes or k == 0 or not test.any():
        return held
    # a tested path keeps k >= 1 candidates, so it has jumps
    counts, rows, depth = paths.counts[test], np.repeat(test, paths.counts), block.depth[test]
    c = _most_jumps(block.split[rows], counts, depth)
    h = np.maximum.reduceat(np.abs(paths.heights[rows]), _bounds(counts)[:-1])
    # the relative margin covers the rounding of c-term sums and their
    # squares; the absolute one covers squares that underflow
    with np.errstate(over="ignore"):
        h *= c
        bound = h * h * np.ldexp(1.0, -depth - 2) * (1.0 + (c + 8) * 2.0**-50) + 2.0**-1022
    kth = block.kept[block.heads[test, list(schemes).index("best")] + k - 1]
    held[test] = bound < kth
    return held


def _linear(block: _Block, m_values) -> np.ndarray:
    """How many atoms of each path's ladder have index below each M, as a
    (paths, M) array, from the block's structure. Atom (j, s), of index
    2^j + s, is below M = 2^J + r, 0 <= r < 2^J, exactly when j < J, or j
    = J and s < r: the atoms at scales below min(J, e), and when J < e
    those at scale J whose first jump, one that splits at J or below, lies
    before r 2^-J, that is, before r rounded up, times 2^-J."""
    paths, e, split = block.paths, block.resolution, block.split
    n, top, big_j, lim = paths.counts, int(e.max(initial=0)), [], []
    for m in map(int, m_values):  # M = 0 as J = r = 0; J past every e needs no r
        j = min(max(m.bit_length() - 1, 0), top)
        r = m - (1 << j) if m >> j == 1 else 0
        big_j.append(j)
        lim.append(math.ldexp(r if float(r) >= r else math.nextafter(r, math.inf), -j))
    big_j, lim, rows = np.array(big_j), np.array(lim), np.arange(n.size)
    # the atoms at scales below d, from one count of the scales the jumps split at
    per_scale = scale_counts(split, n, top + 1)
    counts = (per_scale.cumsum(1) - per_scale)[rows[:, None], np.minimum(big_j, e[:, None])]
    part = np.flatnonzero(lim)  # the M with r > 0 keep part of scale J
    if part.size:
        firsts = (split <= big_j[part, None]) & (paths.times < lim[part, None])  # (M, jumps)
        ends = np.cumsum(np.pad(firsts, ((0, 0), (1, 0))), axis=1)
        counts[:, part] += np.diff(ends[:, paths.bounds]).T * (big_j[part] < e[:, None])
    return counts


def _kept_counts(block: _Block, schemes, m_values) -> np.ndarray:
    """How many of each path's candidates, in keep order, each scheme keeps
    at each M, as a (paths, schemes, M) array. Past the candidates every
    coefficient is 0.0, so only these count; linear keeps the candidates
    whose index is below M: the atoms _linear counts and the scaling
    candidate, index 0, at M > 0."""
    # every M is at most the largest, which errors_rows reads as at most _MAX_K
    ms = np.array([min(int(m), block.k) for m in m_values], dtype=np.int64)
    counts = np.empty((block.sizes.size, len(schemes), ms.size), dtype=np.int64)
    counts[:] = np.minimum(block.sizes[:, None], ms)[:, None]
    if "linear" in schemes:
        scaled = (ms > 0) & (block.sizes[:, None] > 0)
        counts[:, list(schemes).index("linear")] = _linear(block, m_values) + scaled
    return counts


def _errors(block: _Block, schemes, m_values) -> np.ndarray:
    """Each path's squared errors at every scheme's kept counts at each M
    (_kept_counts), as a (paths, schemes, M) array: the Parseval remainder
    of the correctly rounded kept energy, from one exact pass over every
    kept prefix, which overwrites block.kept, or exactly 0.0 when every
    candidate of a whole ladder is kept. Since the top-c squares form one
    multiset whatever the tie order, their sum is best's kept energy."""
    counts = _kept_counts(block, schemes, m_values)
    every = counts == block.sizes[:, None, None]
    every &= block.whole[:, None, None]
    need = (counts > 0) > every
    rows, cols, _ = need.nonzero()
    start = block.heads[rows, cols]
    kept = np.zeros(counts.shape)
    kept[need] = _range_sums(block.kept, start, start + counts[need])
    total = block.energy[:, None, None]
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in floats
        err = total - kept
    err[every] = 0.0
    slack = np.ldexp(counts + block.paths.counts[:, None, None], -1074)
    short = err < -(_NEGATIVE_ERROR_TOL * total + slack)
    if np.count_nonzero(short):
        p, s, m = np.unravel_index(np.argmax(short), short.shape)
        raise InvariantViolation(
            f"kept energy exceeds path energy {float(total[p, 0, 0]):.17g} by "
            f"{-float(err[p, s, m]):.3e}; coefficient accounting is inconsistent"
        )
    # the kept energies are correctly rounded, so the scheme-ordering and
    # monotonicity relations of the true sums carry over to floats
    return np.maximum(err, 0.0, out=err)


# A build of paths with N jumps in all, built to depths up to D, holds
# N * D (scale, jump) cells, its arrays' shape, and two 8-byte arrays of
# them at a time; at M up to 1024 a block is one build at lambda = 10 and
# eight or nine of about 3 paths at 500, where one build of a 16-path
# block took 6 MB more peak RSS and slowed ladders as its arrays left the
# cache. At lambda = 500, 2^14 and 2^16 cells took 260 and 325-334 us per
# trial of errors_rows, 2^15 229-248 (2-core VM, one interpreter); lambda
# = 10 and 100 moved < 10 %. With a block's labels laid out once, 2^14
# still took 1.13x as long as 2^15 at lambda = 500.
_BUILD_CELLS = 2**15
# A block holds its paths' jumps and reads, n + 2 min(n * d + 1, k + 1)
# terms a path at first depth d; errors_rows blocks consecutive paths
# within _BLOCK_TERMS: up to M = 1024, about 60 paths at lambda = 10, 25
# at 500, where a 64-trial harness block is read in three, and 16 at
# 2000, the harness's whole block. Both simpler
# layouts cost more on the cp_sparse benchmark argv (2-core VM): reading
# a harness block of 512 paths in one pass took the tracemalloc peak of
# harness._run_trials from 1.7 to 7.6 MB, and 64-trial harness blocks
# lost 11 % of throughput, slower in 12 of 12 interleaved rounds.
_BLOCK_TERMS = 2**16
_MAX_K = 2**62  # more than any path's candidates: see errors_rows


def _builds(sizes: list[int], budget: int, depths: list[int] | None = None):
    """(start, stop) runs of consecutive paths whose sizes sum within budget,
    or of one; given depths, the sum times the run's largest depth."""
    start, total, deepest = 0, 0, 0
    for i, (size, depth) in enumerate(zip(sizes, depths or [1] * len(sizes))):
        if (total + size) * max(deepest, depth) > budget and i > start:
            yield start, i
            start, total, deepest = i, 0, 0
        total, deepest = total + size, max(deepest, depth)
    if sizes:
        yield start, len(sizes)


def _block(paths: PathBlock, schemes, k: int, depth: list[int], split, e: list[int]) -> _Block:
    """A block read for M <= k with structure (split, e), each path built
    below depth[p]: the structure's per-scale atom counts, made once, lay
    out every candidate count, each scheme's part of kept, the first k + 1
    squares in index order for linear and greedy and the k largest,
    largest first, for best, and every build's labels (haar.layout); then
    builds of consecutive paths within _BUILD_CELLS cells, every path
    counted to the build's largest depth (or of one path), each take their
    rows of the labels and write their squares there. The sums run once."""
    counts, depth = paths.counts, np.array(depth, dtype=np.int64)
    builds = list(_builds(counts.tolist(), _BUILD_CELLS, depth.tolist()))
    atoms = scale_counts(split, counts, int(depth.max(initial=0)))
    sizes, step = layout(atoms, counts, depth, 1, [a for a, _ in builds])
    rows = _bounds(counts > 0)  # each build's rows of step
    del atoms  # freed before the builds
    index = np.minimum(sizes, k + 1 if "linear" in schemes or "greedy" in schemes else 0)
    top = np.minimum(sizes, k if "best" in schemes else 0)
    lo = _bounds(index)
    hi = lo[-1] + _bounds(top)
    heads = np.stack([(hi if s == "best" else lo)[:-1] for s in schemes], axis=1)
    kept = np.empty(hi[-1])
    scaling, energy = paths.sums()
    for a, b in builds:
        at = _bounds(sizes[a:b])  # the build's candidates, path-major
        # each path's scaling coefficient, then its ladder
        sq = ladders(paths.take(range(a, b)), depth[a:b].tolist(),
                     split[paths.bounds[a] : paths.bounds[b]], scaling[a:b],
                     (at, step[rows[a] : rows[b]]))
        np.square(sq, out=sq)
        part = sq  # each path's first index[p] squares, often all
        if lo[b] - lo[a] < sq.size:
            part = sq[np.repeat(at[:-1] - lo[a:b] + lo[a], index[a:b]) + np.arange(lo[b] - lo[a])]
        kept[lo[a] : lo[b]] = part
        if "best" in schemes:  # one partition and one sort per path keep this linear in its size
            for p, i, j in zip(range(a, b), at[:-1].tolist(), at[1:].tolist()):
                part = sq[i:j]
                if k < part.size:
                    part = np.partition(part, part.size - k)[part.size - k :] if k else part[:0]
                kept[hi[p] : hi[p + 1]] = np.sort(part)[::-1]
        del sq, part
    e = np.array(e)
    return _Block(paths, k, depth, depth == e, sizes, energy, kept, heads, split, e)


def errors_rows(paths, schemes, m_values) -> np.ndarray:
    """Exact squared errors of every path of a PathBlock, or of a list of
    paths read as PathBlock.of(paths), as a (paths, schemes, M) float
    array, read in blocks of consecutive paths within _BLOCK_TERMS, or of
    one, first below min(_first_depth, resolution) for k, the largest M.
    Past _MAX_K, k only bounds linear's atom indices, and is read as
    _MAX_K: its first depths are the resolutions, whose ladders hold every
    index. Each value is the path's own: the ladder cells, the certificate
    and the sums do not depend on the paths beside it."""
    _check_query(schemes, m_values)
    paths = paths if isinstance(paths, PathBlock) else PathBlock.of(paths)
    rows = np.zeros((len(paths), len(schemes), len(m_values)))
    if not rows.size:  # no paths, schemes or M
        return rows
    k, n = min(int(max(m_values)), _MAX_K), paths.counts.tolist()
    split, e = structure(paths)
    first = [min(_first_depth(m, k), r) for m, r in zip(n, e)]
    for a, b in _builds([m + 2 * min(m * d + 1, k + 1) for m, d in zip(n, first)], _BLOCK_TERMS):
        block = _block(paths.take(range(a, b)), schemes, k, first[a:b],
                       split[paths.bounds[a] : paths.bounds[b]], e[a:b])
        # the certificate reads kept before _errors sums over it in place
        held = _certified(block, schemes)
        rows[a:b] = _errors(block, schemes, m_values)
        rejected = np.flatnonzero(~held).tolist()
        if rejected:  # once at most: a whole ladder is certified
            again = block.paths.take(rejected)
            split_again, e_again = structure(again)
            block = _block(again, schemes, k, e_again, split_again, e_again)
            rows[a:b][rejected] = _errors(block, schemes, m_values)
        del block  # freed before the next block is read
    return rows


def errors(path: CompoundPoissonPath, schemes, m_values) -> list[list[float]]:
    """Exact squared errors of every scheme in schemes at each M in m_values,
    one list per scheme: the one-path view of errors_rows."""
    return errors_rows(path.block, schemes, m_values)[0].tolist()


def linear_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact linear squared errors at each M; perfbench/child.py calls it."""
    return errors(path, ("linear",), m_values)[0]


def greedy_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact greedy squared errors at each M; perfbench/child.py calls it."""
    return errors(path, ("greedy",), m_values)[0]


def best_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact best-M squared errors at each M; perfbench/child.py calls it."""
    return errors(path, ("best",), m_values)[0]


# ---------------------------------------------------------------------------
# discrete variants over a finite coefficient list (grid proxies)


def errors_discrete_rows(coeffs, schemes, m_values) -> np.ndarray:
    """errors_discrete of every row of a (rows, n) coefficient array, as a
    (rows, schemes, M) float array.

    Each dropped set is one run of one of two arrays of the block's
    squares: index order for linear (the last n - M of a row) and greedy
    (the entries past the M-th one that is not exactly zero, trailing
    zeros included, which add nothing), and ascending for best (the n - M
    smallest, from one sort of every row). One exact pass over both arrays
    sums every run; each sum depends only on the multiset it adds, so it is
    the correctly rounded sum of the dropped squares whatever the rows
    beside it or the order of ties.
    """
    _check_query(schemes, m_values)
    c = as_rows(coeffs)
    if c.ndim != 2:
        raise ValueError(f"expected a (rows, n) coefficient array, got shape {c.shape}")
    rows, n = c.shape
    kept = np.array([min(int(m), n) for m in m_values], dtype=np.intp)
    if not schemes:
        return np.zeros((rows, 0, kept.size))
    sq = c**2
    first = np.arange(rows)[:, None] * n  # each row's offset in the flat arrays
    arrays, runs = [], {}
    if "linear" in schemes or "greedy" in schemes:
        arrays.append(sq.ravel())
        runs["linear"] = first + kept
    if "greedy" in schemes:
        # the entries up to the M-th nonzero one: those whose running count
        # of nonzero entries is at most M; each row's counts, shifted by
        # (n + 1) per row, make one sorted key
        shift = np.arange(rows)[:, None] * (n + 1)
        nonzero = np.cumsum(c != 0.0, axis=-1) + shift
        keep = np.searchsorted(nonzero.ravel(), (shift + kept).ravel(), side="right")
        runs["greedy"] = keep.reshape(rows, kept.size)
    ends = {s: np.broadcast_to(first + n, (rows, kept.size)) for s in runs}
    if "best" in schemes:
        offset = sum(a.size for a in arrays)
        if arrays:
            sq = np.sort(sq, axis=-1)
        else:
            sq.sort(axis=-1)  # no other run reads the squares in index order
        arrays.append(sq.ravel())
        runs["best"] = np.broadcast_to(offset + first, (rows, kept.size))
        ends["best"] = offset + first + (n - kept)
    lo = np.stack([runs[s] for s in schemes], axis=1)
    hi = np.stack([ends[s] for s in schemes], axis=1)
    x = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return np.reshape(_range_sums(x, lo.ravel(), hi.ravel()), lo.shape)


def errors_discrete(coeffs, schemes, m_values) -> list[list[float]]:
    """Sums of dropped squares of a finite coefficient list for every scheme
    in schemes at each M in m_values, one list per scheme: the one-row view
    of errors_discrete_rows. Linear keeps entries in index order, greedy
    the entries that are not exactly zero, best the largest squares first.
    Each sum is the correctly rounded sum of the dropped squares, so the
    ordering between schemes and the monotonicity in M survive in floating
    point."""
    return errors_discrete_rows(as_rows(coeffs)[np.newaxis], schemes, m_values)[0].tolist()


def best_errors_discrete(coeffs, m_values) -> list[float]:
    """Sum of all but the M largest squares at each M in m_values. The
    package calls errors_discrete; the benchmark's traced replay
    (perfbench/child.py) still calls this by name."""
    return errors_discrete(coeffs, ("best",), m_values)[0]
