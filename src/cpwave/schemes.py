"""Coefficient-selection schemes and exact squared approximation errors.

Three ways of keeping M coefficients of the Haar expansion:

* linear  - the first M atoms in index order, zeros included;
* greedy  - the first M atoms, in index order, whose support contains a
  jump (a structural test, never a floating-point threshold);
* best    - the M largest-magnitude coefficients of the full infinite
  expansion, ties to the smaller index. The path's coefficient ladder
  holds every nonzero coefficient, and a certificate says when its first
  scales already hold the M largest.

errors_rows(paths, schemes, m_values) reads every requested scheme's errors
of a processes.PathBlock, or of a list of paths through PathBlock.of;
errors(path, ...) is its one-path view, and select(path, scheme, m) reads
one selection's kept atoms and error; both read the builds that one
planner, _plan, makes. A build is a sub-block of consecutive paths, read
with array operations over its jump, atom and candidate arrays and no
per-path object or call: its scaling coefficients and energies from one
exact pass (PathBlock.sums), the certificate's bound from the jump times,
the linear counts from one search; only best's top squares are found path
by path, which keeps that linear in each path's size. The candidates of a
path are its scaling coefficient followed by its ladder in index order, and
a scheme is an order over their squares plus a kept count per M. The planner finds each path's
dyadic resolution once and builds each ladder (haar.ladders) first only
down to a depth d, no deeper than the resolution; a certificate
(_certified) says whether the scales below d already give every requested
scheme its exact kept atoms and errors up to max M. The paths whose
certificate fails, which sampled paths rarely do, are built again to their
resolution, where the ladder is whole. Every build, a re-read too, holds
consecutive paths within a fixed number of ladder cells however long the
list is, and is freed before the next is made. errors_discrete_rows reads
every row of a block of finite coefficient lists, with one sort for the
block; errors_discrete is its one-row view, and select_discrete reads it.
Squared errors of exact paths come from Parseval: path energy minus kept
energy (exactly 0.0 once every candidate of the whole ladder is kept), so
an error is exact only up to about 1e-16 times the energy.
The error of a finite discrete coefficient list at M is the sum of its
dropped squares. Both are sums of runs of one array from one exact
kernel, processes._range_sums: errors_rows lays every path's kept prefixes
end to end, errors_discrete_rows each row's dropped tails. Every sum is the
correctly rounded sum of its multiset, so no path or row changes a bit of
the ones beside it, and no prefix or tail is summed again for every M. On
every path and every M the schemes obey best <= greedy <= linear, and each
scheme's error is non-increasing in M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .haar import (
    SCALING,
    Atom,
    Ladders,
    as_rows,
    atom_from_index,
    atom_index,
    atoms_past,
    ladders,
    resolutions,
    _POW2,
)
from .processes import CompoundPoissonPath, PathBlock, _bounds, _range_sums, is_int

__all__ = [
    "SCHEMES",
    "Selection",
    "InvariantViolation",
    "select",
    "select_discrete",
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
_NEGATIVE_ERROR_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """An internal exactness or ordering guarantee failed."""


@dataclass(frozen=True)
class Selection:
    """The result of one approximation choice.

    kept holds (atom, value) pairs in atom-index order; error_sq is the
    squared L2 error of the reconstruction from exactly those values.
    """

    scheme: str
    m: int
    kept: tuple[tuple[Atom, float], ...]
    error_sq: float


def _check_m(m: int) -> None:
    if not is_int(m) or m < 0:
        raise ValueError(f"M must be a nonnegative integer, got {m}")


def _check_schemes(schemes) -> None:
    if any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be a subset of {SCHEMES}, got {tuple(schemes)}")


def _check_query(schemes, m_values) -> None:
    _check_schemes(schemes)
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
    depth is also at least bit_length(k), which linear needs.
    """
    return n.bit_length() + -(-k // n) + 8 if n else 0


class _Block(NamedTuple):
    """A build of a block of paths for M <= k: the paths, the depth each
    was built below and their ladders; how many candidates each path has,
    the scaling coefficient (when it has jumps) then its ladder in index
    order; each path's energy; and whether each ladder is whole, that is,
    built to the path's resolution. `kept` holds the squares any scheme can
    keep: first, path by path, the first k + 1 of the index order (the
    scaling one and the atoms of index below k; greedy keeps k), then, path
    by path, when best is asked for, the min(k, size) largest, largest
    first; heads[p, s] holds where the part of path p that scheme s keeps
    begins. The candidates themselves and their squares are not kept, so
    that a build holds no more than its readers need."""

    paths: PathBlock
    depth: list[int]
    k: int
    lad: Ladders
    sizes: np.ndarray
    energy: np.ndarray
    whole: np.ndarray
    kept: np.ndarray
    heads: np.ndarray


def _candidates(paths: PathBlock, lad: Ladders, scaling: np.ndarray):
    """The candidates of every path of a build laid end to end, and their
    bounds: the scaling coefficient, when the path has jumps, then its
    ladder."""
    jumps, atoms, pieces = paths.counts > 0, lad.bounds.tolist(), []
    for p, scaled in enumerate(jumps.tolist()):
        if scaled:
            pieces.append(scaling[p : p + 1])
        pieces.append(lad.value[atoms[p] : atoms[p + 1]])
    return np.concatenate([np.empty(0)] + pieces), lad.bounds + _bounds(jumps)


def _block(paths: PathBlock, schemes, k: int, depth: list[int], e: list[int]) -> _Block:
    """The build of a block of paths below depth[p], at most the path's
    resolution e[p]: their ladders and candidate counts, and the squares
    each scheme in schemes can keep at M <= k."""
    lad = ladders(paths, depth)
    scaling, energy = paths.sums()
    values, bounds = _candidates(paths, lad, scaling)
    sq = values**2
    sizes = bounds[1:] - bounds[:-1]
    # the index-order parts: each path's first min(size, k + 1) squares,
    # often all of them
    index = np.minimum(sizes, k + 1 if "linear" in schemes or "greedy" in schemes else 0)
    heads = _bounds(index)
    kept = [sq]
    if heads[-1] < sq.size:
        kept = [sq[np.repeat(bounds[:-1] - heads[:-1], index) + np.arange(heads[-1])]]
    best = heads[:-1]
    if "best" in schemes:  # one partition and one sort per path keep this linear in its size
        best = heads[-1] + _bounds(np.minimum(sizes, k))[:-1]
        for a, b in zip(bounds.tolist(), bounds[1:].tolist()):
            top = sq[a:b]
            if k < top.size:
                top = np.partition(top, top.size - k)[top.size - k :] if k else top[:0]
            kept.append(np.sort(top)[::-1])
    heads = np.stack([best if s == "best" else heads[:-1] for s in schemes], axis=1)
    whole = np.array(depth) == e
    return _Block(paths, depth, k, lad, sizes, energy, whole, np.concatenate(kept), heads)


def _certified(block: _Block, schemes) -> list[bool]:
    """Whether each path's ladder, whole or built below its depth d, serves
    every scheme exactly as its whole ladder would at every M <= k.

    Linear keeps only atoms of index below k, all at scales below
    bit_length(k); greedy keeps the first k candidates in index order. An
    atom at scale j >= d holds at most the c jumps of its ancestor at
    scale d - 1 (at depth 0, all N jumps of [0, 1)), each weighted by at
    most 2^(-j/2-1) in magnitude, so its square is at most
    (c * max|h|)^2 * 2^(-d-2); best's top k is already built when that
    bound, widened for rounding, is below the k-th largest built square.
    """
    k, paths = block.k, block.paths
    depth = np.array(block.depth, dtype=int)
    short = np.zeros(depth.size, dtype=bool)
    if "linear" in schemes:
        short |= depth < k.bit_length()
    if "greedy" in schemes or "best" in schemes:
        short |= block.sizes < k
    held = block.whole | ~short
    test = ~(block.whole | short)
    if "best" not in schemes or k == 0 or not test.any():
        return held.tolist()
    # c is the longest run of a path's jumps that share their shift at
    # scale d - 1, as the ladder counts them; at depth 0 every t / 2
    # floors to 0, so c is N
    counts, bounds = paths.counts, paths.bounds
    starts = bounds[:-1][counts > 0]
    shift = np.floor(paths.times * np.repeat(np.ldexp(1.0, depth - 1), counts))
    new = np.empty(shift.size + 1, dtype=bool)
    np.not_equal(shift[1:], shift[:-1], out=new[1:-1])
    new[bounds] = True
    edges = np.flatnonzero(new)
    c, h = np.zeros(depth.size, dtype=int), np.zeros(depth.size)
    c[counts > 0] = np.maximum.reduceat(edges[1:] - edges[:-1], np.searchsorted(edges, starts))
    h[counts > 0] = np.maximum.reduceat(np.abs(paths.heights), starts)
    # the relative margin covers the rounding of c-term sums and their
    # squares; the absolute one covers squares that underflow
    with np.errstate(over="ignore"):
        h *= c
        bound = h * h * np.ldexp(1.0, -depth - 2) * (1.0 + (c + 8) * 2.0**-50) + 2.0**-1022
    kth = block.kept[block.heads[test, list(schemes).index("best")] + k - 1]
    held[test] = bound[test] < kth
    return held.tolist()


def _kept_counts(block: _Block, schemes, m_values) -> np.ndarray:
    """How many of each path's candidates, in keep order, each scheme keeps
    at each M, as a (paths, schemes, M) array. Past the candidates every
    coefficient is 0.0, so only these count; linear keeps the candidates
    whose atom index is below M."""
    # a count is at most the number of candidates, so any M past 2^62 acts as 2^62
    ms = np.array([min(int(m), 2**62) for m in m_values], dtype=np.int64)
    counts = np.empty((block.sizes.size, len(schemes), ms.size), dtype=np.int64)
    counts[:] = np.minimum(block.sizes[:, None], ms)[:, None]
    if "linear" in schemes:
        # an atom of index below max M <= 2^s lies at a scale j < s, which
        # holds at most min(2^j, N) atoms, so each path's first few atoms
        # hold every atom that counts; the indices are exact for every M up
        # to 2^53, and those past 2^s pass every M. The scaling candidate,
        # index 0, is below every positive M. Complex numbers order by
        # their real parts, then their imaginary ones, so the (path, atom
        # index) keys are in order, and one search counts each path's
        # atoms below each M
        lad, rows = block.lad, np.arange(block.sizes.size)
        stop = (int(max(m_values, default=0)) - 1).bit_length()
        first = np.minimum(_POW2[:stop], block.paths.counts[:, None]).sum(axis=1)
        first = np.minimum(first, lad.bounds[1:] - lad.bounds[:-1]).astype(np.intp)
        heads = _bounds(first)
        atoms = np.repeat(lad.bounds[:-1] - heads[:-1], first) + np.arange(heads[-1])
        keys = np.repeat(rows + 0j, first)
        keys.imag = _POW2[lad.scale[atoms]] + lad.shift[atoms]
        queries = np.repeat(rows + 0j, ms.size)
        queries.imag = np.tile(np.asarray(m_values, dtype=float), rows.size)
        below = np.searchsorted(keys, queries).reshape(rows.size, ms.size) - heads[:-1, None]
        below += (ms > 0) & (block.sizes[:, None] > 0)
        counts[:, list(schemes).index("linear")] = below
    return counts


def _errors(block: _Block, schemes, counts: np.ndarray) -> np.ndarray:
    """Each path's squared errors at every scheme's kept counts, as a
    (paths, schemes, M) array: the Parseval remainder of the correctly
    rounded kept energy, from one exact pass over every kept prefix, or
    exactly 0.0 when every candidate of a whole ladder is kept. Since the
    top-c squares form one multiset whatever the tie order, their sum is
    best's kept energy."""
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
    short = err < -_NEGATIVE_ERROR_TOL * total
    if np.count_nonzero(short):
        p, s, m = np.unravel_index(np.argmax(short), short.shape)
        raise InvariantViolation(
            f"kept energy exceeds path energy {float(total[p, 0, 0]):.17g} by "
            f"{-float(err[p, s, m]):.3e}; coefficient accounting is inconsistent"
        )
    # the kept energies are correctly rounded, so the scheme-ordering and
    # monotonicity relations of the true sums carry over to floats
    return np.maximum(err, 0.0, out=err)


# A build holds n * d (scale, jump) cells of a path with n jumps built to
# depth d, first min(first depth, resolution), then the resolution on a
# re-read, and ladders keeps about five arrays of them alive; _plan builds
# consecutive paths within _BUILD_CELLS cells. For M up to 1024, 16 paths
# make one build at lambda = 10 and six at lambda = 500, where builds of
# all 16 took 6 MB more peak RSS in a 40-trial run; smaller budgets spread
# fixed numpy costs over fewer paths.
_BUILD_CELLS = 2**15


def _builds(sizes: list[int]):
    """(start, stop) runs of consecutive paths whose sizes sum within _BUILD_CELLS, or of one."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total + size > _BUILD_CELLS and i > start:
            yield start, i
            start, total = i, 0
        total += size
    if sizes:
        yield start, len(sizes)


def _plan(paths: PathBlock, schemes, k: int):
    """Every build that errors_rows and select read, as (indices, block,
    held) triples, held[p] being the certificate's verdict on path
    indices[p]: first every path below its first depth, clipped to its
    resolution, then the paths whose certificate fails, to their
    resolution, where each ladder is whole; each pass in builds of
    consecutive paths within _BUILD_CELLS cells, or of one path past it.
    Each path's resolution is found once. A reader drops each block before
    it asks for the next, so that one build at a time is alive."""
    n = paths.counts.tolist()
    # in runs within the budget: no path has fewer cells than jumps
    e = [r for a, b in _builds(n) for r in resolutions(paths.take(range(a, b)))]
    hi = [min(_first_depth(m, k), r) for m, r in zip(n, e)]
    todo = list(range(len(paths)))
    while todo:  # twice at most: a whole ladder is certified
        rejected = []
        for a, b in _builds([n[i] * hi[i] for i in todo]):
            ids = todo[a:b]
            depth = [hi[i] for i in ids]
            block = _block(paths.take(ids), schemes, k, depth, [e[i] for i in ids])
            held = block.whole.tolist() if block.whole.all() else _certified(block, schemes)
            rejected += [i for i, ok in zip(ids, held) if not ok]
            yield ids, block, held
            del block  # the reader's is then the only reference
        todo, hi = rejected, e


def errors_rows(paths, schemes, m_values) -> np.ndarray:
    """Exact squared errors of every path of a PathBlock, or of a list of
    paths read as PathBlock.of(paths), as a (paths, schemes, M) float
    array: one row per scheme in schemes, one entry per M in m_values, from
    the builds of _plan, each within _BUILD_CELLS cells (a path past it
    alone). Linear and greedy keep candidates in index order;
    best keeps the largest squares first. Each value is the path's own: the
    ladder cells, the certificate and the sums do not depend on the paths
    beside it."""
    _check_query(schemes, m_values)
    paths = paths if isinstance(paths, PathBlock) else PathBlock.of(paths)
    rows = np.empty((len(paths), len(schemes), len(m_values)))
    for ids, block, _ in _plan(paths, schemes, int(max(m_values, default=0))):
        # a rejected path's rows are replaced when it is built again
        rows[ids] = _errors(block, schemes, _kept_counts(block, schemes, m_values))
        del block  # freed before the next build is allocated
    return rows


def errors(path: CompoundPoissonPath, schemes, m_values) -> list[list[float]]:
    """Exact squared errors of every scheme in schemes at each M in m_values,
    one list per scheme: the one-path view of errors_rows."""
    return errors_rows([path], schemes, m_values)[0].tolist()


def select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    """The m atoms the scheme keeps, with their values, and the exact
    squared error, both from the first certified build of _plan. Linear keeps the first m
    atoms in index order, zeros included; greedy the first m structurally
    nonzero ones (none on a jump-free path); best the m largest magnitudes
    of the full expansion, ties to the smaller index."""
    _check_query((scheme,), [m])
    for _, block, held in _plan(PathBlock.of([path]), (scheme,), int(m)):
        if held[0]:
            break
        del block  # freed before the path is built again
    counts = _kept_counts(block, (scheme,), [m])
    lad = block.lad
    values = _candidates(block.paths, lad, block.paths.sums()[0])[0]
    count = int(counts[0, 0, 0])
    if scheme == "best":
        # the top m are built and strictly larger than every atom that is
        # not, so a stable sort sends ties to the smaller index as over the
        # whole ladder
        picked = np.sort(np.argsort(-np.abs(values), kind="stable")[:count]).tolist()
    else:
        picked = range(count)
    chosen = []
    for p in picked:
        atom = Atom.wavelet(int(lad.scale[p - 1]), int(lad.shift[p - 1])) if p else SCALING
        chosen.append((atom, float(values[p])))
    if scheme == "linear":
        given = {atom_index(atom): v for atom, v in chosen}
        chosen = [(atom_from_index(i), given.get(i, 0.0)) for i in range(m)]
    else:  # fewer than m candidates only on a whole ladder, built to the resolution
        past = itertools.islice(atoms_past(path, block.depth[0]), m - len(chosen))
        chosen += [(atom, 0.0) for atom in past]
    error = float(_errors(block, (scheme,), counts)[0, 0, 0])
    return Selection(scheme=scheme, m=m, kept=tuple(chosen), error_sq=error)


def linear_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact linear squared errors at each M in m_values; the benchmark's
    traced replay (perfbench/child.py) calls this view by name."""
    return errors(path, ("linear",), m_values)[0]


def greedy_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact greedy squared errors at each M in m_values; the benchmark's
    traced replay (perfbench/child.py) calls this view by name."""
    return errors(path, ("greedy",), m_values)[0]


def best_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact best-M squared errors at each M in m_values; the benchmark's
    traced replay (perfbench/child.py) calls this view by name."""
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
        arrays.append(np.sort(sq, axis=-1).ravel())
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


def select_discrete(coeffs, scheme: str, m: int) -> Selection:
    """Keep m entries of a finite coefficient list: the first m (linear),
    the first m that are not exactly zero (greedy), or the m largest
    magnitudes, ties to the smaller index (best); error_sq is the sum of
    the dropped squares, from errors_discrete."""
    c = as_rows(coeffs)
    _check_m(m)
    if m > c.size:
        raise ValueError(f"M={m} exceeds the number of coefficients {c.size}")
    ((error,),) = errors_discrete(c, (scheme,), [m])
    if scheme == "linear":
        picked = range(m)
    elif scheme == "greedy":
        picked = np.flatnonzero(c != 0.0)[:m]
    else:
        picked = np.sort(np.argsort(-np.abs(c), kind="stable")[:m])
    kept = tuple((atom_from_index(int(i)), float(c[i])) for i in picked)
    return Selection(scheme=scheme, m=m, kept=kept, error_sq=error)


def best_errors_discrete(coeffs, m_values) -> list[float]:
    """Sum of all but the M largest squares at each M in m_values. The
    package calls errors_discrete; the benchmark's traced replay
    (perfbench/child.py) still calls this by name."""
    return errors_discrete(coeffs, ("best",), m_values)[0]
