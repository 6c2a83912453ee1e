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
of a block of paths from one build of the block (haar.ladders), so one
per block whatever the number of schemes; errors(path, ...) is its
one-path view, and select(path, scheme, m) reads one selection's kept
atoms and error from a one-path build. The candidates of a path are its
scaling coefficient followed by its ladder in index order, and a scheme is
an order over their squares plus a kept count per M. Each ladder is first
built only down to a depth d, and a certificate says whether the scales
below d already give every requested scheme its exact kept atoms and
errors up to K = max M: linear keeps only atoms of index below K, all at
scales below bit_length(K); greedy needs K candidates; and best needs a
bound on every coefficient at scales >= d, from the jump counts at scale
d - 1 and the largest jump height, to lie strictly below the K-th largest
built square. The paths whose certificate fails, which sampled paths
rarely do, are read again from their whole ladders, in one build from
scale 0, and those rows replace the first ones. errors_discrete_rows
does the same for every row of a block of finite coefficient lists, with
one set of squares and one sort for the block; errors_discrete is its
one-row view, and select_discrete reads it. Squared errors of exact paths
come from Parseval: path energy minus kept energy (exactly 0.0 once every
candidate of the whole ladder is kept). The error of a finite discrete
coefficient list at M is the sum of its dropped squares. Both are sums of
runs of one array from one exact kernel, _range_sums: a vectorized
error-free extraction whose rounds each give every run's exact sum as a
difference of running sums, so a run's correctly rounded sum is one fsum
over a few round sums. errors_rows lays every path's kept prefixes end to
end, its index order (linear and greedy) and its largest squares (best);
errors_discrete_rows sums each row's dropped tail of its index order
(linear and greedy) or of its ascending squares (best). Every sum is the
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
    coeff,
    ladders,
    _POW2,
)
from .processes import CompoundPoissonPath, is_int

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
    """The depth errors_rows first builds a path with n jumps to, for M <= k.

    Atoms start to hold single jumps near scale bit_length(n), and the k
    largest squares sit about k / n scales below it; the certificate's
    worst-case bound falls below them about 8 scales further down. On
    sampled paths with all three schemes, it failed for 1.3 % of paths at
    rate 3 and k = 64, and for 0.4 %, 0.1 % and none at rates 30, 100 and
    500 and k = 1024; those paths are read again whole. The depth is also
    at least bit_length(k), which linear needs.
    """
    return n.bit_length() + -(-k // n) + 8 if n else 0


class _Block(NamedTuple):
    """A build of a block of paths for M <= k: their ladders;
    every path's candidates, the scaling coefficient (when it has jumps)
    then its ladder in index order, end to end, path p's at
    bounds[p]:bounds[p + 1], with their squares and counts; and whether
    each ladder is whole, that is, built to the path's resolution. `kept`
    lays end to end, path by path, the squares any scheme can keep: the
    first k + 1 of the index order (the scaling one and the atoms of index
    below k; greedy keeps k), unless only best is asked for, then for best
    the min(k, size) largest, largest first; heads[p, s] holds where the
    part of path p that scheme s keeps begins."""

    k: int
    lad: Ladders
    values: np.ndarray
    sq: np.ndarray
    bounds: np.ndarray
    sizes: np.ndarray
    whole: np.ndarray
    kept: np.ndarray
    heads: np.ndarray


def _block(paths, k: int, lad: Ladders, scaling: list[float], whole, schemes) -> _Block:
    """The candidates of a block's ladders, their squares and the parts of
    them each scheme keeps."""
    pieces, bounds, slot = [], [0], 0
    for p, a, b in zip(paths, lad.bounds.tolist(), lad.bounds[1:].tolist()):
        if p.num_jumps:
            pieces.append(scaling[slot : slot + 1])
            slot += 1
        pieces.append(lad.value[a:b])
        bounds.append(b + slot)
    values = np.concatenate(pieces)
    sq = values**2
    index = k + 1 if "linear" in schemes or "greedy" in schemes else 0
    parts, heads, at = [], [], 0
    for a, b in zip(bounds, bounds[1:]):
        top = sq[:0]
        if "best" in schemes:
            top = sq[a:b]
            if k < top.size:
                top = np.partition(top, top.size - k)[top.size - k :] if k else top[:0]
            top = np.sort(top)[::-1]
        parts += [sq[a : min(b, a + index)], top]
        heads.append([at + parts[-2].size if s == "best" else at for s in schemes])
        at += parts[-2].size + top.size
    bounds = np.array(bounds)
    sizes = bounds[1:] - bounds[:-1]
    return _Block(k, lad, values, sq, bounds, sizes, whole, np.concatenate(parts), np.array(heads))


def _certified(paths, block: _Block, depth: list[int], schemes) -> list[bool]:
    """Whether each path's ladder, whole or built below depth[p], serves
    every scheme exactly as its whole ladder would at every M <= k.

    Linear keeps only atoms of index below k, all at scales below
    bit_length(k); greedy keeps the first k candidates in index order. An
    atom at scale j >= depth holds at most the c jumps of its ancestor at
    scale depth - 1 (at depth 0, all N jumps of [0, 1)), each weighted by at
    most 2^(-j/2-1) in magnitude, so its square is at most
    (c * max|h|)^2 * 2^(-depth-2); best's top k is already built when that
    bound, widened for rounding, is below the k-th largest built square.
    """
    k, lad = block.k, block.lad
    atoms = lad.bounds.tolist()
    held = []
    rows = zip(paths, depth, block.whole.tolist(), block.sizes.tolist())
    for i, (path, d, whole, size) in enumerate(rows):
        short = ("linear" in schemes and d < k.bit_length()) or (
            size < k and ("greedy" in schemes or "best" in schemes)
        )
        if whole or short or "best" not in schemes or k == 0:
            held.append(whole or not short)
            continue
        a, b = atoms[i], atoms[i + 1]
        # the last built scale, depth - 1, closes the path's run of atoms;
        # at depth 0 the ancestor is [0, 1)
        c = path.num_jumps
        if d:
            c = int(lad.count[a + np.searchsorted(lad.scale[a:b], d - 1) : b].max())
        h = c * float(np.abs(path.jump_heights).max())
        # the relative margin covers the rounding of c-term sums and their
        # squares; the absolute one covers squares that underflow
        bound = h * h * 2.0 ** (-d - 2) * (1.0 + (c + 8) * 2.0**-50) + 2.0**-1022
        held.append(bound < block.kept[block.heads[i, list(schemes).index("best")] + k - 1])
    return held


def _build(paths, schemes, k: int, depth: list[int] | None) -> tuple[_Block, list[bool]]:
    """The block's ladders built below depth[p] (None: whole), and whether
    each path's build is certified for every scheme in schemes at every
    M <= k (see the module docstring)."""
    lad = ladders(paths, depth)
    e = lad.resolution.tolist()
    depth = e if depth is None else [min(d, r) for d, r in zip(depth, e)]
    whole = np.array(depth) == lad.resolution
    scaling = [coeff(p, SCALING).value for p in paths if p.num_jumps]
    block = _block(paths, k, lad, scaling, whole, schemes)
    held = whole.tolist() if whole.all() else _certified(paths, block, depth, schemes)
    return block, held


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
        # every atom at a scale of at least bit_length(max M) has an index
        # past every M, and the indices below are exact for every M up to
        # 2^53; the scaling candidate, index 0, is below every positive M
        lad = block.lad
        stop = int(max(m_values, default=0)).bit_length()
        queries = np.asarray(m_values, dtype=float)
        rows = counts[:, list(schemes).index("linear")]
        for row, a, b in zip(rows, lad.bounds.tolist(), lad.bounds[1:].tolist()):
            b = a + int(np.searchsorted(lad.scale[a:b], stop))
            row[:] = np.searchsorted(_POW2[lad.scale[a:b]] + lad.shift[a:b], queries)
        rows += (ms > 0) & (block.sizes[:, None] > 0)
    return counts


def _errors(paths, block: _Block, schemes, counts: np.ndarray) -> np.ndarray:
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
    total = np.array([p.l2_norm_sq() for p in paths])[:, None, None]
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


def errors_rows(paths, schemes, m_values) -> np.ndarray:
    """Exact squared errors of every path of a block, as a (paths, schemes,
    M) float array: one row per scheme in schemes, one entry per M in
    m_values, all read from one build of the block and one whole build of
    the paths whose certificate fails. Linear and
    greedy keep candidates in index order; best keeps the largest squares
    first. Each value is the path's own: the ladder cells, the certificate
    and the correctly rounded sums do not depend on the paths beside it."""
    _check_query(schemes, m_values)
    if not paths:
        return np.zeros((0, len(schemes), len(m_values)))
    k = int(max(m_values, default=0))
    rows, held = _read(paths, schemes, m_values, [_first_depth(p.num_jumps, k) for p in paths])
    rejected = [i for i, ok in enumerate(held) if not ok]
    if rejected:  # read again from their whole ladders
        rows[rejected] = _read([paths[i] for i in rejected], schemes, m_values, None)[0]
    return rows


def _read(paths, schemes, m_values, depth) -> tuple[np.ndarray, list[bool]]:
    """The errors of a block of paths built below depth (None: whole), as
    errors_rows gives them, and each path's certificate verdict."""
    block, held = _build(paths, schemes, int(max(m_values, default=0)), depth)
    # the counts read only the ladders and the sums only the kept squares:
    # each step frees what the next does not read
    block = block._replace(values=None, sq=None)
    counts = _kept_counts(block, schemes, m_values)
    return _errors(paths, block._replace(lad=None), schemes, counts), held


def errors(path: CompoundPoissonPath, schemes, m_values) -> list[list[float]]:
    """Exact squared errors of every scheme in schemes at each M in m_values,
    one list per scheme: the one-path view of errors_rows."""
    return errors_rows([path], schemes, m_values)[0].tolist()


def select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    """The m atoms the scheme keeps, with their values, and the exact
    squared error, both from one certified build. Linear keeps the first m
    atoms in index order, zeros included; greedy the first m structurally
    nonzero ones (none on a jump-free path); best the m largest magnitudes
    of the full expansion, ties to the smaller index."""
    _check_query((scheme,), [m])
    block, held = _build([path], (scheme,), int(m), [_first_depth(path.num_jumps, int(m))])
    if not held[0]:  # read again from the whole ladder
        block, _ = _build([path], (scheme,), int(m), None)
    counts = _kept_counts(block, (scheme,), [m])
    lad, values = block.lad, block.values
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
    else:  # fewer than m candidates only on a whole ladder
        past = itertools.islice(atoms_past(path, int(lad.resolution[0])), m - len(chosen))
        chosen += [(atom, 0.0) for atom in past]
    error = float(_errors([path], block, (scheme,), counts)[0, 0, 0])
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


# ---------------------------------------------------------------------------
# exact sums


_TINY = 2.0**-1022  # the least normal float; every float is a multiple of 2^-1074


def _range_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """The correctly rounded sum of x[lo[i]:hi[i]] for each i, the value
    fsum over those entries gives, for a nonnegative float array x that is
    overwritten on the way, from one vectorized loop of error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation,
    part I", 2008).

    With every |p| <= 2^-L sigma, where sigma is a power of two >= 2^-1022
    and 2^L >= 2(n + 2) for n entries, q = (p + sigma) - sigma is p rounded
    to a multiple of 2^-53 sigma, the remainder p - q is exact and at most
    2^-53 sigma, and |q| <= 2^-L sigma. So every partial sum of a round's
    q is a multiple of 2^-53 sigma below sigma / 2, which is exact in any
    order: the sums of a round between consecutive run ends, and their
    running sums, are exact, and a run's sum in the round is the
    difference of two of them. Each round scales sigma by 2^(L-53); once
    sigma is 2^-1022 the remainder is below 2^-1075, hence zero. A run's
    exact sum is the sum of its round sums, a few floats, and fsum rounds
    them correctly. When the largest entry is not finite, or too large for
    sigma to be a float, each run is summed by fsum over its entries, which
    returns inf or nan, or raises OverflowError.
    """
    if not lo.size:
        return []
    n = x.size
    top = float(x.max())
    width = (2 * (n + 2) - 1).bit_length()  # L, the least with 2^L >= 2(n + 2)
    if not math.isfinite(top) or math.frexp(top)[1] + width > 1023:
        return [math.fsum(x[a:b].tolist()) for a, b in zip(lo.tolist(), hi.tolist())]
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
        return [0.0] * lo.size
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
        if not np.count_nonzero(p):
            break
        sigma = max(sigma * shrink, _TINY)
    running = np.cumsum(rounds[:r], axis=1)
    at = running[:, np.searchsorted(edges, ends)]
    return list(map(math.fsum, (at[:, lo.size :] - at[:, : lo.size]).T.tolist()))
