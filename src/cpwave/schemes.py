"""Coefficient-selection schemes and exact squared approximation errors.

Three ways of keeping M coefficients of the Haar expansion:

* linear  - the first M atoms in index order, zeros included;
* greedy  - the first M atoms, in index order, whose support contains a
  jump (a structural test, never a floating-point threshold);
* best    - the M largest-magnitude coefficients of the full infinite
  expansion, ties to the smaller index. The path's coefficient ladder
  holds every nonzero coefficient, and a certificate says when its first
  scales already hold the M largest.

errors(path, schemes, m_values) and select(path, scheme, m) build one
ladder per call (haar.ladder), so one per trial whatever the number of
schemes, and read every requested scheme's errors, or one selection's kept
atoms and error, from it: the candidates are the scaling coefficient
followed by the ladder in index order, and a scheme is an order over their
squares plus a kept count per M. The ladder is first built only down to a
depth d and is extended once, by the scales [d, resolution), unless a
certificate shows that the scales below d already give every requested
scheme its exact kept atoms and errors up to K = max M: linear keeps only
atoms of index below K, all at scales below bit_length(K); greedy needs K
candidates; and best needs a bound on every coefficient at scales >= d,
from the jump counts at scale d - 1 and the largest jump height, to lie
strictly below the K-th largest built square. No scale is built twice.
errors_discrete and select_discrete do the same for a finite coefficient
list, with one set of squares. Squared errors of exact paths come from
Parseval: path energy minus kept energy (exactly 0.0 once every candidate
of the whole ladder is kept). The error of a finite discrete coefficient
list at M is the sum of its dropped squares. Both are prefix sums from one
exact kernel, _prefix_sums: one vectorized error-free extraction
(_exact_terms) over the used prefixes of a call laid end to end gives each
segment's exact sum as a few terms, accumulated from the front. errors
sums every scheme's kept prefix (linear and greedy share the index-order
one); errors_discrete sums each scheme's dropped tail as a prefix of its
reversed keep order. Each M's sum is then one fsum over a few terms,
correctly rounded, so no prefix or tail is summed again for every M. On
every path and every M the schemes obey best <= greedy <= linear, and each
scheme's error is non-increasing in M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .haar import SCALING, Atom, Ladder, atom_from_index, atom_index, atoms_past, coeff, ladder
from .processes import CompoundPoissonPath

__all__ = [
    "SCHEMES",
    "Selection",
    "InvariantViolation",
    "select",
    "select_discrete",
    "errors",
    "errors_discrete",
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


def _finish_error(energy_total: float, kept: float, every: bool) -> float:
    """Squared error of a kept energy, the correctly rounded sum of the kept
    squares: exactly 0.0 when every candidate of a whole ladder is kept,
    since they hold every nonzero coefficient, and the Parseval remainder
    otherwise."""
    if every:
        return 0.0
    # the kept energy is correctly rounded, so the scheme-ordering and
    # monotonicity relations of the true sums carry over to floats
    err = energy_total - kept
    if err < -_NEGATIVE_ERROR_TOL * energy_total:
        raise InvariantViolation(
            f"kept energy exceeds path energy {energy_total:.17g} by {-err:.3e}; "
            "coefficient accounting is inconsistent"
        )
    return max(err, 0.0)


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"M must be a nonnegative integer, got {m}")


def _candidates(path: CompoundPoissonPath, lad: Ladder) -> np.ndarray:
    """Candidate values: the scaling coefficient, then the ladder, in index
    order."""
    if not path.num_jumps:
        return lad.value
    return np.concatenate(([coeff(path, SCALING).value], lad.value))


def _kept_counts(lad: Ladder, scheme: str, size: int, m_values) -> list[int]:
    """How many of the size candidates, in keep order, the scheme keeps at
    each M. Past the candidates every coefficient is 0.0, so only these
    count; linear keeps the candidates whose atom index is below M."""
    if scheme != "linear":
        return [min(int(m), size) for m in m_values]
    # every atom at a scale of at least bit_length(max M) has an index past
    # every M, and the indices below are exact for every M up to 2^53
    stop = np.searchsorted(lad.scale, int(max(m_values, default=0)).bit_length())
    below = np.searchsorted(lad.indices(stop), np.asarray(m_values, dtype=float)).tolist()
    return [int(m > 0 and size > 0) + c for m, c in zip(m_values, below)]


def _check_schemes(schemes) -> None:
    if any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be a subset of {SCHEMES}, got {tuple(schemes)}")


def _kept_prefix(scheme: str, sq: np.ndarray, k: int) -> np.ndarray:
    """The first k squares (all, when there are fewer) in the scheme's keep
    order: largest first for best, index order for the others."""
    if scheme != "best" or k == 0:
        return sq[:k]
    if k >= sq.size:
        return np.sort(sq)[::-1]
    return np.sort(np.partition(sq, sq.size - k)[sq.size - k :])[::-1]


def _certified(path: CompoundPoissonPath, lad: Ladder, depth: int, k: int, kept) -> bool:
    """Whether a ladder built below depth serves every scheme in kept exactly
    as the whole ladder would, at every M <= k.

    Linear keeps only atoms of index below k, all at scales below
    bit_length(k); greedy keeps the first k candidates in index order. An
    atom at scale j >= depth holds at most the c jumps of its ancestor at
    scale depth - 1 (at depth 0, all N jumps of [0, 1)), each weighted by at
    most 2^(-j/2-1) in magnitude, so its square is at most
    (c * max|h|)^2 * 2^(-depth-2); best's top k is already built when that
    bound, widened for rounding, is below the k-th largest built square.
    """
    if "linear" in kept and depth < k.bit_length():
        return False
    if any(kept[s].size < k for s in ("greedy", "best") if s in kept):
        return False
    if "best" not in kept or k == 0:
        return True
    if depth == 0:  # the ancestor is [0, 1), and the ladder is empty
        c = path.num_jumps
    else:
        c = int(lad.count[np.searchsorted(lad.scale, depth - 1) :].max())
    a = c * float(np.abs(path.jump_heights).max())
    # the relative margin covers the rounding of c-term sums and their
    # squares; the absolute one covers squares that underflow
    bound = a * a * 2.0 ** (-depth - 2) * (1.0 + (c + 8) * 2.0**-50) + 2.0**-1022
    return bound < kept["best"][-1]


def _first_depth(n: int, k: int) -> int:
    """The depth errors first builds a path with n jumps to, for M <= k.

    Atoms start to hold single jumps near scale bit_length(n), and the k
    largest squares sit about k / n scales below it; the certificate's
    worst-case bound falls below them about 8 scales further down (on
    sampled paths at rates 30 to 2000 and k up to 4096, 8 was the least
    margin that never extended). The depth is also at least
    bit_length(k), which linear needs.
    """
    return n.bit_length() + -(-k // n) + 8 if n else 0


def _build(path: CompoundPoissonPath, schemes, k: int):
    """The ladder certified for every scheme in schemes at every M <= k (see
    the module docstring), its candidate values and their squares, each
    scheme's first k squares in keep order, and whether it is whole, that
    is, built to the path's resolution."""
    depth = _first_depth(path.num_jumps, k)
    lad = ladder(path, 0, depth)
    e = lad.resolution
    values = _candidates(path, lad)
    sq = values**2
    kept = {s: _kept_prefix(s, sq, k) for s in schemes}
    if depth < e and not _certified(path, lad, depth, k, kept):
        rest = ladder(path, depth)
        lad = Ladder(e, *map(np.concatenate, zip(lad[1:], rest[1:])))
        values = np.concatenate((values, rest.value))
        sq = np.concatenate((sq, rest.value**2))
        kept = {s: _kept_prefix(s, sq, k) for s in schemes}
        depth = e
    return lad, values, sq, kept, depth >= e


def _rows(path: CompoundPoissonPath, sq, kept, whole: bool, schemes, counts) -> list[list[float]]:
    """Each scheme's squared errors at its kept counts over one build, one
    row per scheme, from one exact pass over the kept prefixes. Since the
    top-c squares form one multiset whatever the tie order, their correctly
    rounded sum is best's kept energy."""
    total = path.l2_norm_sq()
    every = sq.size if whole else -1  # the count whose error is exactly 0.0
    # linear and greedy keep one index-order prefix; a cut is a positive
    # count whose error is not exactly 0.0
    orders = ["best" if s == "best" else "index" for s in schemes]
    cuts = {}
    for order, row in zip(orders, counts):
        cuts.setdefault(order, set()).update(c for c in row if 0 < c != every)
    prefix = {"index": sq, "best": kept.get("best")}
    sums = dict(zip(cuts, _prefix_sums([(prefix[o], cs) for o, cs in cuts.items()])))
    return [
        [_finish_error(total, sums[o].get(c, 0.0), c == every) for c in row]
        for o, row in zip(orders, counts)
    ]


def errors(path: CompoundPoissonPath, schemes, m_values) -> list[list[float]]:
    """Exact squared errors of every scheme in schemes at each M in m_values,
    one list per scheme, all read from one certified ladder. Linear and
    greedy keep candidates in index order; best keeps the largest squares
    first."""
    _check_schemes(schemes)
    lad, _, sq, kept, whole = _build(path, schemes, int(max(m_values, default=0)))
    counts = [_kept_counts(lad, s, sq.size, m_values) for s in schemes]
    return _rows(path, sq, kept, whole, schemes, counts)


def select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    """The m atoms the scheme keeps, with their values, and the exact
    squared error, both from one certified ladder. Linear keeps the first m
    atoms in index order, zeros included; greedy the first m structurally
    nonzero ones (none on a jump-free path); best the m largest magnitudes
    of the full expansion, ties to the smaller index."""
    _check_schemes((scheme,))
    _check_m(m)
    lad, values, sq, kept, whole = _build(path, (scheme,), int(m))
    counts = _kept_counts(lad, scheme, sq.size, [m])
    if scheme == "best":
        # the top m are built and strictly larger than every atom that is
        # not, so a stable sort sends ties to the smaller index as over the
        # whole ladder
        picked = np.sort(np.argsort(-np.abs(values), kind="stable")[: counts[0]]).tolist()
    else:
        picked = range(counts[0])
    chosen = []
    for p in picked:
        atom = Atom.wavelet(int(lad.scale[p - 1]), int(lad.shift[p - 1])) if p else SCALING
        chosen.append((atom, float(values[p])))
    if scheme == "linear":
        given = {atom_index(atom): v for atom, v in chosen}
        chosen = [(atom_from_index(i), given.get(i, 0.0)) for i in range(m)]
    else:  # fewer than m candidates only on a whole ladder
        past = itertools.islice(atoms_past(path, lad.resolution), m - len(chosen))
        chosen += [(atom, 0.0) for atom in past]
    ((error,),) = _rows(path, sq, kept, whole, (scheme,), [counts])
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


def _as_coeffs(coeffs) -> np.ndarray:
    return np.asarray(getattr(coeffs, "values", coeffs), dtype=float)


def errors_discrete(coeffs, schemes, m_values) -> list[list[float]]:
    """Sums of dropped squares of a finite coefficient list for every scheme
    in schemes at each M in m_values, one list per scheme. Linear keeps
    entries in index order, greedy the entries that are not exactly zero,
    best the largest squares first. The tail a scheme drops at M is the
    prefix of its reversed keep order of length n - M, so one exact pass
    sums every scheme's tails. Each sum is the correctly rounded sum of
    the dropped squares, so the ordering between schemes and the
    monotonicity in M survive in floating point."""
    _check_schemes(schemes)
    for m in m_values:
        _check_m(m)
    c = _as_coeffs(coeffs)
    sq = c**2
    tails = []
    for scheme in schemes:
        if scheme == "linear":
            reverse = sq[::-1]
        elif scheme == "greedy":
            reverse = sq[c != 0.0][::-1]
        else:  # at each M the last M are the M largest: one multi-kth partition
            kth = sorted({sq.size - int(m) for m in m_values if 0 < m < sq.size})
            reverse = np.partition(sq, kth) if kth else sq
        tails.append((reverse, [max(reverse.size - int(m), 0) for m in m_values]))
    sums = _prefix_sums([(x, [d for d in drops if d]) for x, drops in tails])
    return [[s.get(d, 0.0) for d in drops] for s, (_, drops) in zip(sums, tails)]


def select_discrete(coeffs, scheme: str, m: int) -> Selection:
    """Keep m entries of a finite coefficient list: the first m (linear),
    the first m that are not exactly zero (greedy), or the m largest
    magnitudes, ties to the smaller index (best); error_sq is the sum of
    the dropped squares, from errors_discrete."""
    c = _as_coeffs(coeffs)
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


def _exact_terms(x: np.ndarray, starts: list[int]) -> list[list[float]]:
    """Per segment of a nonempty nonnegative float array x, a short list of
    floats whose exact sum is the segment's, from one vectorized loop of
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", 2008). The starts are strictly increasing, the
    first is 0 and the last below x.size; a segment runs to the next start
    or to the end. fsum over the terms of any run of segments is the run's
    correctly rounded sum, the value fsum over its entries gives.

    With every |p| <= 2^-L sigma, where sigma is a power of two >= 2^-1022
    and 2^L >= 2(n + 2) for n entries, q = (p + sigma) - sigma is p rounded
    to a multiple of 2^-53 sigma, the remainder p - q is exact and at most
    2^-53 sigma, and |q| <= 2^-L sigma. So any partial sum of a segment's q
    is a multiple of 2^-53 sigma below sigma / 2, which is exact in any
    order. Each round adds one exact sum per segment and scales sigma by
    2^(L-53); once sigma is 2^-1022 the remainder is below 2^-1075, hence
    zero. When the largest entry is not finite, or too large for sigma to
    be a float, each segment's terms are its entries, so fsum returns inf
    or nan, or raises OverflowError, as it does over the entries.
    """
    n = x.size
    top = float(x.max())
    width = (2 * (n + 2) - 1).bit_length()  # L, the least with 2^L >= 2(n + 2)
    if not math.isfinite(top) or math.frexp(top)[1] + width > 1023:
        return [x[a:b].tolist() for a, b in zip(starts, starts[1:] + [n])]
    sigma = max(math.ldexp(1.0, math.frexp(top)[1] + width), _TINY)
    shrink = math.ldexp(1.0, width - 53)
    p = x.copy()
    q = np.empty_like(p)
    parts = [[0.0] * len(starts)]
    while np.count_nonzero(p):
        np.add(p, sigma, out=q)
        q -= sigma
        parts.append(np.add.reduceat(q, starts).tolist())
        p -= q
        sigma = max(sigma * shrink, _TINY)
    return [list(column) for column in zip(*parts)]


def _prefix_sums(groups) -> list[dict[int, float]]:
    """For each (x, cuts) in groups, x a nonnegative float array, the
    correctly rounded sum of x[:c] at each cut c, with 0 < c <= x.size: one
    exact extraction over every group's used prefix laid end to end, the
    segment terms accumulated from the front, one fsum per cut."""
    cuts = [sorted(set(c)) for _, c in groups]
    pieces, starts, offset = [], [], 0
    for (x, _), cs in zip(groups, cuts):
        if cs:
            pieces.append(x[: cs[-1]])
            starts += [offset] + [offset + c for c in cs[:-1]]
            offset += cs[-1]
    terms = iter(_exact_terms(np.concatenate(pieces), starts) if pieces else ())
    out = []
    for cs in cuts:
        acc, sums = [], {}
        for c in cs:
            acc += next(terms)
            sums[c] = math.fsum(acc)
        out.append(sums)
    return out
