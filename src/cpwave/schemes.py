"""Coefficient-selection schemes and exact squared approximation errors.

Three ways of keeping M coefficients of the Haar expansion:

* linear  - the first M atoms in index order, zeros included;
* greedy  - the first M atoms, in index order, whose support contains a
  jump (a structural test, never a floating-point threshold);
* best    - the M largest-magnitude coefficients of the full infinite
  expansion, ties to the smaller index. The path's coefficient ladder
  holds every nonzero coefficient, and a certificate says when its first
  scales already hold the M largest.

errors(path, schemes, m_values) builds one ladder per path (haar.ladder),
so one per trial whatever the number of schemes, and reads every requested
scheme's errors from it: the candidates are the scaling coefficient
followed by the ladder in index order, and a scheme is an order over their
squares plus a kept count per M. The ladder is first built only down to a
depth d and is extended once, by the scales [d, resolution), unless a
certificate shows that the scales below d already give every requested
scheme its exact errors up to K = max M: linear keeps only atoms of index
below K, all at scales below bit_length(K); greedy needs K candidates; and
best needs a bound on every coefficient at scales >= d, from the jump
counts at scale d - 1 and the largest jump height, to lie strictly below
the K-th largest built square. No scale is built twice. errors is the one
place an exact path's error is computed; select_* list the kept atoms and
take their error from the same code. errors_discrete does the same for a
finite coefficient list, with one set of squares. Squared errors of exact
paths come from Parseval: path energy minus kept energy (exactly 0.0 once
every candidate of the whole ladder is kept). The error of a finite
discrete coefficient list at M is the sum of its dropped squares, correctly
rounded: one vectorized error-free extraction (_cut_sums) sums the squares
between consecutive cuts exactly, and each M's error is one fsum of the
segment sums past its cut, so no tail is summed again for every M. On
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
    "select_linear",
    "select_greedy",
    "select_best",
    "select_linear_discrete",
    "select_greedy_discrete",
    "select_best_discrete",
    "linear_errors",
    "greedy_errors",
    "best_errors",
    "errors",
    "errors_discrete",
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
    certified is True when error_sq is exact rather than grid-limited.
    """

    scheme: str
    m: int
    kept: tuple[tuple[Atom, float], ...]
    error_sq: float
    certified: bool


def _finish_error(energy_total: float, kept_sq: list[float], count: int, every: bool) -> float:
    """Squared error of keeping the first count candidate squares: exactly
    0.0 when every candidate of a whole ladder is kept, since they hold
    every nonzero coefficient, and the Parseval remainder otherwise."""
    if every:
        return 0.0
    # fsum keeps each kept energy correctly rounded, so the scheme-ordering
    # and monotonicity relations of the true sums carry over to floats
    err = energy_total - math.fsum(kept_sq[:count])
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


def errors(path: CompoundPoissonPath, schemes, m_values) -> list[list[float]]:
    """Exact squared errors of every scheme in schemes at each M in m_values,
    one list per scheme, all read from one ladder.

    The ladder is built to a first depth, and extended once to the path's
    resolution unless the certificate in the module docstring holds there
    for every requested scheme up to the largest M. Linear and greedy keep
    candidates in index order; best keeps the largest squares first, and
    since the top-c squares form one multiset whatever the tie order, their
    correctly rounded sum is the selection's.
    """
    _check_schemes(schemes)
    k = int(max(m_values, default=0))
    depth = _first_depth(path.num_jumps, k)
    lad = ladder(path, 0, depth)
    e = lad.resolution
    depth = min(depth, e)
    sq = _candidates(path, lad) ** 2
    kept = {s: _kept_prefix(s, sq, k) for s in schemes}
    if depth < e and not _certified(path, lad, depth, k, kept):
        rest = ladder(path, depth)
        lad = Ladder(e, *map(np.concatenate, zip(lad[1:], rest[1:])))
        sq = np.concatenate((sq, rest.value**2))
        kept = {s: _kept_prefix(s, sq, k) for s in schemes}
        depth = e
    total = path.l2_norm_sq()
    rows = []
    for scheme in schemes:
        counts = _kept_counts(lad, scheme, sq.size, m_values)
        prefix = kept[scheme].tolist()
        rows.append([_finish_error(total, prefix, c, depth == e and c == sq.size) for c in counts])
    return rows


def _select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    _check_m(m)
    lad = ladder(path)
    values = _candidates(path, lad)
    (count,) = _kept_counts(lad, scheme, values.size, [m])
    if scheme == "best":  # a stable sort sends ties to the smaller index
        picked = np.sort(np.argsort(-np.abs(values), kind="stable")[:count]).tolist()
    else:
        picked = range(count)
    kept = []
    for p in picked:
        atom = Atom.wavelet(int(lad.scale[p - 1]), int(lad.shift[p - 1])) if p else SCALING
        kept.append((atom, float(values[p])))
    if scheme == "linear":
        given = {atom_index(atom): v for atom, v in kept}
        kept = [(atom_from_index(i), given.get(i, 0.0)) for i in range(m)]
    else:
        past = itertools.islice(atoms_past(path, lad.resolution), m - len(kept))
        kept += [(atom, 0.0) for atom in past]
    error = errors(path, (scheme,), [m])[0][0]
    return Selection(scheme=scheme, m=m, kept=tuple(kept), error_sq=error, certified=True)


def select_linear(path: CompoundPoissonPath, m: int) -> Selection:
    """Keep the first m atoms in index order, zero-valued ones included."""
    return _select(path, "linear", m)


def select_greedy(path: CompoundPoissonPath, m: int) -> Selection:
    """Keep the first m structurally nonzero coefficients in index order.

    A jump-free path has no nonzero coefficients at all, so it yields an
    empty selection with zero error.
    """
    return _select(path, "greedy", m)


def select_best(path: CompoundPoissonPath, m: int) -> Selection:
    """Keep the m largest-magnitude coefficients of the full expansion, ties
    to the smaller index; exact, since the ladder holds every nonzero one."""
    return _select(path, "best", m)


def linear_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact linear squared errors at each M in m_values."""
    return errors(path, ("linear",), m_values)[0]


def greedy_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact greedy squared errors at each M in m_values."""
    return errors(path, ("greedy",), m_values)[0]


def best_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact best-M squared errors at each M in m_values."""
    return errors(path, ("best",), m_values)[0]


# ---------------------------------------------------------------------------
# discrete variants over a finite coefficient list (grid proxies)


def _check_discrete(coeffs, m: int) -> np.ndarray:
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    _check_m(m)
    if m > c.size:
        raise ValueError(f"M={m} exceeds the number of coefficients {c.size}")
    return c


def _discrete_selection(scheme: str, c: np.ndarray, m: int, kept_idx) -> Selection:
    kept = tuple((atom_from_index(int(i)), float(c[i])) for i in kept_idx)
    error = errors_discrete(c, (scheme,), [m])[0][0]
    return Selection(scheme=scheme, m=m, kept=kept, error_sq=error, certified=False)


def select_linear_discrete(coeffs, m: int) -> Selection:
    """Keep the first m entries of a finite coefficient list."""
    return _discrete_selection("linear", _check_discrete(coeffs, m), m, range(m))


def select_greedy_discrete(coeffs, m: int) -> Selection:
    """Keep the first m entries that are not exactly zero."""
    c = _check_discrete(coeffs, m)
    return _discrete_selection("greedy", c, m, np.flatnonzero(c != 0.0)[:m])


def select_best_discrete(coeffs, m: int) -> Selection:
    """Keep the m largest magnitudes; ties go to the smaller index."""
    c = _check_discrete(coeffs, m)
    return _discrete_selection("best", c, m, np.sort(np.argsort(-np.abs(c), kind="stable")[:m]))


def _largest_first(sq: np.ndarray, m_values) -> np.ndarray:
    """sq reordered so that, at each M in m_values, its first M entries are
    the M largest as a multiset: one multi-kth partition, no full sort."""
    kth = sorted({sq.size - int(m) for m in m_values if 0 < m < sq.size})
    return np.partition(sq, kth)[::-1] if kth else sq


def errors_discrete(coeffs, schemes, m_values) -> list[list[float]]:
    """Sums of dropped squares of a finite coefficient list for every scheme
    in schemes at each M in m_values, one list per scheme. Linear keeps
    entries in index order, greedy the entries that are not exactly zero,
    best the largest squares first. Each sum is the correctly rounded sum of
    the dropped squares, so the ordering between schemes and the
    monotonicity in M survive in floating point."""
    _check_schemes(schemes)
    for m in m_values:
        _check_m(m)
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    sq = c**2
    rows = []
    for scheme in schemes:
        if scheme == "linear":
            ordered = sq
        elif scheme == "greedy":
            ordered = sq[c != 0.0]
        else:
            ordered = _largest_first(sq, m_values)
        rows.append(_cut_sums(ordered, m_values))
    return rows


def best_errors_discrete(coeffs, m_values) -> list[float]:
    """Sum of all but the M largest squares at each M in m_values. The
    package calls errors_discrete; the benchmark's traced replay
    (perfbench/child.py) still calls this by name."""
    return errors_discrete(coeffs, ("best",), m_values)[0]


# ---------------------------------------------------------------------------
# exact sums


_TINY = 2.0**-1022  # the least normal float; every float is a multiple of 2^-1074


def _cut_sums(x: np.ndarray, cuts) -> list[float]:
    """The correctly rounded sum of x[m:] at each cut m (0.0 at or past the
    end) for a nonnegative float array x, the value math.fsum gives, from
    one vectorized loop of error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation, part I", 2008).

    The cuts split x into segments. With every |p| <= 2^-L sigma, where
    sigma is a power of two >= 2^-1022 and 2^L >= 2(n + 2) for n entries,
    q = (p + sigma) - sigma is p rounded to a multiple of 2^-53 sigma, the
    remainder p - q is exact and at most 2^-53 sigma, and |q| <= 2^-L sigma.
    So any partial sum of a segment's q is a multiple of 2^-53 sigma below
    sigma / 2, which is exact in any order. Each round adds one exact sum
    per segment and scales sigma by 2^(L-53); once sigma is 2^-1022 the
    remainder is below 2^-1075, hence zero. A cut's sum is one fsum over
    the exact segment sums at or past it. An array whose largest entry is
    not finite, or too large for sigma to be a float, is summed by fsum per
    cut instead, which returns inf or nan, or raises OverflowError.
    """
    n = x.size
    ends = [min(int(m), n) for m in cuts]
    starts = sorted(set(ends) - {n})
    if not starts:
        return [0.0] * len(ends)
    p = x[starts[0] :].copy()
    top = float(p.max())
    width = (2 * (p.size + 2) - 1).bit_length()  # L, the least with 2^L >= 2(n + 2)
    if not math.isfinite(top) or math.frexp(top)[1] + width > 1023:
        return [math.fsum(x[m:].tolist()) for m in ends]
    sigma = max(math.ldexp(1.0, math.frexp(top)[1] + width), _TINY)
    shrink = math.ldexp(1.0, width - 53)
    segments = np.array([s - starts[0] for s in starts])
    q = np.empty_like(p)
    parts = [[0.0] * len(starts)]
    while np.count_nonzero(p):
        np.add(p, sigma, out=q)
        q -= sigma
        parts.append(np.add.reduceat(q, segments).tolist())
        p -= q
        sigma = max(sigma * shrink, _TINY)
    sums, terms = {n: 0.0}, []
    for start, column in zip(starts[::-1], list(zip(*parts))[::-1]):
        terms += column
        sums[start] = math.fsum(terms)
    return [sums[m] for m in ends]
