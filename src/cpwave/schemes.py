"""Coefficient-selection schemes and exact squared approximation errors.

Three ways of keeping M coefficients of the Haar expansion:

* linear  - the first M atoms in index order, zeros included;
* greedy  - the first M atoms, in index order, whose support contains a
  jump (a structural test, never a floating-point threshold);
* best    - the M largest-magnitude coefficients of the full infinite
  expansion, ties to the smaller index. The path's coefficient ladder
  holds every nonzero coefficient, so this needs no stopping rule.

Every analytic scheme reads one ladder per path (haar.ladder): its
candidates are the scaling coefficient followed by the ladder in index
order, and a scheme is an order over them plus a kept count per M. Squared
errors come from Parseval: path energy minus kept energy for exact paths,
sum of dropped squares for finite discrete coefficient lists. On every path
and every M the schemes obey best <= greedy <= linear, and each scheme's
error is non-increasing in M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .haar import SCALING, Atom, Ladder, atom_from_index, atom_index, atoms_past, coeff, ladder
from .processes import CompoundPoissonPath

__all__ = [
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
    "linear_errors_discrete",
    "greedy_errors_discrete",
    "best_errors_discrete",
]

# Parseval subtraction of nearly equal sums can land a hair below zero;
# anything further below is a genuine accounting bug.
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


def _finish_error(energy_total: float, energy_kept: float) -> float:
    err = energy_total - energy_kept
    if err < 0.0:
        if err < -_NEGATIVE_ERROR_TOL:
            raise InvariantViolation(
                f"kept energy exceeds path energy by {-err:.3e}; "
                "coefficient accounting is inconsistent"
            )
        err = 0.0
    return err


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"M must be a nonnegative integer, got {m}")


def _candidates(path: CompoundPoissonPath, scheme: str):
    """The path's ladder, its candidate values (the scaling coefficient, then
    the ladder), and the candidate positions in the scheme's keep order."""
    lad = ladder(path)
    values = lad.value
    if path.num_jumps:
        values = np.concatenate(([coeff(path, SCALING).value], values))
    if scheme == "best":
        order = np.argsort(-np.abs(values), kind="stable")  # ties to the smaller index
    else:
        order = np.arange(values.size)
    return lad, values, order


def _kept_count(lad: Ladder, scheme: str, size: int, m: int) -> int:
    """How many of the size candidates, in keep order, the scheme keeps at M.
    Past the candidates every coefficient is 0.0, so only these count."""
    if scheme != "linear":
        return min(int(m), size)
    if m == 0 or size == 0:
        return 0
    j = int(m).bit_length() - 1  # atom m sits at scale j, shift m - 2^j
    # the float shifts compare exactly with every shift below 2^53
    lo, hi = np.searchsorted(lad.scale, [j, j + 1])
    return 1 + int(lo + np.searchsorted(lad.shift[lo:hi], int(m) - (1 << j)))


def _errors(path: CompoundPoissonPath, scheme: str, m_values) -> list[float]:
    lad, values, order = _candidates(path, scheme)
    counts = [_kept_count(lad, scheme, values.size, m) for m in m_values]
    sq = (values[order[: max(counts, default=0)]] ** 2).tolist()
    total = path.l2_norm_sq()
    # fsum keeps each kept energy correctly rounded, so the scheme-ordering
    # and monotonicity relations of the true sums carry over to floats
    return [_finish_error(total, math.fsum(sq[:c])) for c in counts]


def _select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    _check_m(m)
    lad, values, order = _candidates(path, scheme)
    picked = np.sort(order[: _kept_count(lad, scheme, values.size, m)]).tolist()
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
    error = _finish_error(path.l2_norm_sq(), math.fsum(v * v for _, v in kept))
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
    """Exact linear squared errors at each M in m_values (one ladder)."""
    return _errors(path, "linear", m_values)


def greedy_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact greedy squared errors at each M in m_values (one ladder)."""
    return _errors(path, "greedy", m_values)


def best_errors(path: CompoundPoissonPath, m_values) -> list[float]:
    """Exact best-M squared errors at each M in m_values (one ladder)."""
    return _errors(path, "best", m_values)


# ---------------------------------------------------------------------------
# discrete variants over a finite coefficient list (grid proxies)


def _check_discrete(coeffs, m: int) -> np.ndarray:
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    _check_m(m)
    if m > c.size:
        raise ValueError(f"M={m} exceeds the number of coefficients {c.size}")
    return c


def _discrete_selection(scheme: str, c: np.ndarray, m: int, kept_idx, error: float) -> Selection:
    kept = tuple((atom_from_index(int(i)), float(c[i])) for i in kept_idx)
    return Selection(scheme=scheme, m=m, kept=kept, error_sq=error, certified=False)


def select_linear_discrete(coeffs, m: int) -> Selection:
    """Keep the first m entries of a finite coefficient list."""
    c = _check_discrete(coeffs, m)
    return _discrete_selection("linear", c, m, range(m), linear_errors_discrete(c, [m])[0])


def select_greedy_discrete(coeffs, m: int) -> Selection:
    """Keep the first m entries that are not exactly zero."""
    c = _check_discrete(coeffs, m)
    kept_idx = np.flatnonzero(c != 0.0)[:m]
    return _discrete_selection("greedy", c, m, kept_idx, greedy_errors_discrete(c, [m])[0])


def select_best_discrete(coeffs, m: int) -> Selection:
    """Keep the m largest magnitudes; ties go to the smaller index."""
    c = _check_discrete(coeffs, m)
    kept_idx = np.sort(np.argsort(-np.abs(c), kind="stable")[:m])
    return _discrete_selection("best", c, m, kept_idx, best_errors_discrete(c, [m])[0])


def _suffix_errors(sq: np.ndarray, counts: list[int]) -> list[float]:
    """Sum of all squares past the first `count` entries.

    fsum makes each value the correctly rounded true sum, so the ordering
    between schemes and the monotonicity in M survive in floating point.
    """
    n = sq.size
    return [float(math.fsum(sq[c:])) if c < n else 0.0 for c in counts]


def linear_errors_discrete(coeffs, m_values) -> list[float]:
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    return _suffix_errors(c**2, [min(m, c.size) for m in m_values])


def greedy_errors_discrete(coeffs, m_values) -> list[float]:
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    nz_sq = c[c != 0.0] ** 2
    return _suffix_errors(nz_sq, [min(m, nz_sq.size) for m in m_values])


def best_errors_discrete(coeffs, m_values) -> list[float]:
    c = np.asarray(getattr(coeffs, "values", coeffs), dtype=float)
    sq_desc = np.sort(c**2)[::-1]
    return _suffix_errors(sq_desc, [min(m, c.size) for m in m_values])
