"""Reference helpers the tests check the package against.

No CLI run reaches any of this, so it lives with the tests, not in
src/cpwave:

* the per-atom Haar layer: atoms and their enumeration, supports, jump
  weights, and one atom's exact coefficient (coeff);
* the selection listing: select, over a path's whole ladder, and
  select_discrete, over a finite coefficient list;
* the inverse transforms of one row, discrete Haar and DCT-II;
* a path's minimum jump spacing and theory's lemma helpers;
* the rational oracle: a path's energy, scaling coefficient and ladder
  sums as exact fractions.Fraction values, which the package never loads.

Atoms are enumerated by a single index: 0 for the scaling function, and
2^j + k for the wavelet at scale j >= 0 and shift 0 <= k < 2^j.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cpwave.dct import DctCoeffs, _twiddle
from cpwave.haar import _INV_SQRT2, as_rows, dyadic_rows, ladder
from cpwave.processes import CompoundPoissonPath, _positive
from cpwave.schemes import _check_m, errors, errors_discrete
from cpwave.theory import _integer, expected_two_pow


# ---------------------------------------------------------------------------
# atoms and exact coefficients


@dataclass(frozen=True)
class Atom:
    """A Haar atom: the scaling function, or the wavelet at (scale j, shift k)."""

    kind: str  # "scaling" | "wavelet"
    j: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind == "scaling":
            if (self.j, self.k) != (0, 0):
                raise ValueError("the scaling atom carries no scale/shift")
        elif self.kind == "wavelet":
            if self.j < 0:
                raise ValueError(f"scale must be nonnegative, got {self.j}")
            if not (0 <= self.k <= 2**self.j - 1):
                raise ValueError(f"shift {self.k} out of range for scale {self.j}")
        else:
            raise ValueError(f"unknown atom kind {self.kind!r}")

    @staticmethod
    def wavelet(j: int, k: int) -> "Atom":
        return Atom(kind="wavelet", j=j, k=k)


SCALING = Atom(kind="scaling")


@dataclass(frozen=True)
class Coefficient:
    """An atom together with its exact coefficient value and the number of
    path jumps inside the atom's support (total jump count for scaling)."""

    atom: Atom
    value: float
    jump_count: int


def atom_index(atom: Atom) -> int:
    """Position of the atom in the canonical enumeration: scaling first,
    then scales in increasing order and shifts left to right."""
    if atom.kind == "scaling":
        return 0
    return (1 << atom.j) + atom.k


def atom_from_index(index: int) -> Atom:
    """Inverse of atom_index."""
    if index < 0:
        raise ValueError(f"atom index must be nonnegative, got {index}")
    if index == 0:
        return SCALING
    j = index.bit_length() - 1
    return Atom.wavelet(j, index - (1 << j))


def support(atom: Atom) -> tuple[float, float]:
    """Half-open support [lo, hi) of the atom on [0, 1]."""
    if atom.kind == "scaling":
        return (0.0, 1.0)
    width = 2.0 ** (-atom.j)
    return (atom.k * width, (atom.k + 1) * width)


def _check_unit_interval(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):  # nan fails both
        raise ValueError("argument must lie in [0, 1]")
    return ts


def jump_weight_scaling(t):
    """Weight a jump at position t contributes to the scaling coefficient.

    A unit jump at t adds (1 - t) to the integral of the path against the
    scaling function.
    """
    ts = _check_unit_interval(t)
    out = 1.0 - ts
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def jump_weight_wavelet(j: int, k: int, t):
    """Weight a jump at position t contributes to the (j, k) wavelet
    coefficient: a downward tent over the atom's support, zero outside it,
    with peak magnitude 2^(-j/2 - 1) at the support midpoint.
    """
    Atom.wavelet(j, k)  # validates (j, k)
    ts = _check_unit_interval(t)
    # u = frac(t 2^j) in cell k, -1 outside it, from exact integers
    u = np.array([(num << j) % den / den if (num << j) // den == k else -1.0 for num, den in map(
        float.as_integer_ratio, ts.ravel().tolist())]).reshape(ts.shape)
    tent = np.minimum(u, 1.0 - u)
    out = np.where(u >= 0.0, -(2.0 ** (-j / 2.0)) * tent, 0.0)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def jumps_in_support(path: CompoundPoissonPath, atom: Atom) -> int:
    """Number of jumps inside the atom's half-open support."""
    return coeff(path, atom).jump_count


def coeff(path: CompoundPoissonPath, atom: Atom) -> Coefficient:
    """Exact coefficient of the path against one atom.

    The value is a sum over the jumps in the atom's support only, so it is
    exactly 0.0 whenever that support contains no jump. A jump at t lies in
    the support of atom (j, k) when its exact cell floor(t 2^j) is k, and
    weighs jump_weight_wavelet's tent there.
    """
    times = path.jump_times
    heights = path.jump_heights
    if atom.kind == "scaling":
        value = float(path.block.sums()[0][0])
        return Coefficient(atom=atom, value=value, jump_count=path.num_jumps)

    def cell(t) -> int:  # floor(t 2^j) in exact integers, at any j
        num, den = float(t).as_integer_ratio()
        return (num << atom.j) // den

    a = bisect.bisect_left(times, atom.k, key=cell)
    b = bisect.bisect_right(times, atom.k, a, key=cell)
    if a == b:
        return Coefficient(atom=atom, value=0.0, jump_count=0)
    weights = jump_weight_wavelet(atom.j, atom.k, times[a:b])
    value = float(math.fsum(heights[a:b] * weights))
    return Coefficient(atom=atom, value=value, jump_count=b - a)


# ---------------------------------------------------------------------------
# the selection listing


@dataclass(frozen=True)
class Selection:
    """The result of one approximation choice.

    kept holds the (atom, value) pairs of the kept candidates, in
    atom-index order: every other atom the scheme keeps holds no jump and
    has value exactly 0.0, so it is not listed. error_sq is the squared L2
    error of the reconstruction from exactly those values.
    """

    scheme: str
    m: int
    kept: tuple[tuple[Atom, float], ...]
    error_sq: float


def select(path: CompoundPoissonPath, scheme: str, m: int) -> Selection:
    """The candidates the scheme keeps at M = m, listed from the path's
    whole ladder (haar.ladder), and the exact squared error from errors.
    Linear keeps the candidates of index below m; greedy the first m
    candidates; best the m largest magnitudes, ties to the smaller index.
    Every other atom a scheme keeps holds no jump, so its coefficient is
    exactly 0.0, and it is not listed: a selection costs what its path
    costs, whatever m."""
    ((error,),) = errors(path, (scheme,), [m])
    lad = ladder(path)
    scaled = int(path.num_jumps > 0)
    values = np.append(path.block.sums()[0], lad.value) if scaled else lad.value

    def atom(p: int) -> Atom:  # candidate p: the scaling atom, then the ladder's
        q = p - scaled
        return Atom.wavelet(int(lad.scale[q]), int(lad.shift[q])) if q >= 0 else SCALING

    if scheme == "linear":  # candidates lie in index order; Python ints compare exactly
        picked = range(bisect.bisect_left(range(values.size), m, key=lambda p: atom_index(atom(p))))
    elif scheme == "greedy":
        picked = range(min(m, values.size))
    else:  # a stable sort sends ties to the smaller index
        picked = np.sort(np.argsort(-np.abs(values), kind="stable")[: min(m, values.size)]).tolist()
    kept = tuple((atom(p), float(values[p])) for p in picked)
    return Selection(scheme=scheme, m=m, kept=kept, error_sq=error)


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


# ---------------------------------------------------------------------------
# inverse transforms of one row


def dyadic_row(x, what: str) -> tuple[np.ndarray, int]:
    """dyadic_rows(x) of a single row; a block of rows is refused."""
    values, log2 = dyadic_rows(x, what)
    if values.ndim != 1:
        raise ValueError(f"expected one {what} row, got shape {values.shape}")
    return values, log2


def discrete_haar_inverse(coeffs) -> np.ndarray:
    """Inverse of discrete_haar_forward on one length-2^L coefficient list."""
    c, _ = dyadic_row(coeffs, "coefficient")
    n = c.size
    cur = np.array([c[0]])
    while cur.size < n:
        half = cur.size
        detail = c[half : 2 * half]
        nxt = np.empty(2 * half)
        nxt[0::2] = (cur + detail) * _INV_SQRT2
        nxt[1::2] = (cur - detail) * _INV_SQRT2
        cur = nxt
    return cur


def dct2_inverse(coeffs: DctCoeffs) -> np.ndarray:
    """Inverse of dct2_forward on one row of coefficients: the samples, as
    a read-only array."""
    values, _ = dyadic_row(coeffs, "coefficient")
    n = values.shape[-1]
    h = n // 2
    # bin k of the forward FFT, turned: coefficient k - i coefficient n - k
    # (no imaginary part at k = 0); unturning divides by a_k^2 = 2/n, or
    # 1/n at k = 0, which with the unscaled inverse FFT leaves 1/2 or 1
    unturn = _twiddle(n).conj()
    unturn[1:] *= 0.5
    tail = np.concatenate((np.zeros(values.shape[:-1] + (1,)), values[..., : h - 1 : -1]), axis=-1)
    v = np.fft.irfft((values[..., : h + 1] - 1j * tail) * unturn, n=n, axis=-1, norm="forward")
    out = np.empty(values.shape)
    out[..., ::2] = v[..., : n - h]
    out[..., 1::2] = v[..., : n - h - 1 : -1]
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# spacing and lemma helpers


def min_spacing(path: CompoundPoissonPath) -> float:
    """Minimum gap between consecutive jumps, counting a virtual jump at 0.

    Equals 1 for a jump-free path, and never exceeds 1/N otherwise.
    """
    return float(np.diff(path.jump_times, prepend=0.0).min(initial=1.0))


def nonzero_scale_bounds(m: int, n: int, delta: float) -> tuple[int, int]:
    """Integer bounds on the scale at which the m-th structurally nonzero
    coefficient appears, for a path with n >= 1 jumps and minimum spacing
    delta: ceil((m-2)/n) <= scale <= floor((m-1)/n + log2(1/delta))."""
    m = _integer("M", m, 2)
    n = _integer("n", n, 1)
    if not (0.0 < delta <= 1.0 / n):
        raise ValueError(f"delta must lie in (0, 1/n] for n={n}, got {delta}")
    lower = max(0, math.ceil((m - 2) / n))
    upper = math.floor((m - 1) / n + math.log2(1.0 / delta))
    return lower, upper


def tail_energy(scale: int, sigma0_sq: float) -> float:
    """Expected coefficient energy strictly beyond the given scale:
    the geometric sum sigma0^2 * 2^-(scale+1) / 6."""
    scale = _integer("scale", scale, 0)
    _positive("sigma0_sq", sigma0_sq)
    return sigma0_sq * 2.0 ** -(scale + 1) / 6.0


def poly_weighted_decay(lam: float, k: int, m_values) -> list[float]:
    """M^k * E[2^(-M/N)] along m_values; eventually strictly decreasing for
    every fixed k, which is the super-polynomial signature of the decay."""
    k = _integer("k", k, 0)
    return [m**k * expected_two_pow(lam, m)[0] for m in m_values]


def exp_weighted_decay(lam: float, alpha: float, m_values) -> list[float]:
    """exp(alpha * M) * E[2^(-M/N)] along m_values; eventually strictly
    increasing for every alpha > 0, the sub-exponential signature."""
    _positive("alpha", alpha)
    out = []
    for m in m_values:
        mean, _ = expected_two_pow(lam, m)
        # combine in log space: exp(alpha * m) alone can overflow long before
        # the weighted product does
        out.append(math.exp(alpha * m + math.log(mean)) if mean > 0.0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# the rational oracle


def exact_energy(path: CompoundPoissonPath) -> tuple[Fraction, Fraction]:
    """The path's energy and the sum of S_i^2 * length_i, as rationals:
    L_i and S_i are the running sums of h and |h| up to the i-th jump."""
    ends = [Fraction(t) for t in path.jump_times.tolist()] + [Fraction(1)]
    level = running = energy = scale = Fraction(0)
    for i, h in enumerate(path.jump_heights.tolist()):
        level += Fraction(h)
        running += abs(Fraction(h))
        energy += level * level * (ends[i + 1] - ends[i])
        scale += running * running * (ends[i + 1] - ends[i])
    return energy, scale


def exact_scaling(path: CompoundPoissonPath) -> tuple[Fraction, Fraction]:
    """The path's scaling coefficient, the sum of h (1 - t) over its jumps,
    and the sum of |h (1 - t)|, as rationals."""
    terms = [Fraction(h) * (1 - Fraction(t)) for t, h in zip(path.jump_times.tolist(),
                                                             path.jump_heights.tolist())]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


def exact_ladder(path: CompoundPoissonPath) -> list[tuple[int, int, Fraction, Fraction, int]]:
    """Every occupied atom below the path's dyadic resolution e, the largest
    e with a jump time an odd multiple of 2^-e, in atom-index order, as (j,
    k, S, A, count): the jumps with floor(t 2^j) = k, S the sum of h w over
    them, with w = min(u, 1 - u) for u = frac(t 2^j), and A the sum of |h
    w|, as rationals. The coefficient is -2^(-j/2) S, so its square is
    2^-j S^2; at every scale from e on, each jump sits at the left edge of
    its own atom, with w = 0, so these atoms hold every nonzero one."""
    jumps = [(Fraction(t), Fraction(h)) for t, h in zip(path.jump_times.tolist(),
                                                        path.jump_heights.tolist())]
    e = max((t.denominator.bit_length() - 1 for t, _ in jumps), default=0)
    atoms = []
    for j in range(e):
        cells: dict[int, list] = {}
        for t, h in jumps:  # times increase, so cells come in shift order
            x = t * 2**j
            k = x.numerator // x.denominator
            u = x - k
            w = min(u, 1 - u)
            cell = cells.setdefault(k, [Fraction(0), Fraction(0), 0])
            cell[0] += h * w
            cell[1] += abs(h * w)
            cell[2] += 1
        atoms += [(j, k, s, a, count) for k, (s, a, count) in cells.items()]
    return atoms
