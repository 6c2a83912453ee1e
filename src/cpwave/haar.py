"""Haar basis bookkeeping on [0, 1] and exact wavelet coefficients of
piecewise-constant paths.

A coefficient of a compound Poisson path is a finite sum over its jumps:
integrating the path against a Haar atom by parts turns the step path into
a sum of point evaluations of a piecewise-linear "jump weight" kernel at
the jump locations. That makes every coefficient exact, and makes the
zero/nonzero structure purely combinatorial: a coefficient vanishes exactly
when no jump lands in the atom's support, so zero detection never touches a
floating-point threshold. Float jump times are dyadic rationals, so the
nonzero coefficients are also finitely many: `ladder` lists them all. The
dense listing up to scale J is schemes.select(path, "linear", 2**(J + 1)).

Atoms are enumerated by a single index: 0 for the scaling function, and
2^j + k for the wavelet at scale j >= 0 and shift 0 <= k < 2^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .processes import CompoundPoissonPath

__all__ = [
    "Atom",
    "SCALING",
    "Coefficient",
    "atom_index",
    "atom_from_index",
    "support",
    "jump_weight_scaling",
    "jump_weight_wavelet",
    "jumps_in_support",
    "coeff",
    "Ladder",
    "ladder",
    "atoms_past",
    "nonzero_counts_by_scale",
    "discrete_haar_forward",
    "discrete_haar_inverse",
]

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
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
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
    atom = Atom.wavelet(j, k)  # validates (j, k)
    ts = _check_unit_interval(t)
    u = ts * 2.0**j - k  # position within the support, in [0, 1)
    inside = (u >= 0.0) & (u < 1.0)
    tent = np.minimum(u, 1.0 - u)
    out = np.where(inside, -(2.0 ** (-j / 2.0)) * tent, 0.0)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def jumps_in_support(path: CompoundPoissonPath, atom: Atom) -> int:
    """Number of jumps inside the atom's half-open support."""
    if atom.kind == "scaling":
        return path.num_jumps
    lo, hi = support(atom)
    times = path.jump_times
    return int(np.searchsorted(times, hi, side="left") - np.searchsorted(times, lo, side="left"))


def coeff(path: CompoundPoissonPath, atom: Atom) -> Coefficient:
    """Exact coefficient of the path against one atom.

    The value is a sum over the jumps in the atom's support only, so it is
    exactly 0.0 whenever that support contains no jump.
    """
    times = path.jump_times
    heights = path.jump_heights
    if atom.kind == "scaling":
        count = path.num_jumps
        value = math.fsum((heights * (1.0 - times)).tolist()) if count else 0.0
        return Coefficient(atom=atom, value=value, jump_count=count)
    lo, hi = support(atom)
    a = int(np.searchsorted(times, lo, side="left"))
    b = int(np.searchsorted(times, hi, side="left"))
    if a == b:
        return Coefficient(atom=atom, value=0.0, jump_count=0)
    weights = jump_weight_wavelet(atom.j, atom.k, times[a:b])
    value = float(math.fsum(heights[a:b] * np.atleast_1d(weights)))
    return Coefficient(atom=atom, value=value, jump_count=b - a)


class Ladder(NamedTuple):
    """The occupied wavelet atoms at the scales a ladder was built for, in
    atom-index order, as parallel arrays; `ladder(path)` builds every scale
    below the path's dyadic resolution, `ladder(path, lo, hi)` only those in
    [lo, hi). Shifts are exact integers held as floats, because a shift at
    scale j reaches 2^j."""

    resolution: int
    scale: np.ndarray
    shift: np.ndarray
    value: np.ndarray
    count: np.ndarray

    def indices(self, stop: int) -> np.ndarray:
        """Atom indices 2^scale + shift of the first stop atoms, as floats;
        exact wherever they lie below 2^53."""
        return _POW2[self.scale[:stop]] + self.shift[:stop]


# per-scale factors of the ladder kernel: 2^j exactly, and the wavelet
# amplitude -2^(-j/2) as `-(2.0 ** (-j / 2.0))` rounds it
_POW2 = np.array([math.ldexp(1.0, j) for j in range(1024)])
_AMPLITUDE = np.array([-(2.0 ** (-j / 2.0)) for j in range(1024)])


def ladder(path: CompoundPoissonPath, lo: int = 0, hi: int | None = None) -> Ladder:
    """The path's finite coefficient ladder, or only its scales lo <= j < hi.

    Every jump time is exactly m * 2^-e with m odd; the path's resolution is
    the largest such e. At every scale j >= resolution each jump sits alone
    at the left edge of its own atom, so those coefficients are exactly 0.0
    and the whole ladder, scales [0, e), holds every nonzero coefficient.
    The built scales are [lo, min(hi, e)) for 0 <= lo; `resolution` is e
    whatever the range. Each value is the left-to-right sum, in jump order,
    of height * tent weight, so a scale's rows are the same whichever range
    is built.
    """
    if lo < 0:
        raise ValueError(f"the lowest scale must be nonnegative, got {lo}")
    times, heights = path.jump_times, path.jump_heights
    n = times.size
    # t = bits * 2^(exponent - 53) with a 53-bit integer mantissa; its lowest
    # set bit, 2^(frexp exponent - 1), gives e = 54 - exponent - frexp exponent
    mantissa, exponent = np.frexp(times)
    bits = (mantissa * 2.0**53).astype(np.int64)
    e = int((54 - exponent - np.frexp(bits & -bits)[1]).max(initial=0))
    if e > 1023:  # t * 2^j overflows at j = 1024
        raise ValueError(
            f"jump times need {e} dyadic scales; a float path can be scaled to at most 1023"
        )
    hi = max(lo, e if hi is None else min(hi, e))
    # One (scale, jump) block. Temporaries are computed in place and freed
    # early: a path with 500 jumps makes blocks of about 200 KB.
    x = times * _POW2[lo:hi, None]  # t * 2^j, exact
    k = np.floor(x)
    new = np.empty(x.shape, dtype=bool)
    new[:, :1] = True
    np.not_equal(k[:, 1:], k[:, :-1], out=new[:, 1:])  # the shift changes: a new atom
    new = new.ravel()
    starts = np.flatnonzero(new)
    shift = k.ravel()[starts]
    x -= k  # position u within the atom, exact
    np.subtract(1.0, x, out=k)
    np.minimum(x, k, out=x)
    del k
    x *= _AMPLITUDE[lo:hi, None]
    x *= heights
    count = np.empty_like(starts)  # each atom's jumps: to the next start, or the end
    np.subtract(starts[1:], starts[:-1], out=count[:-1])
    count[-1:] = new.size - starts[-1:]
    # bincount adds each atom's terms in order from 0.0, unlike reduceat; with
    # no atoms at all it returns integers, hence the cast
    atom = np.repeat(np.arange(starts.size), count)
    value = np.bincount(atom, weights=x.ravel(), minlength=starts.size).astype(float, copy=False)
    del x, atom
    return Ladder(e, starts // n + lo, shift, value, count)


def atoms_past(path: CompoundPoissonPath, resolution: int) -> Iterator[Atom]:
    """The occupied atoms at scales >= resolution, in index order: one per
    jump and scale, each with coefficient exactly 0.0. Endless for N >= 1."""
    lefts = [int(k) for k in np.ldexp(path.jump_times, resolution)]
    j = resolution
    while lefts:
        yield from (Atom.wavelet(j, k << (j - resolution)) for k in lefts)
        j += 1


def nonzero_counts_by_scale(path: CompoundPoissonPath, target: int) -> list[int]:
    """Per-scale counts of structurally nonzero coefficients, starting at
    scale 0, extended until the running total reaches target.

    Scale 0 counts both the scaling atom and the (0, 0) wavelet, matching
    the convention that the coarsest level carries two coefficients.
    """
    n = path.num_jumps
    if n == 0:
        return [0] if target > 0 else []
    lad = ladder(path)
    per_scale = np.bincount(lad.scale, minlength=lad.resolution).tolist()
    per_scale[0] += 1
    scales = iter(per_scale)
    counts: list[int] = []
    total = 0
    while total < target:
        counts.append(next(scales, n))  # n atoms at every scale past the ladder
        total += counts[-1]
    return counts


def _as_values(samples) -> np.ndarray:
    values = getattr(samples, "values", samples)
    return np.asarray(values, dtype=float)


def discrete_haar_forward(samples) -> np.ndarray:
    """Orthonormal discrete Haar transform of a length-2^L signal.

    Output layout mirrors the atom enumeration: slot 0 is the scaling
    coefficient and slot 2^j + k the detail at scale j (coarsest j = 0)
    and shift k, for 0 <= j < L.
    """
    x = _as_values(samples)
    n = x.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"signal length must be a power of two, got {n}")
    out = np.empty(n)
    cur = x.copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while cur.size > 1:
        half = cur.size // 2
        even, odd = cur[0::2], cur[1::2]
        out[half : 2 * half] = (even - odd) * inv_sqrt2
        cur = (even + odd) * inv_sqrt2
    out[0] = cur[0]
    return out


def discrete_haar_inverse(coeffs) -> np.ndarray:
    """Inverse of discrete_haar_forward."""
    c = _as_values(coeffs)
    n = c.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"coefficient length must be a power of two, got {n}")
    cur = np.array([c[0]])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    while cur.size < n:
        half = cur.size
        detail = c[half : 2 * half]
        nxt = np.empty(2 * half)
        nxt[0::2] = (cur + detail) * inv_sqrt2
        nxt[1::2] = (cur - detail) * inv_sqrt2
        cur = nxt
    return cur
