"""Haar basis bookkeeping on [0, 1] and exact wavelet coefficients of
piecewise-constant paths.

A coefficient of a compound Poisson path is a finite sum over its jumps:
integrating the path against a Haar atom by parts turns the step path into
a sum of point evaluations of a piecewise-linear "jump weight" kernel at
the jump locations. That makes every coefficient exact, and makes the
zero/nonzero structure purely combinatorial: a coefficient vanishes exactly
when no jump lands in the atom's support, so zero detection never touches a
floating-point threshold. Float jump times are dyadic rationals, so the
nonzero coefficients are also finitely many: `ladders` lists them all for
a block of paths in one vectorized pass over every path's (scale, jump)
cells, path-major, and `ladder` is its one-path view. The dense listing up
to scale J is schemes.select(path, "linear", 2**(J + 1)).

Atoms are enumerated by a single index: 0 for the scaling function, and
2^j + k for the wavelet at scale j >= 0 and shift 0 <= k < 2^j.
"""

from __future__ import annotations

import itertools
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
    "Ladders",
    "ladder",
    "ladders",
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


class Ladders(NamedTuple):
    """The ladders of a block of paths laid end to end, path-major: path p's
    atoms are rows bounds[p]:bounds[p + 1] of the atom arrays, in atom-index
    order, and resolution[p] is its dyadic resolution."""

    resolution: np.ndarray
    bounds: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    value: np.ndarray
    count: np.ndarray


# per-scale factors of the ladder kernel: 2^j exactly, and the wavelet
# amplitude -2^(-j/2) as `-(2.0 ** (-j / 2.0))` rounds it
_POW2 = np.array([math.ldexp(1.0, j) for j in range(1024)])
_AMPLITUDE = np.array([-(2.0 ** (-j / 2.0)) for j in range(1024)])


def _resolutions(times: np.ndarray, n: list[int]) -> list[int]:
    """The dyadic resolution of each path whose n[p] jump times lie end to
    end in times (0 without jumps), refused past 1023."""
    if not times.size:
        return [0] * len(n)
    # t = bits * 2^(exponent - 53) with a 53-bit integer mantissa; its lowest
    # set bit, 2^(frexp exponent - 1), gives e = 54 - exponent - frexp exponent
    mantissa, exponent = np.frexp(times)
    bits = (mantissa * 2.0**53).astype(np.int64)
    exponent += np.frexp(bits & -bits)[1]
    firsts = list(itertools.accumulate([0] + n[:-1]))
    lowest = iter(np.minimum.reduceat(exponent, [f for f, m in zip(firsts, n) if m]).tolist())
    e = [54 - next(lowest) if m else 0 for m in n]
    if max(e) > 1023:  # t * 2^j overflows at j = 1024
        raise ValueError(
            f"jump times need {max(e)} dyadic scales; a float path can be scaled to at most 1023"
        )
    return e


def ladders(paths, lo: list[int], hi: list[int] | None = None) -> Ladders:
    """The finite coefficient ladders of a block of paths, or only the
    scales lo[p] <= j < hi[p] of path p (hi None: up to its resolution).

    Every jump time is exactly m * 2^-e with m odd; a path's resolution is
    the largest such e. At every scale j >= resolution each jump sits alone
    at the left edge of its own atom, so those coefficients are exactly 0.0
    and the whole ladder, scales [0, e), holds every nonzero coefficient.
    The built scales of a path are [lo, min(hi, e)) for 0 <= lo. Each value
    is the left-to-right sum, in jump order, of height * tent weight, so a
    scale's rows are the same whichever range or block is built.
    """
    n = [p.num_jumps for p in paths]
    times = np.concatenate([p.jump_times for p in paths]) if paths else np.empty(0)
    e = _resolutions(times, n)
    if min(lo, default=0) < 0:
        raise ValueError(f"the lowest scale must be nonnegative, got {min(lo)}")
    hi = [max(a, min(b, r)) for a, b, r in zip(lo, e if hi is None else hi, e)]
    ends = list(itertools.accumulate(m * (j1 - j0) for m, j0, j1 in zip(n, lo, hi)))
    firsts = [0] + ends[:-1]
    blocks = [
        (p, a, b, m, j0, j1) for p, a, b, m, j0, j1 in zip(paths, firsts, ends, n, lo, hi) if b > a
    ]
    # Each path's cells are a (scale, jump) block of one flat array, written
    # through a view. Temporaries are computed in place and freed early.
    cells = ends[-1] if ends else 0
    x = np.empty(cells)
    for p, a, b, m, j0, j1 in blocks:  # t * 2^j, exact
        np.multiply(p.jump_times, _POW2[j0:j1, None], out=x[a:b].reshape(j1 - j0, m))
    k = np.floor(x)
    new = np.empty(cells + 1, dtype=bool)  # past the last cell: the end of the last atom
    new[-1] = True
    np.not_equal(k[1:], k[:-1], out=new[1:-1])  # the shift changes: a new atom
    for p, a, b, m, j0, j1 in blocks:
        new[a:b:m] = True  # and every scale of a path starts one
    edges = np.flatnonzero(new)
    starts = edges[:-1]
    shift = k[starts]
    x -= k  # position u within the atom, exact
    np.subtract(1.0, x, out=k)
    np.minimum(x, k, out=x)
    del k
    for p, a, b, m, j0, j1 in blocks:
        cell = x[a:b].reshape(j1 - j0, m)
        cell *= _AMPLITUDE[j0:j1, None]
        cell *= p.jump_heights
    count = edges[1:] - starts  # each atom's jumps
    # bincount adds each atom's terms in order from 0.0, unlike reduceat; with
    # no atoms at all it returns integers, hence the cast
    atom = np.repeat(np.arange(starts.size), count)
    value = np.bincount(atom, weights=x, minlength=starts.size).astype(float, copy=False)
    del x, atom
    # a path's atoms start at its first cell's; an atom's scale is its row
    bounds = np.searchsorted(edges, firsts + [cells])
    scale = np.empty_like(starts)
    for c, d, a, m, j0 in zip(bounds.tolist(), bounds[1:].tolist(), firsts, n, lo):
        if d > c:  # division by one int is much faster than by an array
            np.floor_divide(starts[c:d] - a, m, out=scale[c:d])
            scale[c:d] += j0
    return Ladders(np.array(e), bounds, scale, shift, value, count)


def ladder(path: CompoundPoissonPath, lo: int = 0, hi: int | None = None) -> Ladder:
    """The path's finite coefficient ladder, or only its scales lo <= j < hi:
    the one-path view of ladders. `resolution` is the path's whatever the
    range."""
    lads = ladders([path], [lo], None if hi is None else [hi])
    return Ladder(int(lads.resolution[0]), *lads[2:])


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


def as_rows(x) -> np.ndarray:
    """x, or its .values, as a float array of rows along the last axis: one
    signal or coefficient list per row, a 1-D array being a single row."""
    values = np.asarray(getattr(x, "values", x), dtype=float)
    if values.ndim == 0:
        raise ValueError("expected an array with at least one axis, got a scalar")
    return values


def dyadic_rows(x, what: str) -> tuple[np.ndarray, int]:
    """as_rows(x) and the log2 of its rows' length, which must be a power
    of two; what names the rows in the error."""
    values = as_rows(x)
    n = values.shape[-1]
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"{what} length must be a power of two, got {n}")
    return values, n.bit_length() - 1


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def discrete_haar_forward(samples) -> np.ndarray:
    """Orthonormal discrete Haar transform of a length-2^L signal, or of
    every row of a (..., 2^L) array along its last axis.

    Output layout mirrors the atom enumeration: slot 0 is the scaling
    coefficient and slot 2^j + k the detail at scale j (coarsest j = 0)
    and shift k, for 0 <= j < L. Each level writes its details straight
    into the output and its sums into one of two scratch buffers, so a
    row's bits do not depend on the rows beside it.
    """
    x, _ = dyadic_rows(samples, "signal")
    out = np.empty(x.shape)
    cur, nxt = x.copy(), np.empty(x.shape[:-1] + (x.shape[-1] // 2,))
    half = x.shape[-1] // 2
    while half:
        even, odd = cur[..., 0 : 2 * half : 2], cur[..., 1 : 2 * half : 2]
        detail, total = out[..., half : 2 * half], nxt[..., :half]
        np.subtract(even, odd, out=detail)
        detail *= _INV_SQRT2
        np.add(even, odd, out=total)
        total *= _INV_SQRT2
        cur, nxt, half = nxt, cur, half // 2
    out[..., 0] = cur[..., 0]
    return out


def discrete_haar_inverse(coeffs) -> np.ndarray:
    """Inverse of discrete_haar_forward on one length-2^L coefficient list."""
    c, _ = dyadic_rows(coeffs, "coefficient")
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
