"""Haar basis bookkeeping on [0, 1] and exact wavelet coefficients of
piecewise-constant paths.

A coefficient of a compound Poisson path is a finite sum over its jumps:
integrating the path against a Haar atom by parts turns the step path into
a sum of point evaluations of a piecewise-linear "jump weight" kernel at
the jump locations. That makes every coefficient exact, and makes the
zero/nonzero structure purely combinatorial: a coefficient vanishes exactly
when no jump lands in the atom's support, so zero detection never touches a
floating-point threshold. Float jump times are dyadic rationals, so the
nonzero coefficients are also finitely many: they sit at the scales below
the path's dyadic resolution. Which atoms are occupied follows from the
times alone, and `structure` reads it for a processes.PathBlock. `ladders`
reads where atoms start from that structure and returns only the values
of the scales a caller asks for, in one vectorized pass over every path's
(scale, jump) cells, path-major, with no per-path object; `ladder`, its
one-path view, reads each atom's scale, shift and jump count off the
structure too. Every atom off the ladder holds no jump or sits past the
resolution, and its coefficient is exactly 0.0.

Atoms are enumerated by a single index: 0 for the scaling function, and
2^j + k for the wavelet at scale j >= 0 and shift 0 <= k < 2^j.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .processes import CompoundPoissonPath, PathBlock

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
    "ladders",
    "structure",
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
    atom = Atom.wavelet(j, k)  # validates (j, k)
    ts = _check_unit_interval(t)
    u = ts * 2.0**j - k  # position within the support, in [0, 1)
    inside = (u >= 0.0) & (u < 1.0)
    tent = np.minimum(u, 1.0 - u)
    out = np.where(inside, -(2.0 ** (-j / 2.0)) * tent, 0.0)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def jumps_in_support(path: CompoundPoissonPath, atom: Atom) -> int:
    """Number of jumps inside the atom's half-open support."""
    return coeff(path, atom).jump_count


def coeff(path: CompoundPoissonPath, atom: Atom) -> Coefficient:
    """Exact coefficient of the path against one atom.

    The value is a sum over the jumps in the atom's support only, so it is
    exactly 0.0 whenever that support contains no jump. A jump at t lies in
    the support of atom (j, k) when its exact cell floor(t 2^j) is k.
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
    value = float(math.fsum(heights[a:b] * np.atleast_1d(weights)))
    return Coefficient(atom=atom, value=value, jump_count=b - a)


class Ladder(NamedTuple):
    """The occupied wavelet atoms at the scales a ladder was built for, in
    atom-index order, as parallel arrays; `ladder(path)` builds every scale
    below the path's dyadic resolution, `ladder(path, hi)` only those below
    hi. Shifts are exact integers held as floats, because a shift at scale j
    reaches 2^j."""

    resolution: int
    scale: np.ndarray
    shift: np.ndarray
    value: np.ndarray
    count: np.ndarray


# per-scale factors of the ladder kernel: j, 2^j exactly, and the wavelet
# amplitude -2^(-j/2) as `-(2.0 ** (-j / 2.0))` rounds it
_SCALES = np.arange(1024)
_POW2 = np.array([math.ldexp(1.0, j) for j in range(1024)])
_AMPLITUDE = np.array([-(2.0 ** (-j / 2.0)) for j in range(1024)])


def structure(block: PathBlock) -> tuple[np.ndarray, list[int]]:
    """The atoms a block's paths occupy, from one frexp of their times:
    split[i], the first scale at which jump i leaves the atom of the jump
    before it (0 for a path's first), and each path's dyadic resolution e,
    the largest e with a time an odd multiple of 2^-e (0 without jumps),
    refused past 1023. Path p holds #{i : split[i] <= j} atoms at scale j < e."""
    times, counts = block.times, block.counts
    # t = bits * 2^(x - 53), bits a 53-bit integer: jumps of one x split at the
    # highest bit their bits differ in, else the later (t >= 2^(x-1)) at 1 - x
    mantissa, x = np.frexp(times)
    bits = (mantissa * 2.0**53).astype(np.int64)
    split = np.zeros(times.size, dtype=np.int64)
    split[1:] = np.where(x[1:] == x[:-1], 54 - x[1:] - np.frexp(bits[1:] ^ bits[:-1])[1], 1 - x[1:])
    split[block.bounds[:-1][counts > 0]] = 0
    e = np.zeros(counts.size, dtype=int)
    if times.size:  # the lowest set bit of bits, 2^(frexp exponent - 1), gives e
        x += np.frexp(bits & -bits)[1]
        e[counts > 0] = 54 - np.minimum.reduceat(x, block.bounds[:-1][counts > 0])
    if e.size and e.max() > 1023:  # t * 2^j overflows at j = 1024
        raise ValueError(
            f"jump times need {e.max()} dyadic scales; a float path can be scaled to at most 1023"
        )
    return split, e.tolist()


def ladders(block: PathBlock, hi: list[int], split: np.ndarray) -> np.ndarray:
    """The values of the scales j < hi[p] of the finite coefficient ladder
    of each path p of a block, path-major and in atom-index order, where
    hi[p] is at most the path's resolution and split is the block's structure.

    Every jump time is exactly m * 2^-e with m odd; a path's resolution is
    the largest such e (see structure). At every scale j >= e each jump
    sits alone at the left edge of its own atom, so those coefficients are
    exactly 0.0 and the whole ladder, scales [0, e), holds every nonzero
    coefficient. At scale j an atom starts at each jump i with split[i] <=
    j and holds the jumps up to the next start. Each value is the
    left-to-right sum, in jump order, of height * tent weight, so a scale's
    rows are the same whichever prefix or block is built.
    """
    n = block.counts.tolist()
    ends = list(itertools.accumulate((m * j for m, j in zip(n, hi)), initial=0))
    # path p's jumps are rows s:s + m of the block's arrays, its cells a:b
    rows = block.bounds.tolist()
    blocks = [(s, a, b, m, j) for s, a, b, m, j in zip(rows, ends, ends[1:], n, hi) if b > a]
    times, heights = block.times, block.heights
    # Each path's cells are a (scale, jump) block of one flat array, written
    # through a view. Temporaries are computed in place and freed early.
    x, start = np.empty(ends[-1]), np.empty(ends[-1], dtype=bool)
    for s, a, b, m, j in blocks:  # t * 2^j, exact, and the cells that start an atom
        np.multiply(times[s : s + m], _POW2[:j, None], out=x[a:b].reshape(j, m))
        np.less_equal(split[s : s + m], _SCALES[:j, None], out=start[a:b].reshape(j, m))
    k = np.floor(x)
    x -= k  # position u within the atom, exact
    np.subtract(1.0, x, out=k)
    np.minimum(x, k, out=x)
    del k
    for s, a, b, m, j in blocks:
        cell = x[a:b].reshape(j, m)
        cell *= _AMPLITUDE[:j, None]
        cell *= heights[s : s + m]
    atom = np.cumsum(start)  # each cell's atom, numbered from 1
    # bincount adds each atom's terms in order from 0.0, unlike reduceat; with
    # no cells at all it returns integers, hence the cast
    return np.bincount(atom, weights=x)[1:].astype(float, copy=False)


def ladder(path: CompoundPoissonPath, hi: int | None = None) -> Ladder:
    """The path's finite coefficient ladder, or only its scales j < hi: the
    one-path view of ladders. Its atoms are read off the path's structure:
    at scale j one starts at each jump i with split[i] <= j, at shift
    floor(t_i 2^j), and holds the jumps up to the next start of its scale.
    `resolution` is the path's whatever the prefix."""
    split, (e,) = structure(path.block)
    hi = e if hi is None else max(0, min(hi, e))
    n = path.num_jumps
    scale, first = np.nonzero(split <= _SCALES[:hi, None])
    # each scale starts at the first jump: an atom's jumps run to the next start
    count = np.diff(scale * n + first, append=hi * n)
    shift = np.floor(path.jump_times[first] * _POW2[scale])
    return Ladder(e, scale, shift, ladders(path.block, [hi], split), count)


def nonzero_counts_by_scale(path: CompoundPoissonPath, target: int) -> list[int]:
    """Per-scale counts of structurally nonzero coefficients, starting at
    scale 0, extended until the running total reaches target.

    Scale 0 counts both the scaling atom and the (0, 0) wavelet, matching
    the convention that the coarsest level carries two coefficients.
    """
    n = path.num_jumps
    if n == 0:
        return [0] if target > 0 else []
    split, (e,) = structure(path.block)
    per_scale = np.cumsum(np.bincount(split))[:e].tolist()
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


def dyadic_row(x, what: str) -> tuple[np.ndarray, int]:
    """dyadic_rows(x) of a single row; a block of rows is refused."""
    values, log2 = dyadic_rows(x, what)
    if values.ndim != 1:
        raise ValueError(f"expected one {what} row, got shape {values.shape}")
    return values, log2


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
