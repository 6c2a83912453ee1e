"""Exact Haar coefficient ladders of piecewise-constant paths on [0, 1],
and the discrete Haar transform of grids.

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
of the scales a caller asks for, path-major, from one (jump, scale) array
per build, with no loop or object per path: one labelling pass, from
each path's atom count per scale (`scale_counts`), puts the atoms
path-major. `ladder`, its one-path view, reads each atom's scale, shift
and jump count off the structure too. Every atom off the ladder holds no
jump or sits past the resolution, and its coefficient is exactly 0.0.

Atoms are enumerated by a single index: 0 for the scaling function, and
2^j + k for the wavelet at scale j >= 0 and shift 0 <= k < 2^j; a ladder
lists its atoms in that order, and the discrete transform lays out its
coefficients so. One atom's coefficient by itself, and the inverse
transform, are test references (tests/reference.py): no run reads them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .processes import CompoundPoissonPath, PathBlock, _bounds

__all__ = [
    "Ladder",
    "ladder",
    "ladders",
    "structure",
    "nonzero_counts_by_scale",
    "discrete_haar_forward",
]


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


def scale_counts(split: np.ndarray, counts: np.ndarray, d: int) -> np.ndarray:
    """Each path's atoms at each scale j < d, #{i : split[i] <= j} over its
    jumps, as a (paths, d) array, for a block of paths with the given jump
    counts and structure split."""
    own = np.repeat(np.arange(0, counts.size * (d + 1), d + 1), counts)
    c = np.bincount(own + np.minimum(split, d), minlength=counts.size * (d + 1))
    return c.reshape(counts.size, d + 1).cumsum(1)[:, :d]


def ladders(
    block: PathBlock, hi: list[int], split: np.ndarray, scaling=None, atoms=None
) -> np.ndarray:
    """The values of the scales j < hi[p] of the finite coefficient ladder
    of each path p of a block, path-major and in atom-index order, where
    hi[p] is at most the path's resolution and split is the block's structure.
    Given scaling, the block's scaling coefficients, each path with jumps
    starts with its own, the coefficient of atom 0. Given atoms, the block's
    scale_counts to at least the largest hi, they are not counted again.

    Every jump time is exactly m * 2^-e with m odd; a path's resolution is
    the largest such e (see structure). At every scale j >= e each jump
    sits alone at the left edge of its own atom, so those coefficients are
    exactly 0.0 and the whole ladder, scales [0, e), holds every nonzero
    coefficient. At scale j an atom starts at each jump i with split[i] <=
    j and holds the jumps up to the next start. Each value is the
    left-to-right sum, in jump order, of height * tent weight, so a scale's
    values are the same whichever prefix or block is built.

    The block is built as one (jump, scale) array of D columns, D the
    largest hi, each step one broadcast over it; path p's columns j >=
    hi[p] are built too, and their sums dropped. Each cell's label is its
    atom's place in the result: a running count of the cells that start
    an atom, down each column, numbers a scale's atoms, and a step added at
    each path's first jump, from the per-(path, scale) atom counts, moves
    them to their place; one bincount sums each atom there.
    """
    held = block.counts > 0
    firsts = block.bounds[:-1][held]  # each starts an atom at every scale
    hi = np.array(hi, dtype=np.int64)
    d = int(hi.max(initial=0))
    c = (scale_counts(split, block.counts, d) if atoms is None else atoms)[held, :d]
    within = _SCALES[:d] < hi[held, None]
    kept = c * within
    lead = 0 if scaling is None else 1
    at = _bounds(kept.sum(1) + lead)  # where each path's values start
    size = int(at[-1])
    # each (path, scale)'s first label: its atoms follow the path's lower
    # scales, and those at scales past hi[p] go to the bins from size on,
    # which are dropped; the step is from the label after the path before
    first = np.where(within, np.cumsum(kept, axis=1) - kept + (at[:-1] + lead)[:, None], size)
    step = first - np.concatenate((np.ones((1, d), dtype=np.int64), (first + c)[:-1]))
    # t * 2^j, exact; its offset u in the atom, exact; the tent min(u, 1 - u)
    x = np.multiply(block.times[:, None], _POW2[:d])
    k = np.floor(x)
    x -= k
    np.subtract(1.0, x, out=k)
    np.minimum(x, k, out=x)
    del k  # freed before the labels are made
    x *= _AMPLITUDE[:d]
    x *= block.heights[:, None]
    label = np.empty(x.shape, dtype=np.int64)
    np.less_equal(split[:, None], _SCALES[:d], out=label)
    label[firsts] += step
    np.cumsum(label, axis=0, out=label)
    # bincount adds each atom's terms in order from 0.0, unlike reduceat; with
    # no cells at all it returns integers, hence the cast
    values = np.bincount(label.reshape(-1), weights=x.reshape(-1), minlength=size)
    values = values[:size].astype(float, copy=False)
    if lead:
        values[at[:-1]] = scaling[held]
    return values


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
