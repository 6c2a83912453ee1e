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
per build, with no loop or object per path: each jump's start flags are
gathered from a small table, and a running count of them, stepped at
each path's first jump, labels every cell with its atom's place. The
steps come from each path's atom count per scale (`scale_counts`), laid
out once for a whole block of builds (`layout`), so a build pays for its
cells and not for numpy calls per path or scale. `ladder`, its one-path
view, reads each atom's scale, shift and jump count off the structure
too. Every atom off the ladder holds no jump or sits past the
resolution, and its coefficient is exactly 0.0.

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
    # a split is at most 54 + 1073, so int16 holds it in a quarter of the
    # bytes errors_rows keeps through a harness block
    split = np.zeros(times.size, dtype=np.int16)
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


def layout(
    atoms: np.ndarray, counts: np.ndarray, hi: np.ndarray, lead: int = 0, starts=(0,)
) -> tuple[np.ndarray, np.ndarray]:
    """Where ladders puts the values of a block of paths with the given jump
    counts and per-scale atom counts (scale_counts, to the largest hi),
    each built below hi[p], in builds of consecutive paths that begin at
    the paths in starts, each path with jumps led by lead values (its
    scaling coefficient, or none): each path's value count, and, one row
    per path with jumps, the step its first jump adds to its labels at
    each scale j below the largest hi.

    A cell's label is its atom's place in its build's result. Down each
    column the running count of cells that start an atom numbers a scale's
    atoms, and the step moves them to their place: past the path's values
    at lower scales, or, at the scales past hi[p], to bins past the end of
    its build's values, which are dropped. It is taken from the label after
    the path with jumps before it in its build, or from 1 at its build's
    first. The (paths, scale) arrays are made in place, two at a time."""
    held = counts > 0
    within = _SCALES[: atoms.shape[1]] < hi[:, None]
    kept = atoms * within
    sizes = kept.sum(1) + lead * held
    at = _bounds(sizes)
    ends = np.append(starts, counts.size)
    build = np.repeat(np.arange(len(starts)), np.diff(ends))  # each path's
    # each (path, scale)'s first label: the path's values at lower scales
    # come before it, and the bins from its build's end on after
    step = np.cumsum(kept, axis=1)
    step -= kept
    del kept
    step += (at[:-1] + lead - at[ends[:-1]][build])[:, None]
    np.copyto(step, (at[ends[1:]] - at[ends[:-1]])[build, None], where=~within)
    step, after, build = step[held], atoms[held], build[held]
    after += step
    after[:-1][build[1:] != build[:-1]] = 1  # a build's first path steps from 1
    step[1:] -= after[:-1]
    step[:1] -= 1
    return sizes, step


def ladders(
    block: PathBlock, hi: list[int], split: np.ndarray, scaling=None, placed=None
) -> np.ndarray:
    """The values of the scales j < hi[p] of the finite coefficient ladder
    of each path p of a block, path-major and in atom-index order, where
    hi[p] is at most the path's resolution and split is the block's structure.
    Given scaling, the block's scaling coefficients, each path with jumps
    starts with its own, the coefficient of atom 0. Given placed, the bounds
    of each path's values in the result and the build's rows of the step
    of a layout made with its hi and scaling, they are not laid out again.

    Every jump time is exactly m * 2^-e with m odd; a path's resolution is
    the largest such e (see structure). At every scale j >= e each jump
    sits alone at the left edge of its own atom, so those coefficients are
    exactly 0.0 and the whole ladder, scales [0, e), holds every nonzero
    coefficient. At scale j an atom starts at each jump i with split[i] <=
    j and holds the jumps up to the next start. Each value is the
    left-to-right sum, in jump order, of height * tent weight, so a scale's
    values are the same whichever prefix or block is built.

    The block is built as one (jump, scale) array of D columns, D the
    largest hi, each step one pass over it; path p's columns j >= hi[p]
    are built too, and their sums dropped. The tent min(u, 1 - u) of
    t * 2^j is |t * 2^j - rint(t * 2^j)|, exactly. Each jump's start flags
    are its row of a 0/1 table with one row per split value the build
    has; a running count down each column, with the layout's step at each
    path's first jump, labels each cell with its atom's place (layout), and
    one bincount sums each atom there.
    """
    held = block.counts > 0
    d = max(hi, default=0)
    lead = 0 if scaling is None else 1
    if placed is None:
        sizes, step = layout(scale_counts(split, block.counts, d), block.counts, np.array(hi), lead)
        placed = _bounds(sizes), step
    at, step = placed
    size = int(at[-1])
    # t * 2^j and its distance to the nearest integer, both exact
    x = np.multiply(block.times[:, None], _POW2[:d])
    k = np.rint(x)
    x -= k
    np.abs(x, out=x)
    del k  # freed before the labels are made
    x *= _AMPLITUDE[:d]
    x *= block.heights[:, None]
    has = np.bincount(split) > 0  # the split values of the build's jumps
    flags = np.less_equal.outer(np.flatnonzero(has), _SCALES[:d]).astype(np.int64)
    label = np.take(flags, (np.cumsum(has) - 1)[split], axis=0)
    label[block.bounds[:-1][held]] += step[:, :d]
    np.cumsum(label, axis=0, out=label)
    # bincount adds each atom's terms in order from 0.0, unlike reduceat; with
    # no cells at all it returns integers, hence the cast
    values = np.bincount(label.reshape(-1), weights=x.reshape(-1), minlength=size)
    values = values[:size].astype(float, copy=False)
    if lead:
        values[at[:-1][held]] = scaling[held]
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
