"""Orthonormal type-II cosine dictionary on the dyadic grid.

Used to contrast a Fourier-type dictionary against Haar on the same sampled
paths: dict-compare reads schemes.errors_discrete_rows on dct2_forward rows
and divides by the grid size, so the errors live on the same scale as the
continuum mean squared errors.

The transform is Makhoul's (J. Makhoul, "A fast cosine transform in one and
two dimensions", IEEE Trans. ASSP 28(1), 1980): a length-n DCT-II is one
real FFT of the reordered signal v (the even samples, then the odd samples
reversed), whose bin k, turned by exp(-i pi k / 2n) and scaled, holds
coefficient k in its real part and coefficient n - k in its negated
imaginary part. Every row goes through its own 1-D FFT, so a row of a
2-D call has the bits of its own 1-D call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # loaded at import, not inside the first transform

from .haar import dyadic_rows

__all__ = ["DctCoeffs", "dct2_forward"]


@dataclass(frozen=True, eq=False)
class DctCoeffs:
    """Orthonormal DCT-II coefficients of a length-2^L signal, or of every
    row of a (..., 2^L) array along its last axis."""

    values: np.ndarray
    grid_log2: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 0 or values.shape[-1] != 2**self.grid_log2:
            raise ValueError(
                f"expected {2 ** self.grid_log2} coefficients per row for grid_log2="
                f"{self.grid_log2}, got shape {values.shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@lru_cache(maxsize=8)
def _twiddle(n: int) -> np.ndarray:
    """a_k exp(-i pi k / 2n) for k = 0 .. n/2, with the orthonormal scale
    a_0 = sqrt(1/n) and a_k = sqrt(2/n); read-only, as it is shared."""
    k = np.arange(n // 2 + 1)
    twiddle = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n)) * np.exp(-0.5j * np.pi * k / n)
    twiddle.setflags(write=False)
    return twiddle


def _dct2(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    h = n // 2
    # the reordered signal is freed once the FFT has read it
    y = np.fft.rfft(np.concatenate((x[..., ::2], x[..., 1::2][..., ::-1]), axis=-1), axis=-1)
    y *= _twiddle(n)
    out = np.empty(x.shape)
    out[..., : h + 1] = y.real
    np.negative(y.imag[..., h - 1 : 0 : -1], out=out[..., h + 1 :])
    return out


def dct2_forward(samples) -> DctCoeffs:
    """Orthonormal DCT-II of a power-of-two grid of samples, or of every
    row of a (..., 2^L) array along its last axis."""
    values, grid_log2 = dyadic_rows(samples, "signal")
    return DctCoeffs(values=_dct2(values), grid_log2=grid_log2)
