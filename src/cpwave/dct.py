"""Orthonormal type-II cosine dictionary on the dyadic grid.

Used to contrast a Fourier-type dictionary against Haar on the same sampled
paths. Discrete squared errors are divided by the grid size so they live on
the same scale as the continuum mean squared errors.

The transform is Makhoul's (J. Makhoul, "A fast cosine transform in one and
two dimensions", IEEE Trans. ASSP 28(1), 1980): a length-n DCT-II is one
real FFT of the reordered signal v (the even samples, then the odd samples
reversed), whose bin k, turned by exp(-i pi k / 2n) and scaled, holds
coefficient k in its real part and coefficient n - k in its negated
imaginary part. The inverse runs the same steps backwards. Every row goes
through its own 1-D FFT, so a row of a 2-D call has the bits of its own
1-D call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # loaded at import, not inside the first transform

from .haar import dyadic_rows
from .processes import SampledPath, is_int
from .schemes import errors_discrete

__all__ = ["DctCoeffs", "dct2_forward", "dct2_inverse", "dct_best_m_error"]


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
    v = np.concatenate((x[..., ::2], x[..., 1::2][..., ::-1]), axis=-1)
    y = np.fft.rfft(v, axis=-1) * _twiddle(n)
    out = np.empty(x.shape)
    out[..., : h + 1] = y.real
    np.negative(y.imag[..., h - 1 : 0 : -1], out=out[..., h + 1 :])
    return out


def dct2_forward(samples) -> DctCoeffs:
    """Orthonormal DCT-II of a sampled path (or raw power-of-two array), or
    of every row of a (..., 2^L) array along its last axis."""
    values, grid_log2 = dyadic_rows(samples, "signal")
    return DctCoeffs(values=_dct2(values), grid_log2=grid_log2)


def dct2_inverse(coeffs: DctCoeffs) -> SampledPath:
    """Inverse of dct2_forward."""
    values, grid_log2 = dyadic_rows(coeffs, "coefficient")
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
    return SampledPath(values=out, grid_log2=grid_log2, process="reconstructed")


def dct_best_m_error(samples, m: int) -> float:
    """Best-M squared error in the cosine dictionary, grid-normalized:
    the sum of all but the M largest squared coefficients, divided by 2^L
    so the number estimates the squared L2([0,1]) error."""
    values, _ = dyadic_rows(samples, "signal")
    n = values.size
    if not is_int(m) or not (0 <= m <= n):
        raise ValueError(f"M must be an integer in [0, {n}], got {m}")
    return errors_discrete(_dct2(values), ("best",), [m])[0][0] / n
