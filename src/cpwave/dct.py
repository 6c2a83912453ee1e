"""Orthonormal type-II cosine dictionary on the dyadic grid.

Used to contrast a Fourier-type dictionary against Haar on the same sampled
paths. Discrete squared errors are divided by the grid size so they live on
the same scale as the continuum mean squared errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .processes import SampledPath
from .schemes import errors_discrete

__all__ = ["DctCoeffs", "dct2_forward", "dct2_inverse", "dct_best_m_error"]


@dataclass(frozen=True, eq=False)
class DctCoeffs:
    """Orthonormal DCT-II coefficients of a length-2^L signal."""

    values: np.ndarray
    grid_log2: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.size != 2**self.grid_log2:
            raise ValueError(
                f"expected {2 ** self.grid_log2} coefficients for grid_log2="
                f"{self.grid_log2}, got {values.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _grid_log2_of(samples) -> tuple[np.ndarray, int]:
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    n = values.size
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError(f"signal length must be a power of two, got {n}")
    return values, n.bit_length() - 1


def dct2_forward(samples) -> DctCoeffs:
    """Orthonormal DCT-II of a sampled path (or raw power-of-two array)."""
    values, grid_log2 = _grid_log2_of(samples)
    return DctCoeffs(values=scipy.fft.dct(values, type=2, norm="ortho"), grid_log2=grid_log2)


def dct2_inverse(coeffs: DctCoeffs) -> SampledPath:
    """Inverse of dct2_forward."""
    values, grid_log2 = _grid_log2_of(coeffs)
    return SampledPath(
        values=scipy.fft.idct(values, type=2, norm="ortho"),
        grid_log2=grid_log2,
        process="reconstructed",
    )


def dct_best_m_error(samples, m: int) -> float:
    """Best-M squared error in the cosine dictionary, grid-normalized:
    the sum of all but the M largest squared coefficients, divided by 2^L
    so the number estimates the squared L2([0,1]) error."""
    values, grid_log2 = _grid_log2_of(samples)
    n = values.size
    if not isinstance(m, (int, np.integer)) or not (0 <= m <= n):
        raise ValueError(f"M must be an integer in [0, {n}], got {m}")
    coeffs = scipy.fft.dct(values, type=2, norm="ortho")
    return errors_discrete(coeffs, ("best",), [m])[0][0] / n
