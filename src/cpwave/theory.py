"""Closed-form evaluators for the approximation-error quantities.

Everything here is deterministic arithmetic: the exact linear mean squared
error, the survival law of the minimum jump spacing, the Poisson
expectation of 2^(-M/N) with a certified truncation bound, the two-sided
envelope for the greedy MSE, and integer bounds on the scale at which the
M-th nonzero coefficient appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TheoryPoint",
    "linear_mse",
    "spacing_survival",
    "expected_two_pow",
    "greedy_mse_envelope",
    "nonzero_scale_bounds",
    "tail_energy",
    "expected_nonzero_atoms",
    "poly_weighted_decay",
    "exp_weighted_decay",
    "MAX_ENVELOPE_LAMBDA",
]

MAX_ENVELOPE_LAMBDA = 350.0  # exp(2 * lam) overflows a double soon after this


@dataclass(frozen=True)
class TheoryPoint:
    """Closed-form quantities at one value of M."""

    m: int
    linear_mse: float
    two_pow_mean: float  # E[2^(-M/N)], N ~ Poisson(lam), N=0 contributing 0
    two_pow_tail: float  # certified bound on the truncation remainder
    envelope_lo: float
    envelope_hi: float
    c_lower: float
    c_upper: float


def linear_mse(m: int, sigma0_sq: float) -> float:
    """Exact mean squared error of the linear scheme for a finite-variance
    process: (sigma0^2 / 12) * 2^-J * (2 - m2 / 2^J) with J = floor(log2 M),
    m2 = M - 2^J. Reduces to sigma0^2 / (6M) at dyadic M."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"M must be an integer >= 1, got {m}")
    if not (math.isfinite(sigma0_sq) and sigma0_sq > 0):
        raise ValueError(f"sigma0_sq must be positive, got {sigma0_sq}")
    big_j = m.bit_length() - 1
    rem = m - (1 << big_j)
    return (sigma0_sq / 12.0) * 2.0**-big_j * (2.0 - rem * 2.0**-big_j)


def spacing_survival(n: int, delta: float, interval_length: float = 1.0) -> float:
    """P(minimum spacing >= delta | N = n) = (1 - n * delta / length)^n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not (math.isfinite(interval_length) and interval_length > 0):
        raise ValueError(f"interval_length must be positive, got {interval_length}")
    if not (0.0 <= delta <= interval_length / n):
        raise ValueError(
            f"delta must lie in [0, {interval_length / n}] for n={n}, got {delta}"
        )
    return (1.0 - n * delta / interval_length) ** n


def _poisson_log_pmf(lam: float, n: int) -> float:
    return -lam + n * math.log(lam) - math.lgamma(n + 1)


def expected_two_pow(lam: float, m: int, tol: float = 1e-12) -> tuple[float, float]:
    """E[2^(-M/N)] for N ~ Poisson(lam), with N = 0 contributing nothing for
    M >= 1 (and the whole mass for M = 0, where the answer is exactly 1).

    Returns (value, tail_bound): the series is truncated at the first index
    n* with Chernoff tail exp(lam * (e - 1) - (n* + 1)) <= tol, and that
    bound on the dropped remainder is returned alongside the sum.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"M must be a nonnegative integer, got {m}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    if m == 0:
        return 1.0, 0.0
    n_star = max(1, math.ceil(lam * (math.e - 1.0) - math.log(tol) - 1.0))
    log_m_ln2 = m * math.log(2.0)
    terms = []
    for n in range(1, n_star + 1):
        log_term = _poisson_log_pmf(lam, n) - log_m_ln2 / n
        terms.append(math.exp(log_term))
    tail_bound = math.exp(lam * (math.e - 1.0) - (n_star + 1))
    return math.fsum(terms), tail_bound


def greedy_mse_envelope(
    m: int, lam: float, sigma0_sq: float = 1.0, tol: float = 1e-12
) -> TheoryPoint:
    """Two-sided envelope for the greedy MSE at one M:

        c_lower * E[2^(-M/N)] / M  <=  MSE  <=  c_upper * M * E[2^(-M/N)]

    with c_upper = (2 sigma0^2 / 3 lam)(1 + e^(2 lam)) and
    c_lower = sigma0^2 / (48 e lam (1 + e^(2 lam))).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"M must be an integer >= 1, got {m}")
    if lam > MAX_ENVELOPE_LAMBDA:
        raise ValueError(
            f"lam={lam} exceeds {MAX_ENVELOPE_LAMBDA}: exp(2*lam) overflows double "
            "precision and log-space envelope evaluation is out of scope"
        )
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    if not (math.isfinite(sigma0_sq) and sigma0_sq > 0):
        raise ValueError(f"sigma0_sq must be positive, got {sigma0_sq}")
    growth = 1.0 + math.exp(2.0 * lam)
    c_upper = (2.0 * sigma0_sq / (3.0 * lam)) * growth
    c_lower = sigma0_sq / (48.0 * math.e * lam * growth)
    mean, tail = expected_two_pow(lam, m, tol)
    return TheoryPoint(
        m=m,
        linear_mse=linear_mse(m, sigma0_sq),
        two_pow_mean=mean,
        two_pow_tail=tail,
        envelope_lo=c_lower * mean / m,
        envelope_hi=c_upper * m * mean,
        c_lower=c_lower,
        c_upper=c_upper,
    )


def nonzero_scale_bounds(m: int, n: int, delta: float) -> tuple[int, int]:
    """Integer bounds on the scale at which the m-th structurally nonzero
    coefficient appears, for a path with n >= 1 jumps and minimum spacing
    delta: ceil((m-2)/n) <= scale <= floor((m-1)/n + log2(1/delta))."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"M must be an integer >= 2, got {m}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not (0.0 < delta <= 1.0 / n):
        raise ValueError(f"delta must lie in (0, 1/n] for n={n}, got {delta}")
    lower = max(0, math.ceil((m - 2) / n))
    upper = math.floor((m - 1) / n + math.log2(1.0 / delta))
    return lower, upper


def tail_energy(scale: int, sigma0_sq: float) -> float:
    """Expected coefficient energy strictly beyond the given scale:
    the geometric sum sigma0^2 * 2^-(scale+1) / 6."""
    if not isinstance(scale, int) or scale < 0:
        raise ValueError(f"scale must be a nonnegative integer, got {scale}")
    if not (math.isfinite(sigma0_sq) and sigma0_sq > 0):
        raise ValueError(f"sigma0_sq must be positive, got {sigma0_sq}")
    return sigma0_sq * 2.0 ** -(scale + 1) / 6.0


def expected_nonzero_atoms(lam: float, scales: int) -> float:
    """Mean number of structurally nonzero wavelet coefficients at scales
    0 <= j < scales of a rate-lam path: a Poisson(lam) number of uniform
    jumps occupies on average 2^j (1 - exp(-lam / 2^j)) of the 2^j atoms at
    scale j."""
    return math.fsum(2.0**j * -math.expm1(-lam / 2.0**j) for j in range(scales))


def poly_weighted_decay(lam: float, k: int, m_values) -> list[float]:
    """M^k * E[2^(-M/N)] along m_values; eventually strictly decreasing for
    every fixed k, which is the super-polynomial signature of the decay."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    return [m**k * expected_two_pow(lam, m)[0] for m in m_values]


def exp_weighted_decay(lam: float, alpha: float, m_values) -> list[float]:
    """exp(alpha * M) * E[2^(-M/N)] along m_values; eventually strictly
    increasing for every alpha > 0, the sub-exponential signature."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    out = []
    for m in m_values:
        mean, _ = expected_two_pow(lam, m)
        # combine in log space: exp(alpha * m) alone can overflow long before
        # the weighted product does
        out.append(math.exp(alpha * m + math.log(mean)) if mean > 0.0 else 0.0)
    return out
