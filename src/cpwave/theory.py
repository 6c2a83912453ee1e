"""Closed-form evaluators for the approximation-error quantities.

Everything here is deterministic arithmetic: the exact linear mean squared
error, the survival law of the minimum jump spacing, the Poisson
expectation of 2^(-M/N) with a certified truncation bound, and the
two-sided envelope for the greedy MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .processes import _positive, is_int

__all__ = [
    "TheoryPoint",
    "linear_mse",
    "spacing_survival",
    "expected_two_pow",
    "greedy_mse_envelope",
    "MAX_ENVELOPE_LAMBDA",
]

MAX_ENVELOPE_LAMBDA = 350.0  # exp(2 * lam) overflows a double soon after this


def _integer(name: str, value, least: int) -> int:
    """value as an int; refused unless it is an integer, not a bool, >= least."""
    if not is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


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
    m = _integer("M", m, 1)
    _positive("sigma0_sq", sigma0_sq)
    big_j = m.bit_length() - 1
    rem = m - (1 << big_j)
    return (sigma0_sq / 12.0) * 2.0**-big_j * (2.0 - rem * 2.0**-big_j)


def spacing_survival(n: int, delta: float, interval_length: float = 1.0) -> float:
    """P(minimum spacing >= delta | N = n) = (1 - n * delta / length)^n."""
    n = _integer("n", n, 1)
    _positive("interval_length", interval_length)
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
    _positive("lam", lam)
    m = _integer("M", m, 0)
    _positive("tol", tol)
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
    c_lower = sigma0^2 / (48 e lam (1 + e^(2 lam))). Refused unless both
    constants are positive and finite doubles and neither end is nan.
    """
    m = _integer("M", m, 1)
    if lam > MAX_ENVELOPE_LAMBDA:
        raise ValueError(
            f"lam={lam} exceeds {MAX_ENVELOPE_LAMBDA}: exp(2*lam) overflows double "
            "precision and log-space envelope evaluation is out of scope"
        )
    _positive("lam", lam)
    _positive("sigma0_sq", sigma0_sq)
    growth = 1.0 + math.exp(2.0 * lam)
    c_upper = (2.0 * sigma0_sq / (3.0 * lam)) * growth
    c_lower = sigma0_sq / (48.0 * math.e * lam * growth)
    for name, c in (("c_lower", c_lower), ("c_upper", c_upper)):
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(
                f"envelope constant {name} = {c} at lambda={lam}, sigma0_sq={sigma0_sq} "
                "leaves the positive double range"
            )
    mean, tail = expected_two_pow(lam, m, tol)
    lo, hi = c_lower * mean / m, c_upper * m * mean
    if math.isnan(hi):  # c_upper * M overflows while the mean underflows to 0
        raise ValueError(f"envelope_hi at M={m}, lambda={lam} is inf * 0: out of double range")
    return TheoryPoint(
        m=m,
        linear_mse=linear_mse(m, sigma0_sq),
        two_pow_mean=mean,
        two_pow_tail=tail,
        envelope_lo=lo,
        envelope_hi=hi,
        c_lower=c_lower,
        c_upper=c_upper,
    )
