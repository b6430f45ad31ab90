"""Exact rational evaluation of the closed-form intersection statistics.

Everything here is big-integer / rational arithmetic (``fractions.Fraction``);
floats appear only as round-to-nearest conveniences attached to exact values,
and as the large-degree series limits of ``metric_series_limits``, which are
closed-form sums evaluated in ``cmath``, not rationals.
The mean's formula is written once, in ``mean_intersections_range``, which
walks a range of degrees with lambda_sq and mu as running sums and the
factorial part as a running ratio, one small exact factor per degree;
``mean_intersections_exact`` is its one-degree call.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

__all__ = [
    "MeanValue",
    "BallVolume",
    "SobolevLimitReport",
    "check_order",
    "tau",
    "mu",
    "lambda_sq",
    "ball_volume_even",
    "mean_intersections_exact",
    "mean_intersections_range",
    "asymptote_ratio",
    "metric_series_limits",
    "sobolev_limit_report",
]


def check_order(r) -> int:
    """Validate a Sobolev smoothness order (any non-negative integer)."""
    r = operator.index(r)
    if r < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {r}")
    return r


def check_degree(N) -> int:
    N = operator.index(N)
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    return N


def tau(j, r=0) -> int:
    """Frequency weight 1 + j^2 + ... + j^(2r); equals 1 when r = 0."""
    j = operator.index(j)
    if j < 1:
        raise ValueError(f"frequency index must be >= 1, got {j}")
    r = check_order(r)
    jsq = j * j
    return sum(jsq**q for q in range(r + 1))


@lru_cache(maxsize=None)
def mu(N, r=0) -> Fraction:
    """Effective dimension count 1 + 2*sum_{j<=N} 1/tau(j); equals 2N+1 at r=0.

    Memoized: the chain reads it at every quadrature node."""
    N = check_degree(N)
    r = check_order(r)
    return Fraction(1) + 2 * sum((Fraction(1, tau(j, r)) for j in range(1, N + 1)), Fraction(0))


@lru_cache(maxsize=None)
def lambda_sq(N, r=0) -> Fraction:
    """Squared norm of the initial-velocity functional: sum_{j<=N} j^2/tau(j).

    At r=0 this is the square pyramidal number 1 + 4 + ... + N^2. Memoized,
    as mu is.
    """
    N = check_degree(N)
    r = check_order(r)
    return sum((Fraction(j * j, tau(j, r)) for j in range(1, N + 1)), Fraction(0))


class BallVolume(NamedTuple):
    """Unit-ball volume in an even dimension 2k, kept as coeff * pi**pi_power."""

    coeff: Fraction
    pi_power: int

    def approx(self) -> float:
        return float(self.coeff) * math.pi**self.pi_power

    def log(self) -> float:
        """log of the volume, safe for dimensions where the float underflows."""
        return (
            math.log(self.coeff.numerator)
            - math.log(self.coeff.denominator)
            + self.pi_power * math.log(math.pi)
        )


def ball_volume_even(k) -> BallVolume:
    """Volume pi^k / k! of the unit ball in dimension 2k."""
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"half-dimension must be >= 1, got {k}")
    return BallVolume(Fraction(1, factorial(k)), k)


@dataclass(frozen=True)
class MeanValue:
    """An exact rational together with its round-to-nearest double."""

    exact: Fraction
    approx: float

    @classmethod
    def from_exact(cls, value: Fraction) -> "MeanValue":
        # int/int true division is correctly rounded for arbitrary precision,
        # so this never overflows even when numerator/denominator do.
        return cls(value, value.numerator / value.denominator)


def mean_intersections_range(lo, hi, r=0):
    """Yield (N, mean_intersections_exact(N, r)) for N = lo, lo + 1, ..., hi.

    The mean is R_N * lambda_sq(N, r) * (2N+1) / mu(N, r) with the factorial
    part

        R_N = 2^(8N+3) * ((2N)!)^4 / ((4N+1)!)^2.

    lambda_sq and mu are carried as running sums, one term each per degree.
    R is built from the factorials once, at N = lo, so a one-degree call
    costs what the formula does; each later degree multiplies it by

        R_N / R_(N-1) = 2^8 * ((2N-1)(2N))^4 / ((4N-2)(4N-1)(4N)(4N+1))^2
                      = ((4N-2)(4N) / ((4N-1)(4N+1)))^2,

    using (2N-1)(2N) = (4N-2)(4N)/4, whose 4^4 cancels the 2^8. That step
    has small numerator and denominator, so it only takes gcds against small
    integers. Fractions are kept normalized, so each value is the same
    rational as the formula on the factorials, lambda_sq(N, r) and mu(N, r)
    gives, and MeanValue.from_exact rounds it the same way.
    """
    lo, hi, r = check_degree(lo), check_degree(hi), check_order(r)
    lam, mu_N = Fraction(0), Fraction(1)  # lambda_sq(N, r) and mu(N, r) at N = 0
    for N in range(hi + 1):
        if N:
            t = tau(N, r)
            lam += Fraction(N * N, t)
            mu_N += Fraction(2, t)
        if N == lo:
            R = Fraction(2 ** (8 * N + 3) * factorial(2 * N) ** 4, factorial(4 * N + 1) ** 2)
        elif N > lo:
            R *= Fraction((4 * N - 2) * 4 * N, (4 * N - 1) * (4 * N + 1)) ** 2
        if N >= lo:
            yield N, MeanValue.from_exact(R * lam * (2 * N + 1) / mu_N)


def mean_intersections_exact(N, r=0) -> MeanValue:
    """Expected number of crossings of two independent uniform draws from the
    unit ball of the order-r metric:

        2^(8N+3) * lambda_sq(N,r) * ((2N)!)^4 * (2N+1) / (mu(N,r) * ((4N+1)!)^2)

    At r=0 the factor (2N+1)/mu(N) is 1 and the value reduces to the plain
    L2 formula. This is the one-degree call of mean_intersections_range,
    where the formula is written; it builds the factorials once and takes
    no step.
    """
    return next(mean_intersections_range(N, N, r))[1]


def asymptote_ratio(N) -> float:
    """Exact mean divided by (pi/3) N^2; tends to 1 as the degree grows."""
    N = check_degree(N)
    if N < 1:
        raise ValueError("asymptote ratio needs N >= 1")
    return mean_intersections_exact(N, 0).approx / ((math.pi / 3.0) * N * N)


def metric_series_limits(r) -> tuple[float, float]:
    """Limits lambda_inf and mu_inf of lambda_sq(N, r) and mu(N, r) as N grows
    (r >= 2), summed in closed form.

    With x = j^2, tau(j, r) = 1 + x + ... + x^r = (x^(r+1) - 1)/(x - 1), whose
    roots are the (r+1)-th roots of unity w_k = exp(2 pi i k/(r+1)), k = 1..r.
    So 1/tau = sum_k c_k/(x - w_k), with the residue

        c_k = 1/tau'(w_k) = (w_k - 1)/((r+1) w_k^r) = w_k (w_k - 1)/(r+1).

    For r >= 2, x/tau(x) -> 0, so sum_k c_k = 0, and x/(x - w) = 1 + w/(x - w)
    gives x/tau = sum_k c_k w_k/(x - w_k). Summing over j >= 1 through

        S(w) = sum_{j>=1} 1/(j^2 - w) = 1/(2w) - pi cot(pi sqrt(w))/(2 sqrt(w))

    gives lambda_inf = sum_k c_k w_k S(w_k) and mu_inf = 1 + 2 sum_k c_k S(w_k).
    The w_k come in conjugate pairs, so both sums are real; the float result
    is their real part, within about 1e-14 relative of the exact sums up to
    r = 200. (A residue taken as a product over the other roots loses a digit
    at large r.)
    """
    r = check_order(r)
    if r < 2:
        raise ValueError("the series limits require r >= 2")
    lam_inf = mu_sum = 0j
    for k in range(1, r + 1):
        w = cmath.exp(2j * math.pi * k / (r + 1))
        root = cmath.sqrt(w)
        s = 1 / (2 * w) - math.pi / (2 * root * cmath.tan(math.pi * root))
        c = w * (w - 1) / (r + 1)
        lam_inf += c * w * s
        mu_sum += c * s
    return lam_inf.real, 1.0 + 2.0 * mu_sum.real


@dataclass(frozen=True)
class SobolevLimitReport:
    """Large-degree behaviour of the mean at a fixed order r >= 1.

    candidate_limit is the exact large-degree limit 2*pi*lambda_inf/mu_inf
    of metric_series_limits (None at r = 1, where the mean grows linearly);
    the two ratio fields compare it with 2*pi/r^2 and 2*pi/(r+1).
    """

    r: int
    rows: tuple[tuple[int, MeanValue], ...]
    candidate_limit: float | None
    ratio_vs_2pi_over_r_sq: float | None
    ratio_vs_2pi_over_r_plus_1: float | None


def sobolev_limit_report(r, N_list) -> SobolevLimitReport:
    """Tabulate the exact mean over N_list and, for r >= 2, its exact limit
    2*pi*lambda_inf/mu_inf with its ratios against 2*pi/r^2 and 2*pi/(r+1).
    The rows come from one walk of mean_intersections_range from the first
    listed degree to the last.

    The limit is pi at r = 2 and 2*pi/(r+3) * (1 + O(r 4^-r)) at large r, so
    neither ratio tends to 1. At r = 1, mean/N tends to 2*tanh(pi).
    """
    r = check_order(r)
    if r == 0:
        raise ValueError("the r=0 mean grows quadratically; no finite limit")
    ns = [check_degree(N) for N in N_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("N_list must be non-empty and strictly ascending")
    rows = tuple(row for row in mean_intersections_range(ns[0], ns[-1], r) if row[0] in ns)
    if r >= 2:
        lam_inf, mu_inf = metric_series_limits(r)
        limit = 2.0 * math.pi * lam_inf / mu_inf
        ratio_rsq = limit / (2.0 * math.pi / r**2)
        ratio_rp1 = limit / (2.0 * math.pi / (r + 1))
    else:
        limit = ratio_rsq = ratio_rp1 = None
    return SobolevLimitReport(r, rows, limit, ratio_rsq, ratio_rp1)
