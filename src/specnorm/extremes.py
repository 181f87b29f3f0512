"""Extreme-value side of the Gaussian circulant norm.

Contains the aspect-ratio-dependent location shift of the limiting shifted
Gumbel law, its CDF/quantile, the square-root quantile transform used to
compare against scaled norms, and the computable lower-bound statistic
built from the half DFT diagonal of one Gaussian circulant draw. Its quadratic
forms share one Fejer-kernel weight sequence, a finite trigonometric sum
whose spectrum is exactly a triangle, so no transform of it is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dft import circular_convolve
from .structured import projection_entry

__all__ = [
    "GumbelModel",
    "BStatistic",
    "ProbeCheck",
    "DominanceReport",
    "theta_c",
    "gumbel_model",
    "gumbel_cdf",
    "gumbel_quantile",
    "g_c_quantile",
    "b_statistic",
    "dominance_check",
]


@dataclass(frozen=True)
class GumbelModel:
    """Location shift and aspect ratio of the shifted Gumbel limit."""

    theta: float
    c: float

    def __post_init__(self):
        if not 0 < self.c <= 1:
            raise ValueError(f"aspect ratio must lie in (0, 1], got {self.c}")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")


@lru_cache(maxsize=512)
def theta_c(c: float) -> float:
    """Location shift theta(c) = -2 sum_{j>=1} log(1 - (sin(c pi j)/(c pi j))^2).

    For c = p/n in lowest terms, sin^2(pi c j) depends only on j mod n; the
    class j = 0 adds nothing. Writing j = kn + r, the class of r sums over k
    by Euler's sine product

        prod_{k in Z} (1 - x^2/(k + y)^2) = 1 - sin^2(pi x)/sin^2(pi y)

    at y = r/n and x = s_r = |sin(pi p r/n)|/(pi p), so

        theta(p/n) = -sum_{r=1}^{n-1} log(1 - sin^2(pi s_r)/sin^2(pi r/n)),

    n - 1 terms and no truncation. c is read as the fraction p/n with
    n <= 2^20 that rounds to it; any other c is refused with ValueError.
    Every angle is reduced to [0, pi/2] in integers (p r mod n, then
    min(k, n - k) and min(r, n - r)), so the sum is exact up to rounding.
    """
    if not 0 < c <= 1:
        raise ValueError(f"aspect ratio must lie in (0, 1], got {c}")
    from fractions import Fraction  # here, so that importing the package does not load it

    frac = Fraction(c).limit_denominator(2**20)
    if float(frac) != c:
        raise ValueError(f"theta(c) needs c = p/n with n <= 2^20 in lowest terms, got c={c!r}")
    p, n = frac.numerator, frac.denominator
    r = np.arange(1, n, dtype=np.int64)
    k = p * r % n
    s = np.sin(np.pi * np.minimum(k, n - k) / n) / (np.pi * p)
    ratio_sq = (np.sin(np.pi * s) / np.sin(np.pi * np.minimum(r, n - r) / n)) ** 2
    return float(np.sum(-np.log1p(-ratio_sq)))


def gumbel_model(c: float) -> GumbelModel:
    return GumbelModel(theta=theta_c(c), c=c)


def gumbel_cdf(x, model: GumbelModel):
    """CDF exp(-e^{-(x - theta)}); accepts scalars or arrays."""
    return np.exp(-np.exp(-(np.asarray(x, dtype=float) - model.theta)))


def gumbel_quantile(q: float, model: GumbelModel) -> float:
    """Inverse CDF theta - log(-log q) on (0, 1)."""
    if not 0 < q < 1:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return model.theta - math.log(-math.log(q))


def g_c_quantile(q: float, c: float, n: int) -> float:
    """Quantile of sqrt((shifted Gumbel + log(n/2)) / log n) at level q.

    This is the distribution the scaled circulant norm is compared against;
    a negative radicand (possible far in the lower tail) raises instead of
    propagating a NaN.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    model = gumbel_model(c)
    radicand = (gumbel_quantile(q, model) + math.log(n / 2.0)) / math.log(n)
    if radicand < 0:
        raise ValueError(
            f"quantile transform undefined at q={q}: radicand {radicand} is negative"
        )
    return math.sqrt(radicand)


@lru_cache(maxsize=8)
def _kernel_spectrum(p: int, n: int) -> np.ndarray:
    """Half spectrum of the weights of the quadratic forms, cached read-only.

    The weights w[k] = sin^2(pi k p / n) / (p sin^2(pi k / n)), w[0] = p
    (:func:`kernel_from_projection`), are the Fejer kernel
    sum_{|m|<p} (1 - |m|/p) e^{2 pi i m k / n}. Their DFT at s = 0..n/2 keeps
    the terms m = s and m = s - n, so it is exactly the triangle
    n (max(0, 1 - s/p) + max(0, 1 - (n - s)/p)), formed from integers with
    one rounding.
    """
    s = np.arange(n // 2 + 1)
    spectrum = (np.maximum(p - s, 0) + np.maximum(s - (n - p), 0)) * n / p
    spectrum.flags.writeable = False
    return spectrum


@dataclass(frozen=True)
class BStatistic:
    value: np.ndarray  # max quadratic form divided by p
    argmax_j: np.ndarray


def b_statistic(half, p: int, n: int) -> BStatistic:
    """Lower-bound statistic for the squared norm of a Gaussian circulant draw,
    for each row of a stack of half DFT diagonals, shape (..., n//2 + 1).

    Evaluates all n quadratic forms as one circular convolution of |diag|^2,
    the even mirror of |half|^2, with the fixed Fejer kernel, whose spectrum
    is a closed-form triangle (O(n log n)), then maximizes over j = 0..n/2;
    forms at j and n-j coincide. Every operation acts on each row alone, so
    a row's statistic is bit-identical to its own call. Both fields have the
    stack's leading shape.
    """
    h = np.asarray(half)
    if h.ndim == 0:
        raise ValueError("half must hold at least one axis, got a scalar")
    if n % 2 != 0:
        raise ValueError(f"even embedding size required, got n={n}")
    if h.shape[-1] != n // 2 + 1:
        raise ValueError(f"a half spectrum of n={n} has {n // 2 + 1} entries, got {h.shape[-1]}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    power = np.abs(h)
    power *= power
    power = np.concatenate((power, power[..., -2:0:-1]), axis=-1)
    forms = circular_convolve(_kernel_spectrum(p, n), power, n)[..., : n // 2 + 1]
    return BStatistic(value=np.max(forms, axis=-1) / p, argmax_j=np.argmax(forms, axis=-1))


@dataclass(frozen=True)
class ProbeCheck:
    x: float
    empirical_cdf: float
    gumbel_cdf: float
    diff: float
    flag: bool


@dataclass(frozen=True)
class DominanceReport:
    probes: tuple[ProbeCheck, ...]
    n_samples: int

    @property
    def violations(self) -> int:
        return sum(1 for row in self.probes if row.flag)


_DOMINANCE_SAMPLES = 500  # fewest samples a dominance check runs on


def dominance_check(samples, model: GumbelModel) -> DominanceReport | None:
    """One-sided stochastic-dominance check of samples against the model at
    its 0.05, 0.25, 0.5, 0.75 and 0.95 quantiles, or None below 500 samples.

    Dominance predicts the empirical CDF stays at or below the shifted
    Gumbel CDF, so a probe is flagged only when the empirical value exceeds
    the model by more than 3 binomial standard errors.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    m = s.size
    if m < _DOMINANCE_SAMPLES:
        return None
    rows = []
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        x = gumbel_quantile(q, model)
        emp = float(np.searchsorted(s, x, side="right")) / m
        ref = float(gumbel_cdf(x, model))
        se = math.sqrt(ref * (1.0 - ref) / m)
        diff = emp - ref
        rows.append(
            ProbeCheck(x=x, empirical_cdf=emp, gumbel_cdf=ref, diff=diff, flag=diff > 3.0 * se)
        )
    return DominanceReport(probes=tuple(rows), n_samples=m)


def kernel_from_projection(p: int, n: int) -> np.ndarray:
    """Weights of the quadratic forms in :func:`b_statistic`, the inverse DFT
    of :func:`_kernel_spectrum`, assembled entry-wise (cross-check path)."""
    return np.array(
        [n * n / p * abs(projection_entry(p, n, 0, k)) ** 2 for k in range(n)]
    )
