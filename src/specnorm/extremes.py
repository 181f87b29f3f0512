"""Extreme-value side of the Gaussian circulant norm.

Contains the aspect-ratio-dependent location shift of the limiting shifted
Gumbel law, its CDF/quantile, the square-root quantile transform used to
compare against scaled norms, and the computable lower-bound statistic
built from the DFT diagonal of one Gaussian circulant draw. Its quadratic
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

_CHUNK = 1 << 21


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


# truncation lengths past this many terms are refused; summing this many
# takes about 2.4 s on one Xeon core
_THETA_MAX_TERMS = 2**26


def _theta_terms(c: float, tol: float) -> float:
    """Truncation length J of theta_c at (c, tol); inf past the float range."""
    bound = 3.0 * (c * math.pi) ** 4 * tol
    j = max(10.0 / c, (4.0 / bound) ** (1.0 / 3.0) if bound > 0 else math.inf, 8)
    return math.ceil(j) if j < math.inf else j


def _theta_c_floor(tol: float) -> float:
    """Smallest aspect ratio whose truncation fits in _THETA_MAX_TERMS at tol."""
    cap = _THETA_MAX_TERMS
    c = max(10.0 / cap, (4.0 / (3.0 * tol * cap**3)) ** 0.25 / math.pi)
    while _theta_terms(c, tol) > cap:  # undo rounding in the closed form
        c = math.nextafter(c, math.inf)
    return c


@lru_cache(maxsize=512)
def theta_c(c: float, tol: float = 1e-10) -> float:
    """Location shift theta(c) = -2 sum_{j>=1} log(1 - (sin(c pi j)/(c pi j))^2).

    The sum is truncated at J terms and completed analytically: the linear
    part of the tail has the closed form

        sum_{j>J} (sin(c pi j)/(c pi j))^2 = (1-c)/(2c) - (partial sum),

    so only the quadratic-and-higher remainder needs bounding. Each term
    obeys -log(1-x) - x <= x^2/(1-x) with x <= 1/(c pi j)^2, giving a
    remainder below 2/(3 (c pi)^4 J^3); J is chosen so this is under tol/2.
    J grows like c^(-4/3) tol^(-1/3); past _THETA_MAX_TERMS terms the call
    is refused with ValueError. Accuracy is limited to ~1e-12 by
    double-precision summation.
    """
    if not 0 < c <= 1:
        raise ValueError(f"aspect ratio must lie in (0, 1], got {c}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    big_j = _theta_terms(c, tol)
    if big_j > _THETA_MAX_TERMS:
        floor = _theta_c_floor(tol)
        accepted = (f"the smallest c accepted at this tol is {floor!r}" if floor <= 1
                    else "no c in (0, 1] is accepted at this tol")
        raise ValueError(
            f"theta(c) at c={c}, tol={tol} needs {big_j:.3g} terms, past the cap of "
            f"{_THETA_MAX_TERMS}; {accepted}"
        )

    cpi = c * math.pi
    head = 0.0
    linear = 0.0
    lo = 1
    while lo <= big_j:
        hi = min(lo + _CHUNK - 1, big_j)
        j = np.arange(lo, hi + 1, dtype=float)
        arg = cpi * j
        x = (np.sin(arg) / arg) ** 2
        head += -2.0 * float(np.sum(np.log1p(-x)))
        linear += float(np.sum(x))
        lo = hi + 1

    tail = max((1.0 - c) / (2.0 * c) - linear, 0.0)
    return head + 2.0 * tail


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
    value: float  # max quadratic form divided by p
    argmax_j: int
    centered: float  # value - log(n/2)


def b_statistic(diag, p: int) -> BStatistic:
    """Lower-bound statistic for the squared norm of a Gaussian circulant draw.

    Evaluates all n quadratic forms as one circular convolution of |diag|^2
    with the fixed Fejer kernel, whose spectrum is a closed-form triangle
    (O(n log n)), then maximizes over j = 0..n/2; forms at j and n-j
    coincide because |diag| is even.
    """
    d = np.asarray(diag)
    if d.ndim != 1:
        raise ValueError(f"diag must be one-dimensional, got shape {d.shape}")
    n = d.size
    if n % 2 != 0:
        raise ValueError(f"even embedding size required, got n={n}")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    power = np.abs(d)
    power *= power
    forms = circular_convolve(_kernel_spectrum(p, n), power, n)
    half = forms[: n // 2 + 1]
    j = int(np.argmax(half))
    value = float(half[j] / p)
    return BStatistic(value=value, argmax_j=j, centered=value - math.log(n / 2.0))


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


def dominance_check(samples, model: GumbelModel) -> DominanceReport | None:
    """One-sided stochastic-dominance check of samples against the model at
    its 0.05, 0.25, 0.5, 0.75 and 0.95 quantiles, or None below 500 samples.

    Dominance predicts the empirical CDF stays at or below the shifted
    Gumbel CDF, so a probe is flagged only when the empirical value exceeds
    the model by more than 3 binomial standard errors.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    m = s.size
    if m < 500:
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
