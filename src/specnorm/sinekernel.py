"""Limiting constant of the scaled Toeplitz norm via banded convolution matrices.

The constant for aspect ratio p/n is obtained from the bilinear problem

    I(p, n) = max ||v * w||_2  over unit coefficient vectors v (length p)
              and w (length n),

where ``*`` is full polynomial convolution. The maximizer is a fixed
point of an alternation: with one argument frozen, the optimal other
argument is the right principal singular vector of the banded convolution
matrix built from the frozen one. The estimate of the constant is
I / sqrt(p), with the rigorous two-sided bracket

    sqrt(I^2/p - 1/(3p))  <=  constant  <=  I / sqrt(p).

Convolution matrices are never materialized. The Gram matrix W^T W of the
convolution matrix W of a frozen vector is the Toeplitz matrix of that
vector's autocorrelation, so each inner Lanczos step is one FFT circular
convolution (`specnorm.dft`) with a kernel spectrum taken once per solve.

Every estimate starts cold, from flat unit vectors, and converges in a few
sweeps; a table over a ratio grid is one such estimate per ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import autocorrelate, circular_convolve, convolve_full, fast_length, half_spectrum
from .norms import gram_lanczos

__all__ = [
    "ExtremalPair",
    "KEstimate",
    "SingularPair",
    "principal_right_singular",
    "k_estimate",
    "k_lower_bound",
    "k_table",
    "i_value_direct",
]

_EPS = float(np.finfo(float).eps)
# cap on the alternation sweeps of one estimate
_OUTER_MAX = 5000


@dataclass(frozen=True)
class ExtremalPair:
    """Unit coefficient vectors of the two extremal polynomials."""

    w: np.ndarray  # length n
    v: np.ndarray  # length p


@dataclass(frozen=True)
class KEstimate:
    p: int
    n: int
    ratio: float
    i_value: float
    k_value: float
    bracket_lo: float
    bracket_hi: float
    outer_iterations: int
    converged: bool


@dataclass(frozen=True)
class SingularPair:
    vector: np.ndarray
    sigma: float
    iterations: int
    converged: bool


def _gram_operator(w: np.ndarray, cols: int):
    """The map x -> W^T W x for the banded convolution matrix W of w, on a
    stack of length-`cols` rows.

    W^T W is the symmetric Toeplitz matrix of w's autocorrelation at lags
    -(K-1)..K-1, K = min(len(w), cols). Those lags sit in an even circular
    kernel of size m >= cols + K - 1, where no wrapped lag reaches the
    cols x cols window, so one circular convolution applies the matrix.
    """
    r = autocorrelate(w)
    lead = w.size - 1  # index of lag 0
    k = min(w.size, cols)
    m = fast_length(cols + k - 1)
    kernel = np.zeros(m)
    kernel[:k] = r[lead : lead + k]
    kernel[m - k + 1 :] = r[lead + 1 : lead + k][::-1]
    spectrum = half_spectrum(kernel, m)
    return lambda x: circular_convolve(spectrum, x, m)[:, :cols]


def _fix_sign(u: np.ndarray) -> np.ndarray:
    # make the first non-negligible coordinate positive so iterates compare
    nz = np.flatnonzero(np.abs(u) > 1e-14)
    if nz.size and u[nz[0]] < 0:
        return -u
    return u


def principal_right_singular(
    w,
    cols: int,
    tol: float = 1e-12,
    start: np.ndarray | None = None,
) -> SingularPair:
    """Top right singular pair of the banded convolution matrix W of w.

    Runs the Lanczos core :func:`specnorm.norms.gram_lanczos`, as a block
    of one row, on the cols x cols Gram matrix W^T W. That matrix is the
    Toeplitz matrix of w's autocorrelation; each step applies it by one
    circular convolution with a kernel spectrum taken once per call, and
    neither matrix is ever formed. The result is converged once the Ritz
    residual is at most ``tol * sigma^2`` (tol clamped as there);
    `iterations` counts Krylov steps (at most `cols`). `start` lets the
    alternation warm-start from the previous iterate; the default start is
    a fixed pseudo-random vector. (The Gram matrix is persymmetric, so a
    structured start such as all-ones spans only flip-even Krylov vectors
    and can miss a flip-odd principal vector.)
    """
    if cols < 1:
        raise ValueError("cols must be at least 1")
    wv = np.asarray(w, dtype=float)
    if start is None:
        u = np.random.Generator(np.random.Philox(key=0x5EED)).standard_normal(cols)
    else:
        u = np.asarray(start, dtype=float)
        if u.shape != (cols,):
            raise ValueError(f"start vector must have length {cols}")
    gram = _gram_operator(wv, cols)
    top = gram_lanczos(lambda x, rows: gram(x), u[None], tol, cols)
    return SingularPair(
        vector=_fix_sign(top.vectors[0]),
        sigma=math.sqrt(top.values[0]),
        iterations=int(top.steps[0]),
        converged=bool(top.converged[0]),
    )


def _bracket_lo(i_value: float, p: int) -> float:
    return math.sqrt(max(i_value**2 / p - 1.0 / (3.0 * p), 0.0))


def k_estimate(p: int, n: int, outer_tol: float = 1e-13) -> tuple[KEstimate, ExtremalPair]:
    """Alternating maximization of the product-polynomial norm.

    Starting from vectors proportional to ones, alternately replaces w by
    the principal right singular vector of the convolution matrix of v,
    then v by that of the matrix of w, until the singular value changes by
    at most `outer_tol` between sweeps (at most `_OUTER_MAX` sweeps). The
    default tolerance sits above the double-precision noise floor of the
    singular value, which the stopping rule also guards against explicitly.
    """
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    w = np.full(n, 1.0 / math.sqrt(n))
    v = np.full(p, 1.0 / math.sqrt(p))

    inner_tol = outer_tol / 10.0
    i_prev = None
    i_val = 0.0
    converged = False
    sweeps = 0
    inner_ok = True
    for sweeps in range(1, _OUTER_MAX + 1):
        rw = principal_right_singular(v, n, tol=inner_tol, start=w)
        w = rw.vector
        rv = principal_right_singular(w, p, tol=inner_tol, start=v)
        v = rv.vector
        i_val = rv.sigma
        inner_ok = rw.converged and rv.converged
        if i_prev is not None and abs(i_val - i_prev) <= max(outer_tol, 16.0 * _EPS * i_val):
            converged = inner_ok
            break
        i_prev = i_val

    k_val = i_val / math.sqrt(p)
    est = KEstimate(
        p=p,
        n=n,
        ratio=p / n,
        i_value=i_val,
        k_value=k_val,
        bracket_lo=_bracket_lo(i_val, p),
        bracket_hi=k_val,
        outer_iterations=sweeps,
        converged=converged,
    )
    return est, ExtremalPair(w=w, v=v)


def k_lower_bound(p: int, n: int) -> float:
    """Explicit lower bound sqrt(1 - p/(3n)) from triangular test sequences."""
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    return math.sqrt(1.0 - p / (3.0 * n))


def i_value_direct(pair: ExtremalPair) -> float:
    """Norm of the product polynomial of a unit pair, straight from convolution."""
    w = np.asarray(pair.w, dtype=float)
    v = np.asarray(pair.v, dtype=float)
    for name, u in (("w", w), ("v", v)):
        if abs(np.linalg.norm(u) - 1.0) > 1e-9:
            raise ValueError(f"{name} must have unit norm")
    return float(np.linalg.norm(convolve_full(v, w)))


def k_table(
    ratios,
    p_base: int,
    *,
    outer_tol: float = 1e-13,
    p_step: int | None = None,
) -> list[KEstimate]:
    """Estimates of the limiting constant on a grid of aspect ratios.

    Each ratio r in (0, 1] must give an integral row count p = r * p_base;
    its row is the cold ``k_estimate(p, p_base)``. Rows are returned in
    descending ratio, one per distinct row count. `p_step` is accepted and
    ignored: it set the step of a continuation that no longer runs, and
    stays only while the benchmark's `ktable` workload still passes it.
    """
    if p_base < 1:
        raise ValueError("p_base must be positive")
    counts: set[int] = set()
    for r in ratios:
        if not 0 < r <= 1:
            raise ValueError(f"ratios must lie in (0, 1], got {r}")
        pr = r * p_base
        pi = round(pr)
        if abs(pr - pi) > 1e-9 or pi < 1:
            raise ValueError(f"ratio {r} does not give an integral row count at p_base={p_base}")
        counts.add(pi)
    return [k_estimate(p, p_base, outer_tol=outer_tol)[0] for p in sorted(counts, reverse=True)]
