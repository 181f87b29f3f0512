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
vector's autocorrelation, whose lags take one FFT circular convolution;
each inner Lanczos step is one more, with a kernel spectrum taken once per
solve, by :func:`specnorm.norms.toeplitz_gram`, the operator the norm
solver also uses for circulant Gram matrices.

Every estimate starts cold, from flat unit vectors, and converges in a few
sweeps; a table over a ratio grid is one such estimate per ratio.

The inner solves stop at the Lanczos core's cap on the relative residual,
:data:`specnorm.norms.TOL_CAP`. That is as accurate as the value needs: a
Ritz value errs by O(residual^2 / gap), and the returned I is the Ritz value
of the p-side solve, whose top eigenvalue is well separated. Warm-started
from the previous sweep's vectors, the last sweep's solves stop after a
step or two, so a converged estimate is a pair certified stationary at the
inner tolerance, not one solved again.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .dft import circular_convolve, fast_length, half_spectrum
from .norms import TOL_CAP, gram_lanczos, toeplitz_gram

__all__ = [
    "ExtremalPair",
    "KEstimate",
    "SingularPair",
    "principal_right_singular",
    "k_estimate",
    "k_table",
]

_log = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)
# cap on the alternation sweeps of one estimate
_OUTER_MAX = 5000
# the sweeps stop once I moves by at most this much (or by its rounding noise)
_SWEEP_TOL = 1e-13


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


def _fix_sign(u: np.ndarray) -> np.ndarray:
    # make the first non-negligible coordinate positive so iterates compare
    nz = np.flatnonzero(np.abs(u) > 1e-14)
    if nz.size and u[nz[0]] < 0:
        return -u
    return u


def _convolution_gram(w: np.ndarray, cols: int):
    """`toeplitz_gram`'s (kernels, apply) for the cols x cols Gram matrix W^T W
    of w's banded convolution matrix W: the Toeplitz matrix of w's lag 0..len(w)-1
    autocorrelation, taken by one circular convolution of w with its reversal."""
    m = fast_length(2 * w.size - 1)
    lags = circular_convolve(half_spectrum(w, m), w[::-1], m)[w.size - 1 : 2 * w.size - 1]
    return toeplitz_gram(lags[None], cols)


def principal_right_singular(w, cols: int, start: np.ndarray) -> SingularPair:
    """Top right singular pair of the banded convolution matrix W of w.

    Runs the Lanczos core :func:`specnorm.norms.gram_lanczos`, as a block
    of one row, on the cols x cols Gram matrix W^T W of the nonempty real
    vector w: the Toeplitz matrix of w's autocorrelation, whose lags and
    each step's product are circular convolutions (:func:`_convolution_gram`),
    so neither matrix is ever formed. The result is converged once the Ritz
    residual is at most ``TOL_CAP * sigma^2``, the core's cap on the relative
    residual; `iterations` counts Krylov steps (at most `cols`). The caller
    picks `start`: the Gram matrix is persymmetric, so a structured start
    such as all-ones spans only flip-even Krylov vectors and can miss a
    flip-odd principal vector. A positive start is safe for a positive w:
    W^T W is then a nonnegative Toeplitz matrix, irreducible once w has two
    entries, with a positive principal vector (Perron-Frobenius).
    """
    if cols < 1:
        raise ValueError("cols must be at least 1")
    wv = np.asarray(w, dtype=float)
    if wv.ndim != 1 or wv.size == 0:
        raise ValueError(f"w must be a nonempty one-dimensional array, got shape {wv.shape}")
    u = np.asarray(start, dtype=float)
    if u.shape != (cols,):
        raise ValueError(f"start vector must have length {cols}")
    kernels, apply = _convolution_gram(wv, cols)
    top = gram_lanczos(apply, kernels, u[None], TOL_CAP, cols)
    return SingularPair(
        vector=_fix_sign(top.vectors[0]),
        sigma=math.sqrt(top.values[0]),
        iterations=int(top.steps[0]),
        converged=bool(top.converged[0]),
    )


def _bracket_lo(i_value: float, p: int) -> float:
    return math.sqrt(max(i_value**2 / p - 1.0 / (3.0 * p), 0.0))


def k_estimate(p: int, n: int) -> tuple[KEstimate, ExtremalPair]:
    """Alternating maximization of the product-polynomial norm.

    Starting from vectors proportional to ones, alternately replaces w by
    the principal right singular vector of the convolution matrix of v,
    then v by that of the matrix of w, until the singular value changes by
    at most `_SWEEP_TOL` (1e-13) between sweeps, or by its double-precision
    noise floor if that is larger (at most `_OUTER_MAX` sweeps).

    Each inner :func:`principal_right_singular` stops at the relative residual
    :data:`specnorm.norms.TOL_CAP` (1e-8), the Lanczos core's cap: the
    returned I is a Ritz value, whose error is of order residual^2 / gap.
    `converged` certifies that I moved by at most the sweep tolerance in the
    last sweep and that both of that sweep's solves met the inner
    tolerance, so (w, v) is stationary for the alternation to that residual.

    Each solve warm-starts from the previous vector. The flat first starts
    are safe although the Gram matrices are persymmetric: with a positive
    frozen vector, W^T W is a nonnegative irreducible Toeplitz matrix, so
    its principal vector is positive (Perron-Frobenius), never flip-odd
    (a frozen vector of length 1 gives a multiple of the identity, which
    keeps the start), and each solve hands a positive vector on.
    """
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    w = np.full(n, 1.0 / math.sqrt(n))
    v = np.full(p, 1.0 / math.sqrt(p))

    i_prev = None
    i_val = 0.0
    converged = False
    sweeps = 0
    inner_ok = True
    for sweeps in range(1, _OUTER_MAX + 1):
        rw = principal_right_singular(v, n, start=w)
        w = rw.vector
        rv = principal_right_singular(w, p, start=v)
        v = rv.vector
        i_val = rv.sigma
        inner_ok = rw.converged and rv.converged
        if i_prev is not None and abs(i_val - i_prev) <= max(_SWEEP_TOL, 16.0 * _EPS * i_val):
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


def k_table(ratios, p_base: int, *, p_step: int | None = None) -> list[KEstimate]:
    """Estimates of the limiting constant on a grid of aspect ratios.

    Each ratio r in (0, 1] must give an integral row count p = r * p_base;
    its row is the cold ``k_estimate(p, p_base)``. Rows are returned in
    ascending ratio, one per distinct row count. `p_step` is accepted and
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
    rows = []
    for p in sorted(counts):
        t0 = time.perf_counter()
        est, _ = k_estimate(p, p_base)
        _log.info("K row p=%d n=%d: %d sweeps, %.3f s",
                  p, p_base, est.outer_iterations, time.perf_counter() - t0)
        rows.append(est)
    return rows
