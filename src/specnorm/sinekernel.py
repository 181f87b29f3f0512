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

Convolution matrices are never materialized; all products run through the
FFT convolution of `specnorm.dft`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import convolve_full
from .norms import gram_lanczos

__all__ = [
    "ExtremalPair",
    "KEstimate",
    "PowerResult",
    "banded_matvec",
    "banded_rmatvec",
    "principal_right_singular",
    "k_estimate",
    "k_lower_bound",
    "k_table",
    "i_value_direct",
]

_EPS = float(np.finfo(float).eps)


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
class PowerResult:
    vector: np.ndarray
    sigma: float
    iterations: int
    converged: bool


def banded_matvec(w, x) -> np.ndarray:
    """Apply the banded convolution matrix of w: columns are shifted copies.

    Equals the full convolution of w and x (output length len(w)+len(x)-1).
    """
    return convolve_full(w, x)


def banded_rmatvec(w, y, cols: int) -> np.ndarray:
    """Adjoint product: valid cross-correlation of y against w, length `cols`."""
    wv = np.asarray(w)
    yv = np.asarray(y)
    if yv.ndim != 1 or yv.size != wv.size + cols - 1:
        raise ValueError(
            f"adjoint input must have length {wv.size + cols - 1}, got {yv.shape}"
        )
    c = convolve_full(np.conj(wv[::-1]), yv)
    return c[wv.size - 1 : wv.size - 1 + cols]


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
    max_iter: int = 100_000,
    start: np.ndarray | None = None,
) -> PowerResult:
    """Top right singular pair of the banded convolution matrix W of w.

    Runs the Lanczos core :func:`specnorm.norms.gram_lanczos`, as a block
    of one row, on the cols x cols operator ``u -> W^T (W u)``, each step
    one `banded_matvec` and one `banded_rmatvec`; the matrix itself is never
    formed. The result is converged once the Ritz residual is at most
    ``tol * sigma^2``; `iterations` counts Krylov steps (at most `cols`).
    `start` lets the alternation warm-start from the previous iterate; the
    default start is a fixed pseudo-random vector. (The Gram matrix is
    persymmetric, so a structured start such as all-ones spans only
    flip-even Krylov vectors and can miss a flip-odd principal vector.)
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
    top = gram_lanczos(
        lambda x, rows: banded_rmatvec(wv, banded_matvec(wv, x[0]), cols)[None],
        u[None],
        tol,
        max_iter,
    )
    return PowerResult(
        vector=_fix_sign(top.vectors[0]),
        sigma=math.sqrt(top.values[0]),
        iterations=int(top.steps[0]),
        converged=bool(top.converged[0]),
    )


def _bracket_lo(i_value: float, p: int) -> float:
    return math.sqrt(max(i_value**2 / p - 1.0 / (3.0 * p), 0.0))


def k_estimate(
    p: int,
    n: int,
    init: ExtremalPair | None = None,
    outer_tol: float = 1e-13,
    outer_max: int = 5000,
) -> tuple[KEstimate, ExtremalPair]:
    """Alternating maximization of the product-polynomial norm.

    Starting from vectors proportional to ones (or a warm-start pair),
    alternately replaces w by the principal right singular vector of the
    convolution matrix of v, then v by that of the matrix of w, until the
    singular value changes by at most `outer_tol` between sweeps. The
    default tolerance sits above the double-precision noise floor of the
    singular value, which the stopping rule also guards against explicitly.
    """
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    if init is None:
        w = np.full(n, 1.0 / math.sqrt(n))
        v = np.full(p, 1.0 / math.sqrt(p))
    else:
        w = np.asarray(init.w, dtype=float)
        v = np.asarray(init.v, dtype=float)
        if w.shape != (n,) or v.shape != (p,):
            raise ValueError("warm-start pair has wrong dimensions")

    inner_tol = outer_tol / 10.0
    i_prev = None
    i_val = 0.0
    converged = False
    sweeps = 0
    inner_ok = True
    for sweeps in range(1, outer_max + 1):
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
    p_step: int = 10,
    outer_tol: float = 1e-13,
    outer_max: int = 5000,
) -> list[KEstimate]:
    """Estimates of the limiting constant on a grid of aspect ratios.

    Runs a continuation: the row count starts at p = n = p_base and is
    decreased in steps of `p_step` (visiting every requested ratio), each
    stage warm-started from the previous converged w together with the
    principal right singular vector of its convolution matrix at the new
    width. Rows are returned for the requested ratios, descending.
    """
    if p_base < 1:
        raise ValueError("p_base must be positive")
    targets: dict[int, float] = {}
    for r in ratios:
        if not 0 < r <= 1:
            raise ValueError(f"ratios must lie in (0, 1], got {r}")
        pr = r * p_base
        pi = round(pr)
        if abs(pr - pi) > 1e-9 or pi < 1:
            raise ValueError(f"ratio {r} does not give an integral row count at p_base={p_base}")
        targets[pi] = r

    p_min = min(targets)
    schedule = sorted(set(range(p_base, p_min - 1, -p_step)) | set(targets), reverse=True)

    rows: list[KEstimate] = []
    pair: ExtremalPair | None = None
    for p in schedule:
        if pair is not None and pair.v.size != p:
            v0 = principal_right_singular(pair.w, p, tol=outer_tol / 10.0).vector
            pair = ExtremalPair(w=pair.w, v=v0)
        est, pair = k_estimate(p, p_base, init=pair, outer_tol=outer_tol, outer_max=outer_max)
        if p in targets:
            rows.append(est)
    return rows
