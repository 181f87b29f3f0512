"""Largest-singular-value estimation and the limiting-theory scalings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .structured import (
    _DENSE_ENTRY_LIMIT,
    MatrixSpec,
    ResourceLimitError,
    SymbolVector,
    matvec,
    rmatvec,
)

__all__ = [
    "GramEigenpair",
    "NormResult",
    "gram_lanczos",
    "spectral_norm_fast",
    "spectral_norm_dense",
    "scaled_norm",
]

# stream tag for Lanczos start vectors; replicate streams use small ids
_START_STREAM = 2**63
# smallest relative residual the stopping rule asks for (rounding floor)
_TOL_FLOOR = 16.0 * float(np.finfo(float).eps)
# the Krylov basis grows by this many rows at a time and is refused past
# this many bytes
_BASIS_CHUNK = 32
_BASIS_BYTES = 2**29


@dataclass(frozen=True)
class NormResult:
    sigma_max: float
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True)
class GramEigenpair:
    """Largest Ritz pair of a Gram operator and its residual bound."""

    value: float
    vector: np.ndarray  # unit Ritz vector
    steps: int
    converged: bool
    residual: float  # bounds ||G y - value y||; an eigenvalue of G lies this close


def _start_vector(seed: int, dim: int) -> np.ndarray:
    key = np.array([seed, _START_STREAM], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)


def _grow(basis: np.ndarray, cap: int) -> np.ndarray:
    used, dim = basis.shape
    rows = min(cap, used + _BASIS_CHUNK, _BASIS_BYTES // (basis.itemsize * dim))
    if rows <= used:
        raise ResourceLimitError(
            f"Krylov basis of {used + 1} vectors of length {dim} exceeds {_BASIS_BYTES} bytes"
        )
    grown = np.empty((rows, dim))
    grown[:used] = basis
    return grown


def _top_ritz(
    alphas: list[float], betas: list[float], guess: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Top eigenvalue theta of the Lanczos tridiagonal T, a unit vector s
    near its eigenvector, and ``||T s - theta s||``.

    theta comes from LAPACK's eigenvalue-only path. s is one step of
    inverse iteration from `guess`, solving ``(T - theta I) x = guess``
    through its LDL^T factorization in O(k). By interlacing, every leading
    block of ``T - theta I`` but the whole is negative definite, so no
    pivoting is needed; an exactly zero pivot is replaced by a tiny one.
    """
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    theta = max(float(np.linalg.eigvalsh(tri)[-1]), 0.0)
    if len(alphas) == 1:
        return theta, np.ones(1), 0.0
    tiny = _TOL_FLOOR * theta
    x = guess.tolist()
    pivots = [alphas[0] - theta or tiny]
    for j in range(1, len(x)):
        mult = betas[j - 1] / pivots[-1]
        x[j] -= mult * x[j - 1]
        pivots.append(alphas[j] - theta - mult * betas[j - 1] or tiny)
    x[-1] /= pivots[-1]
    for j in range(len(x) - 2, -1, -1):
        x[j] = (x[j] - betas[j] * x[j + 1]) / pivots[j]
    s = np.array(x) / np.linalg.norm(x)
    return theta, s, float(np.linalg.norm(tri @ s - theta * s))


def gram_lanczos(apply, apply_adjoint, start, tol: float, max_iter: int) -> GramEigenpair:
    """Largest eigenpair of the Gram operator ``x -> apply_adjoint(apply(x))``.

    Lanczos with full reorthogonalization from `start`; on a Gram operator
    this is Golub-Kahan bidiagonalization (Golub & Kahan 1965).
    After k steps the orthonormal basis Q and the tridiagonal T satisfy
    ``G Q = Q T + beta_k q_{k+1} e_k^T``. For the top eigenvalue theta of T
    and a unit vector s, the Ritz vector Q s therefore has residual norm
    at most ``beta_k |e_k^T s| + ||T s - theta s||``, and some eigenvalue of
    G lies within that bound of theta; the second term is at rounding level
    once s has converged. Steps stop once the bound is at most
    ``tol * theta`` (tol floored at 16 eps), on exact termination (beta_k =
    0, or the basis spans the whole space; the residual is then 0), or
    after `max_iter` steps with converged=False. Each step applies
    `apply` and `apply_adjoint` once. From a random start the top Ritz value
    approximates the largest eigenvalue, not a smaller one, with high
    probability (Kuczynski & Wozniakowski 1992).

    The basis is held as rows of length ``start.size``, grown in chunks up
    to ``min(max_iter, start.size)`` rows; a basis past `_BASIS_BYTES`
    raises ResourceLimitError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    q = np.asarray(start, dtype=float)
    dim = q.size
    q = q / np.linalg.norm(q)
    cap = min(max_iter, dim)
    tol = max(tol, _TOL_FLOOR)
    basis = np.empty((0, dim))
    alphas: list[float] = []
    betas: list[float] = []
    s = np.empty(0)
    for k in range(1, cap + 1):
        if k > basis.shape[0]:
            basis = _grow(basis, cap)
        basis[k - 1] = q
        q_k = basis[:k]
        w = apply_adjoint(apply(q))
        # classical Gram-Schmidt against the whole basis, twice
        h = q_k @ w
        w = w - q_k.T @ h
        w -= q_k.T @ (q_k @ w)
        alphas.append(float(h[-1]))
        beta = float(np.linalg.norm(w))
        # the previous Ritz vector, extended by 0, seeds the inverse iteration
        theta, s, t_residual = _top_ritz(alphas, betas, np.append(s, 0.0))
        # exact termination: the Krylov space is invariant or the whole space
        exact = beta == 0.0 or k == dim
        residual = 0.0 if exact else beta * abs(float(s[-1])) + t_residual
        converged = residual <= tol * theta
        if converged or k == cap:
            break
        betas.append(beta)
        q = w / beta
    y = q_k.T @ s
    return GramEigenpair(theta, y / np.linalg.norm(y), k, converged, residual)


def spectral_norm_fast(
    sym: SymbolVector,
    spec: MatrixSpec,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> NormResult:
    """Largest singular value, certified by Lanczos on the Gram operator A A^T.

    Runs :func:`gram_lanczos` on the p x p operator ``y -> A (A^T y)`` of
    the shorter side, each step one FFT product with A^T and one with A, so
    a step costs O(N log N). The start vector is a deterministic
    pseudo-random vector derived from the spec seed. `iterations` counts
    Krylov steps (at most p). `residual` is the certified bound, in units of
    sigma^2: an eigenvalue of A A^T lies within `residual` of
    sigma_max^2, and from the random start it is the largest one with high
    probability. The result is converged once `residual` <= tol *
    sigma_max^2; without that certificate after `max_iter` steps it has
    converged=False.
    """
    top = gram_lanczos(
        lambda y: rmatvec(sym, spec, y),
        lambda x: matvec(sym, spec, x),
        _start_vector(spec.seed, spec.p),
        tol,
        max_iter,
    )
    return NormResult(math.sqrt(top.value), top.steps, top.converged, top.residual)


def spectral_norm_dense(dense) -> NormResult:
    """Largest singular value of an explicit matrix (independent oracle path),
    from the deterministic LAPACK SVD."""
    m = np.asarray(dense, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"dense input must be a matrix, got shape {m.shape}")
    if m.size > _DENSE_ENTRY_LIMIT:
        raise ResourceLimitError(f"dense norm refuses {m.size} entries > {_DENSE_ENTRY_LIMIT}")
    sigma = float(np.linalg.svd(m, compute_uv=False)[0])
    return NormResult(sigma, 0, True, 0.0)


def scaled_norm(sigma_max: float, spec: MatrixSpec) -> float:
    """Scale sigma_max by sqrt(p log n), or sqrt(2 p log n) for symmetric families."""
    if spec.n < 2:
        raise ValueError("scaling requires n >= 2")
    factor = 2.0 if spec.symmetric else 1.0
    return sigma_max / math.sqrt(factor * spec.p * math.log(spec.n))
