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
    stack_symbols,
)

__all__ = [
    "GramEigenpairs",
    "NormResult",
    "check_solver_settings",
    "gram_lanczos",
    "spectral_norms",
    "spectral_norm_fast",
    "spectral_norm_dense",
    "scaled_norm",
]

# stream tag for Lanczos start vectors; replicate streams use small ids
_START_STREAM = 2**63
# smallest relative residual the stopping rule asks for (rounding floor)
_TOL_FLOOR = 16.0 * float(np.finfo(float).eps)
# largest: a looser stop can certify the second eigenvalue of a Gram operator
# before the top Ritz value has separated from it
_TOL_CAP = 1e-8
# the Krylov basis grows by this many rows at a time and is refused past
# this many bytes
_BASIS_CHUNK = 32
_BASIS_BYTES = 2**29
# relative shift past the top Ritz value for the inverse-iteration solve
_SHIFT = 64.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class NormResult:
    sigma_max: float
    iterations: int
    converged: bool
    residual: float


@dataclass(frozen=True)
class GramEigenpairs:
    """Largest Ritz pair of each Gram operator of a block, one row per operator."""

    values: np.ndarray  # top Ritz values
    vectors: np.ndarray  # unit Ritz vectors, one per row
    steps: np.ndarray  # Krylov steps taken
    converged: np.ndarray
    residuals: np.ndarray  # bounds ||G y - value y||; an eigenvalue of G lies this close


def _start_vector(seed: int, dim: int) -> np.ndarray:
    key = np.array([seed, _START_STREAM], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(dim)


def _grow(basis: np.ndarray, cap: int) -> np.ndarray:
    """The stacked basis with room for more vectors per row; the limit is per row."""
    count, used, dim = basis.shape
    rows = min(cap, used + _BASIS_CHUNK, _BASIS_BYTES // (basis.itemsize * dim))
    if rows <= used:
        raise ResourceLimitError(
            f"Krylov basis of {used + 1} vectors of length {dim} exceeds {_BASIS_BYTES} bytes"
        )
    grown = np.empty((count, rows, dim))
    grown[:, :used] = basis
    return grown


def _top_ritz(
    alphas: np.ndarray, betas: np.ndarray, guess: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a stack of Lanczos tridiagonals T (diagonals `alphas`,
    off-diagonals `betas`): the top eigenvalue theta, a unit vector s near
    its eigenvector, and ``||T s - theta s||``.

    theta comes from LAPACK's eigenvalue-only path. s is one step of
    inverse iteration from `guess`: a solve with ``T - theta (1 + 64 eps) I``,
    which the shift just past the top eigenvalue keeps nonsingular. Every
    operation acts on each row alone, so a row's results do not depend on
    the rest of the stack.
    """
    count, k = alphas.shape
    tri = np.zeros((count, k, k))
    flat = tri.reshape(count, k * k)  # a view: diagonals are strided slices
    flat[:, :: k + 1] = alphas
    flat[:, 1 :: k + 1] = betas
    flat[:, k :: k + 1] = betas
    theta = np.maximum(np.linalg.eigvalsh(tri)[:, -1], 0.0)
    if k == 1:
        return theta, np.ones((count, 1)), np.zeros(count)
    flat[:, :: k + 1] -= (theta * (1.0 + _SHIFT))[:, None]
    x = np.linalg.solve(tri, guess[:, :, None])
    s = x / _row_norms(x[:, :, 0])[:, None, None]
    # T s - theta s, from the shifted T
    ts = tri @ s + (theta * _SHIFT)[:, None, None] * s
    return theta, s[:, :, 0], _row_norms(ts[:, :, 0])


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (a pairwise sum along the row)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _project(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients of each row of w on that row's basis vectors."""
    return (basis @ w[:, :, None])[:, :, 0]


def _combine(basis: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Per row, the combination of its basis vectors with the given coefficients."""
    return (coef[:, None, :] @ basis)[:, 0]


def check_solver_settings(tol: float, max_iter: int) -> None:
    """Refuse a tolerance that is not positive or a step cap below one."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def gram_lanczos(gram, start, tol: float, max_iter: int) -> GramEigenpairs:
    """Largest eigenpair of each Gram operator of a block, solved in lockstep.

    `start` holds one start vector per row, shape (R, dim). ``gram(q, rows)``
    returns the Gram products ``G_i q_i`` of the operators `rows` (indices
    into the block, ascending) for the rows of q; `rows` is the same array
    until a row leaves the active set.

    Per row this is Lanczos with full reorthogonalization; on a Gram
    operator it is Golub-Kahan bidiagonalization (Golub & Kahan 1965).
    After k steps the orthonormal basis Q and the tridiagonal T satisfy
    ``G Q = Q T + beta_k q_{k+1} e_k^T``. For the top eigenvalue theta of T
    and a unit vector s, the Ritz vector Q s therefore has residual norm
    at most ``beta_k |e_k^T s| + ||T s - theta s||``, and some eigenvalue of
    G lies within that bound of theta; the second term is at rounding level
    once s has converged. A row stops once its bound is at most
    ``tol * theta``, on exact termination (beta_k = 0, or the basis spans
    the whole space; the residual is then 0), or after `max_iter` steps
    with converged=False; stopped rows leave the active set and the rest go
    on. Each step calls `gram` once. tol is clamped to [16 eps, 1e-8]: the
    floor is rounding level, and above the cap a row can stop on the second
    eigenvalue before the top Ritz value has separated from it. From a
    random start the top Ritz value approximates the largest eigenvalue,
    not a smaller one, with high probability (Kuczynski & Wozniakowski
    1992).

    Every operation acts on each row alone (stacked products, reductions
    along the last axis), so a row's results are bit-identical whatever
    block it is solved in. The basis holds rows of length dim, grown in
    chunks up to ``min(max_iter, dim)`` vectors per row; a row's basis past
    `_BASIS_BYTES` raises ResourceLimitError.
    """
    check_solver_settings(tol, max_iter)
    # a C-ordered copy: a row's reductions must not see the block's strides
    q = np.array(start, dtype=float, order="C")
    if q.ndim != 2:
        raise ValueError(f"start must hold one vector per row, got shape {q.shape}")
    count, dim = q.shape
    q = q / _row_norms(q)[:, None]
    cap = min(max_iter, dim)
    tol = min(max(tol, _TOL_FLOOR), _TOL_CAP)
    out = GramEigenpairs(
        values=np.zeros(count),
        vectors=np.zeros((count, dim)),
        steps=np.zeros(count, dtype=int),
        converged=np.zeros(count, dtype=bool),
        residuals=np.zeros(count),
    )
    active = np.arange(count)
    basis = np.empty((count, 0, dim))
    alphas = np.empty((count, 0))
    betas = np.empty((count, 0))
    s = np.empty((count, 0))
    for k in range(1, cap + 1):
        if k > basis.shape[1]:
            basis = _grow(basis, cap)
        basis[:, k - 1] = q
        q_k = basis[:, :k]
        w = gram(q, active)
        # classical Gram-Schmidt against the whole basis, twice
        h = _project(q_k, w)
        w = w - _combine(q_k, h)
        w -= _combine(q_k, _project(q_k, w))
        alphas = np.concatenate([alphas, h[:, -1:]], axis=1)
        beta = _row_norms(w)
        # the previous Ritz vector, extended by 0, seeds the inverse iteration
        guess = np.concatenate([s, np.zeros((len(active), 1))], axis=1)
        theta, s, t_residual = _top_ritz(alphas, betas, guess)
        residual = beta * np.abs(s[:, -1]) + t_residual
        # exact termination: the Krylov space is invariant or the whole space
        residual[(beta == 0.0) | (k == dim)] = 0.0
        converged = residual <= tol * theta
        done = converged | (k == cap)
        if done.any():
            rows = active[done]
            y = _combine(q_k[done], s[done])
            out.values[rows] = theta[done]
            out.vectors[rows] = y / _row_norms(y)[:, None]
            out.steps[rows] = k
            out.converged[rows] = converged[done]
            out.residuals[rows] = residual[done]
            if done.all():
                break
            keep = ~done
            active, basis, alphas, betas = active[keep], basis[keep], alphas[keep], betas[keep]
            s, w, beta = s[keep], w[keep], beta[keep]
        betas = np.concatenate([betas, beta[:, None]], axis=1)
        q = w / beta[:, None]
    return out


def spectral_norms(
    sym: SymbolVector,
    spec: MatrixSpec,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> list[NormResult]:
    """Largest singular value of each row of a stacked symbol (see
    :func:`spectral_norm_fast`), solved as one block of :func:`gram_lanczos`.

    Every row starts from the vector of the spec seed, so row i gets
    exactly the result ``spectral_norm_fast`` gives for symbol row i.
    """
    part = sym

    def gram(y, rows):
        nonlocal part
        if part.diag.shape[0] != rows.size:  # rows left the active set
            part = SymbolVector(values=sym.values[rows], size=sym.size, diag=sym.diag[rows])
        return matvec(part, spec, rmatvec(part, spec, y))

    start = np.broadcast_to(_start_vector(spec.seed, spec.p), (sym.diag.shape[0], spec.p))
    top = gram_lanczos(gram, start, tol, max_iter)
    return [
        NormResult(math.sqrt(value), int(steps), bool(converged), float(residual))
        for value, steps, converged, residual in zip(
            top.values, top.steps, top.converged, top.residuals
        )
    ]


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
    sigma_max^2, with tol clamped to [16 eps, 1e-8]; without that
    certificate after `max_iter` steps it has converged=False.
    """
    (result,) = spectral_norms(stack_symbols([sym]), spec, tol, max_iter)
    return result


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
