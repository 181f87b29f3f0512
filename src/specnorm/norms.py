"""Largest-singular-value estimation and the limiting-theory scalings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import circular_convolve, toeplitz_spectrum
from .structured import (
    _CIRCULANT_LIKE,
    _DENSE_ENTRY_LIMIT,
    MatrixSpec,
    ResourceLimitError,
    SymbolVector,
    matvec,
    require_integer,
    replicate_stream,
    rmatvec,
)

__all__ = [
    "GramEigenpairs",
    "NormResult",
    "ScalingError",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "TOL_CAP",
    "check_solver_settings",
    "gram_lanczos",
    "spectral_norms",
    "spectral_norm_fast",
    "spectral_norm_dense",
    "scaled_norm",
    "require_scalable",
    "toeplitz_gram",
]

# stream tag for Lanczos start vectors; replicate streams use small ids
_START_STREAM = 2**63
# smallest relative residual the stopping rule asks for (rounding floor)
_TOL_FLOOR = 16.0 * float(np.finfo(float).eps)
# largest: a looser stop can certify the second eigenvalue of a Gram operator
# before the top Ritz value has separated from it
TOL_CAP = 1e-8
# the norm solver's defaults, for every caller: relative residual and step cap
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# the Krylov basis grows by this many rows at a time and is refused past
# this many bytes
_BASIS_CHUNK = 32
_BASIS_BYTES = 2**29
# relative shift past the top Ritz value for the inverse-iteration solve
_SHIFT = 64.0 * float(np.finfo(float).eps)
# where the Sturm count certifies theta: past theta + r_T by this many
# k |theta|, since the computed pivots are exact only for a matrix within a
# few eps of T entrywise
_COUNT_SLACK = 4.0 * float(np.finfo(float).eps)
# checks of at most this many rows run the O(k) recurrences on Python floats,
# row by row; larger ones run them on (rows,) arrays, position by position
_FLOAT_ROWS = 16


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
    checked_steps: np.ndarray  # steps that ran the stopping check
    dense_steps: np.ndarray  # checked steps whose Ritz pair took the dense extraction


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


def _top_ritz_dense(
    alphas: np.ndarray, betas: np.ndarray, guess: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a stack of Lanczos tridiagonals T (diagonals `alphas`,
    off-diagonals `betas`): the top eigenvalue theta, a unit vector s near
    its eigenvector, and ``||T s - theta s||``.

    theta comes from LAPACK's eigenvalue-only path. s is one step of
    inverse iteration from `guess`: a solve with ``T - theta (1 + 64 eps) I``,
    which the shift just past the top eigenvalue keeps nonsingular. Every
    operation acts on each row alone, so a row's results do not depend on
    the rest of the stack. This costs O(k^3) per row; :func:`_top_ritz`
    calls it only for the rows its O(k) extraction cannot certify.
    """
    count, k = alphas.shape
    if k == 1:  # LAPACK returns a 1 x 1 matrix's entry as it is
        return np.maximum(alphas[:, 0], 0.0), np.ones((count, 1)), np.zeros(count)
    tri = np.zeros((count, k, k))
    flat = tri.reshape(count, k * k)  # a view: diagonals are strided slices
    flat[:, :: k + 1] = alphas
    flat[:, 1 :: k + 1] = betas
    flat[:, k :: k + 1] = betas
    theta = np.maximum(np.linalg.eigvalsh(tri)[:, -1], 0.0)
    flat[:, :: k + 1] -= (theta * (1.0 + _SHIFT))[:, None]
    x = np.linalg.solve(tri, guess[:, :, None])
    s = x / _row_norms(x[:, :, 0])[:, None, None]
    # T s - theta s, from the shifted T
    ts = tri @ s + (theta * _SHIFT)[:, None, None] * s
    return theta, s[:, :, 0], _row_norms(ts[:, :, 0])


def _top_ritz(
    alphas: np.ndarray, betas: np.ndarray, guess: np.ndarray, rho: np.ndarray, final: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_top_ritz_dense` returns, in O(k) per row where a Sturm
    count certifies it, and which rows took the dense extraction instead.

    `rho` is a value near the top of T, the Rayleigh quotient of `guess`:
    the core passes the theta of the row's last check, and that check's s
    padded with zeros to length k as the guess. Per row, s is one step of
    inverse iteration from the guess, an LDL^T solve with
    ``T - rho (1 + 64 eps) I``, normalized; theta is the Rayleigh quotient
    of s and ``r_T = ||T s - theta s||``, so some eigenvalue of T lies
    within r_T of theta. One Sturm count then shows that none lies above ``x = theta + r_T + _COUNT_SLACK k |theta|``: every
    pivot of the LDL^T factorization of ``T - x I`` is negative (Parlett,
    The Symmetric Eigenvalue Problem, 3.3). The computed pivots are exact
    for a matrix within a few eps of T entrywise (Kahan 1966); the slack
    keeps a count at rounding level from failing on a converged theta. So
    theta is T's top eigenvalue to within r_T, up to that slack, whether or
    not s has converged, and the core's residual bound holds as it does
    for the dense theta. Rows whose count fails take
    :func:`_top_ritz_dense` instead, as do the rows in `final`, which stop
    on exact termination or at the step cap and so need the exact top.

    The recurrences run over positions (see :func:`_positions`), row by
    row on Python floats for a check of at most `_FLOAT_ROWS` rows and on
    (rows,) arrays for a larger one, with the same IEEE operations either
    way; the rest acts along each row. So a row's results do not depend on
    the rest of the stack.
    """
    count, k = alphas.shape
    if k == 1:
        return (*_top_ritz_dense(alphas, betas, guess), np.zeros(count, dtype=bool))
    with np.errstate(all="ignore"):
        theta, s, t_residual, certified = _certified_ritz(alphas, betas, guess, rho)
    dense = final | ~certified
    if dense.any():
        theta[dense], s[dense], t_residual[dense] = _top_ritz_dense(
            alphas[dense], betas[dense], guess[dense]
        )
    return theta, s, t_residual, dense


def _certified_ritz(
    alphas: np.ndarray, betas: np.ndarray, guess: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """theta, s and r_T of :func:`_top_ritz`'s O(k) extraction, and the rows
    whose Sturm count certifies theta. A zero pivot leaves its row's solve
    and pivots inf or nan (see :func:`_positions`), which no count
    certifies; the other rows go on."""
    k = alphas.shape[1]
    x = _positions(_ldl_solve, alphas - (rho * (1.0 + _SHIFT))[:, None], betas, guess)
    length = _row_norms(x)
    s = x / length[:, None]
    ts = alphas * s  # T s
    ts[:, :-1] += betas * s[:, 1:]
    ts[:, 1:] += betas * s[:, :-1]
    theta = np.add.reduce(s * ts, axis=-1)
    t_residual = _row_norms(ts - theta[:, None] * s)
    top = theta + t_residual + _COUNT_SLACK * k * np.abs(theta)
    # every pivot is tested: a nan one fails, as a zero one does
    below = np.less(_positions(_pivots, alphas - top[:, None], betas * betas), 0.0).all(axis=-1)
    # r_T places an eigenvalue near theta only for a unit s
    return theta, s, t_residual, below & (length > 0.0) & (length < np.inf)


def _positions(recurrence, *stacks: np.ndarray) -> np.ndarray:
    """`recurrence` run position by position over the rows of `stacks`, one
    row of the result per row. For at most `_FLOAT_ROWS` rows it runs row by
    row on Python floats, where a zero pivot raises ZeroDivisionError and
    leaves its row nan; for more, on contiguous (rows,) arrays, where it
    leaves inf or nan. Either way a row's entries see the same IEEE
    operations."""
    if len(stacks[0]) > _FLOAT_ROWS:
        out = recurrence(*(np.ascontiguousarray(stack.T) for stack in stacks))
        # back to one C-ordered row per problem, so reductions run along rows
        return np.ascontiguousarray(np.array(out).T)
    rows = []
    for row in zip(*(stack.tolist() for stack in stacks)):
        try:
            rows.append(recurrence(*row))
        except ZeroDivisionError:
            rows.append([math.nan] * len(row[0]))
    return np.array(rows)


def _ldl_solve(diag, off, rhs) -> list:
    """The solution of M x = rhs, position by position, for the tridiagonal
    M with diagonal `diag` and off-diagonal `off`: M = L D L^T without
    pivoting, forward then back substitution."""
    d = diag[0]
    z = rhs[0]
    pivots, multipliers, partial = [d], [], [z]
    for c, b, g in zip(diag[1:], off, rhs[1:]):
        m = b / d
        d = c - m * b
        z = g - m * z
        pivots.append(d)
        multipliers.append(m)
        partial.append(z)
    x = z / d
    solution = [x]
    for d, m, z in zip(pivots[-2::-1], multipliers[::-1], partial[-2::-1]):
        x = z / d - m * x
        solution.append(x)
    return solution[::-1]


def _pivots(diag, off_squared) -> list:
    """The pivots of the LDL^T factorization of the tridiagonal with
    diagonal `diag` and squared off-diagonal `off_squared`, position by
    position. All are negative exactly when it is negative definite
    (Sylvester's law of inertia)."""
    d = diag[0]
    pivots = [d]
    for c, b2 in zip(diag[1:], off_squared):
        d = c - b2 / d
        pivots.append(d)
    return pivots


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
    """Refuse a tolerance that is not a positive real number or a step cap
    that is not an integer of at least one."""
    require_integer("max_iter", max_iter)
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def gram_lanczos(apply, kernels, start, tol: float, max_iter: int) -> GramEigenpairs:
    """Largest eigenpair of each Gram operator of a block, solved in lockstep.

    `kernels` is a tuple of arrays with one leading row per operator, and
    `start` one start vector per row, shape (R, dim). ``apply(kernels, q)``
    is a pure map to the products ``G_i q_i``; a stopped row leaves
    `kernels` with its basis, so row i of each stays paired.

    Per row this is Lanczos with full reorthogonalization; on a Gram
    operator it is Golub-Kahan bidiagonalization (Golub & Kahan 1965).
    After k steps the orthonormal basis Q and the tridiagonal T satisfy
    ``G Q = Q T + beta_k q_{k+1} e_k^T``. For the top eigenvalue theta of T
    and a unit vector s, the Ritz vector Q s therefore has residual norm
    at most ``beta_k |e_k^T s| + ||T s - theta s||``, and some eigenvalue of
    G lies within that bound of theta; the second term is at rounding level
    once s has converged.

    The stopping check runs at steps 1-4, then at every 2nd step through
    12, then at every 4th (16, 20, ...), and at a row's last step: exact
    termination (beta_k = 0, or the basis spans the whole space; the
    residual is then 0) or the step cap. Other steps only extend T and the
    basis. A check takes theta and s from :func:`_top_ritz`, seeded with
    the last check's s padded with zeros and its theta: one LDL^T solve and
    one Sturm count per row, O(k), which certify theta as T's top
    eigenvalue to within ``||T s - theta s||``. A row whose count fails, or
    that stops on exact termination or at the step cap, takes the dense
    ``eigvalsh`` extraction instead; `checked_steps` counts a row's checks
    and `dense_steps` those that took the dense extraction. A row stops at
    the first check where its bound is at most ``tol * theta`` (up to 1
    step after the first step where it would have held through step 12,
    up to 3 after it), on exact termination, or at `max_iter` steps,
    converged only if its bound holds there. Stopped rows leave the active
    set and the rest go on. The schedule depends on the step alone, so
    every caller and block size shares it.

    Each step calls `apply` once. tol is clamped to [16 eps, 1e-8]: the
    floor is rounding level, and above the cap a row can stop on the second
    eigenvalue before the top Ritz value has separated from it. From a
    random start the top Ritz value approximates the largest eigenvalue,
    not a smaller one, with high probability (Kuczynski & Wozniakowski
    1992).

    Every operation acts on each row alone (stacked products, reductions
    along the last axis), so a row's results are bit-identical whatever
    block it is solved in. The basis holds rows of length dim, grown in
    chunks up to ``min(max_iter, dim)`` vectors per row; a row's basis past
    `_BASIS_BYTES` raises ResourceLimitError. A start row that is zero or
    not finite raises ValueError naming the row.
    """
    check_solver_settings(tol, max_iter)
    # a C-ordered copy: a row's reductions must not see the block's strides
    q = np.array(start, dtype=float, order="C")
    if q.ndim != 2:
        raise ValueError(f"start must hold one vector per row, got shape {q.shape}")
    count, dim = q.shape
    lengths = _row_norms(q)
    bad = np.flatnonzero(~(np.isfinite(lengths) & (lengths > 0.0)))
    if bad.size:
        row = bad[0]
        raise ValueError(f"start vector of row {row} has norm {lengths[row]}; it must be nonzero "
                         "and finite")
    q = q / lengths[:, None]
    cap = min(max_iter, dim)
    tol = min(max(tol, _TOL_FLOOR), TOL_CAP)
    out = GramEigenpairs(
        values=np.zeros(count),
        vectors=np.zeros((count, dim)),
        steps=np.zeros(count, dtype=int),
        converged=np.zeros(count, dtype=bool),
        residuals=np.zeros(count),
        checked_steps=np.zeros(count, dtype=int),
        dense_steps=np.zeros(count, dtype=int),
    )
    active = np.arange(count)
    basis = np.empty((count, 0, dim))
    alphas = np.empty((count, 0))
    betas = np.empty((count, 0))
    s = np.empty((count, 0))
    theta = np.zeros(count)
    for k in range(1, cap + 1):
        if k > basis.shape[1]:
            basis = _grow(basis, cap)
        basis[:, k - 1] = q
        q_k = basis[:, :k]
        w = apply(kernels, q)
        # classical Gram-Schmidt against the whole basis, twice
        h = _project(q_k, w)
        w = w - _combine(q_k, h)
        w -= _combine(q_k, _project(q_k, w))
        alphas = np.concatenate([alphas, h[:, -1:]], axis=1)
        beta = _row_norms(w)
        # exact termination: the Krylov space is invariant or the whole space
        exact = (beta == 0.0) | (k == dim)
        final = exact | (k == cap)
        # the schedule depends on the step alone, never on the block
        scheduled = k <= 4 or k % (2 if k <= 12 else 4) == 0
        if scheduled or final.any():
            # off the schedule only the final rows are checked, and they all stop
            check = slice(None) if scheduled else final
            rows = active[check]
            # the last check's Ritz vector, padded with 0, seeds the inverse iteration
            guess = np.zeros((rows.size, k))
            guess[:, : s.shape[1]] = s[check]
            ritz, ritz_vector, t_residual, dense = _top_ritz(
                alphas[check], betas[check], guess, theta[check], final[check]
            )
            out.checked_steps[rows] += 1
            out.dense_steps[rows] += dense
            residual = beta[check] * np.abs(ritz_vector[:, -1]) + t_residual
            residual[exact[check]] = 0.0
            converged = residual <= tol * ritz
            done = converged | final[check]
            if done.any():
                stopped = rows[done]
                y = _combine(q_k[check][done], ritz_vector[done])
                out.values[stopped] = ritz[done]
                out.vectors[stopped] = y / _row_norms(y)[:, None]
                out.steps[stopped] = k
                out.converged[stopped] = converged[done]
                out.residuals[stopped] = residual[done]
            if scheduled:
                s, theta, stop = ritz_vector, ritz, done
            else:
                stop = final
            if stop.all():
                break
            if stop.any():
                keep = ~stop
                active, basis, alphas, betas = active[keep], basis[keep], alphas[keep], betas[keep]
                s, theta, w, beta = s[keep], theta[keep], w[keep], beta[keep]
                kernels = tuple(kernel[keep] for kernel in kernels)
        betas = np.concatenate([betas, beta[:, None]], axis=1)
        q = w / beta[:, None]
    return out


def toeplitz_gram(first: np.ndarray, size: int):
    """Kernel spectra of the symmetric size x size Toeplitz matrices G with
    first columns the rows of `first`, and the map (spectra, x) -> G x on
    the rows of x: one circular convolution per step."""
    spectrum, m = toeplitz_spectrum(first, size)
    return (spectrum,), lambda spectra, x: circular_convolve(spectra[0], x, m)[:, :size]


def _short_side_gram(sym: SymbolVector, spec: MatrixSpec):
    """Kernel spectra of the p x p Gram matrices A A^T of a stacked symbol,
    one row per draw, and the map (spectra, y) -> A A^T y on the rows of y.

    A A^T does not depend on the column order. For circulant-like families
    it is the p x p section of the circulant C C^T: the symmetric Toeplitz
    matrix whose first column is A A^T e_0, one convolution per step. For
    Toeplitz and Hankel, symmetric or not, A is the corner of the
    (p + n)-point circulant C with first row values[:n] then values[N - p:]
    (lags 0..n-1, then -p..-1, in both layouts), and A A^T = T - B B^T: T
    is the section of C C^T, and B the p x p Toeplitz block of C's dropped
    columns, B[i, j] = C[i, n + j], so that T e_0 = A A^T e_0 + B B^T e_0.
    B's diagonal, lag -p, is in no entry of A, so the embedding may hold 0
    there instead; B then vanishes at p = 1, and less of A A^T cancels in
    T - B B^T. A step applies T and B^T to y from one forward transform,
    then B: three convolutions of length fast_length(2p - 1). That length
    is 5-smooth whatever the embedding size N, so no step of any shape
    falls back to a Bluestein transform; the embedding is used once, for
    the first columns A A^T e_0 from one stacked product pair.
    """
    p, n = spec.p, spec.n
    e0 = np.zeros(sym.diag.shape[:-1] + (p,))
    e0[..., 0] = 1.0
    first = matvec(sym, spec, rmatvec(sym, spec, e0))
    if spec.family in _CIRCULANT_LIKE:
        return toeplitz_gram(first, p)
    right = sym.values[:, sym.size - p :].copy()  # B^T e_0: lags -p..-1
    left = sym.values[:, n - p + 1 : n + 1][:, ::-1].copy()  # B e_0: values[n - i]
    right[:, 0] = left[:, 0] = 0.0  # lag -p is in no entry of A
    bt, m = toeplitz_spectrum(right, p, row=left)
    b = np.conj(bt)  # B is B^T with its kernel reversed
    t, _ = toeplitz_spectrum(first + circular_convolve(b, right, m)[:, :p], p)

    def apply(spectra, y):
        t_and_bt, b = spectra
        both = circular_convolve(t_and_bt, y[:, None], m)  # T y and B^T y
        return both[:, 0, :p] - circular_convolve(b, both[:, 1, :p], m)[:, :p]

    return (np.stack([t, bt], axis=1), b), apply


def spectral_norms(
    sym: SymbolVector, spec: MatrixSpec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> GramEigenpairs:
    """Top eigenpair of A A^T for each row of a stacked symbol, solved as one
    block of :func:`gram_lanczos`; ``values`` are the squared norms sigma^2.

    The Gram operator A A^T is applied on the short side, as p x p Toeplitz
    sections by :func:`_short_side_gram`, for every family and shape. Its
    kernels are taken once per block, and the core drops a row's kernels
    when the row stops. Every row starts from the vector of the spec seed,
    so row i gets exactly the solve ``spectral_norm_fast`` makes for
    symbol row i. It logs nothing: the diagnostics return in the arrays.
    """
    kernels, apply = _short_side_gram(sym, spec)
    count = sym.diag.shape[0]
    start = replicate_stream(spec.seed, _START_STREAM).standard_normal(spec.p)
    return gram_lanczos(apply, kernels, np.broadcast_to(start, (count, spec.p)), tol, max_iter)


def spectral_norm_fast(
    sym: SymbolVector, spec: MatrixSpec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> NormResult:
    """Largest singular value of a one-row stack of symbols, certified: row
    0 of :func:`spectral_norms`, from the deterministic pseudo-random start
    of the spec seed; any other row count raises ValueError. `iterations`
    counts Krylov steps (at most p). `residual` is the certified bound, in
    units of sigma^2: an eigenvalue of A A^T lies within `residual` of
    sigma_max^2, and from the random start it is the largest one with high
    probability. The result is converged once `residual` <= tol *
    sigma_max^2, with tol clamped to [16 eps, 1e-8]; without that
    certificate after `max_iter` steps it has converged=False
    (:func:`gram_lanczos` says at which steps it is checked).
    """
    if sym.diag.shape[:-1] != (1,):
        raise ValueError(f"spectral_norm_fast takes a one-row stack, got shape {sym.diag.shape}")
    top = spectral_norms(sym, spec, tol, max_iter)
    return NormResult(math.sqrt(top.values[0]), int(top.steps[0]), bool(top.converged[0]),
                      float(top.residuals[0]))


def spectral_norm_dense(dense) -> float:
    """Largest singular value of an explicit matrix (independent oracle path),
    from the deterministic LAPACK SVD."""
    m = np.asarray(dense, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"dense input must be a matrix, got shape {m.shape}")
    if m.size > _DENSE_ENTRY_LIMIT:
        raise ResourceLimitError(f"dense norm refuses {m.size} entries > {_DENSE_ENTRY_LIMIT}")
    return float(np.linalg.svd(m, compute_uv=False)[0])


class ScalingError(ValueError):
    """A column count that the sqrt(p log n) scaling refuses."""


def require_scalable(n: int) -> None:
    if n < 2:
        raise ScalingError(f"n must be at least 2 (the scaled norm divides by log n), got n={n}")


def scaled_norm(sigma_max: float, spec: MatrixSpec) -> float:
    """Scale sigma_max by sqrt(p log n), or sqrt(2 p log n) for symmetric families."""
    require_scalable(spec.n)
    factor = 2.0 if spec.symmetric else 1.0
    return sigma_max / math.sqrt(factor * spec.p * math.log(spec.n))
