"""Random structured matrix families built from an embedding circulant.

A p-by-n member of any supported family is the upper-left corner of an
N-by-N circulant whose first row (the "symbol") is laid out from one draw
of i.i.d. entries. The circulant diagonalizes under the unitary DFT, so
matrix-vector products cost O(N log N); a dense construction of the same
matrix is kept as an independent oracle.

Families and their embeddings:

* ``toeplitz``            entry (i, j) = a[j-i], N = p + n, negative
                          indices re-indexed to the tail of the symbol
* ``circulant``           entry (i, j) = a[(j-i) mod n], N = n
* ``hankel``              column-reversed toeplitz, same symbol
* ``reverse_circulant``   column-reversed circulant, same symbol

Symmetric variants mirror the symbol (entry (i, j) = a[|i-j|] for
Toeplitz with N = 2n, and a[min(k, n-k)] along circulant diagonals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import dft_forward, dft_inverse

__all__ = [
    "FAMILIES",
    "DISTRIBUTIONS",
    "MatrixSpec",
    "SymbolVector",
    "ResourceLimitError",
    "replicate_stream",
    "draw_entries",
    "embedding_size",
    "build_symbol",
    "symbol_from_values",
    "matvec",
    "rmatvec",
    "dense_materialize",
    "projection_entry",
]

FAMILIES = ("toeplitz", "circulant", "hankel", "reverse_circulant")
DISTRIBUTIONS = ("gaussian", "rademacher", "uniform_centered")

# families whose columns are read in reverse order
_REVERSED = ("hankel", "reverse_circulant")
# families embedded in an n-point circulant (no padding)
_CIRCULANT_LIKE = ("circulant", "reverse_circulant")

_DENSE_ENTRY_LIMIT = 10**7


class ResourceLimitError(RuntimeError):
    """A dense-path size guard was exceeded."""


@dataclass(frozen=True)
class MatrixSpec:
    """Family, shape, entry distribution and seed of one random matrix."""

    family: str
    p: int
    n: int
    symmetric: bool = False
    dist: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.p > self.n:
            raise ValueError(f"p <= n required, got p={self.p}, n={self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def reversed_columns(self) -> bool:
        return self.family in _REVERSED


@dataclass(frozen=True)
class SymbolVector:
    """First row of the embedding circulant and its DFT diagonal.

    ``diag[j]`` is the unitary forward DFT of ``values``; for a real
    symbol it satisfies diag[size - j] = conj(diag[j]).
    """

    values: np.ndarray
    size: int
    diag: np.ndarray


def replicate_stream(base_seed: int, replicate: int = 0) -> np.random.Generator:
    """Counter-keyed random stream: a pure function of (base_seed, replicate).

    Philox streams with distinct keys are independent, so replicates can be
    drawn in any order (or in parallel) with bit-identical results.
    """
    key = np.array([base_seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_entries(rng: np.random.Generator, dist: str, count: int) -> np.ndarray:
    """Draw `count` i.i.d. entries with mean 0 and variance 1."""
    if dist == "gaussian":
        return rng.standard_normal(count)
    if dist == "rademacher":
        return rng.integers(0, 2, count) * 2.0 - 1.0
    if dist == "uniform_centered":
        half = math.sqrt(3.0)
        return rng.uniform(-half, half, count)
    raise ValueError(f"unknown distribution {dist!r}")


def embedding_size(spec: MatrixSpec) -> int:
    if spec.family in _CIRCULANT_LIKE:
        return spec.n
    return 2 * spec.n if spec.symmetric else spec.p + spec.n


def _layout(spec: MatrixSpec, entries: np.ndarray) -> np.ndarray:
    """Arrange the i.i.d. draws into the first row of the embedding circulant."""
    n, p = spec.n, spec.p
    if spec.family in _CIRCULANT_LIKE:
        if spec.symmetric:
            # entries a[0..n//2], mirrored along the row
            k = np.arange(n)
            return entries[np.minimum(k, n - k)]
        return entries
    if spec.symmetric:
        # entries a[0..n], mirrored in a 2n-point circulant
        k = np.arange(2 * n)
        return entries[np.minimum(k, 2 * n - k)]
    # independent positive and negative diagonals: (a_0..a_{n-1}, a_{-p}..a_{-1})
    return entries


def _entry_count(spec: MatrixSpec) -> int:
    if spec.family in _CIRCULANT_LIKE:
        return spec.n // 2 + 1 if spec.symmetric else spec.n
    return spec.n + 1 if spec.symmetric else spec.n + spec.p


def build_symbol(spec: MatrixSpec, rng: np.random.Generator | None = None) -> SymbolVector:
    """Draw the symbol for `spec` and attach its DFT diagonal.

    Draw order is fixed: a single flat vector of `_entry_count(spec)` i.i.d.
    values is laid out per family, so a given stream always produces the
    same matrix.
    """
    if rng is None:
        rng = replicate_stream(spec.seed)
    entries = draw_entries(rng, spec.dist, _entry_count(spec))
    return symbol_from_values(_layout(spec, entries), spec)


def symbol_from_values(values, spec: MatrixSpec) -> SymbolVector:
    """Wrap an explicit symbol row (mainly for fixtures and oracles)."""
    v = np.asarray(values, dtype=float)
    size = embedding_size(spec)
    if v.shape != (size,):
        raise ValueError(f"symbol must have length {size}, got {v.shape}")
    return SymbolVector(values=v, size=size, diag=dft_forward(v))


def _pad(x: np.ndarray, size: int) -> np.ndarray:
    z = np.zeros(size, dtype=complex)
    z[: x.size] = x
    return z


def matvec(sym: SymbolVector, spec: MatrixSpec, x) -> np.ndarray:
    """Product of the p-by-n matrix with x, via the embedding circulant.

    Zero-pads x to the embedding size, multiplies in the Fourier domain by
    the symbol diagonal, and keeps the first p coordinates. Column-reversed
    families read x back to front first.
    """
    xv = np.asarray(x)
    if xv.shape != (spec.n,):
        raise ValueError(f"x must have length {spec.n}, got {xv.shape}")
    real_input = np.isrealobj(xv)
    if spec.reversed_columns:
        xv = xv[::-1]
    full = math.sqrt(sym.size) * dft_forward(sym.diag * dft_inverse(_pad(xv, sym.size)))
    out = full[: spec.p]
    return out.real if real_input else out


def rmatvec(sym: SymbolVector, spec: MatrixSpec, y) -> np.ndarray:
    """Transposed product (length-n output); adjoint of :func:`matvec`."""
    yv = np.asarray(y)
    if yv.shape != (spec.p,):
        raise ValueError(f"y must have length {spec.p}, got {yv.shape}")
    real_input = np.isrealobj(yv)
    full = math.sqrt(sym.size) * dft_inverse(sym.diag * dft_forward(_pad(yv, sym.size)))
    out = full[: spec.n]
    if spec.reversed_columns:
        out = out[::-1]
    return out.real if real_input else out


def dense_materialize(sym: SymbolVector, spec: MatrixSpec) -> np.ndarray:
    """Dense p-by-n matrix from the same symbol (oracle path)."""
    if spec.p * spec.n > _DENSE_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"dense path refuses p*n = {spec.p * spec.n} > {_DENSE_ENTRY_LIMIT}"
        )
    rows = np.arange(spec.p)[:, None]
    cols = np.arange(spec.n)[None, :]
    if spec.reversed_columns:
        cols = cols[:, ::-1]
    return sym.values[(cols - rows) % sym.size]


def projection_entry(r: int, size: int, k: int, l: int) -> complex:
    """Entry (k, l) of the DFT-basis projection onto the first r coordinates.

    Equals r/size on the diagonal and otherwise the geometric sum
    (1/size) * (1 - e^{2 pi i (l-k) r / size}) / (1 - e^{2 pi i (l-k) / size}).
    """
    if not 1 <= r <= size:
        raise ValueError(f"need 1 <= r <= size, got r={r}, size={size}")
    if not (0 <= k < size and 0 <= l < size):
        raise ValueError(f"indices must lie in [0, {size}), got k={k}, l={l}")
    if k == l:
        return complex(r / size)
    w = np.exp(2j * np.pi * (l - k) / size)
    return complex((1.0 - w**r) / (1.0 - w) / size)
