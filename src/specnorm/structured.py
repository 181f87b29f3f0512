"""Random structured matrix families built from an embedding circulant.

A p-by-n member of any supported family is the upper-left corner of an
N-by-N circulant whose first row (the "symbol") is laid out from one draw
of i.i.d. entries. The circulant diagonalizes under the unitary DFT, and
the first half of its diagonal is the half spectrum of a real circular
convolution, so products cost O(N log N) in real FFTs; a dense
construction of the same matrix is kept as an independent oracle. The
norm solver (`specnorm.norms`) takes one stacked product pair per block
from here and then applies the p x p Gram matrix A A^T as Toeplitz
sections of length fast_length(2p - 1), for every family and shape.

Families and their embeddings:

* ``toeplitz``            entry (i, j) = a[j-i], N = p + n, negative
                          indices re-indexed to the tail of the symbol
* ``circulant``           entry (i, j) = a[(j-i) mod n], N = n
* ``hankel``              column-reversed toeplitz, same symbol
* ``reverse_circulant``   column-reversed circulant, same symbol

Symmetric variants mirror the symbol (entry (i, j) = a[|i-j|] for
Toeplitz with N = 2n, and a[min(k, n-k)] along circulant diagonals).
Both Toeplitz layouts keep the lags -p..-1 at the tail of the symbol,
values[N - p:], and the lags 0..n-1 at its head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import circular_convolve, dft_forward

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
    "stack_symbols",
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


def require_integer(name: str, value) -> None:
    """Refuse a count or seed that is not an integer (a float or a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        for name in ("p", "n", "seed"):
            require_integer(name, getattr(self, name))
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
    symbol it satisfies diag[size - j] = conj(diag[j]). A stack of symbols
    (see :func:`stack_symbols`) holds one row per draw in ``values`` and
    ``diag``, both of shape (R, size).
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
    """Arrange the i.i.d. draws into the first row of the embedding circulant.

    A symmetric symbol mirrors its N//2 + 1 draws along the N-point row;
    otherwise the draws are the row itself (for Toeplitz, the positive
    diagonals a_0..a_{n-1} and then a_{-p}..a_{-1}).
    """
    if not spec.symmetric:
        return entries
    k = np.arange(embedding_size(spec))
    return entries[np.minimum(k, k.size - k)]


def _entry_count(spec: MatrixSpec) -> int:
    size = embedding_size(spec)
    return size // 2 + 1 if spec.symmetric else size


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


def stack_symbols(symbols) -> SymbolVector:
    """One stacked symbol whose rows are the given symbols of one spec."""
    symbols = list(symbols)
    return SymbolVector(
        values=np.stack([sym.values for sym in symbols]),
        size=symbols[0].size,
        diag=np.stack([sym.diag for sym in symbols]),
    )


def _operand(v, length: int, sym: SymbolVector, name: str) -> np.ndarray:
    """`v` checked as one real vector of `length`, or one per row of a stacked `sym`."""
    vv = np.asarray(v)
    if np.iscomplexobj(vv):
        raise ValueError(f"{name} must be real, got dtype {vv.dtype}")
    want = sym.diag.shape[:-1] + (length,)
    if vv.shape != want:
        raise ValueError(f"{name} must have shape {want}, got {vv.shape}")
    return vv


def _half_diag(sym: SymbolVector) -> np.ndarray:
    return sym.diag[..., : sym.size // 2 + 1]


def matvec(sym: SymbolVector, spec: MatrixSpec, x) -> np.ndarray:
    """Product of the p-by-n matrix with real x, via the embedding circulant.

    The first p entries of the circulant times x zero-padded to the
    embedding size: a circular convolution whose kernel has the half
    spectrum sqrt(size) * diag[: size//2 + 1]. Column-reversed families
    read x back to front first. For a stacked `sym`, x holds one vector
    per row and row i of the result uses symbol row i.
    """
    xv = _operand(x, spec.n, sym, "x")
    if spec.reversed_columns:
        xv = xv[..., ::-1]
    out = circular_convolve(_half_diag(sym), xv, sym.size)[..., : spec.p]
    out *= math.sqrt(sym.size)
    return out


def rmatvec(sym: SymbolVector, spec: MatrixSpec, y) -> np.ndarray:
    """Transposed product (length-n output); adjoint of :func:`matvec`."""
    yv = _operand(y, spec.p, sym, "y")
    out = circular_convolve(np.conj(_half_diag(sym)), yv, sym.size)[..., : spec.n]
    out *= math.sqrt(sym.size)
    if spec.reversed_columns:
        out = out[..., ::-1]
    return out


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
