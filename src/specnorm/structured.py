"""Random structured matrix families built from an embedding circulant.

A p-by-n member of any supported family is the upper-left corner of an
N-by-N circulant whose first row (the "symbol") is laid out from one draw
of i.i.d. entries. The circulant diagonalizes under the unitary DFT. A
draw keeps entries 0..N//2 of its diagonal (the rest are their
conjugates): the half spectrum of a real circular convolution, so products
cost O(N log N) in real FFTs. A dense construction of the same matrix is
kept as an independent oracle. The norm solver (`specnorm.norms`) takes
one stacked product pair per block from here and then applies the p x p
Gram matrix A A^T as Toeplitz sections of length fast_length(2p - 1), for
every family and shape.

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
    "embedding_size",
    "build_symbols",
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
    """A size guard was exceeded, or a draw could not be allocated."""


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
        if not isinstance(self.symmetric, (bool, np.bool_)):
            raise ValueError(f"symmetric must be true or false, got {self.symmetric!r}")
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
    """A stack of symbols (see :func:`build_symbols`): one row per draw in
    ``values``, the first row of its embedding circulant, shape (R, size),
    and in ``half``, entries 0..size//2 of its DFT diagonal (the unitary
    forward DFT of ``values``); entry size - j of the diagonal is
    conj(half[..., j]), so no row stores it.
    """

    values: np.ndarray
    half: np.ndarray

    @property
    def size(self) -> int:  # the embedding size N
        return self.values.shape[-1]


def replicate_stream(base_seed: int, replicate: int = 0) -> np.random.Generator:
    """Counter-keyed random stream: a pure function of (base_seed, replicate).

    Philox streams with distinct keys are independent, so replicates can be
    drawn in any order (or in parallel) with bit-identical results.
    """
    key = np.array([base_seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_into(rng: np.random.Generator, dist: str, out: np.ndarray) -> None:
    """Fill `out` with i.i.d. draws of mean 0 and variance 1."""
    if dist == "gaussian":
        rng.standard_normal(out=out)
    elif dist == "rademacher":
        np.multiply(rng.integers(0, 2, out.size), 2.0, out=out)
        out -= 1.0
    elif dist == "uniform_centered":
        # rounds as rng.uniform(-half, half): -half + (2 half) u
        half = math.sqrt(3.0)
        rng.random(out=out)
        out *= 2.0 * half
        out -= half
    else:
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
    return entries[..., np.minimum(k, k.size - k)]


def _entry_count(spec: MatrixSpec) -> int:
    size = embedding_size(spec)
    return size // 2 + 1 if spec.symmetric else size


def build_symbols(spec: MatrixSpec, replicates) -> SymbolVector:
    """A stack of symbols for `spec`, row i drawn from the stream
    ``replicate_stream(spec.seed, replicates[i])``.

    Draw order is fixed: each stream gives a single flat vector of
    `_entry_count(spec)` i.i.d. values, drawn straight into its row, so a
    given stream always produces the same matrix; the draw of a spec alone
    is ``build_symbols(spec, [0])``. One Philox bit generator, re-keyed per
    row at counter 0, stands in for each row's stream. Every row is laid
    out at once and takes one stacked :func:`dft_forward`, whose rows equal
    their transforms on their own. A draw that numpy cannot allocate raises
    ResourceLimitError.
    """
    rows, count = len(replicates), _entry_count(spec)
    try:
        entries = np.empty((rows, count))
    except (MemoryError, ValueError) as exc:  # ValueError: a size past numpy's own limit
        raise ResourceLimitError(
            f"cannot allocate a draw of {rows} x {count} entries: {exc}") from None
    rng = replicate_stream(spec.seed)
    state = rng.bit_generator.state
    for replicate, row in zip(replicates, entries):
        state["state"]["key"] = np.array([spec.seed, replicate], dtype=np.uint64)
        rng.bit_generator.state = state
        _draw_into(rng, spec.dist, row)
    return _symbols(spec, entries)


def _symbols(spec: MatrixSpec, entries: np.ndarray) -> SymbolVector:
    """The stack of symbols laid out from rows of draws, with their half DFT diagonals."""
    values = _layout(spec, entries)
    return SymbolVector(values=values, half=dft_forward(values))


def _operand(v, length: int, sym: SymbolVector, name: str) -> np.ndarray:
    """`v` checked as real, one vector of `length` per row of `sym`."""
    vv = np.asarray(v)
    if np.iscomplexobj(vv):
        raise ValueError(f"{name} must be real, got dtype {vv.dtype}")
    want = sym.half.shape[:-1] + (length,)
    if vv.shape != want:
        raise ValueError(f"{name} must have shape {want}, got {vv.shape}")
    return vv


def matvec(sym: SymbolVector, spec: MatrixSpec, x) -> np.ndarray:
    """Product of the p-by-n matrix with real x, via the embedding circulant.

    The first p entries of the circulant times x zero-padded to the
    embedding size: a circular convolution whose kernel has the half
    spectrum sqrt(size) * half. Column-reversed families
    read x back to front first. x holds one vector per symbol row, and
    row i of the result uses symbol row i.
    """
    xv = _operand(x, spec.n, sym, "x")
    if spec.reversed_columns:
        xv = xv[..., ::-1]
    out = circular_convolve(sym.half, xv, sym.size)[..., : spec.p]
    out *= math.sqrt(sym.size)
    return out


def rmatvec(sym: SymbolVector, spec: MatrixSpec, y) -> np.ndarray:
    """Transposed product (length-n output); adjoint of :func:`matvec`."""
    yv = _operand(y, spec.p, sym, "y")
    out = circular_convolve(np.conj(sym.half), yv, sym.size)[..., : spec.n]
    out *= math.sqrt(sym.size)
    if spec.reversed_columns:
        out = out[..., ::-1]
    return out


def dense_materialize(sym: SymbolVector, spec: MatrixSpec) -> np.ndarray:
    """Dense p-by-n matrices of the symbols, one per row of `sym` (oracle path)."""
    draws = sym.values.size // sym.size
    if draws * spec.p * spec.n > _DENSE_ENTRY_LIMIT:
        many = f"{draws} rows of " if draws > 1 else ""
        raise ResourceLimitError(f"dense path refuses {many}p*n = {spec.p * spec.n} > "
                                 f"{_DENSE_ENTRY_LIMIT}")
    rows = np.arange(spec.p)[:, None]
    cols = np.arange(spec.n)[None, :]
    if spec.reversed_columns:
        cols = cols[:, ::-1]
    return sym.values[..., (cols - rows) % sym.size]


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
