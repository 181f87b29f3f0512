"""Unitary DFT, real circular convolution, Toeplitz kernels.

The unitary transform uses a positive-sign kernel,

    forward:  y[s] = N**-0.5 * sum_t exp(+2j*pi*s*t/N) * x[t],

so that the forward transform of a real symbol vector yields the eigenvalues
of the associated circulant (see `specnorm.structured`). It takes real input
only and returns the first N//2 + 1 of them, the conjugate of one real FFT:
the rest are their conjugates, y[N - s] = conj(y[s]).
Every real product in the package (structured matrix products, the
Toeplitz sections that are the norm solver's Gram operators, the sine-kernel
Gram matrices as sections of the circulant of a power spectrum, the
lower-bound statistic's quadratic forms) is one :func:`circular_convolve`,
with the kernel held by its half spectrum; :func:`toeplitz_spectrum` lays
out the Toeplitz kernels.
Arbitrary lengths are supported at O(N log N) cost; the heavy lifting is
delegated to numpy's pocketfft backend, which falls back to a Bluestein
chirp-z reduction for lengths with large prime factors. Transforms act
along the last axis, so a stack of vectors transforms row by row, each
row bit-identical to its transform on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "dft_forward",
    "fast_length",
    "toeplitz_spectrum",
]


def _as_stack(x, name: str) -> np.ndarray:
    v = np.asarray(x)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError(f"{name} must have a nonempty last axis, got shape {v.shape}")
    return v


@lru_cache(maxsize=256)
def fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n (a cheap FFT-friendly padding size)."""
    if n <= 1:
        return 1
    m = n
    while True:
        k = m
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return m
        m += 1


def dft_forward(x) -> np.ndarray:
    """Half of the unitary DFT with the positive-sign kernel, of a real x.

    One scaled ``rfft`` (negative-sign kernel), conjugated: y[s] for
    s = 0..N//2. The rest of the transform is y[N - s] = conj(y[s]).

    Parameters
    ----------
    x : array_like
        Real vector of any length N >= 1, or a stack of them along the
        leading axes. Complex input raises ValueError.

    Returns
    -------
    numpy.ndarray of complex, shape (..., N//2 + 1)
        y with y[s] = N**-0.5 * sum_t exp(2j*pi*s*t/N) * x[t] along the last
        axis. With weights 1, 2, ..., 2 and a last weight of 1 at even N,
        sum |y[s]|^2 is the squared Euclidean norm of x.
    """
    v = _as_stack(x, "x")
    if np.iscomplexobj(v):
        raise ValueError(f"x must be real, got dtype {v.dtype}")
    return np.conjugate(np.fft.rfft(v, norm="ortho"))


def half_spectrum(x, size: int) -> np.ndarray:
    """First size//2 + 1 DFT coefficients (negative-sign kernel, no scaling)
    of the real x zero-padded to `size`, along the last axis."""
    v = _as_stack(x, "x")
    if v.shape[-1] > size:
        raise ValueError(f"x has {v.shape[-1]} entries, more than size {size}")
    return np.fft.rfft(v, size)


def circular_convolve(spectrum, x, size: int) -> np.ndarray:
    """Circular convolution of the real x, zero-padded to `size`, with the
    real kernel whose :func:`half_spectrum` is `spectrum`.

    Computes irfft(spectrum * rfft(x, size), size) along the last axis;
    `spectrum` broadcasts against the stack of x, and may stack more
    kernels than x has rows: x of shape (R, 1, L) against a spectrum of
    shape (R, k, h) takes one forward transform per row for its k products.
    A complex product can round differently with its operands swapped, so
    the product keeps this operand order and a row rounds the same in a
    stack of any size.
    """
    f = half_spectrum(x, size)
    # in place when the spectrum's shape ends f's, so that the product has f's shape
    shape = np.shape(spectrum)
    out = f if shape == f.shape[f.ndim - len(shape) :] else None
    return np.fft.irfft(np.multiply(spectrum, f, out=out), size)


def toeplitz_spectrum(column, size: int, row=None) -> tuple[np.ndarray, int]:
    """Circular kernel of the size x size Toeplitz matrix with first column
    `column` and first row `row` (default `column`: a symmetric matrix).

    Returns the kernel's :func:`half_spectrum` and its length m; the matrix
    applies to x as ``circular_convolve(spectrum, x, m)[..., :size]``. With
    K = min(len(column), size) entries (zero past them), lag d >= 0 sits at
    kernel index d and lag -d at m - d, with m = fast_length(size + K - 1),
    so no wrapped lag reaches the size x size window. A stack of columns
    (and rows) gives one kernel per matrix, along the leading axes.
    """
    c = _as_stack(column, "column")
    r = c if row is None else _as_stack(row, "row")
    k = min(c.shape[-1], size)
    m = fast_length(size + k - 1)
    kernel = np.zeros(np.broadcast_shapes(c.shape[:-1], r.shape[:-1]) + (m,))
    kernel[..., :k] = c[..., :k]
    kernel[..., m - k + 1 :] = r[..., 1:k][..., ::-1]
    return half_spectrum(kernel, m), m

