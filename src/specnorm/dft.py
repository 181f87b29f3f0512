"""Unitary discrete Fourier transforms, full convolution, autocorrelation.

All transforms use the unitary convention with a positive-sign kernel,

    forward:  y[s] = N**-0.5 * sum_t exp(+2j*pi*s*t/N) * x[t],

so that the forward transform of a real symbol vector directly yields the
eigenvalue diagonal of the associated circulant (see `specnorm.structured`).
Arbitrary lengths are supported at O(N log N) cost; the heavy lifting is
delegated to numpy's pocketfft backend, which falls back to a Bluestein
chirp-z reduction for lengths with large prime factors. The two transforms
act along the last axis, so a stack of vectors transforms row by row, each
row bit-identical to its transform on its own.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "dft_forward",
    "dft_inverse",
    "convolve_full",
    "autocorrelate",
    "fast_length",
]


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be nonempty")
    return v


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
    """Unitary DFT with the positive-sign kernel.

    Parameters
    ----------
    x : array_like
        Real or complex vector of any length N >= 1, or a stack of them
        along the leading axes.

    Returns
    -------
    numpy.ndarray of complex
        y with y[s] = N**-0.5 * sum_t exp(2j*pi*s*t/N) * x[t] along the last
        axis. Preserves the Euclidean norm of each input vector.
    """
    v = _as_stack(x, "x")
    # numpy's ifft carries the +2j*pi kernel and a 1/N factor
    y = np.fft.ifft(v)
    y *= np.sqrt(v.shape[-1])
    return y


def dft_inverse(y) -> np.ndarray:
    """Inverse of :func:`dft_forward` (conjugate kernel, same normalization)."""
    v = _as_stack(y, "y")
    x = np.fft.fft(v)
    x /= np.sqrt(v.shape[-1])
    return x


def convolve_full(a, b) -> np.ndarray:
    """Full linear convolution c[k] = sum_j a[j] * b[k-j].

    Output length is len(a) + len(b) - 1. Computed by FFT with zero padding
    to a 5-smooth length; real inputs stay real.
    """
    u = _as_vector(a, "a")
    v = _as_vector(b, "b")
    n = u.size + v.size - 1
    m = fast_length(n)
    if np.isrealobj(u) and np.isrealobj(v):
        return np.fft.irfft(np.fft.rfft(u, m) * np.fft.rfft(v, m), m)[:n]
    return np.fft.ifft(np.fft.fft(u, m) * np.fft.fft(v, m))[:n]


def autocorrelate(a) -> np.ndarray:
    """Two-sided autocorrelation at lags -(L-1), ..., L-1.

    Returns alpha with alpha[j] = sum_v a[j+v] * conj(a[v]), stored so that
    lag j sits at index j + L - 1. For any input, alpha at lag 0 equals
    ||a||_2**2 and alpha[-j] = conj(alpha[j]).
    """
    v = _as_vector(a, "a")
    flipped = np.conj(v[::-1])
    return convolve_full(v, flipped).astype(complex)
