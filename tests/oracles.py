"""Reference values that the tests compare the package against.

They take no part in the package's computations: `i_value_direct` forms the
product polynomial by numpy's direct convolution, not by the package's FFT
path, and `symbol_from_values` wraps a prescribed symbol row for fixtures.
"""

import math

import numpy as np

from specnorm.dft import dft_forward
from specnorm.sinekernel import ExtremalPair
from specnorm.structured import MatrixSpec, SymbolVector, embedding_size


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
    return float(np.linalg.norm(np.convolve(v, w)))


def symbol_from_values(values, spec: MatrixSpec) -> SymbolVector:
    """Wrap an explicit symbol row as a one-row stack."""
    v = np.asarray(values, dtype=float)
    size = embedding_size(spec)
    if v.shape != (size,):
        raise ValueError(f"symbol must have length {size}, got {v.shape}")
    return SymbolVector(values=v[None], diag=dft_forward(v[None]))
