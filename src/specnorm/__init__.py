"""Spectral norms of rectangular random Toeplitz/circulant matrices.

FFT-accelerated structured products, the limiting constant of the scaled
Toeplitz norm with rigorous brackets, the shifted-Gumbel second-order
theory for Gaussian circulants, and a reproducible Monte Carlo harness.
"""

from .dft import dft_forward
from .extremes import (
    BStatistic,
    DominanceReport,
    b_statistic,
    dominance_check,
    g_c_quantile,
    gumbel_cdf,
    gumbel_quantile,
    theta_c,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentError,
    McSummary,
    PairedReport,
    collect_samples,
    paired_bound_experiment,
    run_experiment,
    shutdown_pool,
)
from .norms import NormResult, scaled_norm, spectral_norm_dense, spectral_norm_fast
from .sinekernel import (
    ExtremalPair,
    KEstimate,
    k_estimate,
    k_table,
    principal_right_singular,
)
from .structured import (
    MatrixSpec,
    ResourceLimitError,
    SymbolVector,
    build_symbols,
    dense_materialize,
    matvec,
    projection_entry,
    replicate_stream,
    rmatvec,
)

__version__ = "0.1.0"
