"""Spectral norms of rectangular random Toeplitz/circulant matrices.

FFT-accelerated structured products, the limiting constant of the scaled
Toeplitz norm with rigorous brackets, the shifted-Gumbel second-order
theory for Gaussian circulants, and a reproducible Monte Carlo harness.
"""

from .dft import autocorrelate, convolve_full, dft_forward, dft_inverse
from .extremes import (
    BStatistic,
    DominanceReport,
    GumbelModel,
    b_statistic,
    dominance_check,
    g_c_quantile,
    gumbel_cdf,
    gumbel_model,
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
    sweep_ratios,
)
from .norms import NormResult, scaled_norm, spectral_norm_dense, spectral_norm_fast
from .sinekernel import (
    ExtremalPair,
    KEstimate,
    i_value_direct,
    k_estimate,
    k_lower_bound,
    k_table,
    principal_right_singular,
)
from .structured import (
    MatrixSpec,
    ResourceLimitError,
    SymbolVector,
    build_symbol,
    dense_materialize,
    matvec,
    projection_entry,
    replicate_stream,
    rmatvec,
    symbol_from_values,
)

__version__ = "0.1.0"
