"""Reproducible Monte Carlo replication of scaled-norm statistics.

Each replicate r draws its matrix from an independent Philox stream keyed
by (base_seed, r), so results do not depend on execution order or worker
count: reruns and parallel runs aggregate bit-identical values.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .extremes import (
    DominanceReport,
    GumbelModel,
    b_statistic,
    dominance_check,
    gumbel_model,
    gumbel_quantile,
)
from .norms import scaled_norm, spectral_norm_fast
from .sinekernel import k_estimate
from .structured import MatrixSpec, build_symbol, replicate_stream

__all__ = [
    "STATISTICS",
    "ExperimentConfig",
    "ExperimentError",
    "McSummary",
    "SweepRow",
    "PairedReport",
    "collect_samples",
    "run_experiment",
    "sweep_configs",
    "sweep_ratios",
    "paired_bound_experiment",
    "reference_constant",
    "n_for_ratio",
    "summary_row",
    "gumbel_dominance",
]

STATISTICS = ("scaled_norm", "centered_norm_sq", "b_statistic")

# fraction of non-converged replicates tolerated before the run is failed
_EXCLUSION_CAP = 1e-3


class ExperimentError(RuntimeError):
    """Too many replicates failed to converge."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a seedless matrix template plus replication settings."""

    family: str
    p: int
    n: int
    symmetric: bool = False
    dist: str = "gaussian"
    replicates: int = 1000
    base_seed: int = 0
    statistics: tuple[str, ...] = ("scaled_norm",)
    quantile_probes: tuple[float, ...] = (0.05, 0.5, 0.95)
    workers: int = 1
    norm_tol: float = 1e-10
    norm_max_iter: int = 100_000  # cap on the norm solver's Krylov steps
    center_offset: float | None = None  # None uses log(n/2)

    def __post_init__(self):
        # reuse the spec validation for the template fields
        self.template_spec()
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        for stat in self.statistics:
            if stat not in STATISTICS:
                raise ValueError(f"unknown statistic {stat!r}")
        for q in self.quantile_probes:
            if not 0 < q < 1:
                raise ValueError(f"quantile probes must lie in (0, 1), got {q}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if "b_statistic" in self.statistics:
            _require_b_compatible(self)

    def template_spec(self) -> MatrixSpec:
        return MatrixSpec(
            family=self.family,
            p=self.p,
            n=self.n,
            symmetric=self.symmetric,
            dist=self.dist,
            seed=self.base_seed,
        )

    def center(self) -> float:
        if self.center_offset is not None:
            return self.center_offset
        return math.log(self.n / 2.0)


def _require_b_compatible(cfg: ExperimentConfig) -> None:
    if cfg.family != "circulant" or cfg.symmetric or cfg.dist != "gaussian":
        raise ValueError("the lower-bound statistic needs a non-symmetric Gaussian circulant")
    if cfg.n % 2 != 0:
        raise ValueError("the lower-bound statistic needs an even column count")


@dataclass(frozen=True)
class McSummary:
    statistic: str
    count: int
    excluded: int
    mean: float
    median: float
    quantiles: tuple[tuple[float, float], ...]
    raw_path: str | None = None

    def quantile(self, q: float) -> float:
        for prob, value in self.quantiles:
            if prob == q:
                return value
        raise KeyError(f"quantile {q} was not requested")


@dataclass(frozen=True)
class _Record:
    replicate: int
    sigma_max: float  # nan when not computed
    b_value: float  # nan when not computed
    converged: bool


def _replicate(cfg: ExperimentConfig, r: int) -> _Record:
    """Replicate r: the norm and/or the lower-bound statistic, as cfg.statistics need."""
    spec = cfg.template_spec()
    sym = build_symbol(spec, replicate_stream(cfg.base_seed, r))
    sigma, converged = math.nan, True
    if any(stat != "b_statistic" for stat in cfg.statistics):
        res = spectral_norm_fast(sym, spec, tol=cfg.norm_tol, max_iter=cfg.norm_max_iter)
        sigma, converged = res.sigma_max, res.converged
    b_val = b_statistic(sym.diag, cfg.p).value if "b_statistic" in cfg.statistics else math.nan
    return _Record(replicate=r, sigma_max=sigma, b_value=b_val, converged=converged)


def _collect(cfg: ExperimentConfig) -> list[_Record]:
    """All replicates in index order, serially or over cfg.workers processes."""
    indices = range(cfg.replicates)
    if cfg.workers == 1 or cfg.replicates == 1:
        return [_replicate(cfg, r) for r in indices]
    chunk = math.ceil(cfg.replicates / (4 * cfg.workers))
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(_replicate, repeat(cfg), indices, chunksize=chunk))


def _converged(cfg: ExperimentConfig, records: Sequence[_Record]) -> list[_Record]:
    """The converged records; raises ExperimentError past the exclusion cap."""
    kept = [rec for rec in records if rec.converged]
    excluded = cfg.replicates - len(kept)
    if excluded > _EXCLUSION_CAP * cfg.replicates or not kept:
        raise ExperimentError(f"{excluded} of {cfg.replicates} replicates failed to converge")
    return kept


def _statistic_value(cfg: ExperimentConfig, stat: str, rec: _Record) -> float:
    if stat == "scaled_norm":
        return scaled_norm(rec.sigma_max, cfg.template_spec())
    if stat == "centered_norm_sq":
        return rec.sigma_max**2 / cfg.p - cfg.center()
    if stat == "b_statistic":
        return rec.b_value - cfg.center()
    raise ValueError(f"unknown statistic {stat!r}")


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    # linear interpolation between order statistics
    m = sorted_values.size
    h = (m - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return float(sorted_values[lo])
    return float(sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo]))


def _summarize(cfg: ExperimentConfig, stat: str, values: np.ndarray, excluded: int,
               raw_path: str | None) -> McSummary:
    s = np.sort(values)
    quantiles = tuple((q, _quantile(s, q)) for q in cfg.quantile_probes)
    return McSummary(
        statistic=stat,
        count=int(s.size),
        excluded=excluded,
        mean=float(np.mean(s)),
        median=_quantile(s, 0.5),
        quantiles=quantiles,
        raw_path=raw_path,
    )


def _write_raw(path: str, cfg: ExperimentConfig, records: Sequence[_Record]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "statistic", "value", "flag"])
        for rec in records:
            flag = "ok" if rec.converged else "excluded"
            for stat in cfg.statistics:
                value = _statistic_value(cfg, stat, rec)
                writer.writerow([rec.replicate, stat, format(value, ".12g"), flag])


def collect_samples(
    cfg: ExperimentConfig, raw_path: str | None = None
) -> tuple[dict[str, np.ndarray], int]:
    """Per-statistic sample arrays over converged replicates, plus the
    excluded count. Raises ExperimentError past the 0.1% exclusion cap."""
    records = _collect(cfg)
    if raw_path is not None:
        _write_raw(raw_path, cfg, records)
    kept = _converged(cfg, records)
    samples = {
        stat: np.array([_statistic_value(cfg, stat, rec) for rec in kept])
        for stat in cfg.statistics
    }
    return samples, cfg.replicates - len(kept)


def run_experiment(cfg: ExperimentConfig, raw_path: str | None = None) -> dict[str, McSummary]:
    """Run all replicates and summarize each requested statistic.

    Returns one summary per statistic, keyed by name. Replicates whose norm
    iteration did not converge are excluded from the summaries but counted;
    if they exceed 0.1% of the total the experiment raises ExperimentError.
    """
    samples, excluded = collect_samples(cfg, raw_path)
    return {
        stat: _summarize(cfg, stat, values, excluded, raw_path)
        for stat, values in samples.items()
    }


def reference_constant(cfg: ExperimentConfig | MatrixSpec) -> float:
    """Limit of the scaled norm: 1 for circulant families, else the
    bilinear sine-kernel constant at (p, n). Reads only family, p and n."""
    if cfg.family in ("circulant", "reverse_circulant"):
        return 1.0
    est, _ = k_estimate(cfg.p, cfg.n)
    return est.k_value


def n_for_ratio(p: int, ratio: float) -> int:
    """Column count of a sweep point: n = floor(p / ratio), ratio in (0, 1]."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
    return math.floor(p / ratio)


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    p: int
    n: int
    count: int
    mean: float
    q05: float
    median: float
    q95: float
    reference: float


def summary_row(cfg: ExperimentConfig, raw_path: str | None = None) -> SweepRow:
    """The first statistic's mean and 0.05/0.5/0.95 quantiles next to the
    asymptotic reference constant."""
    samples, _ = collect_samples(cfg, raw_path)
    s = np.sort(samples[cfg.statistics[0]])
    return SweepRow(
        ratio=cfg.p / cfg.n,
        p=cfg.p,
        n=cfg.n,
        count=int(s.size),
        mean=float(np.mean(s)),
        q05=_quantile(s, 0.05),
        median=_quantile(s, 0.5),
        q95=_quantile(s, 0.95),
        reference=reference_constant(cfg),
    )


def sweep_configs(
    cfg_template: ExperimentConfig, ratios: Iterable[float], p: int
) -> list[ExperimentConfig]:
    """The template at each aspect ratio: p rows and n = n_for_ratio(p, ratio)."""
    return [replace(cfg_template, p=p, n=n_for_ratio(p, r)) for r in ratios]


def sweep_ratios(cfg_template: ExperimentConfig, ratios: Iterable[float], p: int) -> list[SweepRow]:
    """One summary row per aspect ratio with n = floor(p / ratio)."""
    return [summary_row(cfg) for cfg in sweep_configs(cfg_template, ratios, p)]


@dataclass(frozen=True)
class PairedReport:
    count: int
    excluded: int
    violations: int
    max_deficit: float  # largest (bound - sigma^2) observed, <= slack when valid
    model: GumbelModel
    dominance: DominanceReport | None
    sigma_sq: np.ndarray
    bounds: np.ndarray
    centered_bounds: np.ndarray


_DOMINANCE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


def gumbel_dominance(centered: np.ndarray, model: GumbelModel) -> DominanceReport | None:
    """Dominance check of centered samples at the model's 0.05, 0.25, 0.5,
    0.75 and 0.95 quantiles, or None below the 500-sample floor of the check."""
    if len(centered) < 500:
        return None
    probes = [gumbel_quantile(q, model) for q in _DOMINANCE_LEVELS]
    return dominance_check(centered, model, probes)


def paired_bound_experiment(cfg: ExperimentConfig, slack: float = 1e-9) -> PairedReport:
    """Per-draw comparison of the squared norm with its computable lower bound.

    Both quantities come from the same DFT diagonal, so the finite-sample
    inequality sigma^2 >= bound must hold draw by draw. The centered bounds
    are also checked for one-sided dominance against the shifted Gumbel law
    (needs at least 500 converged replicates, otherwise skipped).
    """
    cfg = replace(cfg, statistics=("scaled_norm", "b_statistic"))
    kept = _converged(cfg, _collect(cfg))

    sigma_sq = np.array([rec.sigma_max**2 for rec in kept])
    bounds = np.array([cfg.p * rec.b_value for rec in kept])
    deficits = bounds - sigma_sq
    centered = bounds / cfg.p - cfg.center()
    model = gumbel_model(cfg.p / cfg.n)
    return PairedReport(
        count=len(kept),
        excluded=cfg.replicates - len(kept),
        violations=int(np.sum(deficits > slack)),
        max_deficit=float(np.max(deficits)),
        model=model,
        dominance=gumbel_dominance(centered, model),
        sigma_sq=sigma_sq,
        bounds=bounds,
        centered_bounds=centered,
    )
