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
    "sweep_ratios",
    "paired_bound_experiment",
    "reference_constant",
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
    sigma_max: float
    b_value: float  # nan when not computed
    converged: bool


def _need_sigma(cfg: ExperimentConfig) -> bool:
    return any(stat in ("scaled_norm", "centered_norm_sq") for stat in cfg.statistics)


def _run_replicate(cfg: ExperimentConfig, r: int, need_b: bool, need_sigma: bool) -> _Record:
    spec = cfg.template_spec()
    sym = build_symbol(spec, replicate_stream(cfg.base_seed, r))
    if need_sigma:
        res = spectral_norm_fast(sym, spec, tol=cfg.norm_tol, max_iter=cfg.norm_max_iter)
        sigma, converged = res.sigma_max, res.converged
    else:
        sigma, converged = math.nan, True
    b_val = b_statistic(sym.diag, cfg.p).value if need_b else math.nan
    return _Record(replicate=r, sigma_max=sigma, b_value=b_val, converged=converged)


def _run_batch(args) -> list[_Record]:
    cfg, indices, need_b, need_sigma = args
    return [_run_replicate(cfg, r, need_b, need_sigma) for r in indices]


def _collect(cfg: ExperimentConfig, need_b: bool, need_sigma: bool = True) -> list[_Record]:
    indices = list(range(cfg.replicates))
    if cfg.workers == 1 or cfg.replicates == 1:
        records = _run_batch((cfg, indices, need_b, need_sigma))
    else:
        chunk = max(1, math.ceil(cfg.replicates / (cfg.workers * 4)))
        batches = [
            (cfg, indices[i : i + chunk], need_b, need_sigma)
            for i in range(0, cfg.replicates, chunk)
        ]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            records = [rec for batch in pool.map(_run_batch, batches) for rec in batch]
    # aggregation order is fixed by replicate index, not by scheduling
    records.sort(key=lambda rec: rec.replicate)
    return records


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
    need_b = "b_statistic" in cfg.statistics
    records = _collect(cfg, need_b, _need_sigma(cfg))
    if raw_path is not None:
        _write_raw(raw_path, cfg, records)
    kept = [rec for rec in records if rec.converged]
    excluded = cfg.replicates - len(kept)
    if excluded > _EXCLUSION_CAP * cfg.replicates or not kept:
        raise ExperimentError(
            f"{excluded} of {cfg.replicates} replicates failed to converge"
        )
    samples = {
        stat: np.array([_statistic_value(cfg, stat, rec) for rec in kept])
        for stat in cfg.statistics
    }
    return samples, excluded


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


def reference_constant(cfg: ExperimentConfig) -> float:
    """Limit of the scaled norm: 1 for circulant families, else the
    bilinear sine-kernel constant at the experiment's (p, n)."""
    if cfg.family in ("circulant", "reverse_circulant"):
        return 1.0
    est, _ = k_estimate(cfg.p, cfg.n)
    return est.k_value


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


def sweep_ratios(cfg_template: ExperimentConfig, ratios: Iterable[float], p: int) -> list[SweepRow]:
    """One experiment per aspect ratio with n = floor(p / ratio).

    The template's first statistic is summarized; its 0.05/0.5/0.95
    quantiles land in the row next to the asymptotic reference constant.
    """
    rows = []
    for ratio in ratios:
        if not 0 < ratio <= 1:
            raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
        n = math.floor(p / ratio)
        probes = tuple(sorted(set(cfg_template.quantile_probes) | {0.05, 0.5, 0.95}))
        cfg = replace(cfg_template, p=p, n=n, quantile_probes=probes)
        stat = cfg.statistics[0]
        summary = run_experiment(cfg)[stat]
        rows.append(
            SweepRow(
                ratio=p / n,
                p=p,
                n=n,
                count=summary.count,
                mean=summary.mean,
                q05=summary.quantile(0.05),
                median=summary.median,
                q95=summary.quantile(0.95),
                reference=reference_constant(cfg),
            )
        )
    return rows


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


def paired_bound_experiment(
    cfg: ExperimentConfig,
    slack: float = 1e-9,
    probe_levels: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95),
) -> PairedReport:
    """Per-draw comparison of the squared norm with its computable lower bound.

    Both quantities come from the same DFT diagonal, so the finite-sample
    inequality sigma^2 >= bound must hold draw by draw. The centered bounds
    are also checked for one-sided dominance against the shifted Gumbel law
    (needs at least 500 converged replicates, otherwise skipped).
    """
    _require_b_compatible(cfg)
    records = _collect(cfg, need_b=True)
    kept = [rec for rec in records if rec.converged]
    excluded = cfg.replicates - len(kept)
    if excluded > _EXCLUSION_CAP * cfg.replicates:
        raise ExperimentError(f"{excluded} of {cfg.replicates} replicates failed to converge")

    sigma_sq = np.array([rec.sigma_max**2 for rec in kept])
    bounds = np.array([cfg.p * rec.b_value for rec in kept])
    deficits = bounds - sigma_sq
    violations = int(np.sum(deficits > slack))
    centered = bounds / cfg.p - cfg.center()

    model = gumbel_model(cfg.p / cfg.n)
    dominance = None
    if centered.size >= 500:
        probes = [gumbel_quantile(q, model) for q in probe_levels]
        dominance = dominance_check(centered, model, probes)

    return PairedReport(
        count=len(kept),
        excluded=excluded,
        violations=violations,
        max_deficit=float(np.max(deficits)),
        model=model,
        dominance=dominance,
        sigma_sq=sigma_sq,
        bounds=bounds,
        centered_bounds=centered,
    )
