"""Reproducible Monte Carlo replication of scaled-norm statistics.

Each replicate r draws its matrix from an independent Philox stream keyed
by (base_seed, r). Replicates run in blocks of consecutive indices whose
norms are solved together, and every operation of the solve acts on each
replicate alone, so results depend neither on execution order, nor on the
block size, nor on the worker count: reruns and parallel runs aggregate
bit-identical values.

Pooled runs share one worker pool per process (see `_pool`): it starts on
the first pooled call and serves every later call with the same worker
count, so a sweep pays process start-up once. Its workers stay until
`shutdown_pool` or interpreter exit. Workers keep the module state they
started with; a global changed in the parent afterwards does not reach
them.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .extremes import DominanceReport, GumbelModel, b_statistic, dominance_check, gumbel_model
from .norms import NormResult, check_solver_settings, require_scalable, scaled_norm, spectral_norms
from .sinekernel import k_estimate
from .structured import (
    _CIRCULANT_LIKE,
    MatrixSpec,
    ResourceLimitError,
    build_symbol,
    embedding_size,
    replicate_stream,
    require_integer,
    stack_symbols,
)

__all__ = [
    "STATISTICS",
    "ExperimentConfig",
    "ExperimentError",
    "McSummary",
    "PairedReport",
    "collect_samples",
    "run_experiment",
    "paired_bound_experiment",
    "reference_constant",
    "n_for_ratio",
    "shutdown_pool",
]

STATISTICS = ("scaled_norm", "centered_norm_sq", "b_statistic")

_log = logging.getLogger(__name__)

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
    workers: int = 1
    norm_tol: float = 1e-10  # norm solver's relative residual, clamped to [16 eps, 1e-8]
    norm_max_iter: int = 100_000  # cap on the norm solver's Krylov steps

    def __post_init__(self):
        # reuse the spec validation for the template fields
        self.template_spec()
        require_scalable(self.n)  # before any solve: each statistic needs log n or log(n/2)
        require_integer("replicates", self.replicates)
        require_integer("workers", self.workers)
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        for stat in self.statistics:
            if stat not in STATISTICS:
                raise ValueError(f"unknown statistic {stat!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        try:
            check_solver_settings(self.norm_tol, self.norm_max_iter)
        except ValueError as exc:  # name the config keys, norm_tol and norm_max_iter
            raise ValueError(f"norm_{exc}") from None
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
        return math.log(self.n / 2.0)


def _require_b_compatible(cfg: ExperimentConfig) -> None:
    if cfg.family != "circulant" or cfg.symmetric or cfg.dist != "gaussian":
        raise ValueError("the lower-bound statistic needs a non-symmetric Gaussian circulant")
    if cfg.n % 2 != 0:
        raise ValueError("the lower-bound statistic needs an even column count")


@dataclass(frozen=True)
class McSummary:
    """One statistic over the converged replicates: its mean and its 0.05,
    0.5 and 0.95 quantiles (linear interpolation between order statistics)."""

    statistic: str
    count: int
    excluded: int
    mean: float
    q05: float
    median: float
    q95: float


@dataclass(frozen=True)
class _Record:
    replicate: int
    sigma_max: float  # nan when not computed
    b_value: float  # nan when not computed
    converged: bool
    steps: int = 0  # Krylov steps of the norm solve, 0 when not computed
    residual: float = 0.0  # its certified residual bound


# bytes one block of replicates may hold (Krylov bases plus symbols and
# spectra); a block has as many replicates as fit, and at least one
_BLOCK_BYTES = 2**22


def _block_rows(cfg: ExperimentConfig) -> int:
    """Replicates per block: as many as fit in _BLOCK_BYTES, and no more than
    an equal share of the replicates per worker."""
    spec = cfg.template_spec()
    # per replicate: its symbol and diagonal, their stacked copy, and the
    # work arrays of one product, about 72 bytes per embedding entry; the
    # older count of 96 stays until block sizing is measured again
    row_bytes = 96 * embedding_size(spec)
    if _needs_norm(cfg):
        row_bytes += 8 * spec.p * min(cfg.norm_max_iter, spec.p)  # a full basis
    fit = max(1, _BLOCK_BYTES // row_bytes)
    return min(fit, math.ceil(cfg.replicates / cfg.workers))


def _needs_norm(cfg: ExperimentConfig) -> bool:
    return any(stat != "b_statistic" for stat in cfg.statistics)


def _replicate(cfg: ExperimentConfig, block: range) -> list[_Record]:
    """Replicates `block`: each drawn from its own stream, their norms solved
    as one block, then the lower-bound statistic per replicate, as
    cfg.statistics need."""
    spec = cfg.template_spec()
    syms = [build_symbol(spec, replicate_stream(cfg.base_seed, r)) for r in block]
    norms = [NormResult(math.nan, 0, True, 0.0)] * len(syms)
    if _needs_norm(cfg):
        norms = spectral_norms(stack_symbols(syms), spec, cfg.norm_tol, cfg.norm_max_iter)
    want_b = "b_statistic" in cfg.statistics
    return [
        _Record(
            replicate=r,
            sigma_max=res.sigma_max,
            b_value=b_statistic(sym.diag, cfg.p).value if want_b else math.nan,
            converged=res.converged,
            steps=res.iterations,
            residual=res.residual,
        )
        for r, sym, res in zip(block, syms, norms)
    ]


# this process's worker pool, ((pid, workers), pool), or None before the
# first pooled call; _POOL_LOCK guards it and serializes pooled calls, and
# is reentrant because a pooled call shuts a stale pool down under it
_POOL: tuple[tuple[int, int], ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.RLock()


def _pool(workers: int) -> tuple[ProcessPoolExecutor, bool]:
    """This process's pool of `workers` processes, and whether it was just
    started. A pool of another size is shut down first; a pool inherited
    through fork belongs to the parent and is left to it."""
    global _POOL
    key = (os.getpid(), workers)
    if _POOL is not None and _POOL[0] == key:
        return _POOL[1], False
    shutdown_pool()
    _POOL = (key, ProcessPoolExecutor(max_workers=workers))
    return _POOL[1], True


def shutdown_pool() -> None:
    """Shut down this process's Monte Carlo worker pool, if any, releasing
    its workers; the next pooled call starts a new one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0][0] == os.getpid():
            _POOL[1].shutdown()
        _POOL = None


def _pooled(cfg: ExperimentConfig, blocks: list[range]) -> tuple[list[list[_Record]], bool]:
    """The blocks' records in block order over the pool, and whether the
    pool was started for this call. A pool that raises BrokenProcessPool is
    dropped. If it was reused, the whole call reruns once on a new pool,
    whatever broke it: a worker that died since the last call, or a worker
    crashed by this call's own blocks, which then costs the call twice
    before it raises. A pool started for this call raises at once."""
    chunk = math.ceil(len(blocks) / (4 * cfg.workers))
    with _POOL_LOCK:
        while True:
            pool, started = _pool(cfg.workers)
            try:
                return list(pool.map(_replicate, repeat(cfg), blocks, chunksize=chunk)), started
            except BrokenProcessPool:
                shutdown_pool()
                if started:
                    raise


def _collect(cfg: ExperimentConfig) -> list[_Record]:
    """All replicates in index order, block by block, serially or over
    cfg.workers processes. A replicate's record does not depend on the
    block it falls in, so neither the block size nor the worker count
    changes any result."""
    t0 = time.perf_counter()
    size = _block_rows(cfg)
    blocks = [range(lo, min(lo + size, cfg.replicates)) for lo in range(0, cfg.replicates, size)]
    if cfg.workers == 1 or len(blocks) == 1:
        parts = [_replicate(cfg, block) for block in blocks]
        how = "serial"
    else:
        parts, started = _pooled(cfg, blocks)
        how = f"{cfg.workers} workers, pool {'started' if started else 'reused'}"
    seconds = time.perf_counter() - t0
    records = [rec for part in parts for rec in part]
    solves = ""
    if _needs_norm(cfg) and _log.isEnabledFor(logging.INFO):  # numpy's first median maps 0.7 MiB
        steps = [rec.steps for rec in records]
        solves = (f", steps median {np.median(steps):g} max {max(steps)}, "
                  f"residual max {max(rec.residual for rec in records):.3g}")
    _log.info("%d replicates in %d blocks, %s: %.3f s%s",
              cfg.replicates, len(blocks), how, seconds, solves)
    return records


# failed replicates named in an ExperimentError
_NAMED_FAILURES = 5


def _converged(cfg: ExperimentConfig, records: Sequence[_Record]) -> list[_Record]:
    """The converged records; raises ExperimentError past the exclusion cap,
    naming the first failed replicates by their (base_seed, replicate) pair."""
    kept = [rec for rec in records if rec.converged]
    failed = [rec.replicate for rec in records if not rec.converged]
    if len(failed) > _EXCLUSION_CAP * cfg.replicates or not kept:
        pairs = ", ".join(f"({cfg.base_seed}, {r})" for r in failed[:_NAMED_FAILURES])
        more = f" and {len(failed) - _NAMED_FAILURES} more" if len(failed) > _NAMED_FAILURES else ""
        raise ExperimentError(
            f"{len(failed)} of {cfg.replicates} replicates failed to converge; "
            f"failed (base_seed, replicate): {pairs}{more}. Each replays as "
            "spectral_norm_fast(build_symbol(spec, replicate_stream(base_seed, replicate)), "
            "spec) with spec the config's matrix at seed base_seed"
        )
    return kept


def _statistic_value(cfg: ExperimentConfig, stat: str, records: Sequence[_Record]) -> np.ndarray:
    """The statistic of each record, in record order."""
    if stat == "scaled_norm":
        return scaled_norm(np.array([rec.sigma_max for rec in records]), cfg.template_spec())
    if stat == "centered_norm_sq":
        sigma = np.array([rec.sigma_max for rec in records])
        return sigma * sigma / cfg.p - cfg.center()
    if stat == "b_statistic":
        return np.array([rec.b_value for rec in records]) - cfg.center()
    raise ValueError(f"unknown statistic {stat!r}")


def _summarize(stat: str, values: np.ndarray, excluded: int) -> McSummary:
    s = np.sort(values)
    q05, median, q95 = np.quantile(s, (0.05, 0.5, 0.95)).tolist()
    return McSummary(
        statistic=stat,
        count=int(s.size),
        excluded=excluded,
        mean=float(np.mean(s)),
        q05=q05,
        median=median,
        q95=q95,
    )


def _write_raw(path: str, cfg: ExperimentConfig, records: Sequence[_Record]) -> None:
    columns = [_statistic_value(cfg, stat, records).tolist() for stat in cfg.statistics]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate", "statistic", "value", "flag"])
        for i, rec in enumerate(records):
            flag = "ok" if rec.converged else "excluded"
            for stat, values in zip(cfg.statistics, columns):
                writer.writerow([rec.replicate, stat, format(values[i], ".12g"), flag])


def collect_samples(
    cfg: ExperimentConfig, raw_path: str | None = None
) -> tuple[dict[str, np.ndarray], int]:
    """Per-statistic sample arrays over converged replicates, plus the
    excluded count. Raises ExperimentError past the 0.1% exclusion cap."""
    records = _collect(cfg)
    if raw_path is not None:
        _write_raw(raw_path, cfg, records)
    kept = _converged(cfg, records)
    samples = {stat: _statistic_value(cfg, stat, kept) for stat in cfg.statistics}
    return samples, cfg.replicates - len(kept)


def run_experiment(cfg: ExperimentConfig, raw_path: str | None = None) -> dict[str, McSummary]:
    """Run all replicates and summarize each requested statistic.

    Returns one summary per statistic, keyed by name. Replicates whose norm
    iteration did not converge are excluded from the summaries but counted;
    if they exceed 0.1% of the total the experiment raises ExperimentError.
    """
    samples, excluded = collect_samples(cfg, raw_path)
    return {stat: _summarize(stat, values, excluded) for stat, values in samples.items()}


def reference_constant(cfg: ExperimentConfig | MatrixSpec) -> float:
    """Limit of the scaled norm: 1 for circulant families, else the
    bilinear sine-kernel constant at (p, n). Reads only family, p and n.
    A refused Krylov basis is re-raised with the constant and (p, n) named."""
    if cfg.family in _CIRCULANT_LIKE:
        return 1.0
    try:
        est, _ = k_estimate(cfg.p, cfg.n)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"reference constant K(p={cfg.p}, n={cfg.n}): {exc}") from exc
    return est.k_value


def n_for_ratio(p: int, ratio: float) -> int:
    """Column count of a sweep point: n = floor(p / ratio), ratio in (0, 1]."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
    return math.floor(p / ratio)


@dataclass(frozen=True)
class PairedReport:
    count: int
    excluded: int
    violations: int
    max_deficit: float  # largest (bound - sigma^2) observed, <= _BOUND_SLACK when valid
    model: GumbelModel
    dominance: DominanceReport | None
    sigma_sq: np.ndarray
    bounds: np.ndarray
    centered_bounds: np.ndarray


# tolerance of the per-draw inequality sigma^2 >= bound before a draw counts as a violation
_BOUND_SLACK = 1e-9


def paired_bound_experiment(cfg: ExperimentConfig) -> PairedReport:
    """Per-draw comparison of the squared norm with its computable lower bound.

    Both quantities come from the same DFT diagonal, so the finite-sample
    inequality sigma^2 >= bound must hold draw by draw, up to _BOUND_SLACK.
    The centered bounds are also checked for one-sided dominance against the
    shifted Gumbel law (needs at least 500 converged replicates, otherwise
    skipped). The model is built first, so a ratio below the floor of
    theta(c) is refused before any replicate is solved.
    """
    model = gumbel_model(cfg.p / cfg.n)
    cfg = replace(cfg, statistics=("scaled_norm", "b_statistic"))
    kept = _converged(cfg, _collect(cfg))

    sigma = np.array([rec.sigma_max for rec in kept])
    sigma_sq = sigma * sigma
    bounds = np.array([cfg.p * rec.b_value for rec in kept])
    deficits = bounds - sigma_sq
    centered = bounds / cfg.p - cfg.center()
    return PairedReport(
        count=len(kept),
        excluded=cfg.replicates - len(kept),
        violations=int(np.sum(deficits > _BOUND_SLACK)),
        max_deficit=float(np.max(deficits)),
        model=model,
        dominance=dominance_check(centered, model),
        sigma_sq=sigma_sq,
        bounds=bounds,
        centered_bounds=centered,
    )
