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
them, and they log nothing: a block's diagnostics return in its arrays, and
`_collect` logs one line per run, so `-v` prints the same serially or
pooled. On glibc, workers keep the heap their replicates free (see
`_keep_freed_heap`).
"""

from __future__ import annotations

import contextlib
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
from typing import TextIO

import numpy as np

from .extremes import DominanceReport, b_statistic, dominance_check, theta_c
from .norms import DEFAULT_MAX_ITER, DEFAULT_TOL, check_solver_settings, require_scalable
from .norms import scaled_norm, spectral_norms
from .sinekernel import k_estimate
from .structured import (
    _CIRCULANT_LIKE,
    MatrixSpec,
    ResourceLimitError,
    build_symbols,
    embedding_size,
    require_integer,
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
    """One experiment: a matrix template, drawn from base_seed, plus replication settings."""

    family: str
    p: int
    n: int
    symmetric: bool = False
    dist: str = "gaussian"
    replicates: int = 1000
    base_seed: int = 0
    statistics: tuple[str, ...] = ("scaled_norm",)
    workers: int = 1
    norm_tol: float = DEFAULT_TOL  # norm solver's relative residual, clamped to [16 eps, 1e-8]
    norm_max_iter: int = DEFAULT_MAX_ITER  # cap on the norm solver's Krylov steps

    def __post_init__(self):
        # reuse the spec validation for the template fields
        self.template_spec()
        require_scalable(self.n)  # before any solve: each statistic needs log n or log(n/2)
        require_integer("replicates", self.replicates)
        require_integer("workers", self.workers)
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        stats = self.statistics
        if isinstance(stats, str) or not stats:
            raise ValueError(f"statistics must be a nonempty tuple of names, got {stats!r}")
        if len(set(stats)) < len(stats):
            raise ValueError(f"statistics name a statistic twice: {stats!r}")
        for stat in stats:
            if stat not in STATISTICS:
                raise ValueError(f"unknown statistic {stat!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        try:
            check_solver_settings(self.norm_tol, self.norm_max_iter)
        except ValueError as exc:  # name the config keys, norm_tol and norm_max_iter
            raise ValueError(f"norm_{exc}") from None
        if "b_statistic" in self.statistics:
            _require_gaussian_circulant(self, "the lower-bound statistic")
            if self.n % 2 != 0:
                raise ValueError("the lower-bound statistic needs an even column count")

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


def _require_gaussian_circulant(cfg: ExperimentConfig, user: str) -> None:
    if cfg.family != "circulant" or cfg.symmetric or cfg.dist != "gaussian":
        raise ValueError(f"{user} needs a non-symmetric Gaussian circulant")


@dataclass(frozen=True)
class McSummary:
    """One statistic over the converged replicates: its mean and its 0.05,
    0.5 and 0.95 quantiles (linear interpolation between order statistics).
    `run_experiment` keys each summary by its statistic's name."""

    count: int
    excluded: int
    mean: float
    q05: float
    median: float
    q95: float


# bytes one block of replicates may hold, counted at 96 per embedding entry;
# a block has as many replicates as fit, and at least one
_BLOCK_BYTES = 2**22


def _block_rows(cfg: ExperimentConfig) -> int:
    """Replicates per block: as many as fit in _BLOCK_BYTES, and no more than
    an equal share of the replicates per worker. Krylov bases are not charged:
    at worst, every basis grown to p vectors (norms._BASIS_BYTES caps each), a
    block holds 8 p^2 bytes more per replicate, 174 MB for 87 at p = 500."""
    # 96 covers, per embedding entry, a replicate's symbol and half DFT diagonal
    # (8 + 8 bytes, 24-28 at the draw's peak), the first columns' product pair
    # (25 more) or the lower bound's work (24 more at peak); a norm's kernels
    # and basis add 0.31-0.63 MB per replicate at p = 500, where bases stop at
    # 64-96 vectors
    fit = max(1, _BLOCK_BYTES // (96 * embedding_size(cfg.template_spec())))
    return min(fit, math.ceil(cfg.replicates / cfg.workers))


def _needs_norm(cfg: ExperimentConfig) -> bool:
    return any(stat != "b_statistic" for stat in cfg.statistics)


def _replicate(cfg: ExperimentConfig, block: range) -> dict[str, np.ndarray]:
    """Replicates `block`, drawn as one stack with each row from its own
    stream, their norms solved as one block and their lower-bound statistics
    taken by one call, as cfg.statistics need. One array per quantity, one
    entry per replicate: "converged" (true where no norm is solved); for a
    norm, "sigma" and the solve's "steps", certified "residual",
    "checked_steps" and "dense_steps"; for the lower bound, "b"."""
    spec = cfg.template_spec()
    sym = build_symbols(spec, block)
    out = {"converged": np.ones(len(block), dtype=bool)}
    if _needs_norm(cfg):
        top = spectral_norms(sym, spec, cfg.norm_tol, cfg.norm_max_iter)
        out.update(sigma=np.sqrt(top.values), steps=top.steps, residual=top.residuals,
                   checked_steps=top.checked_steps, dense_steps=top.dense_steps,
                   converged=top.converged)
    if "b_statistic" in cfg.statistics:
        out["b"] = b_statistic(sym.half, cfg.p, cfg.n).value
    return out


def _minor_faults() -> int:
    """Minor page faults this process has taken so far; 0 without getrusage
    (Windows)."""
    try:
        import resource  # here, so that importing the package does not load it
    except ImportError:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _run_block(cfg: ExperimentConfig, block: range) -> tuple[dict[str, np.ndarray], int]:
    """`_replicate(cfg, block)` and the minor page faults the process running
    it took meanwhile (logged per run, kept out of the arrays)."""
    before = _minor_faults()
    arrays = _replicate(cfg, block)
    return arrays, _minor_faults() - before


# freed heap a pool worker keeps for its next replicate: glibc's ceiling for
# its own dynamic mmap threshold
_MALLOC_KEEP_BYTES = 32 * 2**20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Pool worker initializer: pin glibc's mmap and trim thresholds at
    _MALLOC_KEEP_BYTES, so arrays below it come from the heap and the heap
    is not trimmed below it. Replicates then reuse the memory their
    predecessors freed instead of unmapping it and faulting it in again;
    results do not change. A no-op without glibc (macOS, musl)."""
    import ctypes  # here, so that importing the package does not load it

    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no C library by that name (Windows)
        return
    if hasattr(libc, "gnu_get_libc_version"):  # glibc, whose parameter numbers these are
        libc.mallopt(_M_MMAP_THRESHOLD, _MALLOC_KEEP_BYTES)
        libc.mallopt(_M_TRIM_THRESHOLD, _MALLOC_KEEP_BYTES)


# this process's worker pool, ((pid, workers), pool), or None before the
# first pooled call; _POOL_LOCK guards it and serializes pooled calls, and
# is reentrant because a pooled call shuts a stale pool down under it
_POOL: tuple[tuple[int, int], ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.RLock()


def _pool(workers: int) -> tuple[ProcessPoolExecutor, bool]:
    """This process's pool of `workers` processes, and whether it was just
    started. A pool of another size is shut down first; a pool inherited
    through fork belongs to the parent and is left to it. Workers start with
    `_keep_freed_heap`; the calling process keeps its malloc settings."""
    global _POOL
    key = (os.getpid(), workers)
    if _POOL is not None and _POOL[0] == key:
        return _POOL[1], False
    shutdown_pool()
    _POOL = (key, ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_heap))
    return _POOL[1], True


def shutdown_pool() -> None:
    """Shut down this process's Monte Carlo worker pool, if any, releasing
    its workers; the next pooled call starts a new one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0][0] == os.getpid():
            _POOL[1].shutdown()
        _POOL = None


def _pooled(
    cfg: ExperimentConfig, blocks: list[range]
) -> tuple[list[tuple[dict[str, np.ndarray], int]], bool]:
    """The blocks' `_run_block` results in block order over the pool, and
    whether the pool was started for this call. A pool that raises
    BrokenProcessPool is dropped. If it was reused, the whole call reruns
    once on a new pool, whatever broke it: a worker that died since the last
    call, or a worker crashed by this call's own blocks, which then costs
    the call twice before it raises. A pool started for this call raises at
    once."""
    chunk = math.ceil(len(blocks) / (4 * cfg.workers))
    with _POOL_LOCK:
        while True:
            pool, started = _pool(cfg.workers)
            try:
                return list(pool.map(_run_block, repeat(cfg), blocks, chunksize=chunk)), started
            except BrokenProcessPool:
                shutdown_pool()
                if started:
                    raise


def _collect(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """The `_replicate` arrays of all replicates, entry r for replicate r,
    block by block, serially or over cfg.workers processes. A replicate's
    entries do not depend on the block it falls in, so neither the block
    size nor the worker count changes any result. Logs the run's one INFO
    line: blocks, seconds, minor faults and, for a norm, the steps, largest
    residual and dense extractions summed over the blocks' arrays."""
    t0 = time.perf_counter()
    size = _block_rows(cfg)
    blocks = [range(lo, min(lo + size, cfg.replicates)) for lo in range(0, cfg.replicates, size)]
    if cfg.workers == 1 or len(blocks) == 1:
        parts = [_run_block(cfg, block) for block in blocks]
        how = "serial"
    else:
        parts, started = _pooled(cfg, blocks)
        how = f"{cfg.workers} workers, pool {'started' if started else 'reused'}"
    seconds = time.perf_counter() - t0
    arrays = {key: np.concatenate([part[key] for part, _ in parts]) for key in parts[0][0]}
    faults = sum(count for _, count in parts) / cfg.replicates
    solves = ""
    if _needs_norm(cfg) and _log.isEnabledFor(logging.INFO):  # numpy's first median maps 0.7 MiB
        solves = (f", steps median {np.median(arrays['steps']):g} max {arrays['steps'].max()}, "
                  f"residual max {arrays['residual'].max():.3g}, dense extraction on "
                  f"{arrays['dense_steps'].sum()} of {arrays['checked_steps'].sum()} "
                  "checked row-steps")
    _log.info("%d replicates in %d blocks, %s: %.3f s, %.1f minor faults per replicate%s",
              cfg.replicates, len(blocks), how, seconds, faults, solves)
    return arrays


# failed replicates named in an ExperimentError
_NAMED_FAILURES = 5


def _converged(cfg: ExperimentConfig, converged: np.ndarray) -> np.ndarray:
    """The mask of converged replicates; raises ExperimentError past the
    exclusion cap, naming the first failed replicates by their
    (base_seed, replicate) pair."""
    failed = np.flatnonzero(~converged).tolist()
    if len(failed) > _EXCLUSION_CAP * cfg.replicates or not converged.any():
        pairs = ", ".join(f"({cfg.base_seed}, {r})" for r in failed[:_NAMED_FAILURES])
        more = f" and {len(failed) - _NAMED_FAILURES} more" if len(failed) > _NAMED_FAILURES else ""
        raise ExperimentError(
            f"{len(failed)} of {cfg.replicates} replicates failed to converge; "
            f"failed (base_seed, replicate): {pairs}{more}. Each replays as "
            f"spectral_norm_fast(build_symbols(spec, [replicate]), spec, tol={cfg.norm_tol!r}, "
            f"max_iter={cfg.norm_max_iter!r}) with spec the config's matrix at seed base_seed"
        )
    return converged


def _statistic_value(cfg: ExperimentConfig, stat: str, arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The statistic of each replicate of the `_collect` arrays, in replicate order."""
    if stat == "scaled_norm":
        return scaled_norm(arrays["sigma"], cfg.template_spec())
    if stat == "centered_norm_sq":
        sigma = arrays["sigma"]
        return sigma * sigma / cfg.p - cfg.center()
    return arrays["b"] - cfg.center()  # b_statistic: ExperimentConfig refuses any other


def _summarize(values: np.ndarray, excluded: int) -> McSummary:
    s = np.sort(values)
    q05, median, q95 = np.quantile(s, (0.05, 0.5, 0.95)).tolist()
    return McSummary(
        count=int(s.size),
        excluded=excluded,
        mean=float(np.mean(s)),
        q05=q05,
        median=median,
        q95=q95,
    )


def _write_raw(fh: TextIO, cfg: ExperimentConfig, arrays: dict[str, np.ndarray]) -> None:
    columns = [_statistic_value(cfg, stat, arrays).tolist() for stat in cfg.statistics]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["replicate", "statistic", "value", "flag"])
    for r, converged in enumerate(arrays["converged"].tolist()):
        flag = "ok" if converged else "excluded"
        for stat, values in zip(cfg.statistics, columns):
            writer.writerow([r, stat, format(values[r], ".12g"), flag])


def collect_samples(
    cfg: ExperimentConfig, raw_path: str | None = None
) -> tuple[dict[str, np.ndarray], int]:
    """Per-statistic sample arrays over converged replicates, plus the
    excluded count. Raises ExperimentError past the 0.1% exclusion cap.
    raw_path is opened before the first replicate, so a path that cannot be
    written fails at once. Every replicate's rows are written before the
    exclusion cap is checked, so a run that raises ExperimentError leaves
    them all in raw_path, the failed ones flagged "excluded"."""
    sink = open(raw_path, "w", newline="") if raw_path is not None else contextlib.nullcontext()
    with sink as raw:
        arrays = _collect(cfg)
        if raw is not None:
            _write_raw(raw, cfg, arrays)
    kept = _converged(cfg, arrays["converged"])
    samples = {stat: _statistic_value(cfg, stat, arrays)[kept] for stat in cfg.statistics}
    return samples, cfg.replicates - int(kept.sum())


def run_experiment(cfg: ExperimentConfig, raw_path: str | None = None) -> dict[str, McSummary]:
    """Run all replicates and summarize each requested statistic.

    Returns one summary per statistic, keyed by name. Replicates whose norm
    iteration did not converge are excluded from the summaries but counted;
    if they exceed 0.1% of the total the experiment raises ExperimentError.
    """
    samples, excluded = collect_samples(cfg, raw_path)
    return {stat: _summarize(values, excluded) for stat, values in samples.items()}


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
    """Column count of a sweep point: n = floor(p / ratio), ratio in (0, 1].
    A quotient within 1e-9 relative of an integer is that integer, so that
    a float ratio rounded below p/n, as 0.07 is below 7/100, still gives n."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratios must lie in (0, 1], got {ratio}")
    q = p / ratio
    return round(q) if abs(q - round(q)) <= 1e-9 * q else math.floor(q)


@dataclass(frozen=True)
class PairedReport:
    count: int
    excluded: int
    violations: int
    max_deficit: float  # largest (bound - sigma^2) observed, <= _BOUND_SLACK when valid
    dominance: DominanceReport | None
    sigma_sq: np.ndarray
    bounds: np.ndarray


# tolerance of the per-draw inequality sigma^2 >= bound before a draw counts as a violation
_BOUND_SLACK = 1e-9


def paired_bound_experiment(cfg: ExperimentConfig) -> PairedReport:
    """Per-draw comparison of the squared norm with its computable lower bound.

    Both quantities come from the same DFT diagonal, so the finite-sample
    inequality sigma^2 >= bound must hold draw by draw, up to _BOUND_SLACK.
    The centered bounds are also checked for one-sided dominance against the
    shifted Gumbel law (needs at least 500 converged replicates, otherwise
    skipped). theta(c) is computed first, so a ratio that it refuses, one
    whose reduced denominator is above 2^20, fails before any solve.
    """
    theta = theta_c(cfg.p / cfg.n)
    cfg = replace(cfg, statistics=("scaled_norm", "b_statistic"))
    arrays = _collect(cfg)
    kept = _converged(cfg, arrays["converged"])

    sigma = arrays["sigma"][kept]
    sigma_sq = sigma * sigma
    bounds = cfg.p * arrays["b"][kept]
    deficits = bounds - sigma_sq
    count = int(kept.sum())
    return PairedReport(
        count=count,
        excluded=cfg.replicates - count,
        violations=int(np.sum(deficits > _BOUND_SLACK)),
        max_deficit=float(np.max(deficits)),
        dominance=dominance_check(bounds / cfg.p - cfg.center(), theta),
        sigma_sq=sigma_sq,
        bounds=bounds,
    )
