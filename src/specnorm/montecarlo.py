"""Reproducible Monte Carlo replication of scaled-norm statistics.

Each replicate r draws its matrix from an independent Philox stream keyed
by (base_seed, r). Replicates run in blocks of consecutive indices whose
norms are solved together, and every operation of the solve acts on each
replicate alone, so results depend neither on execution order, nor on the
block size, nor on the worker count: reruns and parallel runs aggregate
bit-identical values.

Pooled runs share one worker pool per process (see `_pool`): it starts on
the first pooled call and serves every later call that it fits, so a
sweep pays process start-up once. Its workers stay until
`shutdown_pool` or interpreter exit. Workers keep the module state they
started with; a global changed in the parent afterwards does not reach
them, and they log nothing: a block's diagnostics return in its arrays, and
`_collect` logs one line per run, so `-v` prints the same serially or
pooled. On Linux workers are forked (`_START`); on glibc they keep the
heap their replicates free (`_keep_freed_heap`).
"""

from __future__ import annotations

import contextlib
import csv
import logging
import math
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TextIO

import numpy as np

from .extremes import b_statistic
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
    "PAIRED_STATISTICS",
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
# the pair that paired_bound_experiment runs in place of a config's statistics
PAIRED_STATISTICS = ("scaled_norm", "b_statistic")

_log = logging.getLogger(__name__)

# fraction of non-converged replicates tolerated before the run is failed
_EXCLUSION_CAP = 1e-3


class ExperimentError(RuntimeError):
    """Too many replicates failed to converge."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a matrix template, drawn from base_seed, plus replication settings.

    `b_statistic` takes every circulant-like draw, of any law, with an even n."""

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
            if self.family not in _CIRCULANT_LIKE:
                raise ValueError("the lower-bound statistic needs a circulant or reverse circulant")
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


# bytes one block of replicates may hold, counted at 96 per embedding entry
_BLOCK_BYTES = 2**22


def _blocks(cfg: ExperimentConfig) -> list[range]:
    """The replicates in near-equal contiguous blocks: one per worker, up to
    one per replicate, or as many more as keep each within _BLOCK_BYTES.
    Krylov bases are not charged: at worst, every basis grown to p vectors
    (norms._BASIS_BYTES caps each), a block holds 8 p^2 bytes more per
    replicate, 174 MB for 87 at p = 500."""
    # 96 covers, per embedding entry, a replicate's symbol and half DFT diagonal
    # (8 + 8 bytes, 24-28 at the draw's peak), the first columns' product pair
    # (25 more) or the lower bound's work (24 more at peak); a norm's kernels
    # and basis add 0.31-0.63 MB per replicate at p = 500, where bases stop at
    # 64-96 vectors
    fit = max(1, _BLOCK_BYTES // (96 * embedding_size(cfg.template_spec())))
    count = max(min(cfg.workers, cfg.replicates), math.ceil(cfg.replicates / fit))
    edges = [cfg.replicates * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _needs_norm(cfg: ExperimentConfig) -> bool:
    return any(stat != "b_statistic" for stat in cfg.statistics)


def _replicate(cfg: ExperimentConfig, block: range) -> dict[str, np.ndarray]:
    """Replicates `block`, drawn as one stack with each row from its own
    stream, their norms solved as one block and their lower-bound statistics
    taken by one call, as cfg.statistics need. One array per quantity, one
    entry per replicate: "converged" (true where no norm is solved); for a
    norm, "sigma_sq" as solved (the top Ritz value of A A^T) and the solve's
    "steps", certified "residual", "checked_steps", "dense_steps"; for b, "b"."""
    spec = cfg.template_spec()
    sym = build_symbols(spec, block)
    out = {"converged": np.ones(len(block), dtype=bool)}
    if _needs_norm(cfg):
        top = spectral_norms(sym, spec, cfg.norm_tol, cfg.norm_max_iter)
        out.update(sigma_sq=top.values, steps=top.steps, residual=top.residuals,
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


# this process's worker pool, ((pid, size), pool), or None before the
# first pooled call; _POOL_LOCK guards it and serializes pooled calls, and
# is reentrant because a pooled call shuts a stale pool down under it
_POOL: tuple[tuple[int, int], ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.RLock()
_START = multiprocessing.get_context("fork") if sys.platform == "linux" else None


def _pool(workers: int, most: int) -> tuple[ProcessPoolExecutor, int, bool]:
    """This process's pool, its size and whether it was just started: the
    live pool if it has `workers` to `most` processes, else a new one of
    `workers`, all started at its first submit, after the old one is shut
    down. A pool inherited through fork is the parent's and is left to it.
    Workers are forked on Linux (its default is forkserver from Python 3.14;
    fork is unsafe on macOS) and start with `_keep_freed_heap`."""
    global _POOL
    if _POOL is not None and _POOL[0][0] == os.getpid() and workers <= _POOL[0][1] <= most:
        return _POOL[1], _POOL[0][1], False
    shutdown_pool()
    pool = ProcessPoolExecutor(workers, _START, initializer=_keep_freed_heap)
    _POOL = ((os.getpid(), workers), pool)
    return pool, workers, True


def shutdown_pool() -> None:
    """Shut down this process's Monte Carlo worker pool, if any, releasing
    its workers; the next pooled call starts a new one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0][0] == os.getpid():
            _POOL[1].shutdown()
        _POOL = None


def _pooled(
    cfg: ExperimentConfig, blocks: list[range], workers: int
) -> tuple[list[tuple[dict[str, np.ndarray], int]], int, bool]:
    """The blocks' `_run_block` results in block order over `_pool(workers,
    cfg.workers)`, its size, and whether it was started for this call. A
    pool that raises BrokenProcessPool is dropped. If it was reused, the
    whole call reruns once on a new pool, whatever broke it: a worker that
    died since the last call, or a worker crashed by this call's own blocks,
    which then costs the call twice before it raises. A pool started for
    this call raises at once."""
    chunk = math.ceil(len(blocks) / (4 * workers))
    with _POOL_LOCK:
        while True:
            pool, size, started = _pool(workers, cfg.workers)
            try:
                parts = list(pool.map(_run_block, repeat(cfg), blocks, chunksize=chunk))
                return parts, size, started
            except BrokenProcessPool:
                shutdown_pool()
                if started:
                    raise


def _collect(cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """The `_replicate` arrays of all replicates, entry r for replicate r,
    block by block, serially or on a pool of min(cfg.workers, cfg.replicates)
    workers, a size that every point of a sweep shares; a larger live pool
    within cfg.workers is reused. A replicate's entries do not depend on its
    block, so neither the block size nor the worker count changes any result.
    Logs the run's one INFO line: blocks, workers, seconds, minor faults and,
    for a norm, the steps, largest residual and dense extractions summed over
    the blocks' arrays."""
    t0 = time.perf_counter()
    blocks = _blocks(cfg)
    workers = min(cfg.workers, cfg.replicates)
    if workers == 1:
        parts = [_run_block(cfg, block) for block in blocks]
        how = "serial"
    else:
        parts, pool_size, started = _pooled(cfg, blocks, workers)
        how = f"{pool_size} workers, pool {'started' if started else 'reused'}"
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
    """Each replicate's statistic from the `_collect` arrays; the one place it is derived."""
    if stat == "scaled_norm":
        return scaled_norm(np.sqrt(arrays["sigma_sq"]), cfg.template_spec())
    if stat == "centered_norm_sq":
        return arrays["sigma_sq"] / cfg.p - cfg.center()
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


def _write_raw(fh: TextIO, columns: dict[str, np.ndarray], converged: np.ndarray) -> None:
    """Raw CSV: per replicate, each statistic's value to 12 digits and its flag."""
    values = {stat: column.tolist() for stat, column in columns.items()}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["replicate", "statistic", "value", "flag"])
    for r, ok in enumerate(converged.tolist()):
        flag = "ok" if ok else "excluded"
        for stat, column in values.items():
            writer.writerow([r, stat, format(column[r], ".12g"), flag])


def collect_samples(
    cfg: ExperimentConfig, raw_path: str | None = None
) -> tuple[dict[str, np.ndarray], int]:
    """Per-statistic sample arrays over converged replicates, plus the
    excluded count; each statistic is derived once, and written raw as
    kept. Raises ExperimentError past the 0.1% cap. raw_path is opened
    before the first replicate, so a path that cannot be written fails at
    once. Every row is written before the cap is checked, so a run that
    raises ExperimentError leaves them all, the failed ones "excluded"."""
    sink = open(raw_path, "w", newline="") if raw_path is not None else contextlib.nullcontext()
    with sink as raw:
        arrays = _collect(cfg)
        columns = {stat: _statistic_value(cfg, stat, arrays) for stat in cfg.statistics}
        if raw is not None:
            _write_raw(raw, columns, arrays["converged"])
    kept = _converged(cfg, arrays["converged"])
    return {stat: values[kept] for stat, values in columns.items()}, cfg.replicates - int(kept.sum())


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
    b_statistic: np.ndarray  # per kept draw, as the arrays below: the centered b, b - log(n/2)
    sigma_sq: np.ndarray
    bounds: np.ndarray


# tolerance of the per-draw inequality sigma^2 >= bound before a draw counts as a violation
_BOUND_SLACK = 1e-9


def paired_bound_experiment(cfg: ExperimentConfig) -> PairedReport:
    """Per-draw comparison of sigma^2, as solved, with its lower bound p b.

    Both come from the same DFT diagonal, and p b is a Rayleigh quotient of
    A A^T, so sigma^2 >= p b must hold draw by draw, up to _BOUND_SLACK, for
    every circulant-like draw of any law. The report keeps each kept draw's
    centered b; comparing it with the shifted-Gumbel law is up to the caller.
    """
    cfg = replace(cfg, statistics=PAIRED_STATISTICS)
    arrays = _collect(cfg)
    kept = _converged(cfg, arrays["converged"])

    sigma_sq = arrays["sigma_sq"][kept]
    bounds = cfg.p * arrays["b"][kept]
    deficits = bounds - sigma_sq
    count = int(kept.sum())
    return PairedReport(
        count=count,
        excluded=cfg.replicates - count,
        violations=int(np.sum(deficits > _BOUND_SLACK)),
        max_deficit=float(np.max(deficits)),
        b_statistic=_statistic_value(cfg, "b_statistic", arrays)[kept],
        sigma_sq=sigma_sq,
        bounds=bounds,
    )
