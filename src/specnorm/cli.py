"""Command-line front end: constants tables, single norms, Monte Carlo runs.

Exit codes: 0 success, 2 numerical non-convergence or failed experiment,
3 oracle disagreement, 64 usage error, an output path that cannot be
written or a refused size (the dense oracle or the Krylov basis past its
limit). CSV output uses '.' decimals, 12 significant digits and LF line
ends so golden files reproduce across platforms.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import re
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from .extremes import _DOMINANCE_SAMPLES, dominance_check, g_c_quantile, theta_c
from .montecarlo import (
    PAIRED_STATISTICS,
    ExperimentConfig,
    ExperimentError,
    collect_samples,
    n_for_ratio,
    paired_bound_experiment,
    reference_constant,
    run_experiment,
)
from .norms import ScalingError, require_scalable, scaled_norm, spectral_norm_dense
from .norms import spectral_norm_fast
from .sinekernel import k_table
from .structured import (
    DISTRIBUTIONS,
    FAMILIES,
    MatrixSpec,
    ResourceLimitError,
    build_symbols,
    dense_materialize,
)

EXIT_OK = 0
EXIT_NUMERIC = 2
EXIT_ORACLE = 3
EXIT_USAGE = 64

_DEFAULT_SEED = 12345

_log = logging.getLogger("specnorm.cli")  # not __name__, "__main__" under python -m


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _open_output(path: str | None):
    """The output stream as a context: the file at path, opened now, or
    stdout if path is None. Commands that run replicates open theirs before
    the first one, so a path that cannot be written fails at once."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _emit(rows: list[dict], columns: list[str], out: TextIO, fmt: str = "csv") -> None:
    """Write the rows' columns to the stream out."""
    if fmt == "json":
        payload = [{col: row[col] for col in columns} for row in rows]
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[col]) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    out.write(text)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must look like start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(part) for part in parts)
    except ValueError:
        raise UsageError(f"grid must contain numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, step, stop))):
        raise UsageError(f"grid must contain finite numbers, got {text!r}")
    if step == 0:
        if start != stop:
            raise UsageError("grid with zero step needs start == stop")
        return [start]
    if step < 0 or stop < start:
        raise UsageError("grid needs step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-6)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _resolve_seed(args) -> int:
    return _DEFAULT_SEED if args.seed is None else args.seed


def cmd_ktable(args) -> int:
    try:
        rows = k_table(_parse_grid(args.grid), p_base=args.p_base)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = [
        {
            "ratio": est.ratio,
            "k_value": est.k_value,
            "bracket_lo": est.bracket_lo,
            "bracket_hi": est.bracket_hi,
            "iterations": est.outer_iterations,
            "converged": est.converged,
        }
        for est in rows
    ]
    with _open_output(args.output) as stream:
        _emit(out, ["ratio", "k_value", "bracket_lo", "bracket_hi", "iterations", "converged"],
              stream, args.format)
    return EXIT_OK if all(est.converged for est in rows) else EXIT_NUMERIC


def cmd_theta(args) -> int:
    rows = []
    for c in _parse_grid(args.grid):
        t0 = time.perf_counter()
        try:
            rows.append({"c": c, "theta": theta_c(c)})
        except ValueError as exc:  # a c outside (0, 1], or no p/n with n <= 2^20
            raise UsageError(str(exc)) from None
        _log.info("theta row c=%.12g: %.3f s", c, time.perf_counter() - t0)
    with _open_output(args.output) as out:
        _emit(rows, ["c", "theta"], out, args.format)
    return EXIT_OK


def cmd_norm(args) -> int:
    try:
        spec = MatrixSpec(
            family=args.family,
            p=args.p,
            n=args.n,
            symmetric=args.symmetric,
            dist=args.dist,
            seed=_resolve_seed(args),
        )
        require_scalable(spec.n)  # MatrixSpec allows n = 1
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sym = build_symbols(spec, [0])
    # the oracle first: past the dense limit it refuses before the fast solve runs
    oracle = spectral_norm_dense(dense_materialize(sym, spec)[0]) if args.dense_check else None
    result = spectral_norm_fast(sym, spec)
    _log.info("norm solve: %d steps, certified residual %.3g, converged %s",
              result.iterations, result.residual, _fmt(result.converged))
    row = {
        "family": spec.family,
        "symmetric": spec.symmetric,
        "p": spec.p,
        "n": spec.n,
        "seed": spec.seed,
        "sigma_max": result.sigma_max,
        "scaled_norm": scaled_norm(result.sigma_max, spec),
        "reference": reference_constant(spec),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    columns = list(row)
    code = EXIT_OK if result.converged else EXIT_NUMERIC
    if oracle is not None:
        rel = abs(result.sigma_max - oracle) / oracle
        row["dense_sigma_max"] = oracle
        row["dense_rel_error"] = rel
        columns += ["dense_sigma_max", "dense_rel_error"]
        if rel > 1e-8:
            code = EXIT_ORACLE
    with _open_output(args.output) as out:
        _emit([row], columns, out, args.format)
    return code


# the config's seed is the experiment's base_seed; --threads sets its workers; the
# step cap stays at the library default, under which every norm solve is certified
_CONFIG_KEYS = tuple(field.name for field in fields(ExperimentConfig)
                     if field.name not in ("base_seed", "workers", "norm_max_iter"))
_CONFIG_KEYS += ("seed", "ratios", "raw_output")


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str) -> dict:
    """Read an experiment config: JSON document or flat key=value lines, where
    '#' starts a comment at the start of a line or after whitespace."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    stripped = text.strip()
    if stripped.startswith("{"):  # valid JSON that opens with '{' is an object
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON config {path}: {exc}") from None
    else:
        data = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # a '#' after whitespace starts a trailing comment
            line = re.split(r"\s#", line, maxsplit=1)[0]
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            data[key.strip()] = _parse_scalar(value.strip())
    for key in data:
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    return data


def _as_tuple(value, cast) -> tuple:
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)):
        value = [value]
    return tuple(cast(part) for part in value)


def _ratio(item) -> float:
    """A sweep ratio: a number, or a string that spells one (not a bool)."""
    try:
        if isinstance(item, bool):
            raise TypeError
        return float(item)
    except (TypeError, ValueError):
        raise UsageError(f"ratios must be real numbers, got {item!r}") from None


def _experiment_configs(args):
    """The experiments of a config file as written, one per ratio in a sweep,
    and the raw_output path."""
    data = load_config(args.config)
    raw_output = data.pop("raw_output", None)
    if raw_output is not None and not isinstance(raw_output, str):
        raise UsageError(f"raw_output must be a path, got {raw_output!r}")
    try:
        ratios = _as_tuple(data.pop("ratios", ()), _ratio)
        if ratios and raw_output is not None:
            raise UsageError("raw_output needs a single-experiment config, not a sweep")
        if ratios and getattr(args, "dominance_output", None):
            raise UsageError("--dominance-output needs a single-experiment config, not a sweep")
        if "statistics" in data:
            data["statistics"] = _as_tuple(data["statistics"], str)
        if "seed" in data and args.seed is not None:
            raise UsageError(f"--seed {args.seed} and the config's seed = {data['seed']} "
                             "both set the seed; give one")
        data["base_seed"] = data.pop("seed") if "seed" in data else _resolve_seed(args)
        if args.threads < 1:  # the experiment's workers, which no config key sets
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        data["workers"] = args.threads
        if "p" not in data:
            raise UsageError("config must set p")
        if not ratios and "n" not in data:
            raise UsageError("config must set n (or ratios for a sweep)")
        # a sweep sets n per ratio, so a config n that it replaces is never checked
        ns = [n_for_ratio(data["p"], r) for r in ratios] or [data["n"]]
        configs = [ExperimentConfig(**{**data, "n": n}) for n in ns]
    except ScalingError as exc:  # worded as in `norm`
        raise UsageError(str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid experiment config: {exc}") from None
    return configs, raw_output


_MC_COLUMNS = ["ratio", "p", "n", "count", "mean", "q05", "median", "q95", "reference"]


def cmd_mc(args) -> int:
    configs, raw_output = _experiment_configs(args)
    if len(configs[0].statistics) != 1:
        raise UsageError("the mc summary covers one statistic per run")
    references = [reference_constant(cfg) for cfg in configs]  # K(p, n) before any replicate
    with _open_output(args.output) as out:
        rows = []
        for cfg, reference in zip(configs, references):
            (summary,) = run_experiment(cfg, raw_output).values()
            rows.append({"ratio": cfg.p / cfg.n, "p": cfg.p, "n": cfg.n, **asdict(summary),
                         "reference": reference})
        _emit(rows, _MC_COLUMNS, out, args.format)
    return EXIT_OK


_LEVELS = ((0.05, "q05"), (0.5, "q50"), (0.95, "q95"))


def _gumbel_sweep(args, statistics: tuple[str, ...], run) -> int:
    """Shared ratio loop of gumbel-compare and paired: `run(cfg, raw_output)`
    returns the scaled norms, its row's extra columns and the centered samples
    that --dominance-output checks. A row puts the empirical scaled-norm
    quantiles next to the shifted-Gumbel model's. The model is the Gaussian
    analysis's, so this is the gate to a non-symmetric Gaussian circulant;
    past it, each point runs the command's `statistics` in place of its own."""
    configs, raw_output = _experiment_configs(args)
    cfg = configs[0]
    if args.command == "paired" and raw_output is not None:
        raise UsageError("paired writes no raw samples; drop raw_output")
    if args.dominance_output and cfg.replicates < _DOMINANCE_SAMPLES:
        raise UsageError(f"--dominance-output needs at least {_DOMINANCE_SAMPLES} replicates, "
                         f"got {cfg.replicates}")
    if cfg.family != "circulant" or cfg.symmetric or cfg.dist != "gaussian":
        raise UsageError(f"{args.command} needs a non-symmetric Gaussian circulant")
    try:
        # every point's model before any replicate runs: theta(c) refuses a c that is
        # no p/n with n <= 2^20, and the square-root transform a negative radicand
        models = [[g_c_quantile(q, cfg.p / cfg.n, cfg.n) for q, _ in _LEVELS] for cfg in configs]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:  # every point before any replicate, as for the config's own statistics
        configs = [replace(cfg, statistics=statistics) for cfg in configs]
    except ValueError as exc:  # paired's lower bound at an odd n
        raise UsageError(f"invalid experiment config: {exc}") from None
    with (
        _open_output(args.output) as out,
        open(args.dominance_output, "w", newline="") if args.dominance_output
        else contextlib.nullcontext() as dominance_out,
    ):
        rows = []
        for cfg, model_quantiles in zip(configs, models):
            scaled, extra, centered = run(cfg, raw_output)
            row = {"ratio": cfg.p / cfg.n, "p": cfg.p, "n": cfg.n, "count": int(scaled.size),
                   **extra}
            for (q, label), model_q in zip(_LEVELS, model_quantiles):
                row[f"{label}_empirical"] = float(np.quantile(scaled, q))
                row[f"{label}_model"] = model_q
            rows.append(row)
        _emit(rows, list(rows[0]), out, args.format)
        if dominance_out is not None:  # one run, which keeps 500 or more samples
            report = dominance_check(centered, theta_c(cfg.p / cfg.n))
            checks = [asdict(check) for check in report.probes]
            _emit(checks, list(checks[0]), dominance_out)
    return EXIT_OK


def cmd_gumbel_compare(args) -> int:
    def run(cfg, raw_output):
        samples, _ = collect_samples(cfg, raw_path=raw_output)
        return samples["scaled_norm"], {}, samples["centered_norm_sq"]

    return _gumbel_sweep(args, ("scaled_norm", "centered_norm_sq"), run)


def cmd_paired(args) -> int:
    def run(cfg, raw_output):  # raw_output is None: _gumbel_sweep refuses it for paired
        rep = paired_bound_experiment(cfg)
        scaled = scaled_norm(np.sqrt(rep.sigma_sq), cfg.template_spec())
        return scaled, {"violations": rep.violations}, rep.b_statistic

    return _gumbel_sweep(args, PAIRED_STATISTICS, run)


def build_parser() -> _Parser:
    root = _Parser(prog="specnorm", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--output", help="write results to this path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log each norm solve, table row and Monte Carlo run to stderr")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="seed (default: the config's seed, else %d)" % _DEFAULT_SEED)
    pooled = _Parser(add_help=False)
    pooled.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the replicates")

    sub = root.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ktable", parents=[common],
                       help="limiting-constant table over a ratio grid")
    p.add_argument("--grid", required=True, help="ratio grid start:step:stop")
    p.add_argument("--p-base", type=int, default=1000, dest="p_base")
    p.set_defaults(func=cmd_ktable)

    p = sub.add_parser("theta", parents=[common], help="Gumbel shift table over a ratio grid")
    p.add_argument("--grid", required=True, help="aspect-ratio grid start:step:stop")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("norm", parents=[common, seeded], help="spectral norm of one random draw")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="gaussian")
    p.add_argument("--dense-check", action="store_true", dest="dense_check",
                   help="cross-check against the dense oracle (exit 3 on disagreement)")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("mc", parents=[common, seeded, pooled],
                       help="Monte Carlo summary from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("gumbel-compare", parents=[common, seeded, pooled],
                       help="empirical vs shifted-Gumbel quantiles for circulant draws")
    p.add_argument("--config", required=True)
    p.add_argument("--dominance-output", dest="dominance_output",
                   help="also write the CDF dominance report to this CSV")
    p.set_defaults(func=cmd_gumbel_compare)

    p = sub.add_parser("paired", parents=[common, seeded, pooled],
                       help="per-draw squared norm against its lower bound, with Gumbel quantiles")
    p.add_argument("--config", required=True)
    p.add_argument("--dominance-output", dest="dominance_output",
                   help="also write the lower bound's CDF dominance report to this CSV")
    p.set_defaults(func=cmd_paired)

    return root


@contextlib.contextmanager
def _log_to_stderr(verbose: int):
    """With -v, the package's INFO records go to stderr."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("specnorm")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _log_to_stderr(args.verbose):
            return args.func(args)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"specnorm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"specnorm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not a path the user gave
            raise
        print(f"specnorm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExperimentError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
