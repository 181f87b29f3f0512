import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specnorm.cli as cli
import specnorm.montecarlo as montecarlo
import specnorm.norms as norms
import specnorm.structured as structured
from specnorm.cli import EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, build_parser, main
from specnorm.extremes import g_c_quantile
from specnorm.montecarlo import ExperimentConfig, reference_constant, run_experiment
from specnorm.sinekernel import k_estimate
from specnorm.structured import MatrixSpec, build_symbols


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_ktable_single_ratio(tmp_path):
    out = tmp_path / "k.csv"
    code = run_cli("ktable", "--grid", "1:0:1", "--p-base", "200", "--output", str(out))
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["ratio"] for row in rows] == ["1"]
    assert float(rows[0]["k_value"]) == pytest.approx(0.829, abs=2e-3)
    assert float(rows[0]["bracket_lo"]) <= float(rows[0]["k_value"]) <= float(rows[0]["bracket_hi"])


def test_ktable_half_ratio(tmp_path):
    out = tmp_path / "k.csv"
    code = run_cli("ktable", "--grid", "0.5:0:0.5", "--p-base", "200", "--output", str(out))
    assert code == EXIT_OK
    rows = read_csv(out)
    assert float(rows[0]["k_value"]) == pytest.approx(0.935, abs=2e-3)


def test_ktable_grid_endpoint_included(tmp_path):
    out = tmp_path / "k.csv"
    code = run_cli("ktable", "--grid", "0.2:0.2:1", "--p-base", "50", "--output", str(out))
    assert code == EXIT_OK
    assert [row["ratio"] for row in read_csv(out)] == ["0.2", "0.4", "0.6", "0.8", "1"]


def test_ktable_malformed_grid(capsys):
    assert run_cli("ktable", "--grid", "a:b:c") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err


@pytest.mark.parametrize("command", ["theta", "ktable"])
@pytest.mark.parametrize("grid", ["0.5:nan:1", "nan:0.5:1", "0.5:0.5:inf", "-inf:0.5:1"])
def test_grid_refuses_a_value_that_is_not_finite(command, grid, capsys):
    assert run_cli(command, f"--grid={grid}") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"grid must contain finite numbers, got {grid!r}" in err
    assert "Traceback" not in err


def test_ktable_ratio_out_of_range(capsys):
    # k_table checks the ratios in grid order, so it names the first past 1
    assert run_cli("ktable", "--grid", "0.5:0.5:2") == EXIT_USAGE
    assert "ratios must lie in (0, 1], got 1.5" in capsys.readouterr().err


def test_ktable_p_step_is_refused(capsys):
    # k_table solves each ratio cold; there is no continuation step to set
    assert run_cli("ktable", "--grid", "1:0:1", "--p-base", "40", "--p-step", "10") == EXIT_USAGE
    assert "unrecognized arguments: --p-step" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_ktable_refuses_outer_tol_not_finite_and_positive(value, capsys):
    # the sweep tolerance is fixed inside k_estimate; there is no flag to set it,
    # so any value is a usage error, never a math domain error
    code = run_cli("ktable", "--grid", "1:0:1", "--p-base", "10", "--outer-tol", value)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --outer-tol" in err
    assert "math domain error" not in err and "Traceback" not in err


def test_norm_solver_defaults_are_one_pair_of_values():
    # the library and the experiment config share one tol and one step cap;
    # `norm` solves at the library's defaults
    want = {"tol": 1e-10, "max_iter": 100_000}
    for solver in (norms.spectral_norms, norms.spectral_norm_fast):
        params = inspect.signature(solver).parameters
        assert {key: params[key].default for key in want} == want
    config = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    assert {"tol": config["norm_tol"], "max_iter": config["norm_max_iter"]} == want
    assert (norms.DEFAULT_TOL, norms.DEFAULT_MAX_ITER) == (want["tol"], want["max_iter"])


def test_ktable_json_format(tmp_path):
    out = tmp_path / "k.json"
    code = run_cli("ktable", "--grid", "1:0:1", "--p-base", "40", "--format", "json",
                   "--output", str(out))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload[0]["ratio"] == 1.0
    assert payload[0]["converged"] is True


def test_theta_table(tmp_path):
    out = tmp_path / "theta.csv"
    code = run_cli("theta", "--grid", "0.2:0:0.2", "--output", str(out))
    assert code == EXIT_OK
    rows = read_csv(out)
    assert float(rows[0]["theta"]) == pytest.approx(7.05, abs=0.01)


def test_theta_square_ratio_is_zero(tmp_path):
    out = tmp_path / "theta.csv"
    assert run_cli("theta", "--grid", "1:0:1", "--output", str(out)) == EXIT_OK
    assert abs(float(read_csv(out)[0]["theta"])) < 1e-12


def test_theta_rejects_zero_ratio(capsys):
    # a ratio outside (0, 1] at either end of the grid: theta(c) refuses it,
    # and no row is printed, not even those before it
    for grid in ("0:0.1:0.5", "0:0.5:1", "0.5:0.5:1.5"):
        assert run_cli("theta", "--grid", grid) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "specnorm: error: aspect ratio must lie in (0, 1], got " in err


def test_theta_refuses_a_ratio_that_is_no_small_fraction(capsys):
    assert run_cli("theta", "--grid", "0.123456789:0:0.123456789") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: theta(c) needs c = p/n with n <= 2^20 in lowest terms" in err


def test_norm_dense_check_agrees(tmp_path):
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--family", "toeplitz", "--p", "12", "--n", "30",
                   "--seed", "7", "--dense-check", "--output", str(out))
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert float(row["dense_rel_error"]) <= 1e-8
    assert row["converged"] == "true"


def test_norm_square_circulant_identity(tmp_path):
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--family", "circulant", "--p", "64", "--n", "64",
                   "--seed", "21", "--output", str(out))
    assert code == EXIT_OK
    row = read_csv(out)[0]
    spec = MatrixSpec("circulant", p=64, n=64, seed=21)
    sym = build_symbols(spec, [0])
    exact = math.sqrt(64) * float(np.abs(sym.half).max())
    assert float(row["sigma_max"]) == pytest.approx(exact, abs=1e-9 * exact)
    assert float(row["reference"]) == 1.0


def test_norm_rejects_wide_p(capsys):
    assert run_cli("norm", "--family", "toeplitz", "--p", "10", "--n", "5") == EXIT_USAGE


def test_norm_loose_solver_trips_oracle_exit(tmp_path, monkeypatch):
    capped = functools.partial(norms.spectral_norm_fast, max_iter=1)
    monkeypatch.setattr(cli, "spectral_norm_fast", capped)
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--family", "toeplitz", "--p", "24", "--n", "50", "--seed", "3",
                   "--dense-check", "--output", str(out))
    assert code == EXIT_ORACLE
    assert read_csv(out)[0]["converged"] == "false"


def test_norm_dense_refusal_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(structured, "_DENSE_ENTRY_LIMIT", 100)
    solved = []
    for name in ("spectral_norm_fast", "reference_constant"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: solved.append(_name))
    code = run_cli("norm", "--family", "circulant", "--p", "8", "--n", "16", "--dense-check")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: dense path refuses p*n = 128 > 100" in err
    assert "Traceback" not in err
    assert solved == []  # refused before the fast solve and the reference constant


def test_norm_names_the_reference_constant_when_its_basis_is_refused(monkeypatch, capsys):
    # room for the 4 x 4 Gram basis of the norm, none for the reference's n-side solve
    monkeypatch.setattr(norms, "_BASIS_BYTES", 8 * 16)
    code = run_cli("norm", "--family", "toeplitz", "--p", "4", "--n", "2000")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: reference constant K(p=4, n=2000): Krylov basis" in err
    assert "Traceback" not in err


# 2^61 float64 entries pass numpy's size limit, so it refuses them before allocating
HUGE_N = 2**61


def _assert_draw_refused(code, capsys):
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"specnorm: error: cannot allocate a draw of 1 x {HUGE_N} entries" in err
    assert "Traceback" not in err


def test_norm_refuses_a_draw_numpy_cannot_allocate(capsys):
    code = run_cli("norm", "--family", "circulant", "--p", "10", "--n", str(HUGE_N))
    _assert_draw_refused(code, capsys)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_refuses_a_draw_numpy_cannot_allocate(threads, tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"family = circulant\np = 10\nn = {HUGE_N}\nreplicates = 4\nseed = 1\n"
                   "statistics = b_statistic\n")
    _assert_draw_refused(run_cli("mc", "--config", str(cfg), "--threads", threads), capsys)


def test_norm_refuses_a_single_column(capsys):
    # the sqrt(p log n) scaling of the output row divides by log n
    assert run_cli("norm", "--family", "toeplitz", "--p", "1", "--n", "1") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: n must be at least 2" in err and "got n=1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family,symmetric,n", [
    ("toeplitz", False, 200),
    ("circulant", True, 200),
    ("hankel", True, 200),
    ("hankel", False, 20),  # square
])
def test_norm_verbose_logs_the_solve(family, symmetric, n, capsys):
    argv = ["norm", "--family", family, "--p", "20", "--n", str(n), "--seed", "4"]
    argv += ["--symmetric"] if symmetric else []
    assert run_cli(*argv) == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli(*argv, "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    spec = MatrixSpec(family, p=20, n=n, symmetric=symmetric, seed=4)
    result = norms.spectral_norm_fast(build_symbols(spec, [0]), spec)
    assert next(csv.DictReader(quiet.out.splitlines()))["iterations"] == str(result.iterations)
    (line,) = loud.err.splitlines()
    assert line == (f"specnorm.cli: norm solve: {result.iterations} steps, "
                    f"certified residual {result.residual:.3g}, converged true")


@pytest.mark.parametrize("argv,line", [
    (["ktable", "--grid", "0.5:0.5:1", "--p-base", "40"],
     r"specnorm\.sinekernel: K row p=(40|20) n=40: \d+ sweeps, \d+\.\d{3} s"),
    (["theta", "--grid", "0.25:0.25:1"],
     r"specnorm\.cli: theta row c=(0\.25|0\.5|0\.75|1): \d+\.\d{3} s"),
], ids=["ktable", "theta"])
def test_table_commands_log_one_line_per_row(argv, line, capsys):
    assert run_cli(*argv) == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli(*argv, "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    lines = loud.err.splitlines()
    assert len(lines) == len(quiet.out.splitlines()) - 1  # the header is no row
    assert all(re.fullmatch(line, text) for text in lines), lines


MC_CONFIG = """# tiny smoke experiment
family = circulant
p = 16
n = 32
replicates = 10
seed = 5
statistics = scaled_norm
"""


def test_mc_smoke_and_determinism(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("mc", "--config", str(cfg), "--output", str(out1)) == EXIT_OK
    assert run_cli("mc", "--config", str(cfg), "--output", str(out2)) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    row = read_csv(out1)[0]
    assert set(row) == {"ratio", "p", "n", "count", "mean", "q05", "median", "q95", "reference"}
    assert row["count"] == "10"
    assert row["reference"] == "1"


def test_mc_json_config_sweep(tmp_path):
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({
        "family": "circulant",
        "p": 12,
        "replicates": 8,
        "seed": 2,
        "statistics": ["scaled_norm"],
        "ratios": [1.0, 0.5],
    }))
    out = tmp_path / "sweep.csv"
    assert run_cli("mc", "--config", str(cfg), "--output", str(out)) == EXIT_OK
    rows = read_csv(out)
    assert [row["n"] for row in rows] == ["12", "24"]


def test_mc_row_is_the_run_experiment_summary(tmp_path):
    cfg = ExperimentConfig(family="toeplitz", p=16, n=32, replicates=12, base_seed=91,
                           norm_tol=1e-6)
    path = tmp_path / "mc.cfg"
    path.write_text("family = toeplitz\np = 16\nn = 32\nreplicates = 12\nseed = 91\n"
                    "norm_tol = 1e-6\n")
    out = tmp_path / "mc.json"
    assert run_cli("mc", "--config", str(path), "--format", "json", "--threads", "1",
                   "--output", str(out)) == EXIT_OK
    summary = run_experiment(cfg)["scaled_norm"]
    # JSON floats round-trip, so equality here is equality of the bits
    assert json.loads(out.read_text()) == [{
        "ratio": 0.5, "p": 16, "n": 32, "count": 12, "mean": summary.mean,
        "q05": summary.q05, "median": summary.median, "q95": summary.q95,
        "reference": reference_constant(cfg),
    }]


def test_mc_sweep_reference_wiring(tmp_path):
    path = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.json"
    for family in ("toeplitz", "circulant"):
        path.write_text(f"family = {family}\np = 12\nreplicates = 12\nseed = 91\n"
                        "norm_tol = 1e-6\nratios = 1.0, 0.5\n")
        assert run_cli("mc", "--config", str(path), "--format", "json",
                       "--output", str(out)) == EXIT_OK
        rows = json.loads(out.read_text())
        assert [row["n"] for row in rows] == [12, 24]
        for row in rows:
            assert row["ratio"] == row["p"] / row["n"]
            assert row["q05"] <= row["median"] <= row["q95"]
            if family == "circulant":
                assert row["reference"] == 1.0
            else:
                want = k_estimate(row["p"], row["n"])[0].k_value
                assert row["reference"] == pytest.approx(want, abs=1e-9)


def test_mc_raw_output(tmp_path):
    cfg = tmp_path / "mc.cfg"
    raw = tmp_path / "raw.csv"
    cfg.write_text(MC_CONFIG + f"raw_output = {raw}\n")
    assert run_cli("mc", "--config", str(cfg), "--output", str(tmp_path / "s.csv")) == EXIT_OK
    rows = read_csv(raw)
    assert len(rows) == 10
    assert rows[0]["statistic"] == "scaled_norm"


def test_mc_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "flux_capacitor = 1\n")
    assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE


def test_mc_trailing_comment_is_not_part_of_the_value(tmp_path):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text(MC_CONFIG)
    commented.write_text(MC_CONFIG.replace("p = 16\n", "p = 16  # rows\n")
                         .replace("seed = 5\n", "seed = 5\t# base seed\n"))
    outs = [tmp_path / "plain.csv", tmp_path / "commented.csv"]
    for cfg, out in zip((plain, commented), outs):
        assert run_cli("mc", "--config", str(cfg), "--output", str(out)) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_mc_probes_key_is_unknown(tmp_path, capsys):
    # the CLI summaries print fixed quantile levels, so probes would change nothing
    cfg = tmp_path / "mc.cfg"
    for key in ("probes", "quantile_probes"):
        cfg.write_text(MC_CONFIG + f"{key} = 0.1\n")
        assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_mc_center_offset_key_is_unknown(tmp_path, capsys):
    # every statistic is centered at log(n/2)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "center_offset = 0.0\n")
    assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE
    assert "unknown config key 'center_offset'" in capsys.readouterr().err


def test_mc_missing_config():
    assert run_cli("mc", "--config", "/nonexistent/mc.cfg") == EXIT_USAGE


def test_mc_experiment_failure_exit(tmp_path, monkeypatch, capsys):
    # the capped config reaches pool workers pickled, so the cap holds at 2 threads
    monkeypatch.setattr(cli, "ExperimentConfig",
                        functools.partial(ExperimentConfig, norm_max_iter=1))
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    for threads in ("1", "2"):
        assert run_cli("mc", "--config", str(cfg), "--threads", threads) == EXIT_NUMERIC
        assert "experiment failed: " in capsys.readouterr().err


def test_mc_norm_max_iter_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "norm_max_iter = 100000\n")
    assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE
    assert "unknown config key 'norm_max_iter'" in capsys.readouterr().err


def test_mc_rejects_zero_norm_tol(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "norm_tol = 0\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "2") == EXIT_USAGE
    assert "invalid experiment config: norm_tol must be positive" in capsys.readouterr().err


def test_mc_krylov_basis_refusal_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(norms, "_BASIS_BYTES", 8 * 16)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    assert "specnorm: error: Krylov basis" in capsys.readouterr().err


def test_mc_refuses_a_single_column(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("family = toeplitz\np = 1\nreplicates = 4\nratios = [1.0]\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: n must be at least 2" in err and "got n=1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("statistics, message", [
    ("scaled_norm, centered_norm_sq", "the mc summary covers one statistic per run"),
    ("scaled_norm, scaled_norm", "invalid experiment config: statistics name a statistic twice"),
])
def test_mc_refuses_more_than_one_statistic_before_any_replicate(
        statistics, message, tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "two.cfg"
    cfg.write_text(MC_CONFIG + f"statistics = {statistics}\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"specnorm: error: {message}" in err
    assert solved == []


def test_serial_mc_logs_one_run_line_with_its_blocks_solver_counts(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1)  # one replicate per block
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli("mc", "--config", str(cfg), "--threads", "1", "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    # MC_CONFIG's ten replicates, solved as one block: a row's counts do not
    # depend on its block
    spec = MatrixSpec("circulant", p=16, n=32, seed=5)
    top = norms.spectral_norms(build_symbols(spec, range(10)), spec)
    (line,) = loud.err.splitlines()
    assert re.fullmatch(r"specnorm\.montecarlo: 10 replicates in 10 blocks, serial: \d+\.\d{3} s, "
                        r"\d+\.\d minor faults per replicate, "
                        rf"steps median {np.median(top.steps):g} max {top.steps.max()}, "
                        rf"residual max {top.residuals.max():.3g}, "
                        rf"dense extraction on {top.dense_steps.sum()} of "
                        rf"{top.checked_steps.sum()} checked row-steps", line), line


SWEEP_CONFIG = 'family = circulant\np = 8\nreplicates = 10\nratios = "1.0, 0.5"\n'


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
def test_sweep_refuses_raw_output(tmp_path, command):
    cfg = tmp_path / "sweep.cfg"
    raw = tmp_path / "raw.csv"
    cfg.write_text(SWEEP_CONFIG + f"raw_output = {raw}\n")
    assert run_cli(command, "--config", str(cfg)) == EXIT_USAGE
    assert not raw.exists()


# the run line of one SWEEP_CONFIG ratio over 2 workers
SWEEP_RUN_LINE = (r"specnorm\.montecarlo: 10 replicates in 2 blocks, 2 workers, "
                  r"pool (started|reused): \d+\.\d{3} s, \d+\.\d minor faults per replicate, "
                  r"steps median \d+(\.5)? max \d+, residual max \S+, "
                  r"dense extraction on \d+ of \d+ checked row-steps")


@pytest.mark.parametrize("command", ["mc", "paired"])
def test_verbose_logs_runs_to_stderr_and_leaves_stdout_alone(tmp_path, capsys, command):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    assert run_cli(command, "--config", str(cfg), "--threads", "2") == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli(command, "--config", str(cfg), "--threads", "2", "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert quiet.err == ""
    lines = loud.err.splitlines()
    assert len(lines) == 2  # one per ratio
    for line in lines:
        assert re.fullmatch(SWEEP_RUN_LINE, line), line
    assert "pool reused" in lines[1]


def run_module(*argv):
    """`python -m specnorm.cli` in a fresh process, this package first on its path."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "specnorm.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_pooled_verbose_mc_in_a_fresh_process_writes_one_line_per_ratio(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    done = run_module("mc", "--config", str(cfg), "--threads", "2", "-v")
    assert done.returncode == EXIT_OK, done.stderr
    lines = done.stderr.splitlines()  # file descriptor 2, where pool workers write too
    assert len(lines) == 2, lines
    assert re.fullmatch(SWEEP_RUN_LINE, lines[0]) and "pool started" in lines[0], lines
    assert re.fullmatch(SWEEP_RUN_LINE, lines[1]) and "pool reused" in lines[1], lines


def test_verbose_norm_under_python_m_writes_its_solve_line():
    done = run_module("norm", "--family", "toeplitz", "--p", "20", "--n", "200", "--seed", "4",
                      "-v")
    assert done.returncode == EXIT_OK, done.stderr
    (line,) = done.stderr.splitlines()  # logged as specnorm.cli, not __main__
    assert re.fullmatch(r"specnorm\.cli: norm solve: \d+ steps, certified residual \S+, "
                        r"converged true", line), line


@pytest.mark.parametrize("order", [("", "-v"), ("-v", "")], ids=["quiet-then-verbose",
                                                                   "verbose-then-quiet"])
def test_pooled_verbose_output_does_not_depend_on_the_pools_history(tmp_path, capfd, order):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    montecarlo.shutdown_pool()
    try:
        for flag in order:  # the first call starts the pool, the second reuses it
            argv = ["mc", "--config", str(cfg), "--threads", "2"] + ([flag] if flag else [])
            assert run_cli(*argv) == EXIT_OK
            lines = capfd.readouterr().err.splitlines()  # fd 2: the workers' writes too
            if flag:
                assert len(lines) == 2, lines
                assert all(re.fullmatch(SWEEP_RUN_LINE, line) for line in lines), lines
            else:
                assert lines == []
    finally:
        montecarlo.shutdown_pool()


def test_gumbel_compare(tmp_path):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("""
family = circulant
p = 32
n = 64
replicates = 600
seed = 9
norm_tol = 1e-6
""".strip())
    out = tmp_path / "gc.csv"
    dom = tmp_path / "dom.csv"
    code = run_cli("gumbel-compare", "--config", str(cfg), "--output", str(out),
                   "--dominance-output", str(dom))
    assert code == EXIT_OK
    row = read_csv(out)[0]
    for label, q in (("q05", 0.05), ("q50", 0.5), ("q95", 0.95)):
        assert float(row[f"{label}_model"]) == pytest.approx(g_c_quantile(q, 0.5, 64), abs=1e-9)
        assert 0.4 < float(row[f"{label}_empirical"]) < 2.0
    dom_rows = read_csv(dom)
    assert len(dom_rows) == 5
    assert set(dom_rows[0]) == {"x", "empirical_cdf", "gumbel_cdf", "diff", "flag"}


@pytest.mark.parametrize("family", ["circulant", "reverse_circulant"])
@pytest.mark.parametrize("symmetric", ["false", "true"])
@pytest.mark.parametrize("dist", structured.DISTRIBUTIONS)
def test_mc_b_statistic_runs_on_every_circulant_like_draw(family, symmetric, dist, tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"family = {family}\nsymmetric = {symmetric}\ndist = {dist}\np = 8\nn = 16\n"
                   "replicates = 6\nseed = 3\nstatistics = b_statistic\n")
    out = tmp_path / "b.csv"
    assert run_cli("mc", "--config", str(cfg), "--threads", "1", "--output", str(out)) == EXIT_OK
    assert read_csv(out)[0]["count"] == "6"


@pytest.mark.parametrize("family, n, message", [
    ("toeplitz", 16, "the lower-bound statistic needs a circulant or reverse circulant"),
    ("circulant", 33, "the lower-bound statistic needs an even column count")])
def test_mc_b_statistic_refuses_toeplitz_and_an_odd_n(family, n, message, tmp_path, capsys):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"family = {family}\np = 8\nn = {n}\nreplicates = 6\n"
                   "statistics = b_statistic\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"specnorm: error: invalid experiment config: {message}" in err


@pytest.mark.parametrize("command", ["gumbel-compare", "paired"])
@pytest.mark.parametrize("draw", ["dist = rademacher", "symmetric = true",
                                  "family = reverse_circulant", "family = toeplitz",
                                  "family = hankel"])
def test_gumbel_commands_need_a_non_symmetric_gaussian_circulant(
        command, draw, tmp_path, monkeypatch, capsys):
    # the shifted-Gumbel model comes from the Gaussian analysis, unlike the bound
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(f"family = circulant\np = 8\nn = 16\nreplicates = 6\n{draw}\n")
    assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"specnorm: error: {command} needs a non-symmetric Gaussian circulant" in err
    assert solved == []


def test_gumbel_compare_rejects_toeplitz(tmp_path):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("family = toeplitz\np = 8\nn = 16\nreplicates = 10\n")
    assert run_cli("gumbel-compare", "--config", str(cfg)) == EXIT_USAGE


def test_gumbel_compare_dominance_needs_single_experiment(tmp_path):
    cfg = tmp_path / "gc.cfg"
    cfg.write_text('family = circulant\np = 8\nreplicates = 10\nratios = "1.0, 0.5"\n')
    code = run_cli("gumbel-compare", "--config", str(cfg),
                   "--dominance-output", str(tmp_path / "d.csv"))
    assert code == EXIT_USAGE


PAIRED_CONFIG = """
family = circulant
p = 16
replicates = 40
seed = 4
ratios = 0.5, 1.0
""".strip()


def test_paired_sweep(tmp_path):
    cfg = tmp_path / "paired.cfg"
    outs = []
    # a sweep sets n per ratio, so an odd n next to ratios is never checked
    for name, threads, extra in (("1", "1", ""), ("2", "2", ""), ("odd", "1", "\nn = 33")):
        cfg.write_text(PAIRED_CONFIG + extra)
        out = tmp_path / f"paired{name}.csv"
        code = run_cli("paired", "--config", str(cfg), "--threads", threads, "--output", str(out))
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    rows = read_csv(tmp_path / "paired1.csv")
    assert list(rows[0]) == [
        "ratio", "p", "n", "count", "violations", "q05_empirical", "q05_model",
        "q50_empirical", "q50_model", "q95_empirical", "q95_model",
    ]
    assert [row["n"] for row in rows] == ["32", "16"]
    assert all(row["count"] == "40" and row["violations"] == "0" for row in rows)
    for row in rows:
        c, n = float(row["ratio"]), int(row["n"])
        assert float(row["q50_model"]) == pytest.approx(g_c_quantile(0.5, c, n), abs=1e-9)


@pytest.mark.parametrize("command", ["gumbel-compare", "paired"])
@pytest.mark.parametrize("statistics", ["scaled_norm", "centered_norm_sq", "b_statistic"])
def test_gumbel_commands_ignore_the_config_statistics(command, statistics, tmp_path):
    # each takes its own pair, so one config can serve mc and both of them
    cfg = tmp_path / "shared.cfg"
    outs = []
    for extra in ("", f"\nstatistics = {statistics}"):
        cfg.write_text("family = circulant\np = 16\nn = 32\nreplicates = 40\nseed = 4" + extra)
        out = tmp_path / f"out{len(outs)}.csv"
        code = run_cli(command, "--config", str(cfg), "--threads", "1", "--output", str(out))
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
def test_unknown_config_statistic_is_refused_by_every_experiment_command(
        command, tmp_path, capsys):
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("family = circulant\np = 16\nn = 32\nreplicates = 40\nseed = 4\n"
                   "statistics = bogus\n")
    assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    assert "invalid experiment config: unknown statistic 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
def test_a_config_that_mc_refuses_is_refused_by_every_experiment_command(
        command, tmp_path, monkeypatch, capsys):
    # each command checks the config's own statistics, as written, before its run
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("family = circulant\np = 16\nn = 33\nreplicates = 40\n"
                   "statistics = b_statistic\n")
    assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and solved == []
    assert ("specnorm: error: invalid experiment config: the lower-bound statistic needs an "
            "even column count") in err


def test_paired_dominance_output(tmp_path):
    cfg = tmp_path / "paired.cfg"
    cfg.write_text("family = circulant\np = 16\nn = 32\nreplicates = 500\nseed = 6\n")
    dom = tmp_path / "dom.csv"
    code = run_cli("paired", "--config", str(cfg), "--output", str(tmp_path / "p.csv"),
                   "--dominance-output", str(dom))
    assert code == EXIT_OK
    rows = read_csv(dom)
    assert len(rows) == 5
    assert list(rows[0]) == ["x", "empirical_cdf", "gumbel_cdf", "diff", "flag"]


@pytest.mark.parametrize("command", ["gumbel-compare", "paired"])
def test_dominance_output_below_500_replicates_is_refused_before_any_replicate(
        command, tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "few.cfg"
    cfg.write_text("family = circulant\np = 16\nn = 32\nreplicates = 40\n")
    dom = tmp_path / "d.csv"
    assert run_cli(command, "--config", str(cfg), "--dominance-output", str(dom)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: --dominance-output needs at least 500 replicates, got 40" in err
    assert solved == [] and not dom.exists()


def test_paired_refusals(tmp_path):
    cfg = tmp_path / "paired.cfg"
    cfg.write_text("family = circulant\np = 3\nreplicates = 10\nratios = 0.5, 0.6\n")
    assert run_cli("paired", "--config", str(cfg)) == EXIT_USAGE  # n = floor(3 / 0.6) = 5
    cfg.write_text("family = toeplitz\np = 8\nn = 16\nreplicates = 10\n")
    assert run_cli("paired", "--config", str(cfg)) == EXIT_USAGE
    cfg.write_text(f"family = circulant\np = 8\nn = 16\nraw_output = {tmp_path / 'raw.csv'}\n")
    out = tmp_path / "out.csv"
    assert run_cli("paired", "--config", str(cfg), "--output", str(out)) == EXIT_USAGE
    assert not out.exists()  # refused before the outputs are opened
    cfg.write_text(SWEEP_CONFIG)
    code = run_cli("paired", "--config", str(cfg), "--dominance-output", str(tmp_path / "d.csv"))
    assert code == EXIT_USAGE


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("specnorm ")]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert callable(args.func)


def test_readme_configs_load_and_its_key_list_is_the_loaders(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) >= 3
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.cfg"
        path.write_text(block)
        assert cli.load_config(str(path))
    # the documented list names value sets in parentheses
    listed = re.search(r"Recognized keys: (.*?)\. In the", readme, flags=re.DOTALL).group(1)
    documented = set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", listed, flags=re.DOTALL)))
    assert documented == set(cli._CONFIG_KEYS)


def test_help_does_not_crash():
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["ktable", "--grid", "1:0:1", "--seed", "1"],
    ["ktable", "--grid", "1:0:1", "--threads", "2"],
    ["theta", "--grid", "0.5:0:0.5", "--seed", "1"],
    ["theta", "--grid", "0.5:0:0.5", "--threads", "2"],
    ["norm", "--family", "toeplitz", "--p", "4", "--n", "8", "--threads", "2"],
    # the solver's settings: at the library's step cap every norm ends certified
    ["norm", "--family", "toeplitz", "--p", "4", "--n", "8", "--tol", "1e-8"],
    ["norm", "--family", "toeplitz", "--p", "4", "--n", "8", "--max-iter", "5"],
])
def test_flags_a_subcommand_never_reads_are_refused(argv, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["workers", "base_seed"])
def test_second_names_of_threads_and_seed_are_unknown_config_keys(key, tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + f"{key} = 1\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "2") == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_seed_flag_and_config_seed_are_refused_together(tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)  # seed = 5
    assert run_cli("mc", "--config", str(cfg), "--seed", "9") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: --seed 9 and the config's seed = 5 both set the seed" in err


def test_seed_flag_seeds_a_config_without_seed(tmp_path):
    with_seed, without = tmp_path / "with.cfg", tmp_path / "without.cfg"
    with_seed.write_text(MC_CONFIG)
    without.write_text(MC_CONFIG.replace("seed = 5\n", ""))
    outs = [tmp_path / "with.csv", tmp_path / "flag.csv", tmp_path / "default.csv"]
    assert run_cli("mc", "--config", str(with_seed), "--output", str(outs[0])) == EXIT_OK
    assert run_cli("mc", "--config", str(without), "--seed", "5", "--output", str(outs[1])) == EXIT_OK
    assert run_cli("mc", "--config", str(without), "--output", str(outs[2])) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()


@pytest.mark.parametrize("line, message", [
    ("p = 8.0", "p must be an integer, got 8.0"),
    ("n = 32.0", "n must be an integer, got 32.0"),
    ("seed = 5.0", "seed must be an integer, got 5.0"),
    ("replicates = 2.5", "replicates must be an integer, got 2.5"),
    ("replicates = true", "replicates must be an integer, got True"),
])
def test_config_refuses_a_non_integer_count_by_name(line, message, tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + line + "\n")  # a repeated key replaces the earlier value
    assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"specnorm: error: invalid experiment config: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [
    ("symmetric = False", "symmetric must be true or false, got 'False'"),
    ("symmetric = no", "symmetric must be true or false, got 'no'"),
    ('symmetric = "false"', "symmetric must be true or false, got 'false'"),
    ("norm_tol = true", "norm_tol must be a real number, got True"),
    ('norm_tol = "1e-8"', "norm_tol must be a real number, got '1e-8'"),
    ("raw_output = 1", "raw_output must be a path, got 1"),
    ("raw_output = 99", "raw_output must be a path, got 99"),
    ("ratios = true", "ratios must be real numbers, got True"),
    ("ratios = yes", "ratios must be real numbers, got 'yes'"),
    ('ratios = "0.5, abc"', "ratios must be real numbers, got 'abc'"),
    ("ratios = [0.5, null]", "ratios must be real numbers, got None"),
])
def test_config_value_of_the_wrong_type_is_refused_by_name_before_any_replicate(
        line, message, tmp_path, monkeypatch, capsys):
    def solve(cfg, block):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(montecarlo, "_replicate", solve)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(f"family = circulant\np = 8\nn = 16\nreplicates = 4\n{line}\n")
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_refused_by_its_flag(command, threads, tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    assert run_cli(command, "--config", str(cfg), "--threads", threads) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"specnorm: error: --threads must be at least 1, got {threads}" in err
    assert "workers" not in err


_NO_THETA = "theta(c) needs c = p/n with n <= 2^20 in lowest terms"


@pytest.mark.parametrize("command", ["gumbel-compare", "paired"])
@pytest.mark.parametrize("points, message", [
    ("p = 3\nn = 2097154", _NO_THETA),  # c = 3 / (2^21 + 2) in lowest terms
    ("p = 3\nratios = 0.5, 0.00000143", _NO_THETA),  # n = 2097902, before point 1 runs
    ("p = 2\nn = 2", "quantile transform undefined at q=0.05"),  # theta(1) = 0, log(n/2) = 0
])
def test_sweep_point_without_a_model_is_refused_before_any_solve(
        command, points, message, tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(f"family = circulant\nreplicates = 2\nseed = 1\n{points}\n")
    assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"specnorm: error: {message}" in err and "Traceback" not in err
    assert solved == []


def test_mc_computes_every_reference_before_any_solve(tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)

    def reference(cfg):  # refuses the sweep's second point, n = 8
        if cfg.n == 8:
            raise structured.ResourceLimitError(f"reference constant K(p=4, n={cfg.n}): refused")
        return 1.0

    monkeypatch.setattr(cli, "reference_constant", reference)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text('family = toeplitz\np = 4\nreplicates = 2\nratios = "0.25, 0.5"\n')
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "specnorm: error: reference constant K(p=4, n=8): refused" in err
    assert solved == []


@pytest.mark.parametrize("argv, message", [
    (["ktable", "--grid", "0.5:1"], "grid must look like start:step:stop, got '0.5:1'"),
    (["theta", "--grid", "0.5:0:1"], "grid with zero step needs start == stop"),
    (["ktable", "--grid", "0.5:-0.1:1"], "grid needs step > 0 and stop >= start"),
    (["theta", "--grid", "1:0.1:0.5"], "grid needs step > 0 and stop >= start"),
    (["ktable", "--grid", "1:0:1", "--p-base", "0"], "p_base must be positive"),
    (["norm", "--family", "circulant", "--p", "4", "--n", "8", "--seed", "-1"],
     "seed must fit in 64 unsigned bits"),
])
def test_refused_argument_exits_64_with_its_message_alone(argv, message, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"specnorm: error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"family": "circulant", "p": 8,', "invalid JSON config "),
    ('["family", "circulant"]', "1: expected key=value, got '[\"family\", \"circulant\"]'"),
    ("family = circulant\np 8\n", "2: expected key=value, got 'p 8'"),
    ("family = circulant\nn = 16\n", "config must set p"),
    ("family = circulant\np = 8\n", "config must set n (or ratios for a sweep)"),
])
def test_malformed_config_exits_64_with_its_message_alone(text, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    for command in ("mc", "gumbel-compare", "paired"):
        assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err


def test_csv_files_end_lines_with_newline_alone(tmp_path):
    raw, out = tmp_path / "raw.csv", tmp_path / "out.csv"
    doms = [tmp_path / "gc_dom.csv", tmp_path / "paired_dom.csv"]
    cfg = tmp_path / "c.cfg"
    base = "family = circulant\np = 16\nn = 32\nreplicates = 500\nseed = 6\n"
    cfg.write_text(base + f"raw_output = {raw}\n")
    assert run_cli("gumbel-compare", "--config", str(cfg), "--output", str(out),
                   "--dominance-output", str(doms[0])) == EXIT_OK
    cfg.write_text(base)
    assert run_cli("paired", "--config", str(cfg), "--output", str(out),
                   "--dominance-output", str(doms[1])) == EXIT_OK
    for path in (raw, *doms):
        text = path.read_bytes()
        assert b"\r" not in text and text.endswith(b"\n")
    assert len(read_csv(raw)) == 1000  # two statistics per replicate
    assert all(len(read_csv(dom)) == 5 for dom in doms)


def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def solve(cfg, block):
        raise AssertionError("a replicate ran")

    # experiments open every output before their first replicate
    monkeypatch.setattr(montecarlo, "_replicate", solve)
    missing = tmp_path / "missing"
    bad = str(missing / "out.csv")
    plain, raw = tmp_path / "plain.cfg", tmp_path / "raw.cfg"
    plain.write_text("family = circulant\np = 16\nn = 32\nreplicates = 500\n")
    raw.write_text(plain.read_text() + f"raw_output = {missing / 'raw.csv'}\n")
    experiments = [["mc", "--config", str(raw)],
                   ["mc", "--config", str(plain), "--output", bad],
                   ["gumbel-compare", "--config", str(raw)],
                   ["gumbel-compare", "--config", str(plain), "--output", bad],
                   ["gumbel-compare", "--config", str(plain), "--dominance-output", bad],
                   ["paired", "--config", str(plain), "--output", bad],
                   ["paired", "--config", str(plain), "--dominance-output", bad]]
    for argv in [["theta", "--grid", "0.5:0:0.5", "--output", bad]] + [
            argv + ["--threads", "1"] for argv in experiments]:
        assert run_cli(*argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert f"specnorm: error: [Errno 2] No such file or directory: '{missing}" in err
        assert "Traceback" not in err
