import csv
import json
import math
import re
import shlex
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
from specnorm.structured import MatrixSpec, build_symbol


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


def test_ktable_ratio_out_of_range(capsys):
    # k_table checks the ratios from the largest down, so it names 2.0
    assert run_cli("ktable", "--grid", "0.5:0.5:2") == EXIT_USAGE
    assert "ratios must lie in (0, 1], got 2.0" in capsys.readouterr().err


def test_ktable_p_step_is_refused(capsys):
    # k_table solves each ratio cold; there is no continuation step to set
    assert run_cli("ktable", "--grid", "1:0:1", "--p-base", "40", "--p-step", "10") == EXIT_USAGE
    assert "unrecognized arguments: --p-step" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_ktable_refuses_outer_tol_not_finite_and_positive(value, capsys):
    # names the user's value, not the inner tolerance derived from it
    code = run_cli("ktable", "--grid", "1:0:1", "--p-base", "10", "--outer-tol", value)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"outer_tol must be finite and positive, got {float(value)}" in err
    assert "math domain error" not in err and "Traceback" not in err


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


def test_theta_rejects_zero_ratio():
    assert run_cli("theta", "--grid", "0:0.1:0.5") == EXIT_USAGE


def test_theta_rejects_zero_tol(capsys):
    assert run_cli("theta", "--grid", "0.5:0:0.5", "--tol", "0") == EXIT_USAGE
    assert "specnorm: error: tol must be positive" in capsys.readouterr().err


def test_theta_refuses_ratio_past_the_term_cap(capsys):
    assert run_cli("theta", "--grid", "0.0001:0:0.0001") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "c=0.0001, tol=1e-10" in err
    assert "smallest c accepted at this tol is 0.000145" in err


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
    sym = build_symbol(spec)
    exact = math.sqrt(64) * float(np.abs(sym.diag).max())
    assert float(row["sigma_max"]) == pytest.approx(exact, abs=1e-9 * exact)
    assert float(row["reference"]) == 1.0


def test_norm_rejects_wide_p(capsys):
    assert run_cli("norm", "--family", "toeplitz", "--p", "10", "--n", "5") == EXIT_USAGE


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "0", "tol must be positive"),
    ("--max-iter", "0", "max_iter must be at least 1"),
])
def test_norm_rejects_invalid_solver_settings(flag, value, message, capsys):
    assert run_cli("norm", "--family", "toeplitz", "--p", "8", "--n", "16",
                   flag, value) == EXIT_USAGE
    assert f"specnorm: error: {message}" in capsys.readouterr().err


def test_norm_loose_solver_trips_oracle_exit(tmp_path):
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--family", "toeplitz", "--p", "24", "--n", "50", "--seed", "3",
                   "--dense-check", "--tol", "0.5", "--max-iter", "1", "--output", str(out))
    assert code == EXIT_ORACLE


def test_norm_seed_from_environment(tmp_path, monkeypatch):
    out = tmp_path / "norm.csv"
    monkeypatch.setenv("SPECNORM_SEED", "777")
    assert run_cli("norm", "--family", "circulant", "--p", "8", "--n", "16",
                   "--output", str(out)) == EXIT_OK
    assert read_csv(out)[0]["seed"] == "777"


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
def test_norm_verbose_logs_the_block_solve(family, symmetric, n, capsys):
    argv = ["norm", "--family", family, "--p", "20", "--n", str(n), "--seed", "4"]
    argv += ["--symmetric"] if symmetric else []
    assert run_cli(*argv) == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli(*argv, "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    steps = next(csv.DictReader(quiet.out.splitlines()))["iterations"]
    (line,) = loud.err.splitlines()
    # kernel length fast_length(2p - 1) = 40 at p = 20, whatever n
    assert re.fullmatch(rf"specnorm\.norms: norm block of 1 rows: kernel length 40, steps median "
                        rf"{steps} max {steps}, dense extraction on \d+ of {steps} row-steps", line)


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


def test_mc_experiment_failure_exit(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "norm_max_iter = 1\n")
    assert run_cli("mc", "--config", str(cfg)) == EXIT_NUMERIC


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


def test_serial_mc_logs_each_block_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1)  # one replicate per block
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_OK
    quiet = capsys.readouterr()
    assert run_cli("mc", "--config", str(cfg), "--threads", "1", "-v") == EXIT_OK
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    lines = loud.err.splitlines()
    assert len(lines) == 11  # ten blocks, then the run
    steps = []
    for line in lines[:10]:
        block = re.fullmatch(r"specnorm\.norms: norm block of 1 rows: kernel length 32, "
                             r"steps median (\d+) max \1, dense extraction on \d+ of \1 row-steps",
                             line)
        assert block, line
        steps.append(int(block[1]))
    # the run line summarizes the replicates' steps
    assert re.fullmatch(r"specnorm\.montecarlo: 10 replicates in 10 blocks, serial: \d+\.\d{3} s, "
                        rf"steps median {np.median(steps):g} max {max(steps)}, residual max \S+",
                        lines[10]), lines[10]


SWEEP_CONFIG = 'family = circulant\np = 8\nreplicates = 10\nratios = "1.0, 0.5"\n'


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
def test_sweep_refuses_raw_output(tmp_path, command):
    cfg = tmp_path / "sweep.cfg"
    raw = tmp_path / "raw.csv"
    cfg.write_text(SWEEP_CONFIG + f"raw_output = {raw}\n")
    assert run_cli(command, "--config", str(cfg)) == EXIT_USAGE
    assert not raw.exists()


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
        assert re.fullmatch(r"specnorm\.montecarlo: 10 replicates in 2 blocks, 2 workers, "
                            r"pool (started|reused): \d+\.\d{3} s, steps median \d+(\.5)? "
                            r"max \d+, residual max \S+", line), line
    assert "pool reused" in lines[1]


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


def test_paired_refusals(tmp_path):
    cfg = tmp_path / "paired.cfg"
    cfg.write_text("family = circulant\np = 3\nreplicates = 10\nratios = 0.5, 0.6\n")
    assert run_cli("paired", "--config", str(cfg)) == EXIT_USAGE  # n = floor(3 / 0.6) = 5
    cfg.write_text("family = toeplitz\np = 8\nn = 16\nreplicates = 10\n")
    assert run_cli("paired", "--config", str(cfg)) == EXIT_USAGE
    cfg.write_text(f"family = circulant\np = 8\nn = 16\nraw_output = {tmp_path / 'raw.csv'}\n")
    assert run_cli("paired", "--config", str(cfg)) == EXIT_USAGE
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
    ("norm_max_iter = 2.5", "norm_max_iter must be an integer, got 2.5"),
])
def test_config_refuses_a_non_integer_count_by_name(line, message, tmp_path, capsys):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + line + "\n")  # a repeated key replaces the earlier value
    assert run_cli("mc", "--config", str(cfg)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"specnorm: error: invalid experiment config: {message}" in err
    assert "Traceback" not in err


_FLOOR = "theta(c) at c=3.0517578125e-05, tol=1e-10 needs"


@pytest.mark.parametrize("command", ["gumbel-compare", "paired"])
@pytest.mark.parametrize("points, message", [
    ("n = 65536", _FLOOR),  # c = 2 / 65536, below the floor 1.4588e-4 of theta(c)
    ("ratios = 0.5, 0.000030517578125", _FLOOR),  # the second point, before the first runs
    ("n = 2", "quantile transform undefined at q=0.05"),  # theta(1) = 0, log(n/2) = 0
])
def test_sweep_point_without_a_model_is_refused_before_any_solve(
        command, points, message, tmp_path, monkeypatch, capsys):
    solved = []
    monkeypatch.setattr(montecarlo, "_collect", solved.append)
    cfg = tmp_path / "floor.cfg"
    cfg.write_text(f"family = circulant\np = 2\nreplicates = 2\nseed = 1\n{points}\n")
    assert run_cli(command, "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"specnorm: error: {message}" in err and "Traceback" not in err
    if message == _FLOOR:
        assert "smallest c accepted at this tol is 0.000145" in err
    assert solved == []


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


def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + f"raw_output = {missing / 'raw.csv'}\n")
    for argv in (["theta", "--grid", "0.5:0:0.5", "--output", str(missing / "t.csv")],
                 ["mc", "--config", str(cfg), "--output", str(tmp_path / "mc.csv")],
                 ["paired", "--config", str(tmp_path / "p.cfg"),
                  "--dominance-output", str(missing / "d.csv")]):
        (tmp_path / "p.cfg").write_text("family = circulant\np = 16\nn = 32\nreplicates = 500\n")
        assert run_cli(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"specnorm: error: [Errno 2] No such file or directory: '{missing}" in err
        assert "Traceback" not in err
