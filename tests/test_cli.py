import csv
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import specnorm.norms as norms
import specnorm.structured as structured
from specnorm.cli import EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, build_parser, main
from specnorm.extremes import g_c_quantile
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
    code = run_cli("norm", "--family", "circulant", "--p", "8", "--n", "16", "--dense-check")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "specnorm: error: dense path refuses p*n = 128 > 100" in err
    assert "Traceback" not in err


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


def test_mc_missing_config():
    assert run_cli("mc", "--config", "/nonexistent/mc.cfg") == EXIT_USAGE


def test_mc_experiment_failure_exit(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG + "norm_max_iter = 1\n")
    assert run_cli("mc", "--config", str(cfg)) == EXIT_NUMERIC


def test_mc_krylov_basis_refusal_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(norms, "_BASIS_BYTES", 8 * 16)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(MC_CONFIG)
    assert run_cli("mc", "--config", str(cfg), "--threads", "1") == EXIT_USAGE
    assert "specnorm: error: Krylov basis" in capsys.readouterr().err


SWEEP_CONFIG = 'family = circulant\np = 8\nreplicates = 10\nratios = "1.0, 0.5"\n'


@pytest.mark.parametrize("command", ["mc", "gumbel-compare", "paired"])
def test_sweep_refuses_raw_output(tmp_path, command):
    cfg = tmp_path / "sweep.cfg"
    raw = tmp_path / "raw.csv"
    cfg.write_text(SWEEP_CONFIG + f"raw_output = {raw}\n")
    assert run_cli(command, "--config", str(cfg)) == EXIT_USAGE
    assert not raw.exists()


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


def test_help_does_not_crash():
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
