import csv
import math
from dataclasses import replace

import numpy as np
import pytest

import specnorm.montecarlo as mc
from specnorm.extremes import gumbel_model, gumbel_quantile, theta_c
from specnorm.montecarlo import (
    ExperimentConfig,
    ExperimentError,
    collect_samples,
    n_for_ratio,
    paired_bound_experiment,
    reference_constant,
    run_experiment,
    summary_row,
    sweep_ratios,
)
from specnorm.norms import scaled_norm, spectral_norm_fast
from specnorm.sinekernel import k_estimate
from specnorm.structured import MatrixSpec, build_symbol, replicate_stream

TINY = ExperimentConfig(
    family="circulant", p=16, n=32, replicates=40, base_seed=91, statistics=("scaled_norm",)
)


def test_single_replicate_summary_is_the_statistic():
    cfg = replace(TINY, replicates=1)
    spec = cfg.template_spec()
    sym = build_symbol(spec, replicate_stream(cfg.base_seed, 0))
    res = spectral_norm_fast(sym, spec, tol=cfg.norm_tol, max_iter=cfg.norm_max_iter)
    want = scaled_norm(res.sigma_max, spec)
    summary = run_experiment(cfg)["scaled_norm"]
    assert summary.count == 1
    assert summary.mean == want
    assert summary.median == want
    assert all(value == want for _, value in summary.quantiles)


def test_worker_count_does_not_change_results():
    serial = run_experiment(replace(TINY, workers=1))["scaled_norm"]
    pooled = run_experiment(replace(TINY, workers=8))["scaled_norm"]
    assert serial == pooled


def test_rerun_is_bit_identical():
    first = run_experiment(TINY)["scaled_norm"]
    second = run_experiment(TINY)["scaled_norm"]
    assert first == second


def test_quantiles_match_sort_oracle():
    rng = np.random.default_rng(123)
    values = rng.standard_normal(501)
    s = np.sort(values)
    for q in (0.05, 0.25, 0.5, 0.9):
        h = (s.size - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        want = s[lo] + (h - lo) * (s[hi] - s[lo])
        assert mc._quantile(s, q) == pytest.approx(want, abs=1e-12)
        assert mc._quantile(s, q) == pytest.approx(float(np.quantile(values, q)), abs=1e-12)


def test_exclusion_accounting(monkeypatch):
    # every fifth replicate reports non-convergence; lift the cap to watch
    # the bookkeeping instead of failing the run
    monkeypatch.setattr(mc, "_EXCLUSION_CAP", 1.0)

    def fake_replicate(cfg, r):
        return mc._Record(replicate=r, sigma_max=1.0 + r, b_value=math.nan,
                          converged=(r % 5 != 0))

    monkeypatch.setattr(mc, "_replicate", fake_replicate)
    cfg = replace(TINY, replicates=20)
    summary = run_experiment(cfg)["scaled_norm"]
    assert summary.count + summary.excluded == cfg.replicates
    assert summary.excluded == 4


def test_exclusion_cap_fails_experiment():
    cfg = replace(TINY, replicates=5, norm_max_iter=1)
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_raw_sink_schema(tmp_path):
    path = tmp_path / "raw.csv"
    cfg = replace(TINY, replicates=6, statistics=("scaled_norm", "centered_norm_sq"))
    run_experiment(cfg, raw_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "statistic", "value", "flag"]
    assert len(rows) == 1 + 6 * 2
    assert {row[3] for row in rows[1:]} == {"ok"}


def test_square_ratio_scaled_median_envelope():
    cfg = ExperimentConfig(
        family="circulant", p=128, n=128, replicates=300, base_seed=14,
        statistics=("scaled_norm",), norm_tol=1e-6,
    )
    summary = run_experiment(cfg)["scaled_norm"]
    assert 0.95 <= summary.median <= 1.3


def test_centered_norm_median_small_scale():
    cfg = ExperimentConfig(
        family="circulant",
        p=64,
        n=64,
        replicates=500,
        base_seed=2,
        statistics=("centered_norm_sq",),
        norm_tol=1e-8,
    )
    summary = run_experiment(cfg)["centered_norm_sq"]
    # limiting median is -log log 2 ~ 0.3665 with a positive finite-size offset
    assert 0.1 < summary.median < 0.9


def test_sweep_reference_wiring():
    cfg = replace(
        TINY,
        family="toeplitz",
        replicates=12,
        norm_tol=1e-6,
    )
    rows = sweep_ratios(cfg, [1.0, 0.5], p=12)
    assert [row.n for row in rows] == [12, 24]
    for row in rows:
        assert row.ratio == row.p / row.n
        assert row.reference == pytest.approx(k_estimate(row.p, row.n)[0].k_value, abs=1e-9)
        assert row.q05 <= row.median <= row.q95

    circ = sweep_ratios(replace(cfg, family="circulant"), [1.0, 0.5], p=12)
    assert all(row.reference == 1.0 for row in circ)


def test_b_only_statistics_skip_norm_solver():
    cfg = ExperimentConfig(
        family="circulant",
        p=32,
        n=64,
        replicates=50,
        base_seed=5,
        statistics=("b_statistic",),
        norm_max_iter=1,  # would fail every replicate if the solver ran
    )
    samples, excluded = collect_samples(cfg)
    assert excluded == 0
    assert samples["b_statistic"].size == 50


def test_paired_bound_small_smoke():
    cfg = ExperimentConfig(
        family="circulant", p=16, n=32, replicates=60, base_seed=8, statistics=("scaled_norm",)
    )
    report = paired_bound_experiment(cfg)
    assert report.count == 60
    assert report.violations == 0
    assert report.max_deficit <= 1e-9
    assert report.dominance is None  # below the sample-size floor


def test_paired_bound_worker_count_is_bit_identical():
    cfg = ExperimentConfig(
        family="circulant", p=16, n=32, replicates=30, base_seed=12, statistics=("scaled_norm",)
    )
    serial = paired_bound_experiment(replace(cfg, workers=1))
    pooled = paired_bound_experiment(replace(cfg, workers=2))
    assert serial.sigma_sq.tobytes() == pooled.sigma_sq.tobytes()
    assert serial.bounds.tobytes() == pooled.bounds.tobytes()


def test_summary_row_matches_run_experiment():
    cfg = replace(TINY, family="toeplitz", replicates=12, norm_tol=1e-6)
    row = summary_row(cfg)
    summary = run_experiment(replace(cfg, quantile_probes=(0.05, 0.95)))["scaled_norm"]
    assert (row.ratio, row.p, row.n, row.count) == (0.5, 16, 32, 12)
    assert (row.mean, row.median) == (summary.mean, summary.median)
    assert (row.q05, row.q95) == (summary.quantile(0.05), summary.quantile(0.95))
    assert row.reference == reference_constant(cfg.template_spec())


def test_n_for_ratio():
    assert [n_for_ratio(250, r) for r in (1.0, 0.3, 0.1)] == [250, 833, 2500]
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            n_for_ratio(10, bad)


def test_paired_bound_qq_slope_square_ratio():
    cfg = ExperimentConfig(
        family="circulant", p=512, n=512, replicates=2000, base_seed=3,
        statistics=("b_statistic",),
    )
    samples, _ = collect_samples(cfg)
    values = np.sort(samples["b_statistic"])
    model = gumbel_model(1.0)
    levels = (np.arange(values.size) + 0.5) / values.size
    theory = np.array([gumbel_quantile(q, model) for q in levels])
    slope = float(np.polyfit(theory, values, 1)[0])
    assert 0.8 <= slope <= 1.2


def test_paired_bound_centered_median_half_ratio():
    cfg = ExperimentConfig(
        family="circulant", p=256, n=512, replicates=2000, base_seed=3,
        statistics=("b_statistic",),
    )
    samples, _ = collect_samples(cfg)
    median = float(np.median(samples["b_statistic"]))
    want = theta_c(0.5) - math.log(math.log(2.0))
    assert median == pytest.approx(want, abs=0.25)


def test_paired_bound_requires_gaussian_circulant():
    bad = replace(TINY, family="toeplitz")
    with pytest.raises(ValueError):
        paired_bound_experiment(bad)
    odd = ExperimentConfig(
        family="circulant", p=3, n=7, replicates=10, statistics=("scaled_norm",)
    )
    with pytest.raises(ValueError):
        paired_bound_experiment(odd)


def test_config_validation():
    with pytest.raises(ValueError):
        replace(TINY, statistics=("sigma",))
    with pytest.raises(ValueError):
        replace(TINY, quantile_probes=(0.0,))
    with pytest.raises(ValueError):
        replace(TINY, replicates=0)
    with pytest.raises(ValueError):
        replace(TINY, workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="circulant", p=3, n=9, statistics=("b_statistic",))


def test_center_offset_override():
    cfg = ExperimentConfig(
        family="circulant", p=8, n=16, replicates=3, base_seed=1,
        statistics=("centered_norm_sq",), center_offset=0.0,
    )
    base = ExperimentConfig(
        family="circulant", p=8, n=16, replicates=3, base_seed=1,
        statistics=("centered_norm_sq",),
    )
    shifted = run_experiment(cfg)["centered_norm_sq"]
    default = run_experiment(base)["centered_norm_sq"]
    assert shifted.mean == pytest.approx(default.mean + math.log(8.0), abs=1e-12)
