"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Criteria are checked at their stated tolerances with frozen seeds. The
square-ratio trend check is implemented exactly as stated and marked as an
expected failure: for a square circulant the scaled-norm median equals
sqrt((log(n/2) + Gumbel median)/log n), which sits below 1 and increases
toward it, because the Gumbel median 0.3665 is smaller than log 2. The
companion check at aspect ratio 0.5, where the shift term makes the same
trend genuinely hold, passes and is reported as supplementary.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from specnorm.cli import EXIT_OK, main as cli_main
from specnorm.dft import circular_convolve, dft_forward, fast_length, half_spectrum
from specnorm.extremes import (
    b_statistic,
    dominance_check,
    gumbel_model,
    theta_c,
)
from specnorm.montecarlo import (
    ExperimentConfig,
    collect_samples,
    paired_bound_experiment,
    run_experiment,
)
from specnorm.norms import spectral_norm_dense, spectral_norm_fast
from specnorm.sinekernel import _convolution_gram, k_estimate, k_table
from specnorm.structured import (
    FAMILIES,
    MatrixSpec,
    build_symbols,
    dense_materialize,
    matvec,
    rmatvec,
)

from oracles import full_diagonal, k_lower_bound

_SUITE_START = time.time()

K_REFERENCE = {0.10: 0.996, 0.25: 0.980, 0.50: 0.935, 0.75: 0.882, 1.00: 0.829}
THETA_REFERENCE = {
    0.1: 18.42, 0.2: 7.05, 0.3: 3.61, 0.4: 2.06, 0.5: 1.23,
    0.6: 0.75, 0.7: 0.45, 0.8: 0.25, 0.9: 0.11, 1.0: 0.0,
}
ANCHOR_K_SQUARED = 0.686981293033114600949413


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


def test_c01_table1_reproduction():
    start = time.time()
    rows = k_table(sorted(K_REFERENCE, reverse=True), p_base=1000)
    elapsed = time.time() - start
    worst = 0.0
    for est in rows:
        ref = K_REFERENCE[round(est.ratio, 2)]
        worst = max(worst, abs(est.k_value - ref))
        assert est.converged
    ok = worst <= 0.002 and elapsed <= 300.0
    report("C1 table of limiting constants", ok,
           f"max |k - table| = {worst:.5f} (tol 0.002), {elapsed:.1f}s")


def test_c02_square_ratio_anchor():
    est, _ = k_estimate(1000, 1000)
    diff = abs(est.k_value**2 - ANCHOR_K_SQUARED)
    report("C2 24-digit square-ratio anchor", diff <= 1e-5 and est.converged,
           f"|k^2 - anchor| = {diff:.2e} (tol 1e-5)")


def test_c03_bracket_and_bounds_suite():
    rng = np.random.default_rng(20250904)
    worst_gap = 0.0
    worst_lb = math.inf
    worst_cap = -math.inf
    for _ in range(30):
        n = int(rng.integers(2, 401))
        p = int(rng.integers(1, n + 1))
        est, _ = k_estimate(p, n)
        assert est.converged, (p, n)
        assert est.bracket_lo <= est.k_value
        assert est.k_value == est.bracket_hi
        worst_gap = max(worst_gap, abs(est.bracket_hi**2 - est.bracket_lo**2 - 1 / (3 * p)))
        worst_lb = min(worst_lb, est.k_value - k_lower_bound(p, n))
        worst_cap = max(worst_cap, est.k_value - 1.0)
    ok = worst_gap < 1e-15 and worst_lb >= -1e-6 and worst_cap <= 1e-9
    report("C3 brackets and analytic bounds on 30 random shapes", ok,
           f"gap err {worst_gap:.1e}, min k-lb {worst_lb:+.2e}, max k-1 {worst_cap:+.2e}")


def test_c04_theta_table_reproduction():
    worst = max(abs(theta_c(c) - ref) for c, ref in THETA_REFERENCE.items())
    zero = abs(theta_c(1.0))
    grid = sorted(THETA_REFERENCE)
    values = [theta_c(c) for c in grid]
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = worst <= 0.01 and zero <= 1e-12 and strictly_decreasing
    report("C4 Gumbel shift table", ok,
           f"max |theta - table| = {worst:.4f} (tol 0.01), theta(1) = {zero:.1e}")


def test_c05_oracle_equivalence():
    rng = np.random.default_rng(11)
    fams = [(f, s) for f in FAMILIES for s in (False, True)]
    worst_mv = 0.0
    for i in range(200):
        family, symmetric = fams[i % 8]
        n = int(rng.integers(2, 129))
        p = int(rng.integers(1, n + 1))
        spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=1000 + i)
        sym = build_symbols(spec, spec.seed, [0])
        (dense,) = dense_materialize(sym, spec)
        x = rng.standard_normal(n)
        ref = dense @ x
        scale = max(np.linalg.norm(ref), 1e-30)
        worst_mv = max(worst_mv, np.linalg.norm(matvec(sym, spec, x[None])[0] - ref) / scale)

    worst_nm = 0.0
    for i in range(50):
        family, symmetric = fams[i % 8]
        n = int(rng.integers(4, 97))
        p = int(rng.integers(1, min(n, 48) + 1))
        spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=5000 + i)
        sym = build_symbols(spec, spec.seed, [0])
        fast = spectral_norm_fast(sym, spec, tol=1e-12, max_iter=200_000)
        oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
        assert fast.converged
        worst_nm = max(worst_nm, abs(fast.sigma_max - oracle) / oracle)

    ok = worst_mv <= 1e-10 and worst_nm <= 1e-8
    report("C5 fast/dense oracle equivalence", ok,
           f"matvec {worst_mv:.1e} (tol 1e-10) on 200, norm {worst_nm:.1e} (tol 1e-8) on 50")


def test_c06_exact_structural_identities():
    n = 256
    spec = MatrixSpec("circulant", p=n, n=n, seed=60)
    sym = build_symbols(spec, spec.seed, [0])
    res = spectral_norm_fast(sym, spec, tol=1e-13, max_iter=300_000)
    exact = math.sqrt(n) * float(np.abs(sym.half).max())
    circ_err = abs(res.sigma_max - exact) / exact

    t_spec = MatrixSpec("toeplitz", p=23, n=57, seed=61)
    h_spec = MatrixSpec("hankel", p=23, n=57, seed=61)
    sym_t = build_symbols(t_spec, t_spec.seed, [0])
    sv_t = np.linalg.svd(dense_materialize(sym_t, t_spec)[0], compute_uv=False)
    sv_h = np.linalg.svd(dense_materialize(sym_t, h_spec)[0], compute_uv=False)
    sval_err = float(np.max(np.abs(sv_t - sv_h)) / sv_t[0])

    b_spec = MatrixSpec("circulant", p=8, n=16, seed=62)
    sym_b = build_symbols(b_spec, b_spec.seed, [0])
    power = np.abs(full_diagonal(sym_b.half[0], 16)) ** 2
    forms = np.empty(16)
    for j in range(16):
        total = 8 * power[j]
        for i in range(16):
            if i != j:
                k = j - i
                total += np.sin(np.pi * k * 8 / 16) ** 2 / np.sin(np.pi * k / 16) ** 2 * power[i] / 8
        forms[j] = total
    direct = forms[:9].max() / 8
    b_err = abs(b_statistic(sym_b.half, 8, 16).value[0] - direct)

    ok = circ_err <= 1e-9 and sval_err <= 1e-12 and b_err <= 1e-10
    report("C6 exact structural identities", ok,
           f"circulant {circ_err:.1e}, singular values {sval_err:.1e}, bound stat {b_err:.1e}")


def test_c07_paired_finite_inequality():
    cfg = ExperimentConfig(
        family="circulant", p=64, n=128, replicates=500, base_seed=101,
        statistics=("scaled_norm",), norm_tol=1e-10, norm_max_iter=100_000,
    )
    rep = paired_bound_experiment(cfg)
    ok = rep.violations == 0 and rep.count + rep.excluded == 500
    report("C7 squared norm dominates its bound on 500 paired draws", ok,
           f"violations {rep.violations}, max deficit {rep.max_deficit:.2e}, excluded {rep.excluded}")


@pytest.fixture(scope="module")
def square_256_samples():
    cfg = ExperimentConfig(
        family="circulant", p=256, n=256, replicates=2000, base_seed=42,
        statistics=("centered_norm_sq",), norm_tol=1e-6, norm_max_iter=20_000,
    )
    samples, excluded = collect_samples(cfg)
    return samples["centered_norm_sq"], excluded


def test_c08a_centered_median(square_256_samples):
    values, excluded = square_256_samples
    median = float(np.median(values))
    target = -math.log(math.log(2.0))
    ok = abs(median - target) <= 0.15 and excluded == 0
    report("C8a centered squared-norm median at square ratio", ok,
           f"median {median:.4f} vs {target:.4f} (tol 0.15)")


def test_c08b_gumbel_dominance(square_256_samples):
    values, _ = square_256_samples
    rep = dominance_check(values, gumbel_model(1.0))
    diffs = ", ".join(f"{row.diff:+.4f}" for row in rep.probes)
    report("C8b one-sided dominance of the shifted Gumbel", rep.violations == 0,
           f"cdf excesses [{diffs}] vs 3 SE")


def _square_trend_medians(tol):
    medians = []
    for n in (256, 1024, 4096):
        cfg = ExperimentConfig(
            family="circulant", p=n, n=n, replicates=301, base_seed=7,
            statistics=("scaled_norm",), norm_tol=tol, norm_max_iter=20_000,
        )
        medians.append(run_experiment(cfg)["scaled_norm"].median)
    return medians


@pytest.mark.xfail(
    strict=True,
    reason="square-circulant scaled-norm medians sit below 1 and increase toward it: "
    "the median equals sqrt((log(n/2) + 0.3665)/log n) < 1 since 0.3665 < log 2",
)
def test_c08c_trend_at_square_ratio_as_stated():
    medians = _square_trend_medians(tol=1e-6)
    above_and_decreasing = all(m > 1.0 for m in medians) and all(
        a > b for a, b in zip(medians, medians[1:])
    )
    report("C8c square-ratio medians above 1 and decreasing (as stated)",
           above_and_decreasing, f"medians {[round(m, 4) for m in medians]}")


def test_c08c_supplementary_trend_at_half_ratio():
    medians = []
    for n, reps in ((256, 500), (1024, 500), (4096, 350)):
        cfg = ExperimentConfig(
            family="circulant", p=n // 2, n=n, replicates=reps, base_seed=17,
            statistics=("scaled_norm",), norm_tol=1e-5, norm_max_iter=20_000,
        )
        medians.append(run_experiment(cfg)["scaled_norm"].median)
    ok = all(m > 1.0 for m in medians) and all(a > b for a, b in zip(medians, medians[1:]))
    report("C8c-supplementary half-ratio medians above 1, decreasing toward 1", ok,
           f"medians {[round(m, 4) for m in medians]}")


def test_c09_determinism(tmp_path):
    cfg = ExperimentConfig(
        family="circulant", p=16, n=32, replicates=40, base_seed=91,
        statistics=("scaled_norm", "centered_norm_sq"),
    )
    serial = run_experiment(replace(cfg, workers=1))
    pooled = run_experiment(replace(cfg, workers=8))
    rerun = run_experiment(replace(cfg, workers=1))
    summaries_equal = serial == pooled == rerun

    config = tmp_path / "mc.cfg"
    config.write_text("family = circulant\np = 8\nn = 16\nreplicates = 12\nseed = 4\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["mc", "--config", str(config), "--threads", "1",
                     "--output", str(out1)]) == EXIT_OK
    assert cli_main(["mc", "--config", str(config), "--threads", "8",
                     "--output", str(out2)]) == EXIT_OK
    bytes_equal = out1.read_bytes() == out2.read_bytes()

    report("C9 determinism across reruns and worker counts",
           summaries_equal and bytes_equal,
           f"summaries equal: {summaries_equal}, bytes equal: {bytes_equal}")


def test_c10_property_suites_and_budget():
    rng = np.random.default_rng(1010)

    # two real vectors (the parts of the complex one drawn here before); the
    # half of a real vector's transform holds entries 1..61 of 123 twice over
    x = rng.standard_normal((2, 123))
    weights = np.r_[1.0, np.full(61, 2.0)]
    parseval = float(np.max(np.abs(np.sqrt(np.sum(weights * np.abs(dft_forward(x)) ** 2, axis=-1))
                                   - np.linalg.norm(x, axis=-1))))

    a, b = rng.standard_normal(31), rng.standard_normal(17)
    m = a.size + b.size - 1
    c = circular_convolve(half_spectrum(a, fast_length(m)), b, fast_length(m))[:m]
    pad = lambda v: np.concatenate([v, np.zeros(m - v.size)])
    conv_thm = float(np.linalg.norm(
        dft_forward(c) - math.sqrt(m) * dft_forward(pad(a)) * dft_forward(pad(b))
    ))

    # ||v * w||^2 = w^T (V^T V) w: the overlap of the two autocorrelations
    v, w = rng.standard_normal(9), rng.standard_normal(21)
    kernels, apply = _convolution_gram(v, w.size)
    identity = float(apply(kernels, w[None])[0] @ w)
    ident_err = abs(identity - np.linalg.norm(np.convolve(v, w)) ** 2)

    spec = MatrixSpec("hankel", p=7, n=18, symmetric=True, seed=303)
    sym = build_symbols(spec, spec.seed, [0])
    xx, yy = rng.standard_normal(18), rng.standard_normal(7)
    adjoint = abs(
        float(np.dot(matvec(sym, spec, xx[None])[0], yy))
        - float(np.dot(xx, rmatvec(sym, spec, yy[None])[0]))
    )

    elapsed = time.time() - _SUITE_START
    ok = parseval < 1e-12 and conv_thm < 1e-10 and ident_err < 1e-10 and adjoint < 1e-11
    report("C10 core identity properties", ok,
           f"parseval {parseval:.1e}, conv-thm {conv_thm:.1e}, "
           f"product-identity {ident_err:.1e}, adjoint {adjoint:.1e}; "
           f"acceptance module elapsed {elapsed:.0f}s")
    assert elapsed < 280.0
