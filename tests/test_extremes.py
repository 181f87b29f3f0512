import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import specnorm.extremes as extremes
from specnorm.extremes import (
    GumbelModel,
    b_statistic,
    dominance_check,
    g_c_quantile,
    gumbel_cdf,
    gumbel_model,
    gumbel_quantile,
    kernel_from_projection,
    theta_c,
)
from specnorm.structured import MatrixSpec, build_symbol, stack_symbols

TABLE = {
    0.1: 18.42,
    0.2: 7.05,
    0.3: 3.61,
    0.4: 2.06,
    0.5: 1.23,
    0.6: 0.75,
    0.7: 0.45,
    0.8: 0.25,
    0.9: 0.11,
    1.0: 0.0,
}


def test_theta_reference_grid():
    for c, ref in TABLE.items():
        assert theta_c(c) == pytest.approx(ref, abs=0.01)


def test_theta_vanishes_at_square_ratio():
    assert abs(theta_c(1.0)) < 1e-12


def test_theta_strictly_decreasing():
    grid = sorted(TABLE)
    values = [theta_c(c) for c in grid]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_theta_truncation_respects_tolerance():
    for c in (0.07, 0.3, 0.85):
        coarse = theta_c(c, tol=1e-4)
        fine = theta_c(c, tol=1e-12)
        assert abs(coarse - fine) <= 1e-4


def test_theta_domain():
    with pytest.raises(ValueError):
        theta_c(0.0)
    with pytest.raises(ValueError):
        theta_c(1.2)
    with pytest.raises(ValueError):
        theta_c(0.5, tol=0.0)
    with pytest.raises(ValueError):
        theta_c(0.5, tol=math.nan)


def _theta_floor_from_message(c, tol):
    with pytest.raises(ValueError) as exc:
        theta_c(c, tol)
    message = str(exc.value)
    assert f"c={c}" in message and f"tol={tol}" in message
    return float(message.rsplit(" ", 1)[1])


def test_theta_term_cap_boundary(monkeypatch):
    # a small cap puts the boundary near c = 0.21 at tol 1e-10
    monkeypatch.setattr(extremes, "_THETA_MAX_TERMS", 2**12)
    floor = _theta_floor_from_message(0.1, 1e-10)
    assert 0.2 < floor < 0.25
    assert extremes._theta_terms(floor, 1e-10) <= 2**12
    assert math.isfinite(theta_c(floor, 1e-10))
    assert _theta_floor_from_message(floor * (1 - 1e-9), 1e-10) == floor


def test_theta_refuses_past_the_real_cap_and_sums_up_to_it():
    floor = _theta_floor_from_message(1e-4, 1e-10)
    assert 1.4e-4 < floor < 1.5e-4
    with pytest.raises(ValueError):
        theta_c(floor * (1 - 1e-9))
    # at the cap: 2**26 terms, about 2.4 s
    assert theta_c(floor) > theta_c(1e-3) > 0


def test_theta_refuses_a_tol_no_ratio_can_meet():
    with pytest.raises(ValueError, match="no c in"):
        theta_c(1.0, tol=1e-30)
    with pytest.raises(ValueError, match="no c in"):
        theta_c(1e-3, tol=5e-324)


def test_gumbel_cdf_at_location():
    model = GumbelModel(theta=1.7, c=0.5)
    assert gumbel_cdf(1.7, model) == pytest.approx(math.exp(-1.0))


def test_gumbel_median():
    model = GumbelModel(theta=0.0, c=1.0)
    assert gumbel_cdf(-math.log(math.log(2.0)), model) == pytest.approx(0.5)


def test_gumbel_shift_equivariance():
    delta = 0.83
    base = GumbelModel(theta=0.4, c=0.5)
    shifted = GumbelModel(theta=0.4 + delta, c=0.5)
    x = 1.234
    assert gumbel_cdf(x + delta, shifted) == gumbel_cdf(x, base)


def test_gumbel_quantile_values():
    model = GumbelModel(theta=0.0, c=1.0)
    assert gumbel_quantile(math.exp(-1.0), model) == pytest.approx(0.0, abs=1e-14)
    assert gumbel_quantile(0.5, model) == pytest.approx(-math.log(math.log(2.0)))


@given(st.floats(0.001, 0.999))
def test_gumbel_quantile_round_trip(q):
    model = GumbelModel(theta=0.7, c=0.5)
    assert gumbel_cdf(gumbel_quantile(q, model), model) == pytest.approx(q, abs=1e-12)


def test_gumbel_quantile_domain():
    model = GumbelModel(theta=0.0, c=1.0)
    for q in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            gumbel_quantile(q, model)


def test_g_c_quantile_monotone_in_level():
    values = [g_c_quantile(q, 0.5, 1000) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_g_c_quantile_derived_value():
    want = math.sqrt((theta_c(0.5) - math.log(math.log(2.0)) + math.log(500.0)) / math.log(1000.0))
    assert g_c_quantile(0.5, 0.5, 1000) == pytest.approx(want, abs=1e-12)
    # with the tabulated two-decimal shift the same arithmetic lands nearby
    coarse = math.sqrt((1.23 + 0.366513 + math.log(500.0)) / math.log(1000.0))
    assert g_c_quantile(0.5, 0.5, 1000) == pytest.approx(coarse, abs=2e-3)


def test_g_c_quantile_plugin_structure():
    # at the level whose Gumbel quantile is 0 the transform collapses
    n = 1000
    got = g_c_quantile(math.exp(-1.0), 1.0, n)
    assert got == pytest.approx(math.sqrt(math.log(n / 2) / math.log(n)), abs=1e-12)


def test_g_c_quantile_negative_radicand_raises():
    with pytest.raises(ValueError):
        g_c_quantile(1e-9, 1.0, 2)


@pytest.mark.parametrize("p", [1, 5, 8, 11, 16])
def test_kernel_spectrum_inverts_to_projection_entries(p):
    # p = 1, below n/2, at n/2, above n/2 and at n
    n = 16
    w = np.fft.irfft(extremes._kernel_spectrum(p, n), n)
    np.testing.assert_allclose(w, kernel_from_projection(p, n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 10, 16, 90, 1000])
def test_kernel_spectrum_is_flat_at_square_ratio(n):
    # weights vanish off zero at p = n, so the spectrum is n everywhere
    spectrum = extremes._kernel_spectrum(n, n)
    assert spectrum.shape == (n // 2 + 1,)
    assert np.all(spectrum == n)


def test_b_statistic_square_ratio_reduces_to_max_power():
    spec = MatrixSpec("circulant", p=16, n=16, seed=4)
    sym = build_symbol(spec)
    stat = b_statistic(sym.diag, 16)
    assert stat.value == pytest.approx(float(np.max(np.abs(sym.diag) ** 2)), abs=1e-10)


def _direct_forms(power, p):
    n = power.size
    forms = np.empty(n)
    for j in range(n):
        total = p * power[j]
        for i in range(n):
            if i != j:
                k = j - i
                total += np.sin(np.pi * k * p / n) ** 2 / np.sin(np.pi * k / n) ** 2 * power[i] / p
        forms[j] = total
    return forms


def test_b_statistic_matches_direct_double_loop():
    spec = MatrixSpec("circulant", p=8, n=16, seed=5)
    sym = build_symbol(spec)
    power = np.abs(sym.diag) ** 2
    forms = _direct_forms(power, 8)
    stat = b_statistic(sym.diag, 8)
    want = forms[: 9].max() / 8
    assert stat.value == pytest.approx(want, abs=1e-10)
    assert stat.centered == pytest.approx(want - math.log(8.0), abs=1e-10)
    assert forms[: 9].argmax() == stat.argmax_j


def test_quadratic_forms_symmetric_under_reflection():
    spec = MatrixSpec("circulant", p=6, n=20, seed=6)
    sym = build_symbol(spec)
    forms = _direct_forms(np.abs(sym.diag) ** 2, 6)
    for j in range(1, 10):
        assert forms[j] == pytest.approx(forms[20 - j], abs=1e-10)


def test_b_statistic_dominates_max_power():
    spec = MatrixSpec("circulant", p=12, n=48, seed=7)
    sym = build_symbol(spec)
    stat = b_statistic(sym.diag, 12)
    assert stat.value >= float(np.max(np.abs(sym.diag) ** 2)) - 1e-12


def test_b_statistic_rejects_a_stack_of_diagonals():
    spec = MatrixSpec("circulant", p=4, n=8, seed=2)
    stacked = stack_symbols([build_symbol(spec), build_symbol(spec)])
    with pytest.raises(ValueError, match=r"\(2, 8\)"):
        b_statistic(stacked.diag, 4)


def test_b_statistic_rejects_odd_or_oversized():
    spec = MatrixSpec("circulant", p=3, n=9, seed=1)
    sym = build_symbol(spec)
    with pytest.raises(ValueError):
        b_statistic(sym.diag, 3)
    with pytest.raises(ValueError):
        b_statistic(np.ones(16, dtype=complex), 17)


def _gumbel_samples(model, size, seed):
    rng = np.random.default_rng(seed)
    return model.theta - np.log(-np.log(rng.uniform(size=size)))


def test_dominance_check_self_consistent():
    model = gumbel_model(0.5)
    samples = _gumbel_samples(model, 5000, seed=12)
    report = dominance_check(samples, model)
    assert report.violations == 0
    assert report.n_samples == 5000
    # probes at the model's 0.05, 0.25, 0.5, 0.75 and 0.95 quantiles
    levels = (0.05, 0.25, 0.5, 0.75, 0.95)
    assert [row.x for row in report.probes] == [gumbel_quantile(q, model) for q in levels]


def test_dominance_check_respects_direction():
    model = gumbel_model(1.0)
    samples = _gumbel_samples(model, 3000, seed=3)
    above = dominance_check(samples + 1.0, model)
    assert above.violations == 0
    below = dominance_check(samples - 1.0, model)
    central = [row for row in below.probes if 0.2 < row.gumbel_cdf < 0.8]
    assert all(row.flag for row in central)


def test_dominance_check_needs_samples():
    model = gumbel_model(1.0)
    assert dominance_check(np.zeros(499), model) is None
    assert dominance_check(np.zeros(500), model).n_samples == 500


def test_model_validation():
    with pytest.raises(ValueError):
        GumbelModel(theta=-0.1, c=0.5)
    with pytest.raises(ValueError):
        GumbelModel(theta=0.0, c=0.0)
