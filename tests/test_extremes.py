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
from specnorm.dft import circular_convolve
from specnorm.structured import MatrixSpec, build_symbols

from oracles import full_diagonal

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
    assert theta_c(1.0) == 0.0


def test_theta_strictly_decreasing():
    grid = sorted(TABLE)
    values = [theta_c(c) for c in grid]
    for a, b in zip(values, values[1:]):
        assert b < a


def test_theta_matches_closed_forms():
    # at n = 2, 3 and 4 the residue sum has one or two distinct terms, each a closed form
    cos1, root3 = math.cos(1.0), math.sqrt(3.0)
    exact = {
        1 / 2: -2 * math.log(cos1),
        1 / 4: -2 * math.log(cos1 * math.cos(math.sqrt(2.0))),
        1 / 3: -2 * math.log(math.sin(1.5 * root3) / (3 * math.sin(root3 / 2))),
    }
    for c, want in exact.items():
        assert theta_c(c) == pytest.approx(want, rel=1e-14, abs=0)


def test_theta_reads_the_ratio_in_lowest_terms():
    assert theta_c(64 / 128) == theta_c(1 / 2)


def test_theta_at_small_ratios():
    small = theta_c(2 / 65536)
    assert math.isfinite(small) and small > theta_c(1 / 4096)


def test_theta_domain():
    with pytest.raises(ValueError):
        theta_c(0.0)
    with pytest.raises(ValueError):
        theta_c(1.2)
    with pytest.raises(ValueError, match=r"c = p/n with n <= 2\^20 in lowest terms"):
        theta_c(0.123456789)


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
    sym = build_symbols(spec, spec.seed, [0])
    stat = b_statistic(sym.half, 16, 16)
    assert stat.value == pytest.approx(float(np.max(np.abs(sym.half) ** 2)), abs=1e-10)


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
    sym = build_symbols(spec, spec.seed, [0])
    power = np.abs(full_diagonal(sym.half[0], 16)) ** 2
    forms = _direct_forms(power, 8)
    stat = b_statistic(sym.half, 8, 16)
    want = forms[: 9].max() / 8
    assert stat.value == pytest.approx([want], abs=1e-10)
    assert stat.argmax_j.tolist() == [forms[: 9].argmax()]


def test_quadratic_forms_symmetric_under_reflection():
    spec = MatrixSpec("circulant", p=6, n=20, seed=6)
    sym = build_symbols(spec, spec.seed, [0])
    forms = _direct_forms(np.abs(full_diagonal(sym.half[0], 20)) ** 2, 6)
    for j in range(1, 10):
        assert forms[j] == pytest.approx(forms[20 - j], abs=1e-10)


def test_b_statistic_dominates_max_power():
    spec = MatrixSpec("circulant", p=12, n=48, seed=7)
    sym = build_symbols(spec, spec.seed, [0])
    stat = b_statistic(sym.half, 12, 48)
    assert stat.value >= float(np.max(np.abs(sym.half) ** 2)) - 1e-12


@pytest.mark.parametrize("p,n,rows", [(64, 128, 50), (256, 512, 40), (16384, 65536, 1)])
def test_b_statistic_rows_of_a_stack_equal_their_own_calls(p, n, rows):
    spec = MatrixSpec("circulant", p=p, n=n, seed=11)
    stacked = build_symbols(spec, 11, range(rows))
    stat = b_statistic(stacked.half, p, n)
    assert stat.value.shape == stat.argmax_j.shape == (rows,)
    for row in range(rows):
        single = b_statistic(stacked.half[row : row + 1], p, n)
        assert single.value.shape == single.argmax_j.shape == (1,)
        assert stat.value[row].tobytes() == single.value.tobytes()
        assert stat.argmax_j[row] == single.argmax_j[0]
    # any leading axes: a (2, rows/2, n) stack gives the same rows
    if rows % 2 == 0:
        folded = b_statistic(stacked.half.reshape(2, rows // 2, n // 2 + 1), p, n)
        assert folded.value.tobytes() == stat.value.tobytes()
        assert folded.argmax_j.ravel().tolist() == stat.argmax_j.tolist()


def test_b_statistic_refuses_a_scalar_and_an_odd_stack():
    with pytest.raises(ValueError, match="scalar"):
        b_statistic(np.complex128(1.0), 1, 2)
    with pytest.raises(ValueError, match="n=9"):
        b_statistic(np.ones((2, 5), dtype=complex), 3, 9)


def test_b_statistic_rejects_odd_or_oversized():
    spec = MatrixSpec("circulant", p=3, n=9, seed=1)
    sym = build_symbols(spec, spec.seed, [0])
    with pytest.raises(ValueError):
        b_statistic(sym.half, 3, 9)
    with pytest.raises(ValueError):
        b_statistic(np.ones(9, dtype=complex), 17, 16)


@pytest.mark.parametrize("n, length", [(16, 16), (16, 8), (16, 10), (2, 1), (2, 3), (64, 65)])
def test_b_statistic_refuses_a_half_of_the_wrong_length(n, length):
    with pytest.raises(ValueError, match=f"a half spectrum of n={n} has {n // 2 + 1} entries, "
                                         f"got {length}"):
        b_statistic(np.ones((3, length), dtype=complex), 1, n)


@pytest.mark.parametrize("n", [1, 3, 7, 65])
def test_b_statistic_refuses_an_odd_n(n):
    # whatever the half's length: n//2 + 1 entries fit odd n, and are still refused
    with pytest.raises(ValueError, match=f"even embedding size required, got n={n}"):
        b_statistic(np.ones((2, n // 2 + 1), dtype=complex), 1, n)


def _b_statistic_of_full_diagonal(diag, p):
    """b_statistic as it read a whole DFT diagonal, shape (..., n)."""
    n = diag.shape[-1]
    power = np.abs(diag)
    power *= power
    forms = circular_convolve(extremes._kernel_spectrum(p, n), power, n)[..., : n // 2 + 1]
    return np.max(forms, axis=-1) / p, np.argmax(forms, axis=-1)


@pytest.mark.parametrize("p, n", [(1, 2), (2, 2), (3, 6), (6, 6), (16, 64), (64, 128)])
def test_b_statistic_of_the_half_equals_the_full_diagonal_formula_bit_for_bit(p, n):
    spec = MatrixSpec("circulant", p=p, n=n, seed=19)
    sym = build_symbols(spec, 19, range(7))
    stat = b_statistic(sym.half, p, n)
    value, argmax_j = _b_statistic_of_full_diagonal(full_diagonal(sym.half, n), p)
    assert stat.value.tobytes() == value.tobytes()
    assert stat.argmax_j.tolist() == argmax_j.tolist()


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
