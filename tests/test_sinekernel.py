import math

import numpy as np
import pytest

from specnorm.dft import autocorrelate, convolve_full
from specnorm.sinekernel import (
    ExtremalPair,
    i_value_direct,
    k_estimate,
    k_lower_bound,
    k_table,
    principal_right_singular,
    _gram_operator,
)


def conv_matrix(w, cols):
    """Dense banded convolution matrix: column j holds w shifted down by j."""
    m = np.zeros((len(w) + cols - 1, cols))
    for j in range(cols):
        m[j : j + len(w), j] = w
    return m


def banded_rmatvec(w, y, cols):
    """Reference adjoint of the banded convolution matrix of w (which applies
    as ``convolve_full(w, x)``): valid cross-correlation of y, length `cols`."""
    w = np.asarray(w)
    return convolve_full(w[::-1], y)[w.size - 1 : w.size - 1 + cols]


def dense_alternation(p, n, sweeps=500):
    """Library-free alternation using full dense SVDs (oracle path)."""
    w = np.ones(n) / math.sqrt(n)
    prev = None
    sigma = 0.0
    for _ in range(sweeps):
        _, s, vt = np.linalg.svd(conv_matrix(np.ones(p) / math.sqrt(p) if prev is None else v, n))
        w = vt[0]
        _, s, vt = np.linalg.svd(conv_matrix(w, p))
        v = vt[0]
        sigma = s[0]
        if prev is not None and abs(sigma - prev) < 1e-14:
            break
        prev = sigma
    return sigma


def test_convolution_matrix_applies_full_convolution():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(6)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(conv_matrix(w, 4) @ x, convolve_full(w, x), atol=1e-12)


def test_banded_adjoint_against_dense():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(7)
    cols = 5
    m = conv_matrix(w, cols)
    x = rng.standard_normal(cols)
    y = rng.standard_normal(m.shape[0])
    lhs = float(np.dot(convolve_full(w, x), y))
    rhs = float(np.dot(x, banded_rmatvec(w, y, cols)))
    assert abs(lhs - rhs) < 1e-11
    np.testing.assert_allclose(banded_rmatvec(w, y, cols), m.T @ y, atol=1e-12)


# (len(w), cols), with m = fast_length(cols + min(len(w), cols) - 1) the size
# of the circular kernel: each case is covered at both parities of m
@pytest.mark.parametrize(
    "length, cols",
    [
        (6, 4),  # cols < len(w), m = 8
        (7, 5),  # cols < len(w), m = 9
        (9, 9),  # cols == len(w), m = 18
        (8, 8),  # cols == len(w), m = 15
        (5, 30),  # cols > len(w), m = 36 (padded past cols + 4 = 34)
        (5, 23),  # cols > len(w), m = 27
        (1, 6),  # len(w) == 1: the kernel is the single lag 0, m = 6
        (1, 9),  # len(w) == 1, m = 9
        (12, 1),  # cols == 1: W^T W is the scalar ||w||^2, m = 1
    ],
)
def test_gram_operator_matches_banded_reference(length, cols):
    rng = np.random.default_rng(100 * length + cols)
    w = rng.standard_normal(length)
    x = rng.standard_normal((3, cols))
    got = _gram_operator(w, cols)(x)
    assert got.shape == (3, cols)
    for row, xi in zip(got, x):
        want = banded_rmatvec(w, convolve_full(w, xi), cols)
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


def test_principal_singular_identity_padding():
    res = principal_right_singular([1.0], cols=3)
    assert res.sigma == pytest.approx(1.0, abs=1e-12)


def test_principal_singular_single_column():
    res = principal_right_singular(np.array([1.0, 1.0]) / math.sqrt(2), cols=1)
    assert res.sigma == pytest.approx(1.0, abs=1e-12)


def test_principal_singular_matches_dense_svd():
    rng = np.random.default_rng(20)
    w = rng.standard_normal(20)
    res = principal_right_singular(w, cols=15, tol=1e-14)
    want = np.linalg.svd(conv_matrix(w, 15), compute_uv=False)[0]
    assert abs(res.sigma - want) < 1e-9


def test_k_estimate_matches_dense_alternation_oracle():
    for p, n in [(12, 12), (9, 23), (5, 40)]:
        est, _ = k_estimate(p, n)
        assert est.converged
        assert abs(est.i_value - dense_alternation(p, n)) < 1e-10


def test_k_estimate_trivial_sizes():
    est, pair = k_estimate(1, 1)
    assert est.k_value == pytest.approx(1.0, abs=1e-12)
    assert i_value_direct(pair) == pytest.approx(1.0, abs=1e-12)


def test_bracket_identity_and_order():
    for p, n in [(10, 10), (25, 60), (3, 100)]:
        est, _ = k_estimate(p, n)
        assert est.bracket_lo <= est.k_value
        assert est.k_value == est.bracket_hi
        gap = est.bracket_hi**2 - est.bracket_lo**2
        assert abs(gap - 1.0 / (3.0 * p)) < 1e-15


def test_k_value_dominates_lower_bound_and_cap():
    rng = np.random.default_rng(1812)
    for _ in range(10):
        n = int(rng.integers(2, 120))
        p = int(rng.integers(1, n + 1))
        est, _ = k_estimate(p, n)
        assert est.k_value >= k_lower_bound(p, n) - 1e-6
        assert est.k_value <= 1.0 + 1e-9


def test_lower_bound_values():
    assert k_lower_bound(10, 10) == pytest.approx(math.sqrt(2.0 / 3.0))
    assert k_lower_bound(1, 3) == pytest.approx(math.sqrt(8.0 / 9.0))
    assert k_lower_bound(1, 10**9) == pytest.approx(1.0, abs=1e-6)


def test_fixed_point_self_consistency():
    # one more alternation sweep from the converged pair leaves I in place
    outer_tol = 1e-13
    est, pair = k_estimate(30, 70, outer_tol=outer_tol)
    w = principal_right_singular(pair.v, 70, tol=outer_tol / 10, start=pair.w).vector
    sweep = principal_right_singular(w, 30, tol=outer_tol / 10, start=pair.v)
    assert sweep.converged
    assert abs(sweep.sigma - est.i_value) <= 10 * outer_tol


def test_product_identity_at_converged_pair():
    _, pair = k_estimate(14, 33)
    energy = float(np.linalg.norm(convolve_full(pair.w, pair.v)) ** 2)
    av = autocorrelate(pair.v)
    aw = autocorrelate(pair.w)
    p, n = pair.v.size, pair.w.size
    lags = min(p, n) - 1
    total = sum(
        (np.conj(av[lag + p - 1]) * aw[lag + n - 1]).real for lag in range(-lags, lags + 1)
    )
    assert abs(total - energy) < 1e-10 * max(1.0, energy)


def test_i_value_direct_fixtures():
    assert i_value_direct(ExtremalPair(w=np.array([1.0]), v=np.array([1.0]))) == 1.0
    pair = ExtremalPair(w=np.array([0.0, 1.0]), v=np.array([1.0, 0.0]))
    assert i_value_direct(pair) == pytest.approx(1.0, abs=1e-12)


def test_i_value_direct_agrees_with_estimate():
    est, pair = k_estimate(18, 45)
    assert abs(i_value_direct(pair) - est.i_value) < 1e-9


def test_i_value_direct_rejects_non_unit():
    with pytest.raises(ValueError):
        i_value_direct(ExtremalPair(w=np.array([2.0]), v=np.array([1.0])))


def test_k_estimate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        k_estimate(5, 3)
    with pytest.raises(ValueError):
        k_table([1.5], p_base=100)
    with pytest.raises(ValueError):
        k_table([0.333], p_base=100)  # non-integral row count


def test_k_table_single_ratio_matches_reference_value():
    rows = k_table([1.0], p_base=200)
    assert len(rows) == 1
    assert rows[0].converged
    assert rows[0].k_value == pytest.approx(0.829, abs=2e-3)


def test_k_estimate_near_square_reference_value():
    est, _ = k_estimate(990, 1000)
    assert est.converged
    assert est.k_value == pytest.approx(0.831, abs=2e-3)


def test_k_table_rows_are_cold_estimates():
    # p_step is accepted and ignored
    rows = k_table([0.25, 1.0, 0.5, 0.5], p_base=120, p_step=7)
    assert [est.p for est in rows] == [120, 60, 30]  # descending, one per ratio
    for est in rows:
        assert est == k_estimate(est.p, 120)[0]  # every field, bit for bit
        assert est.converged and est.outer_iterations <= 5


def test_k_table_monotone_in_ratio():
    rows = k_table([1.0, 0.8, 0.6, 0.4, 0.2], p_base=200)
    values = [est.k_value for est in rows]  # descending ratio order
    assert all(est.converged for est in rows)
    for hi_ratio, lo_ratio in zip(values, values[1:]):
        assert lo_ratio >= hi_ratio - 1e-4
