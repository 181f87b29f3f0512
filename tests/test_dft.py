import numpy as np
import pytest
from hypothesis import given, strategies as st

from specnorm.dft import autocorrelate, convolve_full, dft_forward, dft_inverse


def direct_dft(x):
    """O(N^2) summation oracle for the unitary positive-sign transform."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    grid = np.arange(n)
    kernel = np.exp(2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    return kernel @ x


def direct_convolve(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros(a.size + b.size - 1, dtype=np.result_type(a, b, float))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_delta_transforms_to_constant():
    np.testing.assert_allclose(dft_forward([1, 0, 0, 0]), np.full(4, 0.5), atol=1e-15)


def test_constant_transforms_to_scaled_delta():
    np.testing.assert_allclose(dft_forward([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-15)


def test_unitarity_length_37():
    rng = np.random.default_rng(37)
    x = rng.standard_normal(37) + 1j * rng.standard_normal(37)
    assert abs(np.linalg.norm(dft_forward(x)) - np.linalg.norm(x)) < 1e-12


def test_inverse_round_trip_tiny():
    np.testing.assert_allclose(dft_inverse(dft_forward([1, 2, 3])), [1, 2, 3], atol=1e-12)


def test_inverse_of_scaled_delta():
    np.testing.assert_allclose(dft_inverse([2, 0, 0, 0]), [1, 1, 1, 1], atol=1e-15)


def test_round_trip_prime_length():
    rng = np.random.default_rng(101)
    x = rng.standard_normal(101) + 1j * rng.standard_normal(101)
    back = dft_inverse(dft_forward(x))
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-12


def test_round_trip_large_power_of_two():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2**20)
    back = dft_inverse(dft_forward(x))
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-12


def test_matches_direct_oracle_all_lengths_up_to_64():
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        err = np.linalg.norm(dft_forward(x) - direct_dft(x))
        assert err < 1e-11 * max(1.0, np.linalg.norm(x))


@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_unitarity_property(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert abs(np.linalg.norm(dft_forward(x)) - np.linalg.norm(x)) <= 1e-12 * max(
        1.0, np.linalg.norm(x)
    )


def test_convolve_binomial():
    np.testing.assert_allclose(convolve_full([1, 1], [1, 1]), [1, 2, 1], atol=1e-14)


def test_convolve_identity_with_padding():
    x0, x1 = 2.5, -1.25
    np.testing.assert_allclose(convolve_full([1, 0, 0], [x0, x1]), [x0, x1, 0, 0], atol=1e-14)


def test_convolve_matches_direct_oracle():
    rng = np.random.default_rng(179)
    a = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    got = convolve_full(a, b)
    want = direct_convolve(a, b)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_convolve_real_inputs_stay_real():
    out = convolve_full([1.0, 2.0], [3.0, 4.0, 5.0])
    assert np.isrealobj(out)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))
def test_convolution_theorem(seed, la, lb):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(la)
    b = rng.standard_normal(lb)
    c = convolve_full(a, b)
    m = c.size
    pad = lambda v: np.concatenate([v, np.zeros(m - v.size)])
    lhs = dft_forward(c)
    rhs = np.sqrt(m) * dft_forward(pad(a)) * dft_forward(pad(b))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_autocorrelate_pair():
    np.testing.assert_allclose(autocorrelate([1, 1]), [1, 2, 1], atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_autocorrelate_zero_lag_is_energy(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    alpha = autocorrelate(a)
    assert abs(alpha[n - 1] - np.linalg.norm(a) ** 2) < 1e-12 * max(1.0, np.linalg.norm(a) ** 2)


def test_autocorrelate_hermitian_symmetry():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    alpha = autocorrelate(a)
    mid = a.size - 1
    for j in range(a.size):
        assert abs(alpha[mid - j] - np.conj(alpha[mid + j])) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30))
def test_product_polynomial_identity(seed, p, n):
    # overlap of the two autocorrelations equals the energy of the product
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p)
    w = rng.standard_normal(n)
    av = autocorrelate(v)
    aw = autocorrelate(w)
    lags = min(p, n) - 1
    total = 0.0
    for lag in range(-lags, lags + 1):
        total += (np.conj(av[lag + p - 1]) * aw[lag + n - 1]).real
    energy = float(np.linalg.norm(convolve_full(v, w)) ** 2)
    assert abs(total - energy) <= 1e-10 * max(1.0, energy)


@pytest.mark.parametrize("op", [dft_forward, dft_inverse])
def test_stacked_transform_is_row_by_row(op):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 45)) + 1j * rng.standard_normal((6, 45))
    y = op(x)
    assert all(y[i].tobytes() == op(x[i]).tobytes() for i in range(6))


@pytest.mark.parametrize("op", [dft_forward, dft_inverse, autocorrelate])
def test_empty_input_rejected(op):
    with pytest.raises(ValueError):
        op([])


def test_convolve_empty_rejected():
    with pytest.raises(ValueError):
        convolve_full([], [1.0])
    with pytest.raises(ValueError):
        convolve_full([1.0], [])
