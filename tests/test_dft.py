import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import specnorm
from specnorm.dft import circular_convolve, dft_forward, fast_length, half_spectrum
from specnorm.sinekernel import _convolution_gram

from oracles import full_diagonal


def direct_dft(x):
    """O(N^2) summation oracle for the unitary positive-sign transform."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    grid = np.arange(n)
    kernel = np.exp(2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
    return kernel @ x


def half_weights(n):
    """Parseval weights of a half spectrum: 1, 2, ..., 2, and 1 at the end
    for even n, where entry n/2 is its own mirror."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def half_norm(y, n):
    """Euclidean norm of the full transform, from its half."""
    return float(np.sqrt(np.sum(half_weights(n) * np.abs(y) ** 2)))


def conjugate_dft(half, n):
    """Inverse of the unitary positive-sign transform of a real n-vector,
    from its half, for round trips."""
    return np.fft.fft(full_diagonal(half, n)) / np.sqrt(n)


def ramp_convolve(x):
    """Circular convolution with a fixed real kernel at a padded size."""
    return circular_convolve(half_spectrum(np.arange(1.0, 8.0), 50), x, 50)


def full_convolve(a, b):
    """Full linear convolution of real a and b: one circular convolution at a
    length that no wrapped term reaches."""
    a = np.asarray(a, dtype=float)
    n = a.size + np.size(b) - 1
    m = fast_length(n)
    return circular_convolve(half_spectrum(a, m), b, m)[:n]


def autocorrelation_lags(a):
    """Lags 0..len(a)-1 of the real a's autocorrelation: the first column of
    the Gram matrix of its banded convolution matrix."""
    a = np.asarray(a, dtype=float)
    kernels, apply = _convolution_gram(a, a.size)
    return apply(kernels, np.eye(1, a.size))[0]


def direct_convolve(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros(a.size + b.size - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_delta_transforms_to_constant():
    np.testing.assert_allclose(dft_forward([1, 0, 0, 0]), np.full(3, 0.5), atol=1e-15)


def test_constant_transforms_to_scaled_delta():
    np.testing.assert_allclose(dft_forward([1, 1, 1, 1]), [2, 0, 0], atol=1e-15)


def test_unitarity_length_37():
    x = np.random.default_rng(37).standard_normal(37)
    assert abs(half_norm(dft_forward(x), 37) - np.linalg.norm(x)) < 1e-12


def test_round_trip_prime_length():
    x = np.random.default_rng(101).standard_normal(101)
    back = conjugate_dft(dft_forward(x), 101)
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-12


def test_round_trip_large_power_of_two():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2**20)
    back = conjugate_dft(dft_forward(x), 2**20)
    assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-12


def test_matches_direct_oracle_all_lengths_up_to_64():
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        x = rng.standard_normal(n)
        err = np.linalg.norm(full_diagonal(dft_forward(x), n) - direct_dft(x))
        assert err < 1e-11 * max(1.0, np.linalg.norm(x))


@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_unitarity_property(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    assert abs(half_norm(dft_forward(x), n) - np.linalg.norm(x)) <= 1e-12 * max(
        1.0, np.linalg.norm(x)
    )


def test_convolve_binomial():
    np.testing.assert_allclose(full_convolve([1, 1], [1, 1]), [1, 2, 1], atol=1e-14)


def test_convolve_identity_with_padding():
    x0, x1 = 2.5, -1.25
    np.testing.assert_allclose(full_convolve([1, 0, 0], [x0, x1]), [x0, x1, 0, 0], atol=1e-14)


def test_convolve_matches_direct_oracle():
    rng = np.random.default_rng(179)
    a = rng.standard_normal(17)
    b = rng.standard_normal(9)
    got = full_convolve(a, b)
    want = direct_convolve(a, b)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_convolve_real_inputs_stay_real():
    out = full_convolve([1.0, 2.0], [3.0, 4.0, 5.0])
    assert np.isrealobj(out)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))
def test_convolution_theorem(seed, la, lb):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(la)
    b = rng.standard_normal(lb)
    c = full_convolve(a, b)
    m = c.size
    pad = lambda v: np.concatenate([v, np.zeros(m - v.size)])
    lhs = dft_forward(c)
    rhs = np.sqrt(m) * dft_forward(pad(a)) * dft_forward(pad(b))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(lhs))


def test_autocorrelate_pair():
    np.testing.assert_allclose(autocorrelation_lags([1, 1]), [2, 1], atol=1e-14)


@given(st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_autocorrelate_real_input_matches_np_correlate(seed, n):
    a = np.random.default_rng(seed).standard_normal(n)
    alpha = autocorrelation_lags(a)
    want = np.correlate(a, a, "full")[n - 1 :]
    assert np.linalg.norm(alpha - want) <= 1e-12 * np.linalg.norm(want)


@given(st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_autocorrelate_zero_lag_is_energy(seed, n):
    a = np.random.default_rng(seed).standard_normal(n)
    alpha = autocorrelation_lags(a)
    assert abs(alpha[0] - np.linalg.norm(a) ** 2) < 1e-12 * max(1.0, np.linalg.norm(a) ** 2)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 30))
def test_product_polynomial_identity(seed, p, n):
    # overlap of the two autocorrelations equals the energy of the product
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(p)
    w = rng.standard_normal(n)
    av = autocorrelation_lags(v)
    aw = autocorrelation_lags(w)
    lags = min(p, n) - 1
    total = av[0] * aw[0]
    for lag in range(1, lags + 1):
        total += 2.0 * av[lag] * aw[lag]  # lags -lag and lag alike
    energy = float(np.linalg.norm(full_convolve(v, w)) ** 2)
    assert abs(total - energy) <= 1e-10 * max(1.0, energy)


@pytest.mark.parametrize("op", [dft_forward, ramp_convolve])
def test_stacked_transform_is_row_by_row(op):
    x = np.random.default_rng(11).standard_normal((6, 45))
    y = op(x)
    assert all(y[i].tobytes() == op(x[i]).tobytes() for i in range(6))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 45, 128])
def test_dft_forward_is_the_conjugate_half_of_rfft(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_normal((3, n)), rng.standard_normal((2, 2, n))):
        y = dft_forward(x)
        assert y.shape == x.shape[:-1] + (n // 2 + 1,)
        assert y.tobytes() == np.conj(np.fft.rfft(x, norm="ortho")).tobytes()


@pytest.mark.parametrize("x", [np.ones(4, dtype=complex), np.ones((3, 8), dtype=complex),
                               [1.0, 1j]])
def test_dft_forward_refuses_complex_input(x):
    with pytest.raises(ValueError, match="x must be real"):
        dft_forward(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 45, 128])
def test_real_input_matches_complex_transform(n):
    x = np.random.default_rng(n).standard_normal(n)
    y = dft_forward(x)
    want = np.fft.ifft(x) * np.sqrt(n)
    assert np.linalg.norm(full_diagonal(y, n) - want) <= 1e-15 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 45, 128])
def test_real_input_half_diagonal_has_real_ends(n):
    y = dft_forward(np.random.default_rng(n).standard_normal(n))
    assert y.shape == (n // 2 + 1,)
    assert y[0].imag == 0.0
    if n % 2 == 0:
        assert y[n // 2].imag == 0.0  # its own mirror: real up to the sign of zero


def test_fft_is_called_only_in_the_dft_module():
    package = Path(specnorm.__file__).parent
    calls = re.compile(r"\b(np|numpy)\.fft\b")
    users = [f.name for f in sorted(package.glob("*.py")) if calls.search(f.read_text())]
    assert users == ["dft.py"]


def test_the_package_takes_no_complex_fft():
    # every transform is real: rfft or irfft, one spectrum per draw
    package = Path(specnorm.__file__).parent
    calls = re.compile(r"\b(np|numpy)\.fft\.i?fft\b")
    assert [f.name for f in sorted(package.glob("*.py")) if calls.search(f.read_text())] == []


@pytest.mark.parametrize("op", [dft_forward, ramp_convolve, autocorrelation_lags])
def test_empty_input_rejected(op):
    with pytest.raises(ValueError):
        op([])


@pytest.mark.parametrize("size", [23, 24])
def test_circular_convolve_matches_wrapped_np_convolve(size):
    # odd and even sizes take the two parities of the real inverse transform
    rng = np.random.default_rng(size)
    kernel = rng.standard_normal(size)
    x = rng.standard_normal(size - 5)
    full = np.convolve(kernel, x)
    want = np.zeros(size)
    np.add.at(want, np.arange(full.size) % size, full)
    got = circular_convolve(half_spectrum(kernel, size), x, size)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    with pytest.raises(ValueError):
        half_spectrum(np.ones(size + 1), size)


def test_convolve_empty_rejected():
    with pytest.raises(ValueError):
        full_convolve([], [1.0])
    with pytest.raises(ValueError):
        full_convolve([1.0], [])
