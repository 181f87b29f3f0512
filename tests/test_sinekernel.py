import inspect
import math
import re

import numpy as np
import pytest

import specnorm.sinekernel as sinekernel
from specnorm.dft import fast_length
from specnorm.norms import gram_lanczos
from specnorm.sinekernel import (
    ExtremalPair,
    SingularPair,
    _convolution_gram,
    k_estimate,
    k_table,
    principal_right_singular,
)

from oracles import i_value_direct, k_lower_bound


def conv_matrix(w, cols):
    """Dense banded convolution matrix: column j holds w shifted down by j."""
    m = np.zeros((len(w) + cols - 1, cols))
    for j in range(cols):
        m[j : j + len(w), j] = w
    return m


def banded_rmatvec(w, y, cols):
    """Reference adjoint of the banded convolution matrix of w (which applies
    as ``np.convolve(w, x)``): valid cross-correlation of y, length `cols`."""
    w = np.asarray(w)
    return np.convolve(w[::-1], y)[w.size - 1 : w.size - 1 + cols]


def tight_singular(w, cols, tol, start):
    """`principal_right_singular` at relative residual `tol` in place of its
    fixed TOL_CAP: the Lanczos core on the same Gram operator and start."""
    kernels, apply = _convolution_gram(np.asarray(w, dtype=float), cols)
    top = gram_lanczos(apply, kernels, np.asarray(start, dtype=float)[None], tol, cols)
    return SingularPair(vector=sinekernel._fix_sign(top.vectors[0]),
                        sigma=math.sqrt(top.values[0]), iterations=int(top.steps[0]),
                        converged=bool(top.converged[0]))


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
    np.testing.assert_allclose(conv_matrix(w, 4) @ x, np.convolve(w, x), atol=1e-12)


def test_banded_adjoint_against_dense():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(7)
    cols = 5
    m = conv_matrix(w, cols)
    x = rng.standard_normal(cols)
    y = rng.standard_normal(m.shape[0])
    lhs = float(np.dot(np.convolve(w, x), y))
    rhs = float(np.dot(x, banded_rmatvec(w, y, cols)))
    assert abs(lhs - rhs) < 1e-11
    np.testing.assert_allclose(banded_rmatvec(w, y, cols), m.T @ y, atol=1e-12)


# (len(w), cols), with m = fast_length(len(w) + cols - 1) the size of the
# circular kernel: each case is covered at both parities of m
@pytest.mark.parametrize(
    "length, cols",
    [
        (6, 4),  # cols < len(w), m = 9
        (7, 5),  # cols < len(w), m = 12
        (9, 9),  # cols == len(w), m = 18
        (8, 8),  # cols == len(w), m = 15
        (5, 30),  # cols > len(w), m = 36 (padded past cols + 4 = 34)
        (5, 23),  # cols > len(w), m = 27
        (1, 6),  # len(w) == 1: the kernel is the single lag 0, m = 6
        (1, 9),  # len(w) == 1, m = 9
        (12, 1),  # cols == 1: W^T W is the scalar ||w||^2, m = 12
    ],
)
def test_gram_operator_matches_banded_reference(length, cols):
    rng = np.random.default_rng(100 * length + cols)
    w = rng.standard_normal(length)
    x = rng.standard_normal((3, cols))
    kernels, apply = _convolution_gram(w, cols)
    got = apply(kernels, x)
    assert got.shape == (3, cols)
    for row, xi in zip(got, x):
        want = banded_rmatvec(w, np.convolve(w, xi), cols)
        assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("p, n", [(1000, 10000), (12, 12), (17, 1000), (1, 1)])
def test_every_sine_kernel_transform_has_length_fast_length_of_p_plus_n_minus_1(monkeypatch, p, n):
    # W^T W is a section of the circulant of w's power spectrum, taken at one
    # length for both sides of a sweep: no lag convolution at 2 len(w) - 1
    sizes = {}
    for name in ("half_spectrum", "circular_convolve"):
        transform = getattr(sinekernel, name)

        def spy(*args, transform=transform, **kwargs):
            size = inspect.signature(transform).bind(*args, **kwargs).arguments["size"]
            sizes.setdefault(transform.__name__, set()).add(size)
            return transform(*args, **kwargs)

        monkeypatch.setattr(sinekernel, name, spy)
    k_estimate(p, n)
    want = {fast_length(p + n - 1)}
    assert sizes == {"half_spectrum": want, "circular_convolve": want}


def test_principal_singular_identity_padding():
    res = principal_right_singular([1.0], cols=3, start=np.ones(3))
    assert res.sigma == pytest.approx(1.0, abs=1e-12)


def test_principal_singular_single_column():
    res = principal_right_singular(np.array([1.0, 1.0]) / math.sqrt(2), cols=1,
                                   start=np.ones(1))
    assert res.sigma == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("w, shape", [([], r"\(0,\)"), ([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)")])
def test_principal_singular_refuses_a_w_that_is_not_a_nonempty_vector(w, shape):
    message = rf"^w must be a nonempty one-dimensional array, got shape {shape}$"
    with pytest.raises(ValueError, match=message):
        principal_right_singular(w, cols=4, start=np.ones(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_principal_singular_refuses_a_w_that_is_not_finite(bad):
    with pytest.raises(ValueError, match=rf"^w must be finite, got {bad}$"):
        principal_right_singular([1.0, bad, 2.0], cols=4, start=np.ones(4))


@pytest.mark.parametrize("cols", [3.0, True])
def test_principal_singular_refuses_a_cols_that_is_not_an_integer(cols):
    with pytest.raises(ValueError, match=rf"^cols must be an integer, got {cols}$"):
        principal_right_singular([1.0, 2.0], cols=cols, start=np.ones(int(cols)))


@pytest.mark.parametrize(
    "p, n, message",
    [(2.5, 10, "p must be an integer, got 2.5"), (True, 10, "p must be an integer, got True"),
     (3, 10.0, "n must be an integer, got 10.0"), (1, False, "n must be an integer, got False")],
)
def test_k_estimate_refuses_a_p_or_n_that_is_not_an_integer(p, n, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        k_estimate(p, n)


@pytest.mark.parametrize("p_base", [2.5, 10.0, True])
def test_k_table_refuses_a_p_base_that_is_not_an_integer(p_base):
    with pytest.raises(ValueError, match=rf"^p_base must be an integer, got {p_base}$"):
        k_table([1.0], p_base=p_base)


def test_principal_singular_matches_dense_svd():
    rng = np.random.default_rng(20)
    w = rng.standard_normal(20)
    # a random start: w's Gram matrix is persymmetric, and a flat start spans
    # only flip-even Krylov vectors
    start = rng.standard_normal(15)
    want = np.linalg.svd(conv_matrix(w, 15), compute_uv=False)[0]
    assert abs(tight_singular(w, cols=15, tol=1e-14, start=start).sigma - want) < 1e-9
    assert abs(principal_right_singular(w, cols=15, start=start).sigma - want) < 1e-9


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
    sweep_tol = 1e-13
    est, pair = k_estimate(30, 70)
    w = tight_singular(pair.v, 70, tol=sweep_tol / 10, start=pair.w).vector
    sweep = tight_singular(w, 30, tol=sweep_tol / 10, start=pair.v)
    assert sweep.converged
    assert abs(sweep.sigma - est.i_value) <= 10 * sweep_tol


@pytest.mark.parametrize(
    "p, n", [(1, 1), (3, 7), (12, 12), (30, 70), (64, 128), (17, 1000), (200, 2000)]
)
def test_flat_warm_starts_keep_the_extremal_pair_positive(p, n):
    # with a positive frozen vector W^T W is a nonnegative irreducible Toeplitz
    # matrix, so its principal vector is positive (Perron-Frobenius), never the
    # flip-odd vector that a flat start of a persymmetric matrix would miss
    _, pair = k_estimate(p, n)
    assert (pair.w > 0).all()
    assert (pair.v > 0).all()


def tight_alternation(p, n, sweep_tol=1e-13):
    """The alternation of `k_estimate` with every inner solve at sweep_tol / 10:
    k and the sweep count."""
    w = np.full(n, 1.0 / math.sqrt(n))
    v = np.full(p, 1.0 / math.sqrt(p))
    prev = None
    for sweeps in range(1, 5001):
        w = tight_singular(v, n, tol=sweep_tol / 10, start=w).vector
        rv = tight_singular(w, p, tol=sweep_tol / 10, start=v)
        v = rv.vector
        floor = 16 * np.finfo(float).eps * rv.sigma
        if prev is not None and abs(rv.sigma - prev) <= max(sweep_tol, floor):
            break
        prev = rv.sigma
    return rv.sigma / math.sqrt(p), sweeps


# the C1 ratios 1, 0.75, 0.5, 0.25, 0.1 at p_base 2000 close the grid
@pytest.mark.parametrize(
    "p, n",
    [(1, 1), (3, 7), (5, 40), (12, 12), (30, 70), (64, 128), (990, 1000), (1000, 10000),
     (2000, 2000), (1500, 2000), (1000, 2000), (500, 2000), (200, 2000)],
)
def test_k_estimate_within_4_ulp_of_tight_inner_solves(p, n):
    est, _ = k_estimate(p, n)
    want, sweeps = tight_alternation(p, n)
    assert est.converged
    assert abs(est.k_value - want) <= 4 * np.spacing(want)
    assert est.outer_iterations == sweeps


def test_last_sweep_certifies_the_pair_in_one_step_per_side(monkeypatch):
    steps = []
    solve = sinekernel.principal_right_singular

    def counted(*args, **kwargs):
        pair = solve(*args, **kwargs)
        steps.append(pair.iterations)
        return pair

    monkeypatch.setattr(sinekernel, "principal_right_singular", counted)
    est, _ = k_estimate(1000, 10000)
    assert est.converged
    assert len(steps) == 2 * est.outer_iterations
    assert steps[-2:] == [1, 1]
    assert sum(steps) <= 30


def test_sweep_accuracy_is_not_a_parameter():
    with pytest.raises(TypeError):
        k_estimate(3, 7, outer_tol=1e-13)
    with pytest.raises(TypeError):
        k_table([1.0], p_base=10, outer_tol=1e-13)
    with pytest.raises(TypeError):  # the start has no default
        principal_right_singular([1.0], 3)
    with pytest.raises(TypeError):  # the inner solves stop at TOL_CAP
        principal_right_singular([1.0], 3, tol=1e-12, start=np.ones(3))


def test_product_identity_at_converged_pair():
    # ||v * w||^2 = w^T (V^T V) w, with V^T V the Toeplitz matrix of v's autocorrelation
    _, pair = k_estimate(14, 33)
    energy = float(np.linalg.norm(np.convolve(pair.w, pair.v)) ** 2)
    kernels, apply = _convolution_gram(pair.v, pair.w.size)
    total = float(apply(kernels, pair.w[None])[0] @ pair.w)
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
    assert [est.p for est in rows] == [30, 60, 120]  # ascending, one per ratio
    for est in rows:
        assert est == k_estimate(est.p, 120)[0]  # every field, bit for bit
        assert est.converged and est.outer_iterations <= 5


def test_k_table_monotone_in_ratio():
    rows = k_table([1.0, 0.8, 0.6, 0.4, 0.2], p_base=200)
    values = [est.k_value for est in rows]  # ascending ratio order
    assert all(est.converged for est in rows)
    for lo_ratio, hi_ratio in zip(values, values[1:]):
        assert lo_ratio >= hi_ratio - 1e-4
