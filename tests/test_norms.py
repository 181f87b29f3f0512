import math

import numpy as np
import pytest

from specnorm import norms
from specnorm.extremes import b_statistic
from specnorm.norms import NormResult, scaled_norm, spectral_norm_dense, spectral_norm_fast
from specnorm.structured import (
    FAMILIES,
    MatrixSpec,
    ResourceLimitError,
    build_symbol,
    dense_materialize,
    replicate_stream,
    stack_symbols,
    symbol_from_values,
)

# rounding of the FFT products and of the dense SVD, relative to sigma^2
ROUNDING = 64 * np.finfo(float).eps


def eigencount_above(gram, t):
    """Number of eigenvalues of a symmetric matrix above t, by LDL inertia.

    Plain Gaussian elimination with symmetric pivots; no library eigensolver
    involved, so this is an independent oracle path.
    """
    a = np.array(gram, dtype=float) - t * np.eye(gram.shape[0])
    m = a.shape[0]
    negatives = 0
    for k in range(m):
        pivot = a[k, k]
        if abs(pivot) < 1e-300:
            pivot = 1e-300
        if pivot < 0:
            negatives += 1
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :]) / pivot
    return m - negatives  # count above t equals count of positive pivots


def bisect_top_gram_eigenvalue(dense, tol=1e-12):
    gram = dense @ dense.T if dense.shape[0] <= dense.shape[1] else dense.T @ dense
    hi = float(np.abs(gram).sum(axis=1).max())  # Gershgorin
    lo = 0.0
    while hi - lo > tol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if eigencount_above(gram, mid) >= 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_all_ones_toeplitz_norm():
    spec = MatrixSpec("toeplitz", p=3, n=5)
    sym = symbol_from_values(np.ones(8), spec)
    res = spectral_norm_fast(sym, spec)
    # rank one: two distinct Gram eigenvalues, an invariant Krylov space
    # after two steps
    assert res.converged and res.iterations <= 2
    assert res.sigma_max == pytest.approx(math.sqrt(15), rel=1e-10)


def test_single_row_norm_is_row_length():
    spec = MatrixSpec("circulant", p=1, n=6, seed=13)
    sym = build_symbol(spec)
    res = spectral_norm_fast(sym, spec)
    assert res.sigma_max == pytest.approx(np.linalg.norm(sym.values), rel=1e-10)
    # a one-dimensional Krylov space is the whole space: exact after one step
    assert res.converged and res.iterations == 1 and res.residual == 0.0


def test_zero_symbol_is_exact():
    spec = MatrixSpec("toeplitz", p=5, n=9)
    res = spectral_norm_fast(symbol_from_values(np.zeros(14), spec), spec)
    assert res == NormResult(0.0, 1, True, 0.0)


def test_exact_termination_within_dim_steps():
    spec = MatrixSpec("hankel", p=4, n=11, seed=8)
    sym = build_symbol(spec)
    res = spectral_norm_fast(sym, spec, tol=1e-15)
    assert res.converged and res.iterations == spec.p and res.residual == 0.0
    oracle = spectral_norm_dense(dense_materialize(sym, spec)).sigma_max
    assert abs(res.sigma_max - oracle) <= 1e-14 * oracle


def test_converged_residual_certifies_the_squared_norm():
    rng = np.random.default_rng(77)
    variants = [(f, s) for s in (False, True) for f in FAMILIES]
    for tol in (1e-4, 1e-10):
        for i in range(48):
            family, symmetric = variants[i % 8]
            n = int(rng.integers(2, 97))
            p = int(rng.integers(1, min(n, 48) + 1))
            spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=7000 + i)
            sym = build_symbol(spec)
            res = spectral_norm_fast(sym, spec, tol=tol)
            dense_sq = spectral_norm_dense(dense_materialize(sym, spec)).sigma_max ** 2
            assert res.converged and res.iterations <= p
            assert res.residual <= max(tol, 16 * np.finfo(float).eps) * res.sigma_max**2
            assert abs(res.sigma_max**2 - dense_sq) <= res.residual + ROUNDING * dense_sq


def test_c7_replicates_match_dense_at_default_tol():
    # the stopping rule of power iteration passed 53 of these 500 draws while
    # still short of the norm by more than 1e-8 (worst 5.1e-6, top-pair gap 6e-6)
    spec = MatrixSpec("circulant", p=64, n=128, seed=101)
    for r in range(500):
        sym = build_symbol(spec, replicate_stream(101, r))
        res = spectral_norm_fast(sym, spec)
        oracle = spectral_norm_dense(dense_materialize(sym, spec)).sigma_max
        assert res.converged, r
        assert abs(res.sigma_max - oracle) <= 1e-8 * oracle, r


@pytest.mark.parametrize("replicate", [0, 245])
def test_loose_tol_certifies_the_top_eigenvalue(replicate):
    # C8c-supplementary setting; without the tol cap, replicate 0 stopped after
    # 16 steps at sigma^2 22645.59 against 22656.00 and replicate 245 after 19
    # steps, both converged
    spec = MatrixSpec("circulant", p=2048, n=4096, seed=17)
    sym = build_symbol(spec, replicate_stream(17, replicate))
    tol = 1e-5
    loose = spectral_norm_fast(sym, spec, tol=tol)
    top_sq = spectral_norm_fast(sym, spec, tol=1e-12).sigma_max ** 2
    assert loose.converged
    assert abs(loose.sigma_max**2 - top_sq) <= tol * top_sq


def test_one_product_pair_per_step(monkeypatch):
    calls = {"matvec": 0, "rmatvec": 0}
    for name in calls:
        original = getattr(norms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(norms, name, counted)
    spec = MatrixSpec("toeplitz", p=20, n=50, seed=3)
    res = spectral_norm_fast(build_symbol(spec), spec)
    assert calls == {"matvec": res.iterations, "rmatvec": res.iterations}


def test_krylov_basis_past_its_byte_budget_is_refused(monkeypatch):
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    sym = build_symbol(spec)
    monkeypatch.setattr(norms, "_BASIS_BYTES", 3 * 12 * 8)
    assert spectral_norm_fast(sym, spec, max_iter=3).iterations == 3
    with pytest.raises(ResourceLimitError):
        spectral_norm_fast(sym, spec)


def test_dense_diagonal_padded():
    assert spectral_norm_dense([[3, 0, 0], [0, 4, 0]]).sigma_max == pytest.approx(4.0)


def test_dense_rank_one():
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 1.0, 2.0])
    got = spectral_norm_dense(np.outer(u, v)).sigma_max
    assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_dense_matches_inertia_bisection_oracle():
    rng = np.random.default_rng(813)
    dense = rng.standard_normal((8, 13))
    top = bisect_top_gram_eigenvalue(dense, tol=1e-13)
    got = spectral_norm_dense(dense).sigma_max
    assert abs(got - math.sqrt(top)) < 1e-9 * max(1.0, got)


def test_fast_agrees_with_dense_across_families():
    rng = np.random.default_rng(50)
    worst = 0.0
    for i in range(200):
        family = FAMILIES[i % 4]
        symmetric = bool((i // 4) % 2)
        n = int(rng.integers(4, 97))
        p = int(rng.integers(1, min(n, 48) + 1))
        spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=900 + i)
        sym = build_symbol(spec)
        fast = spectral_norm_fast(sym, spec, tol=1e-12, max_iter=200_000)
        oracle = spectral_norm_dense(dense_materialize(sym, spec))
        worst = max(worst, abs(fast.sigma_max - oracle.sigma_max) / oracle.sigma_max)
    assert worst < 1e-8


def test_norm_dominates_row_and_column_lengths():
    rng = np.random.default_rng(4)
    for i in range(10):
        n = int(rng.integers(3, 60))
        p = int(rng.integers(1, n + 1))
        spec = MatrixSpec("toeplitz", p=p, n=n, seed=300 + i)
        dense = dense_materialize(build_symbol(spec), spec)
        sigma = spectral_norm_dense(dense).sigma_max
        assert sigma >= np.linalg.norm(dense, axis=0).max() - 1e-12
        assert sigma >= np.linalg.norm(dense, axis=1).max() - 1e-12


def test_square_circulant_exact_value():
    n = 128
    spec = MatrixSpec("circulant", p=n, n=n, seed=6)
    sym = build_symbol(spec)
    res = spectral_norm_fast(sym, spec, tol=1e-13, max_iter=200_000)
    exact = math.sqrt(n) * np.abs(sym.diag).max()
    assert abs(res.sigma_max - exact) < 1e-9 * exact


def test_norm_squared_dominates_bound_statistic():
    for i in range(20):
        spec = MatrixSpec("circulant", p=16, n=32, seed=2000 + i)
        sym = build_symbol(spec)
        res = spectral_norm_fast(sym, spec, tol=1e-12, max_iter=200_000)
        bound = spec.p * b_statistic(sym.diag, spec.p).value
        assert res.sigma_max**2 >= bound - 1e-9


def test_scaled_norm_definitions():
    spec = MatrixSpec("toeplitz", p=7, n=50)
    assert scaled_norm(math.sqrt(7 * math.log(50)), spec) == pytest.approx(1.0)
    sym_spec = MatrixSpec("toeplitz", p=7, n=50, symmetric=True)
    assert scaled_norm(math.sqrt(2 * 7 * math.log(50)), sym_spec) == pytest.approx(1.0)


def test_scaled_norm_envelope_single_large_draw():
    spec = MatrixSpec("circulant", p=500, n=1000, seed=99)
    sym = build_symbol(spec)
    res = spectral_norm_fast(sym, spec, tol=1e-8)
    assert 0.8 <= scaled_norm(res.sigma_max, spec) <= 1.6


def test_scaled_norm_rejects_tiny_n():
    class _Tiny:
        p, n, symmetric = 1, 1, False

    with pytest.raises(ValueError):
        scaled_norm(1.0, _Tiny())


def test_non_convergence_is_flagged_not_raised():
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    sym = build_symbol(spec)
    res = spectral_norm_fast(sym, spec, tol=1e-15, max_iter=2)
    assert isinstance(res, NormResult)
    assert not res.converged
    assert res.sigma_max > 0
    single = spectral_norm_fast(sym, spec, max_iter=1)
    assert not single.converged and single.iterations == 1


def test_fast_norm_parameter_validation():
    spec = MatrixSpec("toeplitz", p=2, n=3, seed=1)
    sym = build_symbol(spec)
    with pytest.raises(ValueError):
        spectral_norm_fast(sym, spec, tol=0.0)
    with pytest.raises(ValueError):
        spectral_norm_fast(sym, spec, max_iter=0)


def test_dense_size_guard():
    big = np.broadcast_to(0.0, (4000, 3000))
    with pytest.raises(ResourceLimitError):
        spectral_norm_dense(big)


def _bits(result):
    return (
        np.float64(result.sigma_max).tobytes(),
        result.iterations,
        result.converged,
        np.float64(result.residual).tobytes(),
    )


def test_block_rows_equal_their_single_solves_bit_for_bit():
    spec = MatrixSpec("toeplitz", p=40, n=90, seed=1)
    syms = [build_symbol(spec, replicate_stream(40, r)) for r in range(9)]
    single = [spectral_norm_fast(sym, spec) for sym in syms]
    # rows leave the block at different steps
    assert len({res.iterations for res in single}) > 1
    for size in (1, 4, 9):
        block = []
        for lo in range(0, 9, size):
            block += norms.spectral_norms(stack_symbols(syms[lo : lo + size]), spec)
        assert [_bits(res) for res in block] == [_bits(res) for res in single]


def test_block_row_stopped_by_max_iter_is_flagged_alone():
    spec = MatrixSpec("circulant", p=16, n=32, seed=5)
    syms = [build_symbol(spec, replicate_stream(5, r)) for r in range(12)]
    steps = [spectral_norm_fast(sym, spec).iterations for sym in syms]
    cap = max(steps) - 1
    assert min(steps) < cap
    block = norms.spectral_norms(stack_symbols(syms), spec, max_iter=cap)
    assert [res.converged for res in block] == [s <= cap for s in steps]
    assert [res.iterations for res in block] == [min(s, cap) for s in steps]
    capped = [spectral_norm_fast(sym, spec, max_iter=cap) for sym in syms]
    assert [_bits(res) for res in block] == [_bits(res) for res in capped]


def test_block_basis_past_its_byte_budget_is_refused(monkeypatch):
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    stack = stack_symbols([build_symbol(spec, replicate_stream(1, r)) for r in range(3)])
    # the budget holds per row: three vectors each, whatever the block size
    monkeypatch.setattr(norms, "_BASIS_BYTES", 3 * 12 * 8)
    assert [res.iterations for res in norms.spectral_norms(stack, spec, max_iter=3)] == [3] * 3
    with pytest.raises(ResourceLimitError):
        norms.spectral_norms(stack, spec)


def test_gram_lanczos_wants_one_start_vector_per_row():
    with pytest.raises(ValueError):
        norms.gram_lanczos(lambda q, rows: q, np.ones(4), 1e-10, 10)
