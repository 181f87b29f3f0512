import math
from dataclasses import replace

import numpy as np
import pytest

from specnorm import norms
from specnorm.dft import fast_length
from specnorm.extremes import b_statistic
from specnorm.norms import NormResult, scaled_norm, spectral_norm_dense, spectral_norm_fast
from specnorm.structured import (
    FAMILIES,
    MatrixSpec,
    ResourceLimitError,
    build_symbols,
    dense_materialize,
)

from oracles import symbol_from_values

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
    sym = build_symbols(spec, [0])
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
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec, tol=1e-15)
    assert res.converged and res.iterations == spec.p and res.residual == 0.0
    oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
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
            sym = build_symbols(spec, [0])
            res = spectral_norm_fast(sym, spec, tol=tol)
            dense_sq = spectral_norm_dense(dense_materialize(sym, spec)[0]) ** 2
            assert res.converged and res.iterations <= p
            assert res.residual <= max(tol, 16 * np.finfo(float).eps) * res.sigma_max**2
            assert abs(res.sigma_max**2 - dense_sq) <= res.residual + ROUNDING * dense_sq


def test_c7_replicates_match_dense_at_default_tol():
    # the stopping rule of power iteration passed 53 of these 500 draws while
    # still short of the norm by more than 1e-8 (worst 5.1e-6, top-pair gap 6e-6)
    spec = MatrixSpec("circulant", p=64, n=128, seed=101)
    for r in range(500):
        sym = build_symbols(spec, [r])
        res = spectral_norm_fast(sym, spec)
        oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
        assert res.converged, r
        assert abs(res.sigma_max - oracle) <= 1e-8 * oracle, r


@pytest.mark.parametrize("replicate", [0, 245])
def test_loose_tol_certifies_the_top_eigenvalue(replicate):
    # C8c-supplementary setting; without the tol cap, replicate 0 stopped after
    # 16 steps at sigma^2 22645.59 against 22656.00 and replicate 245 after 19
    # steps, both converged
    spec = MatrixSpec("circulant", p=2048, n=4096, seed=17)
    sym = build_symbols(spec, [replicate])
    tol = 1e-5
    loose = spectral_norm_fast(sym, spec, tol=tol)
    top_sq = spectral_norm_fast(sym, spec, tol=1e-12).sigma_max ** 2
    assert loose.converged
    assert abs(loose.sigma_max**2 - top_sq) <= tol * top_sq


def _count_products_and_gram_calls(monkeypatch):
    """Count the product pair and Gram calls of the norm solver, and record
    the length of each circular convolution it makes."""
    calls = {"matvec": 0, "rmatvec": 0, "gram": 0}
    for name in ("matvec", "rmatvec"):
        original = getattr(norms, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(norms, name, counted)
    lanczos = norms.gram_lanczos

    def counted_lanczos(apply, *args):
        def counted_apply(*apply_args):
            calls["gram"] += 1
            return apply(*apply_args)

        return lanczos(counted_apply, *args)

    monkeypatch.setattr(norms, "gram_lanczos", counted_lanczos)
    sizes = []
    convolve = norms.circular_convolve

    def recorded_convolve(spectrum, x, size):
        sizes.append(size)
        return convolve(spectrum, x, size)

    monkeypatch.setattr(norms, "circular_convolve", recorded_convolve)
    return calls, sizes


def _is_5_smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("symmetric", [False, True])
# p > n / 2 at 20 x 20 and 20 x 22; the embedding size N = 42, 44 or 22 of 20 x 22 is not 5-smooth
@pytest.mark.parametrize("p,n", [(20, 50), (20, 20), (20, 22)])
def test_short_side_makes_one_product_pair_per_solve(monkeypatch, family, symmetric, p, n):
    calls, sizes = _count_products_and_gram_calls(monkeypatch)
    spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=3)
    stack = build_symbols(spec, range(6))
    block = norms.spectral_norms(stack, spec)
    # one stacked pair for the first columns, then one Gram call per step
    assert calls == {"matvec": 1, "rmatvec": 1, "gram": block.steps.max()}
    # every convolution has the 5-smooth kernel length fast_length(2p - 1) = 40
    assert sizes and all(_is_5_smooth(size) for size in sizes)


def _gram_shapes():
    """(family, symmetric, p, n): p = 1, p = n, embedding sizes N that are
    5-smooth and that are not, and N = 1214 = 2 * 607."""
    shapes = []
    for family in FAMILIES:
        for symmetric in (False, True):
            if family in ("toeplitz", "hankel"):
                if symmetric:  # N = 2n
                    sizes = [(1, 1), (1, 7), (8, 8), (200, 300), (200, 301), (200, 607), (33, 70)]
                else:
                    sizes = [(1, 1), (1, 7), (8, 8), (200, 400), (200, 401), (200, 1014), (33, 70)]
            else:
                sizes = [(1, 1), (1, 7), (8, 8), (9, 9), (200, 200), (200, 201), (200, 1214),
                         (33, 70)]
            shapes += [(family, symmetric, p, n) for p, n in sizes]
    return shapes


@pytest.mark.parametrize("family,symmetric,p,n", _gram_shapes())
def test_short_side_gram_matches_dense(family, symmetric, p, n):
    spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=11)
    stack = build_symbols(spec, range(3))
    kernels, apply = norms._short_side_gram(stack, spec)
    y = np.random.default_rng(p + n).standard_normal((3, p))
    got = apply(kernels, y)
    for dense, row, out in zip(dense_materialize(stack, spec), y, got):
        gram = dense @ dense.T
        want = gram @ row
        assert np.linalg.norm(out - want) <= 1e-14 * np.linalg.norm(gram, 2) * np.linalg.norm(row)


@pytest.mark.parametrize("family,symmetric,p,n", [
    # m = fast_length(399) = 400 transform points per convolution, and 3 m
    # against 2 N on both sides of equality
    ("toeplitz", False, 200, 401),  # N = 601
    ("toeplitz", False, 200, 400),  # N = 600
    ("hankel", False, 200, 401),
    ("hankel", False, 200, 400),
    ("toeplitz", True, 200, 301),  # N = 2n = 602
    ("toeplitz", True, 200, 300),  # N = 600
    ("hankel", True, 200, 301),
    ("hankel", True, 200, 300),
    ("toeplitz", False, 1, 1),  # m = 1
    ("toeplitz", True, 1, 1),
] + [
    (family, symmetric, p, n)
    for family in ("circulant", "reverse_circulant")
    for symmetric in (False, True)  # N = n either way
    for p, n in [
        (200, 201),  # N = 201 = 3 * 67
        (200, 200),  # m = 400 = 2 N
        (8, 8),  # 2p - 1 = 15 is 5-smooth
        (9, 9),  # fast_length(17) = 18 = 2 N
    ]
])
def test_every_convolution_has_length_fast_length_of_2p_minus_1(monkeypatch, family, symmetric,
                                                               p, n):
    calls, sizes = _count_products_and_gram_calls(monkeypatch)
    spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=5)
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec)
    # whatever N, the Gram steps run on the short side: no convolution of
    # another length, and one product pair for the first column only
    assert set(sizes) == {fast_length(2 * p - 1)}
    assert calls == {"matvec": 1, "rmatvec": 1, "gram": res.iterations}
    oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
    assert res.converged
    assert abs(res.sigma_max - oracle) <= 1e-8 * oracle


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("symmetric", [False, True])
# 37 is prime: the embedding size N = 37, or 74 for Toeplitz and Hankel, is not 5-smooth
@pytest.mark.parametrize("p,n", [(24, 60), (37, 37)])
def test_every_row_of_a_block_of_20_matches_dense_and_its_single_solve(family, symmetric, p, n):
    spec = MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=31)
    syms = [build_symbols(spec, [r]) for r in range(20)]
    block = _rows(norms.spectral_norms(
        build_symbols(spec, range(20)), spec))
    assert len({res.iterations for res in block}) > 1  # the kernels shrink on the way
    for r, (sym, res) in enumerate(zip(syms, block)):
        oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
        assert res.converged, r
        assert abs(res.sigma_max - oracle) <= 1e-8 * oracle, r
        assert _bits(spectral_norm_fast(sym, spec)) == _bits(res), r


def test_krylov_basis_past_its_byte_budget_is_refused(monkeypatch):
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    sym = build_symbols(spec, [0])
    monkeypatch.setattr(norms, "_BASIS_BYTES", 3 * 12 * 8)
    assert spectral_norm_fast(sym, spec, max_iter=3).iterations == 3
    with pytest.raises(ResourceLimitError):
        spectral_norm_fast(sym, spec)


def test_dense_diagonal_padded():
    sigma = spectral_norm_dense([[3, 0, 0], [0, 4, 0]])
    assert type(sigma) is float
    assert sigma == pytest.approx(4.0)


def test_dense_rank_one():
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 1.0, 2.0])
    got = spectral_norm_dense(np.outer(u, v))
    assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_dense_matches_inertia_bisection_oracle():
    rng = np.random.default_rng(813)
    dense = rng.standard_normal((8, 13))
    top = bisect_top_gram_eigenvalue(dense, tol=1e-13)
    got = spectral_norm_dense(dense)
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
        sym = build_symbols(spec, [0])
        fast = spectral_norm_fast(sym, spec, tol=1e-12, max_iter=200_000)
        oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
        worst = max(worst, abs(fast.sigma_max - oracle) / oracle)
    assert worst < 1e-8


def test_norm_dominates_row_and_column_lengths():
    rng = np.random.default_rng(4)
    for i in range(10):
        n = int(rng.integers(3, 60))
        p = int(rng.integers(1, n + 1))
        spec = MatrixSpec("toeplitz", p=p, n=n, seed=300 + i)
        (dense,) = dense_materialize(build_symbols(spec, [0]), spec)
        sigma = spectral_norm_dense(dense)
        assert sigma >= np.linalg.norm(dense, axis=0).max() - 1e-12
        assert sigma >= np.linalg.norm(dense, axis=1).max() - 1e-12


def test_square_circulant_exact_value():
    n = 128
    spec = MatrixSpec("circulant", p=n, n=n, seed=6)
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec, tol=1e-13, max_iter=200_000)
    exact = math.sqrt(n) * np.abs(sym.half).max()
    assert abs(res.sigma_max - exact) < 1e-9 * exact


def test_norm_squared_dominates_bound_statistic():
    for i in range(20):
        spec = MatrixSpec("circulant", p=16, n=32, seed=2000 + i)
        sym = build_symbols(spec, [0])
        res = spectral_norm_fast(sym, spec, tol=1e-12, max_iter=200_000)
        bound = spec.p * b_statistic(sym.half, spec.p, spec.n).value
        assert res.sigma_max**2 >= bound - 1e-9


def test_scaled_norm_definitions():
    spec = MatrixSpec("toeplitz", p=7, n=50)
    assert scaled_norm(math.sqrt(7 * math.log(50)), spec) == pytest.approx(1.0)
    sym_spec = MatrixSpec("toeplitz", p=7, n=50, symmetric=True)
    assert scaled_norm(math.sqrt(2 * 7 * math.log(50)), sym_spec) == pytest.approx(1.0)


def test_scaled_norm_envelope_single_large_draw():
    spec = MatrixSpec("circulant", p=500, n=1000, seed=99)
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec, tol=1e-8)
    assert 0.8 <= scaled_norm(res.sigma_max, spec) <= 1.6


def test_scaled_norm_rejects_tiny_n():
    class _Tiny:
        p, n, symmetric = 1, 1, False

    with pytest.raises(ValueError):
        scaled_norm(1.0, _Tiny())


@pytest.mark.parametrize("rows", [0, 2])
def test_fast_norm_refuses_a_stack_of_other_than_one_row(rows):
    spec = MatrixSpec("circulant", p=4, n=8, seed=1)
    with pytest.raises(ValueError, match=rf"one-row stack, got shape \({rows}, 8\)$"):
        spectral_norm_fast(build_symbols(spec, range(rows)), spec)


def test_non_convergence_is_flagged_not_raised():
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    sym = build_symbols(spec, [0])
    res = spectral_norm_fast(sym, spec, tol=1e-15, max_iter=2)
    assert isinstance(res, NormResult)
    assert not res.converged
    assert res.sigma_max > 0
    single = spectral_norm_fast(sym, spec, max_iter=1)
    assert not single.converged and single.iterations == 1


def test_fast_norm_parameter_validation():
    spec = MatrixSpec("toeplitz", p=2, n=3, seed=1)
    sym = build_symbols(spec, [0])
    with pytest.raises(ValueError):
        spectral_norm_fast(sym, spec, tol=0.0)
    with pytest.raises(ValueError):
        spectral_norm_fast(sym, spec, max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be an integer, got 2.5"):
        spectral_norm_fast(sym, spec, max_iter=2.5)


def test_dense_size_guard():
    big = np.broadcast_to(0.0, (4000, 3000))
    with pytest.raises(ResourceLimitError):
        spectral_norm_dense(big)


def _rows(top):
    """The rows of a block solve as the NormResults of single solves."""
    return [
        NormResult(math.sqrt(value), int(steps), bool(converged), float(residual))
        for value, steps, converged, residual in zip(
            top.values, top.steps, top.converged, top.residuals
        )
    ]


def _bits(result):
    return (
        np.float64(result.sigma_max).tobytes(),
        result.iterations,
        result.converged,
        np.float64(result.residual).tobytes(),
    )


def test_block_rows_equal_their_single_solves_bit_for_bit():
    # a Toeplitz shape, and C7's Gaussian circulant 64 x 128, whose rows take
    # up to about 50 steps: Ritz extraction row by row on Python floats, in
    # blocks of 1, 4 and 9 rows, must match the single solves at large k
    for spec, stream in [
        (MatrixSpec("toeplitz", p=40, n=90, seed=1), 40),
        (MatrixSpec("circulant", p=64, n=128, seed=101), 101),
    ]:
        draw = replace(spec, seed=stream)  # the solves keep the start of spec's seed
        syms = [build_symbols(draw, [r]) for r in range(9)]
        single = [spectral_norm_fast(sym, spec) for sym in syms]
        # rows leave the block at different steps
        assert len({res.iterations for res in single}) > 1
        for size in (1, 4, 9):
            block = []
            for lo in range(0, 9, size):
                stack = build_symbols(draw, range(lo, min(lo + size, 9)))
                block += _rows(norms.spectral_norms(stack, spec))
            assert [_bits(res) for res in block] == [_bits(res) for res in single], (spec, size)


def test_block_row_stopped_by_max_iter_is_flagged_alone():
    spec = MatrixSpec("circulant", p=16, n=32, seed=5)
    syms = [build_symbols(spec, [r]) for r in range(12)]
    steps = [spectral_norm_fast(sym, spec).iterations for sym in syms]
    # the last step before the slowest row's at which some row stops: a
    # checked step, so every row still running there failed its check in
    # the free solve
    cap = max(s for s in steps if s < max(steps))
    assert _checked(cap) and min(steps) <= cap
    stack = build_symbols(spec, range(12))
    block = _rows(norms.spectral_norms(stack, spec, max_iter=cap))
    assert {res.converged for res in block} == {True, False}
    assert [res.converged for res in block] == [s <= cap for s in steps]
    assert [res.iterations for res in block] == [min(s, cap) for s in steps]
    capped = [spectral_norm_fast(sym, spec, max_iter=cap) for sym in syms]
    assert [_bits(res) for res in block] == [_bits(res) for res in capped]


def _checked(k):
    """Whether the Lanczos core runs its stopping check at step k when the
    row neither terminates exactly nor reaches its cap there: steps 1-4,
    every 2nd step through 12, then every 4th."""
    return k <= 4 or (k <= 12 and k % 2 == 0) or k % 4 == 0


def test_c7_rows_stop_at_checks_and_match_their_single_solves_and_dense():
    # C7 (circulant 64 x 128, seed 101, replicates 0-99): rows stop from
    # step 16 to past 24, and every row passes the checks of steps 1-12
    spec = MatrixSpec("circulant", p=64, n=128, seed=101)
    streams = range(100)
    top = norms.spectral_norms(build_symbols(spec, streams),
                               spec)
    assert top.converged.all()
    assert top.steps.min() <= 16 < 24 < top.steps.max() < spec.p
    assert all(_checked(k) for k in top.steps)
    # off the schedule a running row skips the check
    assert top.checked_steps.tolist() == [sum(map(_checked, range(1, k + 1))) for k in top.steps]
    assert (top.dense_steps <= top.checked_steps).all()
    assert (top.residuals <= norms.DEFAULT_TOL * top.values).all()
    syms = [build_symbols(spec, [r]) for r in streams]
    single = [spectral_norm_fast(sym, spec) for sym in syms]
    assert [_bits(res) for res in _rows(top)] == [_bits(res) for res in single]
    for sym, res in zip(syms, single):
        oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
        assert abs(res.sigma_max - oracle) <= 1e-8 * oracle


def test_c7_rows_at_a_cap_off_the_schedule_are_checked_there():
    spec = MatrixSpec("circulant", p=64, n=128, seed=101)
    cap = 23
    assert not _checked(cap)
    streams = range(40)
    syms = [build_symbols(spec, [r]) for r in streams]
    free = [spectral_norm_fast(sym, spec) for sym in syms]
    top = norms.spectral_norms(build_symbols(spec, streams),
                               spec, max_iter=cap)
    block = _rows(top)
    assert [res.iterations for res in block] == [min(res.iterations, cap) for res in free]
    # rows that stopped before the cap are the uncapped solves
    assert [_bits(b) for b, f in zip(block, free) if f.iterations < cap] == [
        _bits(f) for f in free if f.iterations < cap
    ]
    at_cap = [(b, sym) for b, sym in zip(block, syms) if b.iterations == cap]
    # the cap takes a check: a row whose bound holds there has converged
    assert {b.converged for b, _ in at_cap} == {True, False}
    for b, sym in at_cap:
        assert b.converged == (b.residual <= norms.DEFAULT_TOL * b.sigma_max**2)
        if b.converged:
            oracle = spectral_norm_dense(dense_materialize(sym, spec)[0])
            assert abs(b.sigma_max - oracle) <= 1e-8 * oracle
    capped = [spectral_norm_fast(sym, spec, max_iter=cap) for sym in syms]
    assert [_bits(res) for res in block] == [_bits(res) for res in capped]


def test_a_row_ending_exactly_off_the_schedule_leaves_the_others_unchecked():
    # Lanczos from e_0 on a Jacobi matrix J reproduces J's entries exactly: the
    # basis is e_0, e_1, ..., so beta at step k is J's k-th off-diagonal entry
    dim = 16
    jacobi = np.zeros((2, dim, dim))
    diagonals = [np.arange(1.0, dim + 1.0), 10.0 - 1.5 * np.arange(dim)]
    off = np.ones((2, dim - 1))
    off[0, 4:] = 0.0  # row 0's basis spans an invariant subspace at step 5
    for row in range(2):
        jacobi[row] = np.diag(diagonals[row]) + np.diag(off[row], 1) + np.diag(off[row], -1)
    start = np.zeros((2, dim))
    start[:, 0] = 1.0

    def apply(kernels, q):
        return (kernels[0] @ q[:, :, None])[:, :, 0]

    assert not _checked(5)
    top = norms.gram_lanczos(apply, (jacobi,), start, 1e-10, 100)
    assert top.steps[0] == 5 and top.residuals[0] == 0.0 and top.converged[0]
    assert top.values[0] == np.linalg.eigvalsh(jacobi[0, :5, :5])[-1]
    # row 1 runs past step 5, where only the row that ends is checked
    alone = norms.gram_lanczos(apply, (jacobi[1:],), start[1:], 1e-10, 100)
    assert top.steps[1] > 6 and alone.converged[0]
    for name in ("values", "vectors", "steps", "checked_steps", "dense_steps"):
        assert getattr(top, name)[1:].tobytes() == getattr(alone, name).tobytes(), name


def test_block_basis_past_its_byte_budget_is_refused(monkeypatch):
    spec = MatrixSpec("toeplitz", p=12, n=25, seed=1)
    stack = build_symbols(spec, range(3))
    # the budget holds per row: three vectors each, whatever the block size
    monkeypatch.setattr(norms, "_BASIS_BYTES", 3 * 12 * 8)
    assert norms.spectral_norms(stack, spec, max_iter=3).steps.tolist() == [3] * 3
    with pytest.raises(ResourceLimitError):
        norms.spectral_norms(stack, spec)


def test_gram_lanczos_wants_one_start_vector_per_row():
    with pytest.raises(ValueError):
        norms.gram_lanczos(lambda kernels, q: q, (np.ones((1, 4)),), np.ones(4), 1e-10, 10)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_gram_lanczos_refuses_a_zero_or_nonfinite_start_row(bad):
    diagonals = np.tile([3.0, 2.0, 1.0], (3, 1))
    start = np.ones((3, 3))
    start[1] = [bad, 0.0, 0.0]
    with pytest.raises(ValueError, match="start vector of row 1 has norm"):
        norms.gram_lanczos(lambda kernels, q: kernels[0] * q, (diagonals,), start, 1e-10, 10)


def _lanczos_tridiagonal(eigenvalues, k, seed):
    """Diagonal and off-diagonal of k Lanczos steps, with full
    reorthogonalization, on diag(eigenvalues) from a random start."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(len(eigenvalues))
    basis = [q / np.linalg.norm(q)]
    alphas, betas = [], []
    for _ in range(k):
        w = eigenvalues * basis[-1]
        alphas.append(basis[-1] @ w)
        span = np.array(basis)
        for _ in range(2):
            w -= span.T @ (span @ w)
        betas.append(np.linalg.norm(w))
        basis.append(w / betas[-1])
    return np.array(alphas), np.array(betas[:-1])


def _tridiagonal(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def test_certified_extraction_is_within_its_residual_of_the_top_eigenvalue(monkeypatch):
    k = 12
    rng = np.random.default_rng(21)
    spectra = [
        np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.9, 38)]),  # near-tied top pair
        rng.uniform(0.0, 1.0, 40),
        rng.uniform(0.0, 1.0, 40),  # guess orthogonal to the top eigenvector
        rng.uniform(0.0, 1.0, 40),  # exact termination
        rng.uniform(0.0, 1.0, 40),  # a zero pivot
    ]
    steps = [_lanczos_tridiagonal(spectrum, k, i) for i, spectrum in enumerate(spectra)]
    alphas, betas = (np.array(part) for part in zip(*steps))
    alphas[4, 0] = 0.0
    guess, rho, tops = np.zeros((5, k)), np.zeros(5), np.zeros(5)
    for i in range(5):
        # the previous step's top Ritz pair extended by 0, as the core passes it
        values, vectors = np.linalg.eigh(_tridiagonal(alphas[i, :-1], betas[i, :-1]))
        guess[i, :-1], rho[i] = vectors[:, -1], values[-1]
        tops[i] = np.linalg.eigvalsh(_tridiagonal(alphas[i], betas[i]))[-1]
    values, vectors = np.linalg.eigh(_tridiagonal(alphas[2], betas[2]))
    guess[2], rho[2] = vectors[:, -2], values[-2]
    rho[4] = 0.0  # the first pivot of T - rho I is alphas[4, 0] - 0 = 0
    final = np.array([False, False, False, True, False])

    theta, s, t_residual, dense = norms._top_ritz(alphas, betas, guess, rho, final)
    assert dense.tolist() == [False, False, True, True, True]
    assert np.all(np.abs(theta - tops) <= t_residual + ROUNDING * tops)
    assert np.allclose(np.linalg.norm(s, axis=1), 1.0)
    # the dense rows are exactly what the dense extraction gives them
    want = norms._top_ritz_dense(alphas[dense], betas[dense], guess[dense])
    for got, ref in zip((theta[dense], s[dense], t_residual[dense]), want):
        assert got.tobytes() == ref.tobytes()
    # one row alone gives the bits it gets in the stack, and so does the
    # stack on (rows,) arrays instead of row by row on Python floats
    for i in range(5):
        row = slice(i, i + 1)
        alone = norms._top_ritz(alphas[row], betas[row], guess[row], rho[row], final[row])
        for got, ref in zip(alone, (theta, s, t_residual, dense)):
            assert got.tobytes() == ref[row].tobytes(), i
    monkeypatch.setattr(norms, "_FLOAT_ROWS", 0)
    stacked = norms._top_ritz(alphas, betas, guess, rho, final)
    for got, ref in zip(stacked, (theta, s, t_residual, dense)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("float_rows", [16, 0])
def test_a_zero_pivot_leaves_the_other_rows_of_a_check_certified(monkeypatch, float_rows):
    # a check of three rows, row by row on Python floats (at most 16 rows)
    # and on (rows,) arrays
    monkeypatch.setattr(norms, "_FLOAT_ROWS", float_rows)
    k = 10
    rng = np.random.default_rng(8)
    steps = [_lanczos_tridiagonal(rng.uniform(0.0, 1.0, 30), k, i) for i in range(3)]
    alphas, betas = (np.array(part) for part in zip(*steps))
    guess, rho = np.zeros((3, k)), np.zeros(3)
    for i in range(3):
        values, vectors = np.linalg.eigh(_tridiagonal(alphas[i, :-1], betas[i, :-1]))
        guess[i, :-1], rho[i] = vectors[:, -1], values[-1]
    alphas[1, 0] = rho[1] = 0.0  # the first pivot of row 1's T - rho I is 0
    with np.errstate(all="ignore"):
        theta, s, t_residual, certified = norms._certified_ritz(alphas, betas, guess, rho)
    assert certified.tolist() == [True, False, True]
    for i in (0, 2):
        row = slice(i, i + 1)
        alone = norms._certified_ritz(alphas[row], betas[row], guess[row], rho[row])
        for got, ref in zip(alone, (theta, s, t_residual, certified)):
            assert got.tobytes() == ref[row].tobytes(), i
    top = norms._top_ritz(alphas, betas, guess, rho, np.zeros(3, dtype=bool))
    assert top[3].tolist() == [False, True, False]


def test_checks_across_the_float_row_threshold_match_single_solves(monkeypatch):
    # 24 C7 rows: checks hold more than 16 rows until enough rows stop, and
    # several rows after that
    spec = MatrixSpec("circulant", p=64, n=128, seed=101)
    sizes = []
    certify = norms._certified_ritz

    def recorded(alphas, *args):
        sizes.append(len(alphas))
        return certify(alphas, *args)

    monkeypatch.setattr(norms, "_certified_ritz", recorded)
    top = norms.spectral_norms(build_symbols(spec, range(24)), spec)
    assert max(sizes) == 24 and any(1 < size <= norms._FLOAT_ROWS for size in sizes)
    single = [spectral_norm_fast(build_symbols(spec, [r]), spec)
              for r in range(24)]
    assert [_bits(res) for res in _rows(top)] == [_bits(res) for res in single]


def test_apply_gets_the_kernel_rows_of_the_rows_still_running():
    # diagonal Gram operators: row i is diag(kernels[0][i]), and the second
    # kernel is a scalar per row, so each stacked array shrinks with the block
    rng = np.random.default_rng(9)
    diagonals = rng.uniform(0.0, 1.0, (8, 60))
    diagonals[:, 0] = 1.0 + np.geomspace(1e-1, 1e-4, 8)  # top gaps: steps differ
    scales = np.arange(1.0, 9.0)
    seen = []

    def apply(kernels, q):
        seen.append((kernels[0].shape[0], kernels[1].shape[0], q.shape[0]))
        return kernels[0] * kernels[1][:, None] * q

    start = rng.standard_normal((8, 60))
    top = norms.gram_lanczos(apply, (diagonals, scales), start, 1e-12, 100)
    assert len(set(top.steps)) > 1 and top.converged.all()
    assert all(a == b == rows for a, b, rows in seen)
    running = [int((top.steps >= k).sum()) for k in range(1, top.steps.max() + 1)]
    assert [rows for _, _, rows in seen] == running
    # row i's operator stayed with row i
    assert np.allclose(top.values, diagonals.max(axis=1) * scales, rtol=1e-10)
