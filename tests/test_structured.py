import numpy as np
import pytest
from hypothesis import given, strategies as st

import specnorm.structured as structured
from specnorm.structured import (
    DISTRIBUTIONS,
    FAMILIES,
    MatrixSpec,
    ResourceLimitError,
    SymbolVector,
    build_symbols,
    dense_materialize,
    embedding_size,
    matvec,
    projection_entry,
    replicate_stream,
    rmatvec,
)

from oracles import full_diagonal, symbol_from_values


class StubStream:
    """Generator stand-in handing out prescribed gaussian draws."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, out):
        assert out.shape == self.values.shape
        out[...] = self.values


def drawn(spec, stream):
    """The one-row stack laid out from one draw of `stream` (a generator or a
    StubStream), through the helpers build_symbols draws and lays out with."""
    entries = np.empty((1, structured._entry_count(spec)))
    structured._draw_into(stream, spec.dist, entries[0])
    return structured._symbols(spec, entries)


def all_specs(p, n, seed=0):
    return [
        MatrixSpec(family, p=p, n=n, symmetric=symmetric, seed=seed)
        for family in FAMILIES
        for symmetric in (False, True)
    ]


def test_delta_symbol_gives_flat_diagonal():
    spec = MatrixSpec("toeplitz", p=2, n=3)
    stub = StubStream([1, 0, 0, 0, 0])
    sym = drawn(spec, stub)
    np.testing.assert_allclose(sym.half, np.full((1, 3), 1 / np.sqrt(5)), atol=1e-14)


def test_delta_symbol_circulant():
    spec = MatrixSpec("circulant", p=2, n=4)
    sym = drawn(spec, StubStream([1, 0, 0, 0]))
    np.testing.assert_allclose(sym.half, np.full((1, 3), 0.5), atol=1e-14)


def test_real_symbol_conjugate_symmetry():
    spec = MatrixSpec("toeplitz", p=400, n=624, seed=9)  # embedding size 2**10
    sym = build_symbols(spec, [0])
    n = sym.size
    assert n == 2**10
    # the whole diagonal, by a complex transform of the symbol: its upper half
    # is the conjugate of the half the draw keeps
    diag = np.fft.ifft(sym.values[0]) * np.sqrt(n)
    j = np.arange(n // 2 + 1)
    assert sym.half.shape == (1, n // 2 + 1)
    err = np.abs(diag[(n - j) % n] - np.conj(sym.half[0, j]))
    assert err.max() < 1e-12


def test_diagonal_component_variances():
    # half-spectrum real/imaginary parts each carry variance 1/2
    n = 2**14
    spec = MatrixSpec("circulant", p=n, n=n, seed=31415)
    sym = build_symbols(spec, [0])
    interior = sym.half[0, 1 : n // 2]
    assert abs(np.var(interior.real) - 0.5) < 0.05
    assert abs(np.var(interior.imag) - 0.5) < 0.05


def test_diagonal_components_uncorrelated():
    draws = 10_000
    n = 64
    rng = replicate_stream(777)
    a = rng.standard_normal((draws, n))
    d1 = np.fft.ifft(a, axis=1)[:, 1] * np.sqrt(n)
    corr = np.corrcoef(d1.real, d1.imag)[0, 1]
    assert abs(corr) < 0.05


def test_toeplitz_fixture_matrix():
    # symbol (a_0, a_1, a_2, a_{-2}, a_{-1}) = (1, 2, 3, 0, 4)
    spec = MatrixSpec("toeplitz", p=2, n=3)
    sym = symbol_from_values([1, 2, 3, 0, 4], spec)
    np.testing.assert_allclose(dense_materialize(sym, spec), [[[1, 2, 3], [4, 1, 2]]])
    np.testing.assert_allclose(matvec(sym, spec, [[1, 0, 0]]), [[1, 4]], atol=1e-12)


def test_circulant_fixture_row_sums():
    spec = MatrixSpec("circulant", p=2, n=3)
    sym = symbol_from_values([1, 2, 3], spec)
    np.testing.assert_allclose(dense_materialize(sym, spec), [[[1, 2, 3], [3, 1, 2]]])
    np.testing.assert_allclose(matvec(sym, spec, [[1, 1, 1]]), [[6, 6]], atol=1e-12)


def test_symmetric_circulant_row():
    spec = MatrixSpec("circulant", p=1, n=4, symmetric=True)
    sym = drawn(spec, StubStream([10.0, 20.0, 30.0]))
    np.testing.assert_allclose(dense_materialize(sym, spec), [[[10, 20, 30, 20]]])


def test_symmetric_toeplitz_pattern():
    spec = MatrixSpec("toeplitz", p=2, n=3, symmetric=True)
    a = np.array([1.0, 2.0, 3.0, 4.0])  # a_0..a_n with n = 3
    sym = drawn(spec, StubStream(a))
    np.testing.assert_allclose(dense_materialize(sym, spec), [[[1, 2, 3], [2, 1, 2]]])


def test_hankel_is_column_reversed_toeplitz():
    t_spec = MatrixSpec("toeplitz", p=2, n=3, seed=5)
    h_spec = MatrixSpec("hankel", p=2, n=3, seed=5)
    sym = build_symbols(t_spec, [0])
    (t,) = dense_materialize(sym, t_spec)
    (h,) = dense_materialize(sym, h_spec)
    np.testing.assert_allclose(h, t[:, ::-1])


def test_hankel_toeplitz_share_singular_values():
    t_spec = MatrixSpec("toeplitz", p=17, n=41, seed=8)
    h_spec = MatrixSpec("hankel", p=17, n=41, seed=8)
    sym = build_symbols(t_spec, [0])
    st_ = np.linalg.svd(dense_materialize(sym, t_spec)[0], compute_uv=False)
    sh = np.linalg.svd(dense_materialize(sym, h_spec)[0], compute_uv=False)
    np.testing.assert_allclose(st_, sh, rtol=1e-12, atol=1e-12)


def test_fast_matches_dense_fixed_size():
    rng = np.random.default_rng(97)
    spec = MatrixSpec("toeplitz", p=40, n=97, seed=12)
    sym = build_symbols(spec, [0])
    (dense,) = dense_materialize(sym, spec)
    for _ in range(100):
        x = rng.standard_normal(97)
        ref = dense @ x
        err = np.linalg.norm(matvec(sym, spec, x[None])[0] - ref) / np.linalg.norm(ref)
        assert err < 1e-10


# n = 27 gives odd circulant embeddings, so both real-FFT parities are checked
@pytest.mark.parametrize(
    "spec", all_specs(p=11, n=28, seed=3) + all_specs(p=11, n=27, seed=3), ids=str
)
def test_fast_matches_dense_all_families(spec):
    rng = np.random.default_rng([spec.seed, FAMILIES.index(spec.family), spec.n])
    sym = build_symbols(spec, [0])
    (dense,) = dense_materialize(sym, spec)
    for _ in range(10):
        x = rng.standard_normal(spec.n)
        ref = dense @ x
        assert np.linalg.norm(matvec(sym, spec, x[None])[0] - ref) <= 1e-10 * np.linalg.norm(ref)
        y = rng.standard_normal(spec.p)
        ref = dense.T @ y
        assert np.linalg.norm(rmatvec(sym, spec, y[None])[0] - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("spec", all_specs(p=9, n=20, seed=21), ids=str)
def test_rmatvec_is_adjoint(spec):
    rng = np.random.default_rng(55)
    sym = build_symbols(spec, [0])
    for _ in range(10):
        x = rng.standard_normal((1, spec.n))
        y = rng.standard_normal((1, spec.p))
        lhs = float(np.vdot(matvec(sym, spec, x), y))
        rhs = float(np.vdot(x, rmatvec(sym, spec, y)))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_drawn_entries_have_mean_0_and_variance_1():
    for dist in DISTRIBUTIONS:
        x = build_symbols(MatrixSpec("toeplitz", p=1000, n=199_000, dist=dist, seed=2024), [0]).values
        assert x.size == 200_000
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_build_symbols_draws_each_row_as_the_plain_generator_calls_do(dist):
    # drawn in place, each row holds the bits of the plain generator calls
    # that draw a fresh array on its stream
    half = np.sqrt(3.0)
    fresh = {
        "gaussian": lambda rng, count: rng.standard_normal(count),
        "rademacher": lambda rng, count: rng.integers(0, 2, count) * 2.0 - 1.0,
        "uniform_centered": lambda rng, count: rng.uniform(-half, half, count),
    }[dist]
    spec = MatrixSpec("toeplitz", p=300, n=1000, dist=dist, seed=31)
    stack = build_symbols(spec, range(3))
    for r in range(3):
        row = stack.values[r].tobytes()
        assert row == fresh(replicate_stream(31, r), 1300).tobytes()


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_build_symbols_rows_are_their_replicate_streams_in_any_order(dist):
    # one bit generator re-keyed per row: an odd draw count leaves a
    # buffered half word after a Rademacher row, which must not reach the
    # next row, and a repeated or out-of-order replicate draws as on its own
    spec = MatrixSpec("toeplitz", p=3, n=4, dist=dist, seed=2**63 + 5)
    replicates = [5, 0, 5, 2**40, 1]
    stack = build_symbols(spec, replicates)
    for row, r in zip(stack.values, replicates):
        assert row.tobytes() == drawn(spec, replicate_stream(spec.seed, r)).values.tobytes()


def test_replicate_stream_reproducible_and_split():
    a = replicate_stream(5, 7).standard_normal(4)
    b = replicate_stream(5, 7).standard_normal(4)
    c = replicate_stream(5, 8).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_projection_entry_diagonal():
    assert projection_entry(3, 8, 4, 4) == pytest.approx(0.375)


def test_projection_row_norm():
    p, n = 5, 12
    for k in range(n):
        row = sum(abs(projection_entry(p, n, k, l)) ** 2 for l in range(n))
        assert abs(row - p / n) < 1e-12


def test_projection_entry_bound():
    p, n = 7, 19
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            bound = abs(np.sin(np.pi * (l - k) * p / n)) / (2 * min(abs(l - k), n - abs(l - k)))
            assert abs(projection_entry(p, n, k, l)) <= bound + 1e-12


def test_projection_entry_range_checks():
    with pytest.raises(ValueError):
        projection_entry(0, 8, 0, 0)
    with pytest.raises(ValueError):
        projection_entry(3, 8, 8, 0)


def test_embedding_sizes():
    assert embedding_size(MatrixSpec("toeplitz", p=3, n=5)) == 8
    assert embedding_size(MatrixSpec("toeplitz", p=3, n=5, symmetric=True)) == 10
    assert embedding_size(MatrixSpec("circulant", p=3, n=5)) == 5
    assert embedding_size(MatrixSpec("reverse_circulant", p=3, n=5, symmetric=True)) == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec("toeplitz", p=10, n=5)
    with pytest.raises(ValueError):
        MatrixSpec("toeplitz", p=0, n=5)
    with pytest.raises(ValueError):
        MatrixSpec("butterfly", p=2, n=5)
    with pytest.raises(ValueError):
        MatrixSpec("toeplitz", p=2, n=5, dist="cauchy")


@pytest.mark.parametrize("field, value", [
    ("p", 2.0), ("n", 5.0), ("seed", 1.0), ("seed", True), ("p", "2")])
def test_spec_refuses_a_non_integer_shape_or_seed_by_name(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        MatrixSpec("toeplitz", **{"p": 2, "n": 5, "seed": 1, field: value})
    # numpy integers are integers
    assert MatrixSpec("toeplitz", p=np.int64(2), n=np.int32(5), seed=np.uint64(1)).p == 2


@pytest.mark.parametrize("value", [0, 1, "false", None])
def test_spec_refuses_a_symmetric_flag_that_is_not_a_bool(value):
    with pytest.raises(ValueError, match=rf"^symmetric must be true or false, got {value!r}$"):
        MatrixSpec("circulant", p=2, n=4, symmetric=value)
    # numpy bools are bools
    assert MatrixSpec("circulant", p=2, n=4, symmetric=np.bool_(True)).symmetric


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("rows", [1, 4])
def test_build_symbols_rows_equal_own_stream_draws_bit_for_bit(family, symmetric, dist, rows):
    # 7 x 19: embedding sizes 26, 38 and 19, odd and even
    spec = MatrixSpec(family, p=7, n=19, symmetric=symmetric, dist=dist, seed=23)
    stack = build_symbols(spec, range(rows))
    assert stack.size == embedding_size(spec)
    assert stack.values.shape == (rows, stack.size)
    assert stack.half.shape == (rows, stack.size // 2 + 1)
    for r in range(rows):
        sym = drawn(spec, replicate_stream(23, r))
        assert stack.values[r].tobytes() == sym.values.tobytes()
        assert stack.half[r].tobytes() == sym.half.tobytes()


@pytest.mark.parametrize("family", ["toeplitz", "hankel", "circulant", "reverse_circulant"])
def test_stacked_products_equal_row_products_bit_for_bit(family):
    spec = MatrixSpec(family, p=7, n=19, seed=17)
    syms = [build_symbols(spec, [r]) for r in range(5)]
    stack = build_symbols(spec, range(5))
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((5, spec.n)), rng.standard_normal((5, spec.p))
    ax, aty = matvec(stack, spec, x), rmatvec(stack, spec, y)
    for i, sym in enumerate(syms):
        assert ax[i].tobytes() == matvec(sym, spec, x[i : i + 1]).tobytes()
        assert aty[i].tobytes() == rmatvec(sym, spec, y[i : i + 1]).tobytes()
    with pytest.raises(ValueError):
        matvec(stack, spec, x[0])


def test_matvec_shape_checks():
    spec = MatrixSpec("toeplitz", p=2, n=3)
    sym = build_symbols(spec, [0])
    with pytest.raises(ValueError):
        matvec(sym, spec, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        rmatvec(sym, spec, [[1.0, 2.0, 3.0]])
    # operands hold one vector per symbol row, so a 1-D one is refused
    with pytest.raises(ValueError):
        matvec(sym, spec, [1.0, 2.0, 3.0])
    # a complex operand is refused, not silently cast to its real part
    with pytest.raises(ValueError, match="x must be real"):
        matvec(sym, spec, [[1.0, 2.0, 3.0j]])
    with pytest.raises(ValueError, match="y must be real"):
        rmatvec(sym, spec, np.array([[1.0, 2.0]], dtype=complex))
    with pytest.raises(ValueError):
        symbol_from_values([1.0, 2.0], spec)


def test_dense_size_guard():
    spec = MatrixSpec("circulant", p=20_000, n=20_000)
    sym = symbol_from_values(np.zeros(20_000), spec)
    with pytest.raises(ResourceLimitError):
        dense_materialize(sym, spec)


def test_dense_size_guard_counts_every_row(monkeypatch):
    monkeypatch.setattr(structured, "_DENSE_ENTRY_LIMIT", 100)
    spec = MatrixSpec("circulant", p=2, n=25)

    def stack(rows):
        return SymbolVector(values=np.zeros((rows, 25)), half=np.zeros((rows, 13), dtype=complex))

    assert dense_materialize(stack(2), spec).shape == (2, 2, 25)  # 100 entries
    with pytest.raises(ResourceLimitError, match=r"^dense path refuses 3 rows of p\*n = 50 > 100$"):
        dense_materialize(stack(3), spec)
    with pytest.raises(ResourceLimitError, match=r"^dense path refuses p\*n = 150 > 100$"):
        dense_materialize(stack(1), MatrixSpec("circulant", p=6, n=25))


@given(st.integers(0, 2**32 - 1))
def test_symbol_round_trip_through_diag(seed):
    spec = MatrixSpec("toeplitz", p=4, n=9, seed=seed)
    sym = build_symbols(spec, [0])
    # half is the unitary transform of the symbol row, up to its mirror
    back = np.fft.fft(full_diagonal(sym.half, sym.size), axis=-1) / np.sqrt(sym.size)
    np.testing.assert_allclose(back.real, sym.values, atol=1e-10)
