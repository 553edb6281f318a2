"""Vector/matrix/signal operations: examples, oracles and adjunction laws."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import tropalg.wlattice
from oracles import matmul_tensor, matvec_whole, signal_dilate_per_sample, signal_erode_per_sample
from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    Clodum,
    ClodumMismatchError,
    DimensionMismatchError,
    Signal1D,
    TropicalError,
    TropicalMatrix,
    TropicalVector,
    UnsupportedClodumError,
    conj_transpose,
    matmul_dilate,
    matmul_erode,
    matvec_dilate,
    matvec_erode,
    max_softmin,
    signal_dilate,
    signal_erode,
    solve,
)

INF = float("inf")

ALL_CLODA = [MAX_PLUS, MAX_TIMES, MAX_MIN, max_softmin(0.7)]


def _random_values(clodum, rng, shape):
    if clodum.kind == "max-min":
        return rng.uniform(0, 1, shape)
    if clodum.kind == "max-times":
        return rng.uniform(0, 5, shape)
    return rng.uniform(-5, 5, shape)


def _dilate_oracle(clodum, A, x):
    """Naive double loop, independent of the vectorized implementation."""
    m, n = A.shape
    out = np.full(m, clodum.bottom)
    for i in range(m):
        for j in range(n):
            out[i] = max(out[i], clodum.mul(A[i, j], x[j]))
    return out


def _erode_oracle(clodum, A, y):
    m, n = A.shape
    out = np.full(n, clodum.top)
    for j in range(n):
        for i in range(m):
            out[j] = min(out[j], clodum.adjoint_erosion(A[i, j], y[i]))
    return out


# ---------------------------------------------------------------------------
# construction


def test_vector_rejects_out_of_carrier():
    with pytest.raises(Exception):
        TropicalVector([0.5, 1.5], MAX_MIN)
    with pytest.raises(DimensionMismatchError):
        TropicalVector([[1.0]], MAX_PLUS)


def test_values_are_immutable():
    v = TropicalVector([1.0, 2.0], MAX_PLUS)
    with pytest.raises(ValueError):
        v.values[0] = 5.0


def test_clodum_mismatch_raises():
    A = TropicalMatrix([[0.0]], MAX_PLUS)
    x = TropicalVector([0.0], MAX_TIMES)
    with pytest.raises(ClodumMismatchError):
        matvec_dilate(A, x)


# ---------------------------------------------------------------------------
# matrix-vector products


def test_matvec_dilate_identity():
    E = TropicalMatrix.identity(3, MAX_PLUS)
    x = TropicalVector([1.0, -2.0, 7.0], MAX_PLUS)
    assert np.array_equal(matvec_dilate(E, x).values, x.values)


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_identity_matrix_is_neutral_everywhere(clodum):
    rng = np.random.default_rng(71)
    E = TropicalMatrix.identity(4, clodum)
    for _ in range(10):
        x = TropicalVector(_random_values(clodum, rng, 4), clodum)
        np.testing.assert_allclose(matvec_dilate(E, x).values, x.values, atol=1e-12)
    A = TropicalMatrix(_random_values(clodum, rng, (4, 4)), clodum)
    np.testing.assert_allclose(matmul_dilate(E, A).values, A.values, atol=1e-12)
    np.testing.assert_allclose(matmul_dilate(A, E).values, A.values, atol=1e-12)


def test_repr_truncates_large_arrays():
    v = TropicalVector(np.zeros(10000), MAX_PLUS)
    assert len(repr(v)) < 300
    M = TropicalMatrix(np.zeros((200, 200)), MAX_PLUS)
    assert len(repr(M)) < 500


def test_matvec_dilate_example():
    A = TropicalMatrix([[1, 2], [3, 4]], MAX_PLUS)
    x = TropicalVector([0, 0], MAX_PLUS)
    out = matvec_dilate(A, x)
    assert np.array_equal(out.values, [2.0, 4.0])
    assert np.array_equal(out.values, _dilate_oracle(MAX_PLUS, A.values, x.values))


def test_matvec_dilate_maxmin_example():
    A = TropicalMatrix([[0.5, 0.2]], MAX_MIN)
    x = TropicalVector([0.9, 0.9], MAX_MIN)
    out = matvec_dilate(A, x)
    assert np.array_equal(out.values, [0.5])
    assert np.array_equal(out.values, _dilate_oracle(MAX_MIN, A.values, x.values))


def test_matvec_erode_identity():
    E = TropicalMatrix.identity(3, MAX_PLUS)
    y = TropicalVector([1.0, -2.0, 7.0], MAX_PLUS)
    assert np.array_equal(matvec_erode(E, y).values, y.values)


def test_matvec_erode_example():
    A = TropicalMatrix([[0, -INF], [-INF, 0], [1, 1]], MAX_PLUS)
    y = TropicalVector([0, 0, 0], MAX_PLUS)
    out = matvec_erode(A, y)
    assert np.array_equal(out.values, [-1.0, -1.0])
    assert np.array_equal(out.values, _erode_oracle(MAX_PLUS, A.values, y.values))


def test_dimension_mismatch():
    A = TropicalMatrix([[0, 0]], MAX_PLUS)
    with pytest.raises(DimensionMismatchError):
        matvec_dilate(A, TropicalVector([0, 0, 0], MAX_PLUS))
    with pytest.raises(DimensionMismatchError):
        matvec_erode(A, TropicalVector([0, 0], MAX_PLUS))


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_products_match_oracles_random(clodum):
    # the vectorized products run the unchecked kernels; with bottom/top
    # entries sprinkled in they must match the checked scalar oracle bit for
    # bit, inf/-inf, 0*inf and w/0 conventions included
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n = rng.integers(1, 6, 2)
        A_vals = _random_values(clodum, rng, (m, n))
        x_vals = _random_values(clodum, rng, n)
        y_vals = _random_values(clodum, rng, m)
        for vals in (A_vals, x_vals, y_vals):
            mask = rng.random(vals.shape) < 0.25
            vals[mask] = np.where(rng.random(mask.sum()) < 0.5, clodum.bottom, clodum.top)
        A = TropicalMatrix(A_vals, clodum)
        x = TropicalVector(x_vals, clodum)
        y = TropicalVector(y_vals, clodum)
        assert np.array_equal(matvec_dilate(A, x).values, _dilate_oracle(clodum, A.values, x.values))
        assert np.array_equal(matvec_erode(A, y).values, _erode_oracle(clodum, A.values, y.values))


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_vector_adjunction(clodum):
    rng = np.random.default_rng(23)
    for _ in range(200):
        m, n = rng.integers(1, 6, 2)
        A = TropicalMatrix(_random_values(clodum, rng, (m, n)), clodum)
        x = TropicalVector(_random_values(clodum, rng, n), clodum)
        y = TropicalVector(_random_values(clodum, rng, m), clodum)
        lhs = bool(np.all(matvec_dilate(A, x).values <= y.values + 1e-12))
        rhs = bool(np.all(x.values <= matvec_erode(A, y).values + 1e-12))
        assert lhs == rhs


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_vector_adjunction_with_lattice_extremes(clodum):
    # sprinkle bottom/top entries through the operands: the adjunction is a
    # lattice statement and must survive the absorbing elements
    rng = np.random.default_rng(97)
    for _ in range(200):
        m, n = rng.integers(1, 6, 2)
        A_vals = _random_values(clodum, rng, (m, n))
        x_vals = _random_values(clodum, rng, n)
        y_vals = _random_values(clodum, rng, m)
        for vals in (A_vals, x_vals, y_vals):
            mask = rng.random(vals.shape) < 0.25
            vals[mask] = np.where(rng.random(mask.sum()) < 0.5, clodum.bottom, clodum.top)
        A = TropicalMatrix(A_vals, clodum)
        x = TropicalVector(x_vals, clodum)
        y = TropicalVector(y_vals, clodum)
        lhs = bool(np.all(matvec_dilate(A, x).values <= y.values))
        rhs = bool(np.all(x.values <= matvec_erode(A, y).values))
        assert lhs == rhs


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_opening_and_closing(clodum):
    rng = np.random.default_rng(5)
    for _ in range(30):
        m, n = rng.integers(1, 6, 2)
        A = TropicalMatrix(_random_values(clodum, rng, (m, n)), clodum)
        y = TropicalVector(_random_values(clodum, rng, m), clodum)
        x = TropicalVector(_random_values(clodum, rng, n), clodum)
        # opening: anti-extensive and idempotent
        opened = matvec_dilate(A, matvec_erode(A, y))
        assert np.all(opened.values <= y.values + 1e-12)
        twice = matvec_dilate(A, matvec_erode(A, opened))
        np.testing.assert_allclose(twice.values, opened.values, atol=1e-9)
        # closing: extensive and idempotent
        closed = matvec_erode(A, matvec_dilate(A, x))
        assert np.all(closed.values >= x.values - 1e-12)
        twice_c = matvec_erode(A, matvec_dilate(A, closed))
        np.testing.assert_allclose(twice_c.values, closed.values, atol=1e-9)


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_dilation_superposition(clodum):
    # dilations commute with sups of scaled inputs
    rng = np.random.default_rng(17)
    for _ in range(30):
        m, n = rng.integers(1, 6, 2)
        A = TropicalMatrix(_random_values(clodum, rng, (m, n)), clodum)
        x1 = _random_values(clodum, rng, n)
        x2 = _random_values(clodum, rng, n)
        c1, c2 = _random_values(clodum, rng, 2)
        combo = np.maximum(clodum.mul(c1, x1), clodum.mul(c2, x2))
        lhs = matvec_dilate(A, TropicalVector(combo, clodum)).values
        rhs = np.maximum(
            clodum.mul(c1, matvec_dilate(A, TropicalVector(x1, clodum)).values),
            clodum.mul(c2, matvec_dilate(A, TropicalVector(x2, clodum)).values),
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# matrix products and conjugate transpose


def test_matmul_identity_and_example():
    E = TropicalMatrix.identity(2, MAX_PLUS)
    A = TropicalMatrix([[0, 1], [-INF, 0]], MAX_PLUS)
    assert np.array_equal(matmul_dilate(E, A).values, A.values)
    B = TropicalMatrix([[0, -INF], [-1, 0]], MAX_PLUS)
    C = matmul_dilate(A, B)
    assert np.array_equal(C.values, [[0.0, 1.0], [-1.0, 0.0]])


def test_matmul_associative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A, B, C = (TropicalMatrix(rng.normal(0, 3, (3, 3)), MAX_PLUS) for _ in range(3))
        left = matmul_dilate(matmul_dilate(A, B), C).values
        right = matmul_dilate(A, matmul_dilate(B, C)).values
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_conj_transpose_examples():
    A = TropicalMatrix([[1, 2]], MAX_PLUS)
    assert np.array_equal(conj_transpose(A).values, [[-1.0], [-2.0]])
    assert np.array_equal(conj_transpose(conj_transpose(A)).values, A.values)
    M = TropicalMatrix([[2.0]], MAX_TIMES)
    assert np.array_equal(conj_transpose(M).values, [[0.5]])
    with pytest.raises(UnsupportedClodumError):
        conj_transpose(TropicalMatrix([[0.5]], MAX_MIN))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_conj_transpose_maxtimes_zero_entry(zero):
    M = TropicalMatrix([[zero, 1.0]], MAX_TIMES)
    assert np.array_equal(conj_transpose(M).values, [[INF], [1.0]])


@pytest.mark.parametrize("clodum", [MAX_PLUS, MAX_TIMES], ids=lambda c: c.spec_string())
def test_clog_erosion_equals_conjugate_transpose_product(clodum):
    rng = np.random.default_rng(29)
    for _ in range(30):
        m, n = rng.integers(1, 6, 2)
        A = TropicalMatrix(_random_values(clodum, rng, (m, n)), clodum)
        y = _random_values(clodum, rng, m)
        direct = matvec_erode(A, TropicalVector(y, clodum)).values
        via_star = matmul_erode(conj_transpose(A), TropicalMatrix(y[:, None], clodum)).values[:, 0]
        np.testing.assert_allclose(direct, via_star, atol=1e-12)


# ---------------------------------------------------------------------------
# signals


def test_signal_impulse_identity():
    f = Signal1D([0.0, 1.0, -0.5], 4, MAX_PLUS)
    h = Signal1D.impulse(MAX_PLUS)
    out = signal_dilate(f, h)
    assert out.origin == 4 and np.array_equal(out.values, f.values)
    out_e = signal_erode(f, h)
    assert out_e.origin == 4 and np.array_equal(out_e.values, f.values)


@pytest.mark.parametrize("origin, ok", [
    (3, True), (np.int64(3), True), (3.0, True),
    (1.5, False), (-0.7, False), (float("nan"), False), (INF, False), (-INF, False), ("3", False),
])
def test_signal_origin_must_be_an_integer(origin, ok):
    values = [1.0, 2.0]
    if ok:
        f = Signal1D(values, origin, MAX_PLUS)
        assert f.origin == 3 and type(f.origin) is int
    else:
        message = f"signal origin must be an integer, got {origin!r}"
        with pytest.raises(TropicalError, match=f"^{re.escape(message)}$"):
            Signal1D(values, origin, MAX_PLUS)


def test_signal_dilate_example():
    f = Signal1D([0.0, 1.0], 0, MAX_PLUS)
    h = Signal1D([0.0, 0.0], 0, MAX_PLUS)
    out = signal_dilate(f, h)
    assert out.origin == 0
    assert np.array_equal(out.values, [0.0, 1.0, 1.0])


def _signal_dilate_oracle(f, h):
    clodum = f.clodum
    lo = f.origin + h.origin
    hi = f.end + h.end
    vals = []
    for x in range(lo, hi + 1):
        best = clodum.bottom
        for y in range(f.origin, f.end + 1):
            k = x - y
            if h.origin <= k <= h.end:
                best = max(best, clodum.mul(f.values[y - f.origin], h.values[k - h.origin]))
        vals.append(best)
    return np.array(vals), lo


def _signal_erode_oracle(g, h):
    clodum = g.clodum
    lo = g.origin - h.end
    hi = g.end - h.origin
    vals = []
    for y in range(lo, hi + 1):
        best = clodum.top
        for x in range(g.origin, g.end + 1):
            k = x - y
            if h.origin <= k <= h.end:
                best = min(best, clodum.adjoint_erosion(h.values[k - h.origin], g.values[x - g.origin]))
        vals.append(best)
    return np.array(vals), lo


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_signal_ops_match_oracles(clodum):
    rng = np.random.default_rng(41)
    for _ in range(15):
        nf, nh = rng.integers(1, 7, 2)
        f = Signal1D(_random_values(clodum, rng, nf), int(rng.integers(-3, 4)), clodum)
        h = Signal1D(_random_values(clodum, rng, nh), int(rng.integers(-3, 4)), clodum)
        out = signal_dilate(f, h)
        ref, lo = _signal_dilate_oracle(f, h)
        assert out.origin == lo
        assert np.array_equal(out.values, ref)
        out_e = signal_erode(f, h)
        ref_e, lo_e = _signal_erode_oracle(f, h)
        assert out_e.origin == lo_e
        assert np.array_equal(out_e.values, ref_e)


def test_signal_dilate_commutative():
    rng = np.random.default_rng(43)
    for _ in range(20):
        f = Signal1D(rng.normal(0, 2, rng.integers(1, 6)), int(rng.integers(-2, 3)), MAX_PLUS)
        h = Signal1D(rng.normal(0, 2, rng.integers(1, 6)), int(rng.integers(-2, 3)), MAX_PLUS)
        a, b = signal_dilate(f, h), signal_dilate(h, f)
        assert a.origin == b.origin
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


def test_signal_adjunction_exhaustive_small_support():
    rng = np.random.default_rng(47)
    for _ in range(60):
        f = Signal1D(rng.normal(0, 2, rng.integers(1, 5)), int(rng.integers(-2, 3)), MAX_PLUS)
        g = Signal1D(rng.normal(0, 2, rng.integers(1, 5)), int(rng.integers(-2, 3)), MAX_PLUS)
        h = Signal1D(rng.normal(0, 2, rng.integers(1, 4)), int(rng.integers(-2, 3)), MAX_PLUS)
        dil = signal_dilate(f, h)
        ero = signal_erode(g, h)
        window = (min(dil.origin, g.origin, f.origin, ero.origin) - 1,
                  max(dil.end, g.end, f.end, ero.end) + 2)
        # dilation side fills with bottom, erosion side with top
        lhs = np.all(dil.dense(*window, -INF) <= g.dense(*window, INF))
        rhs = np.all(f.dense(*window, -INF) <= ero.dense(*window, INF))
        assert lhs == rhs


def test_parabola_kernel_multiscale_erosion():
    # eroding a sampled quadratic by the parabola -x^2/(2t) reproduces the
    # direct infimum computation of the multiscale erosion
    t = 2.0
    xs = np.arange(-10, 11)
    g = Signal1D((xs.astype(float)) ** 2, -10, MAX_PLUS)
    ks = np.arange(-5, 6)
    kernel = Signal1D(-(ks.astype(float)) ** 2 / (2 * t), -5, MAX_PLUS)
    out = signal_erode(g, kernel)
    ref, lo = _signal_erode_oracle(g, kernel)
    assert out.origin == lo
    np.testing.assert_allclose(out.values, ref, atol=1e-12)
    # the erosion stays below the input and vanishes at the minimum
    assert out.values[0 - out.origin] == 0.0
    window = np.arange(g.origin, g.end + 1)
    assert np.all(out.dense(g.origin, g.end + 1, INF) <= (window.astype(float)) ** 2 + 1e-12)


def test_empty_reduction_conventions():
    A = TropicalMatrix(np.zeros((0, 3)), MAX_PLUS)
    y = TropicalVector(np.zeros(0), MAX_PLUS)
    out = matvec_erode(A, y)
    assert np.all(out.values == INF)
    B = TropicalMatrix(np.zeros((3, 0)), MAX_PLUS)
    x = TropicalVector(np.zeros(0), MAX_PLUS)
    out_d = matvec_dilate(B, x)
    assert np.all(out_d.values == -INF)


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_products_validate_once_per_typed_object(clodum, monkeypatch):
    # operands were validated when they were built; the number of carrier
    # checks a product makes must not grow with the operand size
    calls = []
    validate = Clodum.validate

    def counting(self, values):
        calls.append(1)
        return validate(self, values)

    monkeypatch.setattr(Clodum, "validate", counting)

    def count(op, *args):
        calls.clear()
        op(*args)
        return len(calls)

    rng = np.random.default_rng(41)
    h = Signal1D(_random_values(clodum, rng, 5), -2, clodum)
    counts = []
    for n in (50, 500):
        f = Signal1D(_random_values(clodum, rng, n), 0, clodum)
        counts.append((count(signal_dilate, f, h), count(signal_erode, f, h)))
    assert counts[0] == counts[1]
    counts = []
    for m, k in ((3, 4), (30, 40)):
        A = TropicalMatrix(_random_values(clodum, rng, (m, k)), clodum)
        B = TropicalMatrix(_random_values(clodum, rng, (k, m)), clodum)
        x = TropicalVector(_random_values(clodum, rng, k), clodum)
        counts.append((count(matvec_dilate, A, x), count(matmul_dilate, A, B)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_products_do_not_check_their_own_result(clodum, monkeypatch):
    # a product of typed operands is a fresh kernel output: it is frozen
    # read-only in place, with no carrier check and no copy
    rng = np.random.default_rng(43)
    A = TropicalMatrix(_random_values(clodum, rng, (6, 5)), clodum)
    B = TropicalMatrix(_random_values(clodum, rng, (5, 4)), clodum)
    x = TropicalVector(_random_values(clodum, rng, 5), clodum)
    y = TropicalVector(_random_values(clodum, rng, 6), clodum)
    f = Signal1D(_random_values(clodum, rng, 9), -1, clodum)
    h = Signal1D(_random_values(clodum, rng, 3), 2, clodum)
    calls = []
    validate = Clodum.validate

    def counting(self, values):
        calls.append(1)
        return validate(self, values)

    monkeypatch.setattr(Clodum, "validate", counting)
    products = [matmul_dilate(A, B), matmul_erode(A, B), matvec_dilate(A, x), matvec_erode(A, y),
                signal_dilate(f, h), signal_erode(f, h)]
    assert calls == []
    for p in products:
        assert not p.values.flags.writeable and p.values.flags.c_contiguous
        assert p.values.dtype == np.float64


# ---------------------------------------------------------------------------
# bounded-memory products: byte identity with the former implementations


def _lattice_values(clodum, rng, shape):
    """Random carrier values with signed zeros, bottom and top sprinkled in."""
    vals = _random_values(clodum, rng, shape)
    zeros = rng.random(shape) < 0.2
    vals[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    ends = rng.random(shape) < 0.2
    vals[ends] = np.where(rng.random(ends.sum()) < 0.5, clodum.bottom, clodum.top)
    return vals


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_matmul_matches_tensor_oracle_bytes(clodum):
    # row slabs must reproduce the m*k*n tensor reduction to the bit, the
    # sign of zero included; the last shapes exceed the slab budget per row
    rng = np.random.default_rng(53)
    budget = tropalg.wlattice._SLAB_ELEMS
    shapes = [tuple(int(v) for v in rng.integers(0, 7, 3)) for _ in range(40)]
    shapes += [(0, 3, 4), (3, 4, 0), (0, 0, 0), (5, 0, 2), (3, 300, 300), (4, budget + 1, 1)]
    for m, k, n in shapes:
        A = TropicalMatrix(_lattice_values(clodum, rng, (m, k)), clodum)
        B = TropicalMatrix(_lattice_values(clodum, rng, (k, n)), clodum)
        for op, dual in ((matmul_dilate, False), (matmul_erode, True)):
            out = op(A, B).values
            ref = matmul_tensor(A, B, dual)
            assert out.shape == ref.shape == (m, n)
            assert out.tobytes() == ref.tobytes(), (m, k, n, op.__name__)


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_matvec_matches_whole_table_oracle_bytes(clodum):
    # row slabs reproduce the whole m*n kernel table's reductions to the bit;
    # m runs through the slab boundaries, and the sparse signed-zero extrema
    # would show a reduction order changed by a slab boundary
    rng = np.random.default_rng(107)
    budget = tropalg.wlattice._SLAB_ELEMS
    for n in (0, 1, 2, 3, 16, 37, budget + 3):
        rows = max(1, budget // max(n, 1))
        for m in sorted({0, 1, 2, rows - 1, rows, rows + 1, 2 * rows + 1}):
            if m * n > 4 * budget:
                continue
            vals = _lattice_values(clodum, rng, (m, n))
            sparse = np.full((m, n), clodum.bottom)  # a few signed-zero extrema per column
            if m:
                sparse[rng.integers(0, m, (3, n)), np.arange(n)] = rng.choice([0.0, -0.0], (3, n))
            for A in (TropicalMatrix(vals, clodum), TropicalMatrix(sparse, clodum)):
                x = TropicalVector(_lattice_values(clodum, rng, n), clodum)
                y = TropicalVector(_lattice_values(clodum, rng, m), clodum)
                got = matvec_dilate(A, x).values
                assert got.tobytes() == matvec_whole(A, x).tobytes(), (m, n)
                # the matrix product with x as one column, in the same slabs
                col = matmul_dilate(A, TropicalMatrix(x.values[:, None], clodum)).values
                assert got.tobytes() == col.tobytes(), (m, n)
                got, want = matvec_erode(A, y).values, matvec_whole(A, y, erode=True)
                assert got.tobytes() == want.tobytes(), (m, n)
    # a one-column erosion with sparse tied zeros, longer than a slab
    m = 3 * budget + 5
    for _ in range(20):
        col = np.full((m, 1), -1.0)
        col[rng.choice(m, 3, replace=False), 0] = rng.choice([0.0, -0.0], 3)
        A = TropicalMatrix(col, MAX_PLUS)
        y = TropicalVector(np.where(rng.random(m) < 0.5, 0.0, -0.0), MAX_PLUS)
        assert matvec_erode(A, y).values.tobytes() == matvec_whole(A, y, erode=True).tobytes()


@pytest.mark.parametrize("op", [matvec_dilate, matvec_erode], ids=lambda f: f.__name__)
def test_matvec_memory_is_bounded(op):
    # the whole 200,000 x 16 kernel table would take 25.6 MB
    rng = np.random.default_rng(109)
    A = TropicalMatrix(rng.normal(size=(200_000, 16)), MAX_PLUS)
    v = TropicalVector(rng.normal(size=16 if op is matvec_dilate else 200_000), MAX_PLUS)
    tracemalloc.start()
    try:
        op(A, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_signal_ops_match_per_sample_oracle_bytes(clodum):
    # the tap loop (signal longer than kernel) and the sample loop (signal
    # shorter) both reproduce the former per-sample loop to the bit
    rng = np.random.default_rng(59)
    for nf, nh in [(1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (40, 7), (7, 40), (12, 12)]:
        for _ in range(5):
            f = Signal1D(_lattice_values(clodum, rng, nf), int(rng.integers(-4, 5)), clodum)
            h = Signal1D(_lattice_values(clodum, rng, nh), int(rng.integers(-4, 5)), clodum)
            for op, oracle in ((signal_dilate, signal_dilate_per_sample),
                               (signal_erode, signal_erode_per_sample)):
                out = op(f, h)
                ref, origin = oracle(f, h)
                assert out.origin == origin
                assert out.values.tobytes() == ref.tobytes(), (nf, nh, op.__name__)


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=lambda c: c.spec_string())
def test_layout_of_input_does_not_change_results(clodum):
    # typed values are stored C-ordered, so an F-ordered copy of the same
    # data gives the same bytes, signed zeros included
    rng = np.random.default_rng(61)
    for _ in range(30):
        m, n = int(rng.integers(20, 60)), int(rng.integers(2, 5))
        vals = _lattice_values(clodum, rng, (m, n))
        A_c = TropicalMatrix(np.ascontiguousarray(vals), clodum)
        A_f = TropicalMatrix(np.asfortranarray(vals), clodum)
        assert A_c.values.flags.c_contiguous and A_f.values.flags.c_contiguous
        b = TropicalVector(_lattice_values(clodum, rng, m), clodum)
        B = TropicalMatrix(_lattice_values(clodum, rng, (n, m)), clodum)
        assert matvec_erode(A_c, b).values.tobytes() == matvec_erode(A_f, b).values.tobytes()
        for op in (matmul_dilate, matmul_erode):
            assert op(A_c, B).values.tobytes() == op(A_f, B).values.tobytes()
            assert op(B, A_c).values.tobytes() == op(B, A_f).values.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            x_c, x_f = solve(A_c, b).x_hat, solve(A_f, b).x_hat
        assert x_c.values.tobytes() == x_f.values.tobytes()


@pytest.mark.parametrize("op", [matmul_dilate, matmul_erode], ids=lambda f: f.__name__)
def test_matmul_memory_is_bounded(op):
    # the m*k*n tensor at 200^3 alone would take 64 MB
    rng = np.random.default_rng(67)
    A = TropicalMatrix(rng.normal(size=(200, 200)), MAX_PLUS)
    B = TropicalMatrix(rng.normal(size=(200, 200)), MAX_PLUS)
    tracemalloc.start()
    try:
        op(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("op, kernel", [(signal_dilate, "_mul"), (signal_erode, "_adjoint_erosion")],
                         ids=["dilate", "erode"])
def test_signal_ops_loop_over_the_shorter_support(op, kernel, monkeypatch):
    calls = []
    original = getattr(Clodum, kernel)

    def counting(self, a, b):
        calls.append(1)
        return original(self, a, b)

    monkeypatch.setattr(Clodum, kernel, counting)
    rng = np.random.default_rng(71)
    f = Signal1D(rng.normal(size=3000), 0, MAX_PLUS)
    h = Signal1D(rng.normal(size=31), -15, MAX_PLUS)
    op(f, h)
    assert len(calls) == 31
    calls.clear()
    op(h, f)
    assert len(calls) == 31
