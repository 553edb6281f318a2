"""Scalar clodum arithmetic: frozen examples and algebraic laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import former_kernels
from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    CarrierError,
    Clodum,
    TropicalError,
    max_softmin,
    soft_add,
)

INF = float("inf")
SOFT1 = max_softmin(1.0)

ALL_CLODA = [MAX_PLUS, MAX_TIMES, MAX_MIN, SOFT1, max_softmin(0.3)]


def _soft_adjoint_oracle(theta, a, w, lo=-200.0, hi=200.0):
    """Bisection for sup{v : softmin(a, v) <= w}, independent of the closed form."""
    cl = max_softmin(theta)
    if cl.mul(a, hi) <= w:
        return INF
    if not cl.mul(a, lo) <= w:
        return -INF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cl.mul(a, mid) <= w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# structure and carriers


def test_structure_constants():
    assert (MAX_PLUS.bottom, MAX_PLUS.top, MAX_PLUS.unit, MAX_PLUS.dual_unit) == (-INF, INF, 0.0, 0.0)
    assert (MAX_TIMES.bottom, MAX_TIMES.top, MAX_TIMES.unit, MAX_TIMES.dual_unit) == (0.0, INF, 1.0, 1.0)
    assert (MAX_MIN.bottom, MAX_MIN.top, MAX_MIN.unit, MAX_MIN.dual_unit) == (0.0, 1.0, 1.0, 0.0)
    assert (SOFT1.bottom, SOFT1.top, SOFT1.unit, SOFT1.dual_unit) == (-INF, INF, INF, -INF)
    # the max-plus dual unit is -0.0, the conjugate of the unit 0.0
    assert math.copysign(1.0, MAX_PLUS.dual_unit) == math.copysign(1.0, MAX_PLUS.conjugate(0.0)) == -1.0
    assert MAX_PLUS.is_clog and MAX_TIMES.is_clog
    assert not MAX_MIN.is_clog and not SOFT1.is_clog


def test_carrier_rejection():
    with pytest.raises(CarrierError):
        MAX_PLUS.validate(float("nan"))
    with pytest.raises(CarrierError):
        MAX_TIMES.validate(-0.5)
    with pytest.raises(CarrierError):
        MAX_MIN.validate(1.5)
    assert MAX_MIN.contains([0.0, 0.5, 1.0])
    assert not MAX_MIN.contains([-0.1])


def test_validate_builds_no_full_size_temporaries():
    # one min and one max reduction: no m x K boolean arrays
    design = np.random.default_rng(1).uniform(0.0, 1.0, (100_000, 8))
    for clodum in (MAX_PLUS, MAX_MIN):
        tracemalloc.start()
        try:
            assert clodum.validate(design) is design
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design.size / 64


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=str)
def test_validate_edge_cases(clodum):
    assert clodum.validate(np.empty((0, 3))).shape == (0, 3)
    with pytest.raises(CarrierError, match="NaN is not an element"):
        clodum.validate([clodum.unit, float("nan")])
    assert clodum.contains([clodum.bottom, clodum.top, clodum.unit, clodum.dual_unit])


def test_softmin_requires_theta():
    with pytest.raises(TropicalError):
        Clodum("max-softmin")
    with pytest.raises(TropicalError):
        Clodum("max-softmin", -1.0)
    with pytest.raises(TropicalError):
        Clodum("max-plus", 2.0)


def test_spec_string_round_trip():
    for cl in ALL_CLODA:
        assert Clodum.parse(cl.spec_string()) == cl
    assert Clodum.parse("max-softmin:theta=0.5") == max_softmin(0.5)


@pytest.mark.parametrize("text", ["max-softmin:θ=abc", "max-softmin:theta=zz", "max-softmin:θ="])
def test_parse_non_numeric_theta_is_tropical_error(text):
    with pytest.raises(TropicalError, match="cannot parse clodum string"):
        Clodum.parse(text)


_BAD_VALUES = [(cl, float("nan")) for cl in ALL_CLODA] + [(MAX_TIMES, -0.5), (MAX_MIN, 1.5)]


@pytest.mark.parametrize("op", ["mul", "dual_mul", "adjoint_erosion", "conjugate"])
@pytest.mark.parametrize("clodum, bad", _BAD_VALUES, ids=str)
def test_public_ops_reject_values_outside_the_carrier(op, clodum, bad):
    """The public ops stay a checked boundary, for every operand position."""
    fn = getattr(clodum, op)
    arity = 1 if op == "conjugate" else 2
    for bad_arg in (bad, np.array([0.5, bad])):
        for position in range(arity):
            args = [np.array([clodum.unit, 0.5])] * arity
            args[position] = bad_arg
            with pytest.raises(CarrierError):
                fn(*args)


# ---------------------------------------------------------------------------
# multiplication examples


def test_mul_examples():
    assert MAX_PLUS.mul(3, -INF) == -INF  # absorbing null
    assert MAX_TIMES.mul(0, INF) == 0.0
    assert SOFT1.mul(0, 0) == pytest.approx(-math.log(2), abs=1e-12)


def test_dual_mul_examples():
    assert MAX_PLUS.dual_mul(3, INF) == INF
    assert MAX_MIN.dual_mul(0.2, 0.7) == 0.7
    assert SOFT1.dual_mul(0, 0) == pytest.approx(math.log(2), abs=1e-12)


def test_upper_lower_addition_disagree_only_at_opposite_infinities():
    assert MAX_PLUS.mul(-INF, INF) == -INF
    assert MAX_PLUS.dual_mul(-INF, INF) == INF
    assert MAX_TIMES.mul(0.0, INF) == 0.0
    assert MAX_TIMES.dual_mul(0.0, INF) == INF


def test_adjoint_erosion_examples():
    assert MAX_PLUS.adjoint_erosion(2, 5) == 3.0
    assert MAX_MIN.adjoint_erosion(0.4, 0.6) == 1.0
    expected = -math.log(math.e - 1)
    assert SOFT1.adjoint_erosion(0, -1) == pytest.approx(expected, abs=1e-12)
    assert _soft_adjoint_oracle(1.0, 0.0, -1.0) == pytest.approx(expected, abs=1e-9)


def test_maxtimes_division_conventions():
    assert MAX_TIMES.adjoint_erosion(0, 0) == INF
    assert MAX_TIMES.adjoint_erosion(0, 5) == INF
    assert MAX_TIMES.adjoint_erosion(INF, INF) == INF
    assert MAX_TIMES.adjoint_erosion(INF, 5) == 0.0
    assert MAX_TIMES.adjoint_erosion(2, 6) == 3.0


def test_conjugate_examples():
    assert MAX_PLUS.conjugate(-INF) == INF
    assert MAX_TIMES.conjugate(2) == 0.5
    assert MAX_MIN.conjugate(0.3) == pytest.approx(0.7)
    assert SOFT1.conjugate(1.5) == -1.5


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_maxtimes_conjugate_of_either_zero_is_top(zero):
    # -0.0 lies in the max-times carrier, so its conjugate must too
    assert MAX_TIMES.conjugate(zero) == INF
    assert np.array_equal(MAX_TIMES.conjugate(np.array([zero, 4.0])), [INF, 0.25])
    assert MAX_TIMES.conjugate(MAX_TIMES.conjugate(zero)) == 0.0


def test_soft_add_examples():
    assert soft_add(1, 5, 5) == pytest.approx(5 + math.log(2), abs=1e-12)
    assert soft_add(0.01, 0, 10) == pytest.approx(10.0, abs=1e-9)
    for theta, a in [(0.5, -3.0), (2.0, 7.5)]:
        assert soft_add(theta, a, a) == pytest.approx(a + theta * math.log(2), abs=1e-12)
    with pytest.raises(TropicalError):
        soft_add(1.0, INF, 0.0)
    with pytest.raises(TropicalError):
        soft_add(0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# hypothesis strategies per carrier

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
maxplus_vals = st.one_of(finite, st.sampled_from([-INF, INF]))
# positive values stay in the normal float range: subnormal factors make
# products underflow and quotients overflow, which breaks the laws at the
# representation boundary rather than in the algebra
maxtimes_vals = st.one_of(
    st.floats(min_value=1e-150, max_value=50, allow_nan=False), st.sampled_from([0.0, INF])
)
maxmin_vals = st.floats(min_value=0, max_value=1, allow_nan=False)
softmin_vals = st.one_of(
    st.floats(min_value=-20, max_value=20, allow_nan=False), st.sampled_from([-INF, INF])
)

CARRIER_STRATEGIES = [
    (MAX_PLUS, maxplus_vals),
    (MAX_TIMES, maxtimes_vals),
    (MAX_MIN, maxmin_vals),
    (SOFT1, softmin_vals),
    (max_softmin(0.3), softmin_vals),
]

cloda_params = pytest.mark.parametrize(
    "clodum,vals", CARRIER_STRATEGIES, ids=lambda c: c.spec_string() if isinstance(c, Clodum) else ""
)


@cloda_params
def test_adjunction_law(clodum, vals):
    tol = 1e-9

    @given(vals, vals, vals)
    @settings(max_examples=300, deadline=None)
    def check(a, v, w):
        adj = clodum.adjoint_erosion(a, w)
        if clodum.mul(a, v) <= w:
            assert v <= adj + tol or (adj == INF)
        if v <= adj:
            assert clodum.mul(a, v) <= w + tol or (w == INF)

    check()


@cloda_params
def test_distributivity_over_sup(clodum, vals):
    @given(vals, vals, vals)
    @settings(max_examples=200, deadline=None)
    def check(a, v, w):
        lhs = clodum.mul(a, max(v, w))
        rhs = max(clodum.mul(a, v), clodum.mul(a, w))
        assert lhs == rhs
        lhs_d = clodum.dual_mul(a, min(v, w))
        rhs_d = min(clodum.dual_mul(a, v), clodum.dual_mul(a, w))
        assert lhs_d == rhs_d

    check()


@cloda_params
def test_identity_and_null_laws(clodum, vals):
    @given(vals)
    @settings(max_examples=100, deadline=None)
    def check(a):
        assert clodum.mul(clodum.unit, a) == a
        assert clodum.mul(clodum.bottom, a) == clodum.bottom
        assert clodum.dual_mul(clodum.dual_unit, a) == a
        assert clodum.dual_mul(clodum.top, a) == clodum.top

    check()


@pytest.mark.parametrize("clodum", ALL_CLODA, ids=str)
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_dual_unit_keeps_signed_zeros(clodum, zero):
    # -0.0 + 0.0 is 0.0; under the dual unit either zero comes back as is
    for got in (clodum.dual_mul(zero, clodum.dual_unit), clodum.dual_mul(clodum.dual_unit, zero)):
        assert np.array(got).tobytes() == np.array(zero).tobytes()
    ones = np.full(3, zero)
    for got in (clodum.dual_mul(ones, clodum.dual_unit), clodum.dual_mul(clodum.dual_unit, ones)):
        assert got.tobytes() == ones.tobytes()


@cloda_params
def test_conjugation_de_morgan(clodum, vals):
    # negation is exact in IEEE arithmetic; reciprocals and 1-a round
    exact = clodum.kind in ("max-plus", "max-softmin")

    def same(lhs, rhs):
        if exact:
            assert lhs == rhs
        else:
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @given(vals, vals)
    @settings(max_examples=200, deadline=None)
    def check(a, b):
        ca, cb = clodum.conjugate(a), clodum.conjugate(b)
        same(clodum.conjugate(ca), a)  # involution
        same(clodum.conjugate(max(a, b)), min(ca, cb))
        same(clodum.conjugate(min(a, b)), max(ca, cb))
        same(clodum.conjugate(clodum.mul(a, b)), clodum.dual_mul(ca, cb))

    check()


@given(
    st.floats(min_value=0.01, max_value=10, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_dequantization_bound(theta, a, b):
    gap = soft_add(theta, a, b) - max(a, b)
    scale = 1e-12 * (1 + abs(a) + abs(b) + theta)
    assert gap >= -scale
    assert gap <= theta * math.log(2) + scale


def test_dequantization_tight_at_equal_arguments():
    for theta in (0.1, 1.0, 3.7):
        for a in (-4.0, 0.0, 11.5):
            gap = soft_add(theta, a, a) - a
            assert gap == pytest.approx(theta * math.log(2), rel=1e-12)


def test_softmin_converges_to_max_min_as_theta_drops():
    # gap between the softened operations and min/max is bounded by theta*log(2)
    a, b = 0.31, 0.64
    for theta in (1e-1, 1e-2, 1e-3):
        cl = max_softmin(theta)
        assert abs(cl.mul(a, b) - min(a, b)) <= theta * math.log(2) + 1e-15
        assert abs(cl.dual_mul(a, b) - max(a, b)) <= theta * math.log(2) + 1e-15


@cloda_params
def test_adjoint_erosion_is_supremum(clodum, vals):
    # numeric check that the closed forms return the largest feasible v
    rng = np.random.default_rng(7)
    sample = clodum.validate(
        rng.uniform(0, 1, 200) if clodum.kind == "max-min"
        else np.abs(rng.normal(0, 5, 200)) if clodum.kind == "max-times"
        else rng.normal(0, 5, 200)
    )
    for a, w in [(sample[i], sample[-i - 1]) for i in range(0, 40, 3)]:
        adj = clodum.adjoint_erosion(a, w)
        assert clodum.mul(a, min(adj, 1e6)) <= w + 1e-9
        if adj < clodum.top:
            cand = min(adj + max(1e-6, abs(adj) * 1e-9), clodum.top)
            assert not (clodum.mul(a, cand) <= w - 1e-12)


@pytest.mark.parametrize("clodum", [MAX_PLUS, MAX_TIMES], ids=str)
def test_kernels_match_always_filling_oracle_bytes(clodum):
    # the NaN pass is skipped only when the smaller operand is tame (finite,
    # and nonzero for max-times); the result keeps every bit, whichever
    # operand carries the infinities and signed zeros, under broadcasting
    rng = np.random.default_rng(101)
    wild = [v for v in (-INF, INF, 0.0, -0.0, 0.5, 2.0) if clodum.contains(v)]
    mul, dual_mul, residual = former_kernels(clodum)
    pairs = [(clodum._mul, mul), (clodum._dual_mul, dual_mul), (clodum._adjoint_erosion, residual)]

    def tame(shape):
        vals = rng.uniform(0.5, 2.0, shape)
        if clodum == MAX_PLUS:  # zeros are tame for addition
            vals[rng.random(shape) < 0.3] = rng.choice([0.0, -0.0])
        return vals

    def scalar(vals):  # 0-d operands arrive as python floats, as in the solver
        return float(vals) if np.ndim(vals) == 0 else vals

    shapes = [((6,), (9, 6)), ((9, 6), (6,)), ((9, 1), (1, 6)), ((1, 6), (9, 1)),
              ((3, 4, 1), (1, 4, 5)), ((), (7,)), ((7,), ()), ((5,), (5,))]
    for shape_a, shape_b in shapes:
        for _ in range(20):
            a, b = rng.choice(wild, shape_a), rng.choice(wild, shape_b)
            ta, tb = tame(shape_a), tame(shape_b)
            for x, y in ((a, b), (ta, b), (a, tb), (ta, tb)):
                x, y = scalar(x), scalar(y)
                for new, old in pairs:
                    got = np.asarray(new(x, y))
                    want = np.asarray(old(clodum.theta, x, y))
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (x, y)


# ---------------------------------------------------------------------------
# public refusals: the exception type and the whole message


@pytest.mark.parametrize("call, error, message", [
    (lambda: Clodum("min-plus"), TropicalError, "unknown clodum kind 'min-plus'"),
], ids=["kind"])
def test_clodum_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
