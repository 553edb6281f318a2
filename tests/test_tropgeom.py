"""Polynomials, varieties, Newton polytopes and halfspaces."""

import tracemalloc

import numpy as np
import pytest

from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    CarrierError,
    Clodum,
    DimensionMismatchError,
    Polytope,
    TropicalError,
    TropicalHalfspace,
    TropicalPolynomial,
    UnsupportedClodumError,
    argmax_terms,
    convex_hull_2d,
    halfspace_contains,
    max_softmin,
    newton_polytope,
    on_variety,
    polytope_equal,
    polytope_join,
    polytope_minkowski_sum,
    tropical_max,
    tropical_sum,
)

INF = float("inf")

from oracles import brute_hull_2d, evaluate_full_table, term_values_per_term  # noqa: E402
from tropalg.wlattice import _SLAB_ELEMS  # noqa: E402


def random_polynomial(rng, max_terms=6):
    k = int(rng.integers(2, max_terms + 1))
    slopes = rng.integers(-5, 6, (k, 2)).astype(float)
    intercepts = rng.integers(-5, 6, k).astype(float)
    return TropicalPolynomial(slopes, intercepts, MAX_PLUS, "max")


# ---------------------------------------------------------------------------
# evaluation


def test_eval_line_example():
    p = TropicalPolynomial.from_terms([([1.0], -2.0), ([0.0], 3.0)])
    assert p.evaluate([10.0]) == 8.0
    assert p.evaluate([0.0]) == 3.0


def test_eval_single_term():
    p = TropicalPolynomial(np.array([[2.0, -1.0]]), np.array([0.5]))
    x = np.array([3.0, 4.0])
    assert p.evaluate(x) == pytest.approx(0.5 + 2 * 3 - 4)


def test_eval_conic_matches_termwise_oracle():
    # degree-2 conic in two variables: max over six affine terms
    a, b, c, d, e, f = 1.0, -2.0, 0.5, 3.0, -1.0, 2.0
    p = TropicalPolynomial.from_terms(
        [([2, 0], a), ([1, 1], b), ([0, 2], c), ([1, 0], d), ([0, 1], e), ([0, 0], f)]
    )
    rng = np.random.default_rng(3)
    for pt in rng.normal(0, 4, (30, 2)):
        terms = [a + 2 * pt[0], b + pt[0] + pt[1], c + 2 * pt[1], d + pt[0], e + pt[1], f]
        assert p.evaluate(pt) == pytest.approx(max(terms), abs=1e-12)


def test_eval_batch_and_dim_check():
    p = TropicalPolynomial.from_terms([([1.0], 0.0)])
    np.testing.assert_allclose(p.evaluate(np.array([[1.0], [2.0]])), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        p.evaluate([1.0, 2.0])


def test_eval_convexity_midpoint():
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = random_polynomial(rng)
        x, y = rng.normal(0, 5, (2, 2))
        assert p.evaluate((x + y) / 2) <= (p.evaluate(x) + p.evaluate(y)) / 2 + 1e-9


def test_generalized_line_maxmin():
    # over max-min the line max(min(a, x), b) bends at x = a
    p = TropicalPolynomial.from_terms([([1.0], 0.6), ([0.0], 0.3)], MAX_MIN)
    assert p.evaluate([0.1]) == pytest.approx(0.3)
    assert p.evaluate([0.5]) == pytest.approx(0.5)
    assert p.evaluate([0.9]) == pytest.approx(0.6)


def test_generalized_line_softmin_smooth():
    cl = max_softmin(0.5)
    p = TropicalPolynomial.from_terms([([1.0], 1.0), ([0.0], 0.0)], cl)
    # the soft-min composite stays below both affine pieces
    for x in (-2.0, 0.0, 2.0):
        assert p.evaluate([x]) <= max(min(1.0, x), 0.0) + 1e-9


def test_general_slopes_rejected_off_maxplus():
    with pytest.raises(UnsupportedClodumError):
        TropicalPolynomial(np.array([[2.0]]), np.array([0.5]), MAX_MIN)


def test_min_orientation_eval():
    p = TropicalPolynomial.from_terms([([1.0], 1.0), ([0.0], 2.0)], orientation="min")
    assert p.evaluate([0.0]) == 1.0
    assert p.evaluate([5.0]) == 2.0
    # top intercepts are inert under min orientation
    q = TropicalPolynomial.from_terms([([1.0], 1.0), ([0.0], 2.0), ([3.0], INF)], orientation="min")
    for x in (-4.0, 0.0, 4.0):
        assert q.evaluate([x]) == p.evaluate([x])


def _carrier_values(clodum, rng, shape, finite=False):
    """Random carrier values with bottom, top (unless ``finite``) and signed zeros mixed in."""
    if clodum.kind == "max-min":
        vals = rng.uniform(0, 1, shape)
    elif clodum.kind == "max-times":
        vals = rng.uniform(0, 4, shape)
    else:
        vals = rng.normal(0, 3, shape)
    special = [v for v in (clodum.bottom, clodum.top, 0.0, -0.0) if not finite or np.isfinite(v)]
    mask = rng.random(shape) < 0.3
    vals[mask] = rng.choice(special, int(mask.sum()))
    return vals


@pytest.mark.parametrize("orientation", ["max", "min"])
@pytest.mark.parametrize("clodum", [MAX_PLUS, MAX_TIMES, MAX_MIN, max_softmin(0.5)], ids=str)
def test_term_values_match_per_term_oracle(clodum, orientation):
    rng = np.random.default_rng(61)
    for trial in range(60):
        n, k, m = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 20))
        pick = rng.integers(0, n + 1, k)  # coordinate of a one-hot row, n for a zero row
        slopes = np.zeros((k, n + 1))
        slopes[np.arange(k), pick] = 1.0
        slopes = slopes[:, :n]
        if clodum == MAX_PLUS and trial % 2:
            general = rng.random(k) < 0.5
            slopes[general] = rng.integers(-3, 4, (int(general.sum()), n))
        p = TropicalPolynomial(slopes, _carrier_values(clodum, rng, k), clodum, orientation)
        X = _carrier_values(clodum, rng, (m, n), finite=True)  # evaluation points are finite
        assert np.array_equal(p._term_values(X), term_values_per_term(p, X))


def _term_slopes(clodum, rng, k, n):
    """k slope rows: one-hot or zero off max-plus, general (some zero) over max-plus."""
    if clodum == MAX_PLUS:
        return rng.normal(0, 2, (k, n)) * (rng.random((k, n)) < 0.8)
    pick = rng.integers(0, n + 1, k)  # coordinate of a one-hot row, n for a zero row
    return np.eye(n + 1)[pick, :n]


def _tame_values(clodum, rng, shape):
    """Finite, nonzero carrier values: kernels skip their NaN pass on these."""
    return rng.uniform(0.1, 0.9, shape) * (1 if clodum in (MAX_TIMES, MAX_MIN) else rng.choice([-4, 4], shape))


@pytest.mark.parametrize("orientation", ["max", "min"])
@pytest.mark.parametrize("clodum", [MAX_PLUS, MAX_TIMES, MAX_MIN, max_softmin(0.5)], ids=str)
def test_evaluate_matches_whole_table_oracle_bytes(clodum, orientation):
    # row slabs, the folded one-row tail and the skipped NaN pass reproduce
    # the whole-table evaluation to the bit, signed zeros included; m runs
    # through the slab boundaries of every K
    rng = np.random.default_rng(89)
    for k in (1, 2, 16, 32, 33, 64):
        rows = max(2, _SLAB_ELEMS // k)
        for n in (1, 2, 3, 7):
            slopes = _term_slopes(clodum, rng, k, n)
            points = _carrier_values(clodum, rng, (2 * rows + 1, n), finite=True)
            for intercepts in (_carrier_values(clodum, rng, k), _tame_values(clodum, rng, k)):
                p = TropicalPolynomial(slopes, intercepts, clodum, orientation)
                for m in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1):
                    X = points[-m:]
                    got, want = p.evaluate(X), evaluate_full_table(p, X)
                    assert got.tobytes() == want.tobytes(), (k, n, m)
                assert repr(p.evaluate(points[0])) == repr(evaluate_full_table(p, points[0]))


def test_evaluate_memory_is_bounded():
    # the whole 1e6 x 32 term table would take 256 MB, several times over
    rng = np.random.default_rng(97)
    p = TropicalPolynomial(rng.normal(size=(32, 3)), rng.normal(size=32))
    X = rng.uniform(-1, 1, (1_000_000, 3))
    tracemalloc.start()
    try:
        p.evaluate(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20  # the 8 MB output and one slab's temporaries


def test_maxplus_evaluation_validates_no_term_table(monkeypatch):
    # the intercepts were validated when the polynomial was built and the
    # points are checked for finiteness; the m x K term table needs no
    # carrier check and no checked clodum op
    rng = np.random.default_rng(67)
    m, k = 500, 8
    polys = [TropicalPolynomial(rng.normal(0, 2, (k, 3)), rng.normal(0, 2, k), MAX_PLUS, o)
             for o in ("max", "min")]
    polys.append(TropicalPolynomial(np.vstack([np.eye(3), np.eye(3), np.zeros((2, 3))]),
                                    rng.normal(0, 2, k)))
    seen = []
    validate = Clodum.validate

    def recording(self, values):
        seen.append(np.size(values))
        return validate(self, values)

    def refuse(self, *args):
        pytest.fail("evaluation called a checked Clodum op")

    monkeypatch.setattr(Clodum, "validate", recording)
    for name in ("mul", "dual_mul", "adjoint_erosion", "conjugate"):
        monkeypatch.setattr(Clodum, name, refuse)
    X = rng.normal(0, 3, (m, 3))
    for p in polys:
        assert p.evaluate(X).shape == (m,)
    assert all(size < m for size in seen)


@pytest.mark.parametrize("clodum, slopes, point, err, match", [
    (MAX_PLUS, [[1.0], [2.0]], [INF], TropicalError, "evaluation points must be finite"),
    (MAX_PLUS, [[1.0], [0.0]], [float("nan")], TropicalError, "evaluation points must be finite"),
    (MAX_MIN, [[1.0, 0.0], [0.0, 0.0]], [0.5, 1.5], CarrierError, "max-min carrier"),
], ids=["inf", "nan", "unused-coordinate-off-carrier"])
def test_argmax_terms_checks_its_point(clodum, slopes, point, err, match):
    p = TropicalPolynomial(np.array(slopes), np.full(len(slopes), 0.5), clodum)
    with pytest.raises(err, match=match):
        argmax_terms(p, point)


# ---------------------------------------------------------------------------
# argmax terms and varieties


def test_argmax_generic_point_singleton():
    p = TropicalPolynomial.from_terms([([1.0], -2.0), ([0.0], 3.0)])
    assert argmax_terms(p, [10.0]) == {0}
    assert argmax_terms(p, [0.0]) == {1}


def test_argmax_two_terms_on_curve():
    # p(x, y) = max(2x, y, c): the ray 2x = y > c carries two active terms
    c = 2.0
    p = TropicalPolynomial.from_terms([([2, 0], 0.0), ([0, 1], 0.0), ([0, 0], c)])
    assert argmax_terms(p, [2.0, 4.0]) == {0, 1}
    # triple point at 2x = y = c
    assert argmax_terms(p, [c / 2, c]) == {0, 1, 2}


def test_min_orientation_takes_the_least_terms():
    # min(x, -x, top): the top intercept never attains the minimum
    p = TropicalPolynomial(np.array([[1.0], [-1.0], [0.0]]), np.array([0.0, 0.0, INF]), MAX_PLUS, "min")
    assert p.inert_mask.tolist() == [False, False, True]
    assert argmax_terms(p, [0.0]) == {0, 1}
    assert argmax_terms(p, [2.0]) == {1}
    assert argmax_terms(p, [-2.0]) == {0}
    assert on_variety(p, [0.0])
    assert not on_variety(p, [2.0])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_argmax_tolerance_must_be_non_negative(tol):
    # a NaN tol would find no term within it, so a tie would be off the variety
    p = TropicalPolynomial.from_terms([([1.0], -2.0), ([0.0], 3.0)])
    for call in (argmax_terms, on_variety):
        with pytest.raises(TropicalError, match=r"^tol must be a non-negative number, got ") as info:
            call(p, [5.0], tol=tol)
        assert type(info.value) is TropicalError
    assert argmax_terms(p, [5.0], tol=0.0) == {0, 1}


def test_on_variety_bend_and_tolerance():
    p = TropicalPolynomial.from_terms([([1.0], -2.0), ([0.0], 3.0)])
    assert on_variety(p, [5.0])
    assert not on_variety(p, [4.0])
    shifted = [5.0 + 1e-12]
    assert not on_variety(p, shifted, tol=0.0)
    assert on_variety(p, shifted, tol=1e-9)


def test_variety_is_nondifferentiability_locus_1d():
    rng = np.random.default_rng(11)
    slopes = np.array([[-2.0], [0.5], [3.0]])
    inter = np.array([1.0, 0.0, -4.0])
    p = TropicalPolynomial(slopes, inter)
    h = 1e-7
    for x in np.linspace(-6, 6, 141):
        left = (p.evaluate([x]) - p.evaluate([x - h])) / h
        right = (p.evaluate([x + h]) - p.evaluate([x])) / h
        kink = abs(left - right) > 1e-3
        assert on_variety(p, [x], tol=1e-9) == kink


def test_inert_terms_change_nothing():
    rng = np.random.default_rng(13)
    p = random_polynomial(rng)
    extended = TropicalPolynomial(
        np.vstack([p.slopes, [[9.0, 9.0]]]),
        np.concatenate([p.intercepts, [-INF]]),
    )
    pts = rng.normal(0, 3, (20, 2))
    np.testing.assert_array_equal(p.evaluate(pts), extended.evaluate(pts))
    assert polytope_equal(newton_polytope(p), newton_polytope(extended))
    for pt in pts[:5]:
        assert argmax_terms(p, pt) == argmax_terms(extended, pt)


# ---------------------------------------------------------------------------
# Newton polytopes


def test_newton_polytope_reference_triangles():
    p1 = TropicalPolynomial.from_terms([([1, 1], 0.0), ([3, 1], 0.0), ([1, 2], 0.0)])
    hull1 = newton_polytope(p1).hull_vertices
    assert sorted(map(tuple, hull1)) == [(1, 1), (1, 2), (3, 1)]
    p2 = TropicalPolynomial.from_terms([([0, 0], 0.0), ([-1, 0], 0.0), ([0, 1], 0.0), ([-1, 1], 0.0)])
    hull2 = newton_polytope(p2).hull_vertices
    assert sorted(map(tuple, hull2)) == [(-1, 0), (-1, 1), (0, 0), (0, 1)]


def test_newton_polytope_single_term():
    p = TropicalPolynomial.from_terms([([2, 5], 1.0)])
    assert newton_polytope(p).hull_vertices.tolist() == [[2, 5]]


def test_polytope_join_idempotent():
    P = Polytope(np.array([[0, 0], [1, 0], [0, 1]]))
    assert polytope_equal(polytope_join(P, P), P)


def test_join_and_minkowski_reference():
    p1 = TropicalPolynomial.from_terms([([1, 1], 0.0), ([3, 1], 0.0), ([1, 2], 0.0)])
    p2 = TropicalPolynomial.from_terms([([0, 0], 0.0), ([-1, 0], 0.0), ([0, 1], 0.0), ([-1, 1], 0.0)])
    n1, n2 = newton_polytope(p1), newton_polytope(p2)
    join = polytope_join(n1, n2)
    np.testing.assert_array_equal(join.hull_vertices, brute_hull_2d(np.vstack([n1.generators, n2.generators])))
    mink = polytope_minkowski_sum(n1, n2)
    sums = (n1.generators[:, None, :] + n2.generators[None, :, :]).reshape(-1, 2)
    np.testing.assert_array_equal(mink.hull_vertices, brute_hull_2d(sums))


def test_minkowski_sum_with_point_is_translation():
    P = Polytope(np.array([[0, 0], [2, 0], [0, 2]]))
    Q = Polytope(np.array([[5.0, -1.0]]))
    shifted = polytope_minkowski_sum(P, Q)
    np.testing.assert_array_equal(shifted.hull_vertices, P.hull_vertices + [5.0, -1.0])


def test_newton_laws_against_combined_polynomials():
    rng = np.random.default_rng(17)
    for _ in range(60):
        p, q = random_polynomial(rng), random_polynomial(rng)
        assert polytope_equal(
            newton_polytope(tropical_max(p, q)),
            polytope_join(newton_polytope(p), newton_polytope(q)),
        )
        assert polytope_equal(
            newton_polytope(tropical_sum(p, q)),
            polytope_minkowski_sum(newton_polytope(p), newton_polytope(q)),
        )


def test_hull_matches_brute_oracle_random():
    rng = np.random.default_rng(19)
    for _ in range(60):
        pts = rng.integers(-6, 7, (int(rng.integers(1, 14)), 2)).astype(float)
        np.testing.assert_array_equal(convex_hull_2d(pts), brute_hull_2d(pts))


def test_hull_collinear_and_duplicate_points():
    pts = np.array([[0, 0], [1, 1], [2, 2], [1, 1]])
    hull = convex_hull_2d(pts)
    assert hull.tolist() == [[0, 0], [2, 2]]
    assert convex_hull_2d([[3, 4]]).tolist() == [[3, 4]]


def test_hull_float_points_match_qhull():
    # general-position float inputs: cross-check the monotone chain against
    # an entirely independent hull implementation
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(83)
    for _ in range(40):
        pts = rng.normal(0, 3, (int(rng.integers(4, 20)), 2))
        ours = convex_hull_2d(pts)
        ref = ConvexHull(pts)
        ref_ccw = pts[ref.vertices]  # counterclockwise, arbitrary start
        assert len(ours) == len(ref_ccw)
        start = int(np.argmin([tuple(v) for v in ref_ccw], axis=0)[0])
        order = [(start + i) % len(ref_ccw) for i in range(len(ref_ccw))]
        np.testing.assert_allclose(ours, ref_ccw[order], atol=1e-9)


def test_hull_float_collinearity_tolerance():
    pts = np.array([[0.0, 0.0], [0.5, 0.5 + 1e-14], [1.0, 1.0], [0.0, 1.0]])
    hull = convex_hull_2d(pts)
    # the barely off-line midpoint is treated as collinear and dropped
    assert len(hull) == 3


@pytest.mark.parametrize("tol", [-1.0, float("nan"), -0.0 - 1e-300])
def test_hull_tolerance_must_be_non_negative(tol):
    pts = [[0, 0], [1, 0], [2, 0], [1, 0.1], [1, 1]]
    with pytest.raises(TropicalError, match=r"^tol must be a non-negative number, got ") as info:
        convex_hull_2d(pts, tol=tol)
    assert type(info.value) is TropicalError
    assert convex_hull_2d(pts, tol=0.0).tolist() == [[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]


def test_hull_refuses_coordinates_whose_cross_products_could_overflow():
    # the squared scale of 1e300 overflowed into an OverflowError traceback
    big = 2.0**509
    assert convex_hull_2d([[0, 0], [big, 0], [0.5, 0.5], [0, big]]).tolist() == [[0.0, 0.0], [big, 0.0], [0.0, big]]
    for scale in (2.0**510, -1e300):
        with pytest.raises(TropicalError, match=r"^hull coordinates must be below 2\*\*510 in magnitude, got "):
            convex_hull_2d([[0, 0], [scale, 0], [0.5, 0.5]])


def test_polytope_1d_hull():
    P = Polytope(np.array([[3.0], [1.0], [2.0]]))
    assert P.hull_vertices.tolist() == [[1.0], [3.0]]


def test_polytope_hull_is_computed_never_passed():
    # a passed hull would be trusted: polytope_equal compares hulls
    with pytest.raises(TypeError):
        Polytope([[0, 0], [1, 0], [0, 1]], [[5, 5]])
    with pytest.raises(TypeError):
        Polytope([[0, 0], [1, 0], [0, 1]], hull_vertices=[[5, 5]])
    assert not polytope_equal(Polytope([[0, 0], [1, 0], [0, 1]]), Polytope([[5, 5]]))


def test_polytope_equal_3d_reduction():
    cube = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
    with_center = np.vstack([cube, [[0.5, 0.5, 0.5]]])
    assert polytope_equal(Polytope(cube), Polytope(with_center))
    shifted = Polytope(cube + 0.25)
    assert not polytope_equal(Polytope(cube), shifted)
    # more than 12 generators: the join and Minkowski laws of 3-D Newton
    # polytopes, by two-way containment
    rng = np.random.default_rng(0)
    for _ in range(3):
        p, q = (TropicalPolynomial(rng.integers(-3, 4, (k, 3)).astype(float), rng.integers(-4, 5, k).astype(float))
                for k in (6, 7))
        P, Q = newton_polytope(p), newton_polytope(q)
        join, mink = polytope_join(P, Q), polytope_minkowski_sum(P, Q)
        assert len(mink.generators) == 42
        assert polytope_equal(newton_polytope(tropical_max(p, q)), join)
        assert polytope_equal(newton_polytope(tropical_sum(p, q)), mink)
        assert not polytope_equal(join, mink)


def test_newton_polytope_needs_max_orientation():
    p = TropicalPolynomial.from_terms([([1.0], 0.0)], orientation="min")
    with pytest.raises(TropicalError):
        newton_polytope(p)


# ---------------------------------------------------------------------------
# halfspaces


def test_halfspace_trivial_when_lhs_absent():
    h = TropicalHalfspace(np.array([-INF, -INF, -INF]), np.array([0.0, 0.0, 0.0]))
    rng = np.random.default_rng(23)
    for pt in rng.normal(0, 5, (20, 2)):
        assert halfspace_contains(h, pt)


def test_halfspace_min_form_region_below_line():
    # the region below the min-plus line y = min(1 + x, 2)
    h = TropicalHalfspace(
        np.array([INF, 0.0, INF]), np.array([1.0, INF, 2.0]), orientation="min"
    )
    assert halfspace_contains(h, [0.0, 0.0])
    assert halfspace_contains(h, [0.0, 1.0])  # boundary: y = 1 + x
    assert not halfspace_contains(h, [0.0, 1.5])
    assert not halfspace_contains(h, [5.0, 2.5])
    assert halfspace_contains(h, [5.0, 2.0])  # boundary: y = 2


def test_halfspace_boundary_satisfies_both_sides():
    # at a bend point both T(a, b) and T(b, a) hold
    lhs = np.array([-INF, 0.0, -INF])
    rhs = np.array([1.0, -INF, 2.0])
    fwd = TropicalHalfspace(lhs, rhs)
    bwd = TropicalHalfspace(rhs, lhs)
    bend = [1.0, 2.0]  # 1 + x = 2 and y = 2
    assert halfspace_contains(fwd, bend)
    assert halfspace_contains(bwd, bend)


def test_halfspace_invariant_enforced():
    with pytest.raises(TropicalError):
        TropicalHalfspace(np.array([0.0, -INF]), np.array([1.0, -INF]))
    with pytest.raises(TropicalError):
        TropicalHalfspace(np.array([INF, -INF]), np.array([-INF, 0.0]))
    with pytest.raises(DimensionMismatchError):
        halfspace_contains(TropicalHalfspace(np.array([0.0, -INF]), np.array([-INF, 0.0])), [1.0, 2.0])


def test_halfspace_membership_matches_direct_evaluation():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        lhs = np.full(n + 1, -INF)
        rhs = np.full(n + 1, -INF)
        for i in range(n + 1):
            side = rng.integers(0, 3)
            if side == 0:
                lhs[i] = rng.normal(0, 3)
            elif side == 1:
                rhs[i] = rng.normal(0, 3)
        h = TropicalHalfspace(lhs, rhs)
        for pt in rng.normal(0, 3, (10, n)):
            left = max([lhs[-1]] + [lhs[i] + pt[i] for i in range(n)])
            right = max([rhs[-1]] + [rhs[i] + pt[i] for i in range(n)])
            assert halfspace_contains(h, pt) == (left <= right)
