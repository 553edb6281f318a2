"""Max-affine regression: closed forms, slope estimation, fit invariants."""

import tracemalloc
import warnings

import numpy as np
import pytest

import tropalg.regression
from oracles import jenks_breaks_dp
from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    AutoSlopes,
    CarrierError,
    Clodum,
    FitProblem,
    GivenSlopes,
    TropicalError,
    TropicalMatrix,
    TropicalVector,
    UnsupportedClodumError,
    estimate_slopes_1d,
    estimate_slopes_nd,
    fit_line,
    fit_max_affine,
    fit_plane,
    least_squares_line,
    max_softmin,
    solve,
)
from tropalg.regression import _jenks_breaks

INF = float("inf")


# ---------------------------------------------------------------------------
# tropical line fits


def test_line_clean_recovery_both_methods():
    x = np.linspace(-1, 12, 200)
    f = np.maximum(x - 2, 3)
    for method in ("gle", "mmae"):
        rep = fit_line(x, f, MAX_PLUS, method)
        a_hat, b_hat = rep.model.intercepts
        assert a_hat == pytest.approx(-2.0, abs=1e-12)
        assert b_hat == pytest.approx(3.0, abs=1e-12)
        assert rep.linf_error <= 1e-12
        assert np.max(np.abs(rep.residuals)) <= 1e-12


def test_line_single_point():
    rep = fit_line([4.0], [7.0], MAX_PLUS)
    a_hat, b_hat = rep.model.intercepts
    assert (a_hat, b_hat) == (3.0, 7.0)
    assert rep.residuals[0] == 0.0


def test_line_closed_forms_match_definitions():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 3, 50)
    f = rng.normal(0, 3, 50)
    rep = fit_line(x, f, MAX_PLUS)
    assert rep.model.intercepts[0] == np.min(f - x)
    assert rep.model.intercepts[1] == np.min(f)


def test_line_maxtimes_closed_form():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 4, 40)
    f = rng.uniform(0.1, 4, 40)
    rep = fit_line(x, f, MAX_TIMES)
    assert rep.model.intercepts[0] == pytest.approx(np.min(f / x), rel=1e-12)
    assert rep.model.intercepts[1] == np.min(f)
    assert np.all(rep.residuals >= -1e-12)


def test_line_maxmin_closed_form():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, 40)
    f = rng.uniform(0, 1, 40)
    rep = fit_line(x, f, MAX_MIN)
    expected_a = np.min(np.where(f >= x, 1.0, f))
    assert rep.model.intercepts[0] == expected_a
    assert rep.model.intercepts[1] == np.min(f)
    assert np.all(rep.residuals >= -1e-12)


def test_line_duplicate_x_with_conflicting_f():
    # repeated abscissae with different targets: the from-below fit honors
    # the smaller target and stays one-sided
    x = np.array([0.0, 1.0, 1.0, 2.0])
    f = np.array([0.5, 2.0, 1.0, 2.5])
    rep = fit_line(x, f, MAX_PLUS)
    assert np.all(rep.residuals >= -1e-12)
    idx = np.where(x == 1.0)[0]
    preds = f[idx] - rep.residuals[idx]
    assert np.all(preds <= 1.0 + 1e-12)


def test_line_mmae_requires_maxplus():
    with pytest.raises(UnsupportedClodumError):
        fit_line([0.1, 0.3], [0.5, 0.6], MAX_MIN, "mmae")
    with pytest.raises(UnsupportedClodumError):
        fit_line([0.0, 1.0], [0.5, 0.6], max_softmin(1.0), "mmae")


def test_plane_exact_recovery():
    # the domain must reach all three linearity regions of max(x, 2+y, 7)
    rng = np.random.default_rng(11)
    xy = rng.uniform(-12, 12, (300, 2))
    f = np.maximum.reduce([xy[:, 0], 2 + xy[:, 1], np.full(300, 7.0)])
    for method in ("gle", "mmae"):
        rep = fit_plane(xy, f, MAX_PLUS, method)
        np.testing.assert_allclose(rep.model.intercepts, [0.0, 2.0, 7.0], atol=1e-12)
        assert rep.linf_error <= 1e-12


def test_plane_constant_data():
    xy = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 3.0]])
    f = np.full(3, 5.0)
    rep = fit_plane(xy, f, MAX_PLUS)
    a_hat, b_hat, c_hat = rep.model.intercepts
    assert c_hat == 5.0
    assert a_hat == np.min(f - xy[:, 0])
    assert b_hat == np.min(f - xy[:, 1])
    assert np.all(rep.residuals >= 0)


def test_plane_single_sample():
    rep = fit_plane(np.array([[1.0, 2.0]]), [4.0], MAX_PLUS)
    assert rep.residuals[0] == 0.0


# ---------------------------------------------------------------------------
# fits are solves of the design system


def test_mmae_never_below_gle():
    # one sample fits exactly, but the GLE residual can round below zero;
    # a negative shift would pull MMAE intercepts under the GLE ones
    def both(fit, *args):
        return fit(*args, "gle").model.intercepts, fit(*args, "mmae").model.intercepts

    def affine(x, f, method):
        return fit_max_affine(FitProblem(x, f, GivenSlopes([[1.0], [2.0]])), method)

    for gle, mmae in (
        both(fit_line, [1.92], [0.31], MAX_PLUS),
        both(fit_plane, [[0.01, 0.03]], [0.31], MAX_PLUS),
        both(affine, [[0.02]], [0.01]),
    ):
        assert np.all(mmae >= gle)


def _samples(clodum, rng, shape):
    if clodum.kind == "max-min":
        return rng.uniform(0, 1, shape)
    if clodum.kind == "max-times":
        return rng.uniform(0.1, 4, shape)
    return rng.normal(0, 3, shape)


@pytest.mark.parametrize(
    "clodum, method",
    [(MAX_PLUS, "gle"), (MAX_PLUS, "mmae"), (MAX_TIMES, "gle"), (MAX_MIN, "gle"),
     (max_softmin(0.5), "gle")],
    ids=lambda v: v if isinstance(v, str) else v.spec_string(),
)
def test_fits_equal_design_system_solves(clodum, method):
    rng = np.random.default_rng(53)
    unit = clodum.unit
    for _ in range(20):
        m = int(rng.integers(1, 15))
        x, xy, f = _samples(clodum, rng, m), _samples(clodum, rng, (m, 2)), _samples(clodum, rng, m)
        fits = [
            (fit_line(x, f, clodum, method), np.column_stack([x, np.full(m, unit)])),
            (fit_plane(xy, f, clodum, method), np.column_stack([xy, np.full(m, unit)])),
        ]
        if clodum == MAX_PLUS:
            slopes = rng.normal(0, 2, (int(rng.integers(1, 5)), 2))
            rep = fit_max_affine(FitProblem(xy, f, GivenSlopes(slopes)), method)
            fits.append((rep, xy @ slopes.T))
        for rep, design in fits:
            sol = solve(TropicalMatrix(design, clodum), TropicalVector(f, clodum), method)
            if method == "gle":
                x_sol, r_sol = sol.x_hat.values, sol.residual_gle
            else:
                x_sol, r_sol = sol.x_tilde.values, sol.residual_mmae
            assert np.array_equal(rep.model.intercepts, x_sol)
            assert np.array_equal(rep.residuals, r_sol)


def test_dead_design_column_does_not_leak_solver_warning():
    # an all-zero input is an all-bottom design column over max-times: solve
    # warns about it, the fit must not
    x = np.zeros(4)
    f = np.array([0.5, 2.0, 0.0, 1.0])
    design = TropicalMatrix(np.column_stack([x, np.ones(4)]), MAX_TIMES)
    with pytest.warns(UserWarning):
        solve(design, TropicalVector(f, MAX_TIMES))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_line(x, f, MAX_TIMES)
        clean = fit_line(x, f + 1.0, MAX_TIMES)
    assert rep.model.intercepts.tolist() == [INF, 0.0]
    assert rep.warnings == ("terms [1] received a bottom intercept and are inert",)
    assert clean.warnings == ()


@pytest.mark.parametrize("fit, dim", [(fit_line, 1), (fit_plane, 2)], ids=["line", "plane"])
@pytest.mark.parametrize("clodum", [MAX_PLUS, MAX_TIMES, MAX_MIN, max_softmin(0.5)], ids=str)
def test_fits_validate_their_samples_once(fit, dim, clodum, monkeypatch):
    seen = []
    validate = Clodum.validate

    def recording(self, values):
        seen.append(np.array(values, dtype=float))
        return validate(self, values)

    monkeypatch.setattr(Clodum, "validate", recording)
    rng = np.random.default_rng(43)
    x = rng.uniform(0.1, 0.9, (40, dim))
    f = rng.uniform(0.1, 0.9, 40)
    fit(x[:, 0] if dim == 1 else x, f, clodum)

    def scans(col):
        # validated arrays holding ``col`` as a column
        return sum(any(np.array_equal(c, col) for c in a.reshape(len(col), -1).T)
                   for a in seen if a.ndim and a.shape[0] == len(col))

    assert scans(f) == 1
    assert [scans(x[:, d]) for d in range(dim)] == [1] * dim


@pytest.mark.parametrize("clodum, x, err, match", [
    (MAX_PLUS, [0.0, np.nan], CarrierError, "NaN is not an element of the max-plus carrier"),
    (MAX_TIMES, [1.0, -0.5], CarrierError, "max-times carrier"),
    (MAX_PLUS, [0.0, INF], TropicalError, "evaluation points must be finite"),
], ids=["nan", "negative-max-times", "infinite"])
def test_fit_sample_errors(clodum, x, err, match):
    for fit, xs in ((fit_line, x), (fit_plane, np.column_stack([x, [1.0, 2.0]]))):
        with pytest.raises(TropicalError, match=match) as info:
            fit(xs, [1.0, 2.0], clodum)
        assert type(info.value) is err


# ---------------------------------------------------------------------------
# slope estimation


def test_jenks_k1_is_mean():
    x = np.linspace(0, 1, 20)
    f = x**2
    slopes = estimate_slopes_1d(x, f, 1)
    derivs = np.diff(f) / np.diff(x)
    assert slopes[0] == pytest.approx(derivs.mean())


def test_jenks_recovers_exact_pwl_slopes():
    x = np.linspace(-3, 3, 61)
    f = np.maximum.reduce([-2 * x - 2, 0.5 * x, 3 * x - 5])
    slopes = estimate_slopes_1d(x, f, 3)
    # boundary gaps blend two pieces; interior gaps dominate each cluster
    assert np.min(np.abs(slopes - (-2.0))) < 0.2
    assert np.min(np.abs(slopes - 0.5)) < 0.2
    assert np.min(np.abs(slopes - 3.0)) < 0.2


def test_jenks_breaks_minimize_sse():
    # DP result is no worse than any random contiguous partition
    rng = np.random.default_rng(13)
    vals = np.sort(rng.normal(0, 2, 24))
    k = 3

    def total_sse(bounds):
        tot = 0.0
        lo = 0
        for b in list(bounds) + [len(vals)]:
            seg = vals[lo:b]
            if len(seg) == 0:
                return INF
            tot += float(np.sum((seg - seg.mean()) ** 2))
            lo = b
        return tot

    centroids = _jenks_breaks(vals, k)
    best_random = min(
        total_sse(sorted(rng.choice(np.arange(1, len(vals)), size=k - 1, replace=False)))
        for _ in range(300)
    )
    # recompute the DP objective from its centroids via assignment
    assign = np.argmin(np.abs(vals[:, None] - centroids[None, :]), axis=1)
    dp_sse = sum(float(np.sum((vals[assign == c] - vals[assign == c].mean()) ** 2))
                 for c in range(k) if np.any(assign == c))
    assert dp_sse <= best_random + 1e-9


def _jenks_inputs(rng):
    for n in (1, 2, 3, 17, 60, 157):
        yield rng.normal(size=n)
        yield rng.integers(0, 4, size=n).astype(float)  # integer ties
        yield np.full(n, rng.normal())  # every partition ties up to rounding
        yield np.repeat(rng.normal(size=n), 5)[:n]  # repeated blocks
        yield np.round(rng.normal(size=n), 1)
    yield rng.normal(size=40) * 1e160  # squares overflow to inf
    yield np.array([1.0, -INF, 2.0, INF, 2.0, 0.5, INF])


@pytest.mark.parametrize("pairs", [1, 5, tropalg.regression._JENKS_PAIRS])
def test_jenks_breaks_match_scalar_dp(pairs, monkeypatch):
    # block sizes down to one end index per block give the same breaks
    monkeypatch.setattr(tropalg.regression, "_JENKS_PAIRS", pairs)
    rng = np.random.default_rng(71)
    for vals in _jenks_inputs(rng):
        n = len(vals)
        ks = {1, 2, min(n, 6), n} if n <= 60 else {1, 2, 6}
        for k in sorted(k for k in ks if k <= n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # means of infinite clusters
                got, expected = _jenks_breaks(vals, k), jenks_breaks_dp(vals, k)
            assert np.array_equal(got, expected, equal_nan=True), (n, k)


def test_jenks_breaks_memory_is_bounded():
    # a single n x n float temporary at n = 2000 would take 32 MB
    vals = np.random.default_rng(5).normal(size=2000)
    tracemalloc.start()
    try:
        _jenks_breaks(vals, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_estimate_slopes_1d_errors():
    with pytest.raises(TropicalError):
        estimate_slopes_1d([0.0, 1.0], [0.0, 1.0], 2)  # m < K+1
    with pytest.raises(TropicalError):
        estimate_slopes_1d([1.0, 1.0, 1.0], [0.0, 1.0, 2.0], 1)  # no usable gaps


def test_overflowing_derivative_names_its_samples():
    # abscissae a subnormal-scale gap apart: the finite difference is +inf
    x = np.array([1.0, 0.0, 2.0, 1e-300, 3.0])
    f = np.array([1.0, 0.0, 3.0, 1e10, 6.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TropicalError, match=r"between samples 1 and 3 \(x = 0\.0, 1e-300\) overflows"):
            estimate_slopes_1d(x, f, 2)
        with pytest.raises(TropicalError, match="between samples 1 and 3"):
            fit_max_affine(FitProblem(x, f, AutoSlopes(2)))


def test_estimate_slopes_nd_single_plane():
    rng = np.random.default_rng(17)
    x = rng.uniform(-2, 2, (60, 2))
    f = 3.0 * x[:, 0] - 1.5 * x[:, 1] + 0.25
    for k in (1, 2, 4):
        slopes = estimate_slopes_nd(x, f, k, seed=1)
        np.testing.assert_allclose(slopes, np.tile([3.0, -1.5], (k, 1)), atol=1e-8)


def test_estimate_slopes_nd_paraboloid_gradients():
    rng = np.random.default_rng(19)
    x = rng.uniform(-1, 1, (400, 2))
    f = x[:, 0] ** 2 + x[:, 1] ** 2
    slopes = estimate_slopes_nd(x, f, 12, seed=2)
    norms = np.linalg.norm(slopes, axis=1)
    # gradient field is 2(x, y): centroid norms live within [0, 2*max||x||]
    assert norms.min() >= 0.0
    assert norms.max() <= 2 * np.linalg.norm(x, axis=1).max() + 0.2


def test_estimate_slopes_nd_deterministic_given_seed():
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, (80, 2))
    f = np.abs(x[:, 0]) + 0.5 * np.abs(x[:, 1])
    a = estimate_slopes_nd(x, f, 4, seed=9)
    b = estimate_slopes_nd(x, f, 4, seed=9)
    np.testing.assert_array_equal(a, b)


def test_estimate_slopes_nd_degenerate_neighbourhoods():
    # all samples on a vertical line: the affine fit cannot see x2
    x = np.zeros((20, 2))
    x[:, 0] = np.linspace(0, 1, 20)
    f = x[:, 0] * 2
    with pytest.raises(TropicalError):
        estimate_slopes_nd(x, f, 2, seed=0)


# ---------------------------------------------------------------------------
# max-affine fits


def test_fit_max_affine_interpolates_convex_pwl():
    # with the exact gradients as slopes the GLE fit has zero residual
    x = np.linspace(-2, 2, 41)
    f = np.maximum.reduce([-3 * x - 1, 0.2 * x, 2 * x - 2])
    slopes = np.array([[-3.0], [0.2], [2.0]])
    prob = FitProblem(x[:, None], f, GivenSlopes(slopes))
    rep = fit_max_affine(prob, "gle")
    assert rep.linf_error <= 1e-12
    np.testing.assert_allclose(rep.model.intercepts, [-1.0, 0.0, -2.0], atol=1e-12)


def test_fit_max_affine_k_equals_m_interpolation():
    # one slope per sample, each a supporting gradient of the convex data:
    # the from-below fit touches every point
    x = np.linspace(-1.5, 1.5, 25)
    f = np.maximum.reduce([-3 * x - 1, 0.2 * x, 2 * x - 2])
    grads = np.where(f == -3 * x - 1, -3.0, np.where(f == 2 * x - 2, 2.0, 0.2))
    prob = FitProblem(x[:, None], f, GivenSlopes(grads[:, None]))
    rep = fit_max_affine(prob, "gle")
    assert rep.linf_error <= 1e-12


def test_fit_from_below_every_instance():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m, n, k = int(rng.integers(2, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x = rng.normal(0, 2, (m, n))
        f = rng.normal(0, 2, m)
        prob = FitProblem(x, f, GivenSlopes(rng.normal(0, 2, (k, n))))
        rep = fit_max_affine(prob, "gle")
        assert np.all(rep.residuals >= -1e-12)


def test_gle_intercepts_are_maximal():
    rng = np.random.default_rng(31)
    x = rng.normal(0, 2, (40, 2))
    f = rng.normal(0, 2, 40)
    slopes = rng.normal(0, 1, (4, 2))
    prob = FitProblem(x, f, GivenSlopes(slopes))
    rep = fit_max_affine(prob, "gle")
    design = x @ slopes.T
    for k in range(4):
        raised = rep.model.intercepts.copy()
        raised[k] += 1e-6
        pred = np.max(design + raised, axis=1)
        assert np.any(pred > f + 1e-9)  # from-below property breaks


def test_half_error_identity_exact():
    rng = np.random.default_rng(37)
    for _ in range(30):
        x = rng.normal(0, 3, (25, 1))
        f = rng.normal(0, 3, 25)
        prob = FitProblem(x, f, GivenSlopes(rng.normal(0, 1, (3, 1))))
        gle = fit_max_affine(prob, "gle")
        mmae = fit_max_affine(prob, "mmae")
        assert mmae.linf_error == pytest.approx(0.5 * gle.linf_error, abs=1e-12)


def test_redundant_slope_never_hurts():
    rng = np.random.default_rng(41)
    x = rng.normal(0, 2, (30, 1))
    f = rng.normal(0, 2, 30)
    base = rng.normal(0, 1, (3, 1))
    dup = np.vstack([base, base[:1]])
    for method in ("gle", "mmae"):
        r1 = fit_max_affine(FitProblem(x, f, GivenSlopes(base)), method)
        r2 = fit_max_affine(FitProblem(x, f, GivenSlopes(dup)), method)
        assert r2.rms_error <= r1.rms_error + 1e-12
        assert r2.linf_error <= r1.linf_error + 1e-12


def test_shift_equivariance():
    rng = np.random.default_rng(43)
    x = rng.normal(0, 2, (25, 2))
    f = rng.normal(0, 2, 25)
    slopes = rng.normal(0, 1, (3, 2))
    c = 4.25
    for method in ("gle", "mmae"):
        r1 = fit_max_affine(FitProblem(x, f, GivenSlopes(slopes)), method)
        r2 = fit_max_affine(FitProblem(x, f + c, GivenSlopes(slopes)), method)
        np.testing.assert_allclose(r2.model.intercepts, r1.model.intercepts + c, atol=1e-12)
        assert r2.linf_error == pytest.approx(r1.linf_error, abs=1e-12)
        assert r2.rms_error == pytest.approx(r1.rms_error, abs=1e-12)


def test_fit_max_affine_rejects_non_maxplus():
    x = np.array([[0.2], [0.4]])
    f = np.array([0.3, 0.5])
    prob = FitProblem(x, f, GivenSlopes(np.array([[1.0]])), MAX_MIN)
    with pytest.raises(UnsupportedClodumError):
        fit_max_affine(prob, "gle")


def test_auto_slopes_1d_uses_jenks():
    x = np.linspace(-2, 2, 50)
    f = np.abs(x)
    prob = FitProblem(x[:, None], f, AutoSlopes(2, seed=0))
    rep = fit_max_affine(prob, "mmae")
    assert rep.slope_source == "jenks"
    assert rep.linf_error < 0.1


def test_auto_slopes_nd_uses_kmeans():
    rng = np.random.default_rng(47)
    x = rng.uniform(-1, 1, (200, 2))
    f = np.maximum(x[:, 0] + x[:, 1], -0.3)
    prob = FitProblem(x, f, AutoSlopes(2, seed=3))
    rep = fit_max_affine(prob, "gle")
    assert rep.slope_source == "kmeans"
    assert rep.rms_error < 0.05


def test_fit_problem_validation():
    with pytest.raises(TropicalError):
        FitProblem(np.array([[0.0]]), np.array([INF]), GivenSlopes(np.array([[1.0]])))
    with pytest.raises(TropicalError):
        FitProblem(np.array([[0.0]]), np.array([1.0]), AutoSlopes(5))
    with pytest.raises(TropicalError):
        AutoSlopes(0)


def test_convex_benchmark_error_curve_frozen():
    # deterministic pipeline outputs on the 1-D convex benchmark, frozen at
    # 1e-4; K=5 is omitted because the optimal natural-breaks partition gives
    # a strictly better fit than older reference runs at that K
    xs = np.linspace(-2, 2, 100)
    fs = np.maximum.reduce([-6 * xs - 6, xs / 2, xs**5 / 5 + xs / 2])
    expected = {
        3: (0.4101, 0.9671, 0.3535, 0.4836),
        4: (0.2048, 0.5072, 0.1799, 0.2536),
        6: (0.0801, 0.1932, 0.0625, 0.0966),
    }
    for k, row in expected.items():
        prob = FitProblem(xs[:, None], fs, AutoSlopes(k))
        g = fit_max_affine(prob, "gle")
        m = fit_max_affine(prob, "mmae")
        got = (g.rms_error, g.linf_error, m.rms_error, m.linf_error)
        np.testing.assert_allclose(got, row, atol=1e-4)


def test_least_squares_baseline():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    f = 2 * x + 1
    a, b = least_squares_line(x, f)
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(1.0)
