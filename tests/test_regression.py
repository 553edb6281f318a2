"""Max-affine regression: closed forms, slope estimation, fit invariants."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import tropalg.regression
from oracles import gradients_rank_pinv, jenks_breaks_dp, kmeans_masks
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
from tropalg.regression import _fit_terms, _gradients, _jenks_breaks, _kmeans, _sweep_fits

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


@pytest.mark.parametrize("target", [INF, -INF])
def test_line_infinite_target_is_refused(target):
    # inside the max-plus carrier, but a fit needs finite targets
    with pytest.raises(TropicalError, match="^target values must be finite$"):
        fit_line([0.0, 1.0, 2.0], [0.0, target, 1.0], MAX_PLUS)


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


def test_fit_carrier_error_names_the_first_sample_outside():
    x = np.array([0.5, 0.25, -2.0, 3.0])
    f = np.array([0.5, 1.5, 0.5, 0.5])  # sample 1 is the first outside, by its target
    with pytest.raises(CarrierError, match=r"got a value outside it: sample 1 \(x = 0\.25\), f = 1\.5$"):
        fit_line(x, f, MAX_MIN)


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


@pytest.mark.parametrize("pairs", [1, 5, 64, 256, tropalg.regression._JENKS_PAIRS])
def test_jenks_breaks_match_scalar_dp(pairs, monkeypatch):
    # block sizes down to one end index per block, and blocks narrower than
    # k (64 pairs at n = 17, 256 at n = 60), give the same breaks; so do
    # k = n and k = n - 1, where the first blocks end before layer k starts
    monkeypatch.setattr(tropalg.regression, "_JENKS_PAIRS", pairs)
    rng = np.random.default_rng(71)
    for vals in _jenks_inputs(rng):
        n = len(vals)
        ks = {1, 2, min(n, 6), n - 1, n} if n <= 60 else {1, 2, 6}
        for k in sorted(k for k in ks if 1 <= k <= n):
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


@pytest.mark.parametrize("pairs", [500, tropalg.regression._JENKS_PAIRS])
def test_jenks_breaks_compute_each_sse_once(pairs, monkeypatch):
    # every (split, end) cost is computed at most once per DP, whatever the
    # cluster count: the triangle i <= j once, plus the i > j corner of each
    # block, at most (width - 1) / 2 entries per end
    monkeypatch.setattr(tropalg.regression, "_JENKS_PAIRS", pairs)
    sse = tropalg.regression._sse
    seen = []

    def recording(s1, s2, i, j):
        seen.extend(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(i, j))))
        return sse(s1, s2, i, j)

    monkeypatch.setattr(tropalg.regression, "_sse", recording)
    n = 157
    width = max(1, pairs // n)
    _jenks_breaks(np.random.default_rng(2).normal(size=n), 6)
    below = [(i, j) for i, j in seen if i <= j]
    assert len(set(below)) == len(below) == n * (n + 1) // 2
    assert len(seen) <= n * (n + 1) // 2 + n * (width - 1) / 2


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


def _designs_around_rank_tolerance(rng, count, rows=8, cols=3):
    """Designs U diag(s) V^T whose smallest singular value is 10^-3 .. 10^5
    times matrix_rank's tolerance max(rows, cols) * eps * s_max."""
    left = np.linalg.qr(rng.normal(size=(count, rows, cols)))[0]
    right = np.linalg.qr(rng.normal(size=(count, cols, cols)))[0]
    s = np.ones((count, cols))
    s[:, 1:-1] = rng.uniform(0.1, 1.0, (count, cols - 2))
    s[:, -1] = rows * np.finfo(float).eps * np.geomspace(1e-3, 1e5, count)
    return (left * s[:, None, :]) @ right


def test_gradients_match_rank_pinv_oracle_bytes():
    rng = np.random.default_rng(79)
    for rows, cols in ((8, 3), (8, 4), (9, 8)):
        for scale in (1e-100, 1.0, 1e100):
            design = _designs_around_rank_tolerance(rng, 400, rows, cols) * scale
            values = rng.normal(size=(400, rows))
            good, beta = _gradients(design, values)
            want_good, want_beta = gradients_rank_pinv(design, values)
            # both verdicts occur, and the guard band re-ranks full-rank designs
            assert 0 < want_good.sum() < len(want_good)
            assert np.array_equal(good, want_good), (rows, cols, scale)
            assert beta.tobytes() == want_beta.tobytes(), (rows, cols, scale)


def _slopes_nd_former(x, f, count, seed):
    """The former n-D estimator: k-NN designs, the matrix_rank + pinv
    gradients and mask-based k-means; returns (full-rank mask, slopes)."""
    from scipy.spatial import cKDTree

    m, n = x.shape
    k_nn = min(max(n + 2, 8), m)
    idx = np.atleast_2d(cKDTree(x).query(x, k=k_nn)[1])
    design = np.concatenate([x[idx] - x[:, None, :], np.ones((m, k_nn, 1))], axis=2)
    good, beta = gradients_rank_pinv(design, f[idx])
    return good, kmeans_masks(beta[:, :n], count, np.random.default_rng(seed))


def _partly_degenerate_samples(rng, jitter):
    """A spread cloud, 10 copies of one point and 12 collinear points, far
    enough apart that each group is its own neighbourhood; ``jitter`` adds
    groups of 9 nearly collinear points, one per perpendicular scale."""
    parts = [rng.uniform(-1, 1, (150, 2)), np.repeat([[3.0, 3.0]], 10, axis=0),
             np.column_stack([np.linspace(5, 6, 12), np.full(12, -4.0)])]
    for g, scale in enumerate(jitter):
        t = np.linspace(0.0, 0.5, 9)
        parts.append(np.column_stack([10.0 + 3 * g + t, 8.0 + scale * rng.normal(size=9)]))
    x = np.vstack(parts)
    f = np.abs(x[:, 0] - 0.5) + 0.5 * np.abs(x[:, 1]) + rng.uniform(-0.01, 0.01, len(x))
    return x, f


def test_estimate_slopes_nd_skips_degenerate_neighbourhoods_like_former():
    # duplicates (rank 1) and collinear points (rank 2) are skipped, the rest kept
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    good, want = _slopes_nd_former(x, f, 4, 5)
    assert (~good).sum() == 22
    with pytest.warns(UserWarning, match=r"^skipped 22 samples with rank-deficient neighbourhoods$"):
        got = estimate_slopes_nd(x, f, 4, seed=5)
    assert got.tobytes() == want.tobytes()


def test_fit_reports_carry_the_skipped_neighbourhoods():
    # the estimate's warning is raised for the caller and leads the report's
    # warnings, in a single fit and in every fit of a sweep
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    problem = FitProblem(x, f, AutoSlopes(4, 5))
    message = "skipped 22 samples with rank-deficient neighbourhoods"
    with pytest.warns(UserWarning, match=f"^{message}$"):
        report = fit_max_affine(problem)
    assert report.warnings[0] == message
    with pytest.warns(UserWarning, match=f"^{message}$"):
        sweep = list(_sweep_fits(problem, "gle", range(4, 7)))
    assert [rep.warnings[0] for rep in sweep] == [message] * 3
    assert sweep[0].model.slopes.tobytes() == report.model.slopes.tobytes()


def _report_bytes(rep):
    return (rep.model.slopes.tobytes(), rep.model.intercepts.tobytes(), rep.residuals.tobytes(),
            rep.rms_error, rep.linf_error, rep.method, rep.slope_source, rep.warnings)


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("method", ["gle", "mmae"])
def test_auto_slopes_fit_is_the_first_fit_of_its_sweep(dims, method):
    rng = np.random.default_rng(71 + dims)
    x = rng.uniform(-2, 2, (80, dims))
    f = np.abs(x).sum(axis=1) + rng.uniform(-0.05, 0.05, 80)
    problem = FitProblem(x, f, AutoSlopes(5, 3))
    single = fit_max_affine(problem, method)
    assert _report_bytes(single) == _report_bytes(next(_sweep_fits(problem, method, [5])))


def test_fit_carries_only_its_own_notes_while_another_thread_warns(monkeypatch):
    # another thread warns while the fit's k-means runs; the fit's report
    # holds its own note and nothing of that thread's warning
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    inside, warned = threading.Event(), threading.Event()
    kmeans = tropalg.regression._kmeans

    def waiting_kmeans(*args):
        inside.set()
        assert warned.wait(30)
        return kmeans(*args)

    def other_thread():
        assert inside.wait(30)
        warnings.warn("a warning of another thread")
        warned.set()

    monkeypatch.setattr(tropalg.regression, "_kmeans", waiting_kmeans)
    thread = threading.Thread(target=other_thread)
    with pytest.warns(UserWarning) as caught:
        thread.start()
        try:
            report = fit_max_affine(FitProblem(x, f, AutoSlopes(4, 5)))
        finally:
            inside.set()  # the other thread never waits for a fit that failed
            thread.join(30)
    assert not thread.is_alive()
    message = "skipped 22 samples with rank-deficient neighbourhoods"
    assert report.warnings == (message,)
    assert sorted(str(w.message) for w in caught) == ["a warning of another thread", message]


def test_estimate_slopes_nd_near_rank_tolerance_like_former():
    # nearly collinear neighbourhoods whose smallest singular value lies
    # around matrix_rank's tolerance, 8 * eps * s_max with s_max ~ 3
    scales = 24 * np.finfo(float).eps * np.geomspace(1e-2, 1e4, 24)
    x, f = _partly_degenerate_samples(np.random.default_rng(89), scales)
    good, want = _slopes_nd_former(x, f, 4, 6)
    skipped = int((~good).sum())
    assert 22 < skipped < 22 + 9 * len(scales)
    with pytest.warns(UserWarning, match=rf"^skipped {skipped} samples with"):
        got = estimate_slopes_nd(x, f, 4, seed=6)
    assert got.tobytes() == want.tobytes()


def test_estimate_slopes_nd_fits_widely_spread_coordinates():
    # neighbours more than ~1.3e154 apart have squared distances that
    # overflow; the neighbours are then found on x scaled by a power of two
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (300, 2))
    f = np.log(np.exp(x).sum(axis=1) + np.exp(-x[:, 0]))
    want = estimate_slopes_nd(x, f, 5, seed=1)
    got = estimate_slopes_nd(np.ldexp(x, 600), np.ldexp(f, 600), 5, seed=1)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    wide = rng.uniform(-1, 1, (30, 2)) * 1.5e308  # neighbours up to 3e308 apart
    assert np.array_equal(estimate_slopes_nd(wide, wide[:, 0] * 0.0, 3), np.zeros((3, 2)))


def test_estimate_slopes_nd_overflowing_gradients_name_the_sample():
    x = np.random.default_rng(0).uniform(-1, 1, (30, 2))
    f = np.where(np.arange(30) % 2, 1.7e308, -1.7e308)
    with pytest.raises(TropicalError, match=r"gradient at sample \d+ \(x = .*\) overflows"):
        estimate_slopes_nd(x, f, 3)
    # finite gradients whose squared k-means distances would overflow
    with pytest.raises(TropicalError, match=r"gradient at sample \d+ .* too large to cluster"):
        estimate_slopes_nd(x, 1e300 * x[:, 0], 3)
    with pytest.raises(TropicalError, match="overflows"):
        fit_max_affine(FitProblem(x, f, AutoSlopes(3)))


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
    # off max-plus, given rows must be one-hot or zero, as a polynomial's
    # are, and those fit with the bits of the design solve; general rows,
    # estimated slopes and MMAE stay max-plus only
    rng = np.random.default_rng(29)
    x = rng.uniform(0.05, 0.95, (20, 2))  # inside every carrier
    f = rng.uniform(0.05, 0.95, 20)
    rows = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for clodum in (MAX_PLUS, MAX_MIN, MAX_TIMES, max_softmin(0.5)):
        for method in ("gle", "mmae") if clodum == MAX_PLUS else ("gle",):
            rep = fit_max_affine(FitProblem(x, f, GivenSlopes(rows), clodum), method)
            ref = _fit_terms(x, f, rows, clodum, method, "given")
            assert rep.slope_source == ref.slope_source == "given"
            assert rep.model.intercepts.tobytes() == ref.model.intercepts.tobytes()
            assert rep.residuals.tobytes() == ref.residuals.tobytes()
            assert (rep.rms_error, rep.linf_error) == (ref.rms_error, ref.linf_error)
        if clodum == MAX_PLUS:
            continue
        cases = [
            (GivenSlopes(np.array([[0.5, 0.0]])), "gle", "general slope vectors need max-plus"),
            (GivenSlopes(np.array([[1.0, 1.0]])), "gle", "general slope vectors need max-plus"),
            (GivenSlopes(rows), "mmae", "MMAE"),
            (AutoSlopes(2), "gle", "estimated slopes are general vectors and need max-plus"),
        ]
        for policy, method, message in cases:
            with pytest.raises(UnsupportedClodumError, match=message):
                fit_max_affine(FitProblem(x, f, policy, clodum), method)


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


# ---------------------------------------------------------------------------
# k-means: byte identity with the mask-based oracle


def _kmeans_inputs(rng, m, n):
    """Four point clouds: spread, heavy duplicates, a coordinate of -0.0 across
    one cluster, and magnitudes over 16 decades."""
    spread = rng.normal(size=(m, n))
    dups = rng.integers(0, 3, size=(m, n)).astype(float)
    signed = rng.normal(size=(m, n))
    signed[: m // 2, 0] = -0.0
    signed[m // 2:, 0] += 50.0
    wide = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-8, 8, size=(m, n))
    return spread, dups, signed, wide


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("k", [1, 3, 16])
def test_kmeans_matches_mask_oracle_bytes(n, k):
    rng = np.random.default_rng(100 * n + k)
    for m in (k, k + 2, 60, 2000):
        for t, pts in enumerate(_kmeans_inputs(rng, m, n)):
            got = _kmeans(pts, k, np.random.default_rng(t))
            want = kmeans_masks(pts, k, np.random.default_rng(t))
            assert got.tobytes() == want.tobytes(), (m, t)


def test_kmeans_matches_mask_oracle_bytes_large():
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(20_000, 2)) * [1.0, 3.0]
    for k in (3, 16):
        got = _kmeans(pts, k, np.random.default_rng(k))
        assert got.tobytes() == kmeans_masks(pts, k, np.random.default_rng(k)).tobytes()


def test_kmeans_empty_clusters_reseed_like_oracle():
    # 12 distinct points for 16 clusters: Lloyd steps leave clusters empty and
    # the farthest-point reseeding, in ascending cluster order, refills them
    rng = np.random.default_rng(61)
    pts = np.repeat(rng.normal(size=(12, 3)), 5, axis=0)
    for seed in range(4):
        got = _kmeans(pts, 16, np.random.default_rng(seed))
        assert got.tobytes() == kmeans_masks(pts, 16, np.random.default_rng(seed)).tobytes()


class _ScriptedSeeds:
    """Stands in for the generator of k-means++: hands out the given point
    indices as seeds, in turn, whatever the seeding probabilities."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def integers(self, n):
        return next(self.picks)

    def choice(self, n, p=None):
        return next(self.picks)


def test_kmeans_reseeds_farthest_points_in_cluster_order():
    # three seeds on one location: the first Lloyd step leaves clusters 1 and
    # 2 empty while the other points are at distinct positive distances, so
    # the order of the reseeding and the zeroing of a used point both show
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [6.0, 0.5],
                    [10.0, 0.0], [10.0, 1.0], [20.0, 0.0], [21.0, 3.0]])
    for picks in ([0, 1, 2, 3], [3, 0, 1, 2], [0, 1, 2, 1, 4]):
        k = len(picks)
        got = _kmeans(pts, k, _ScriptedSeeds(picks))
        want = kmeans_masks(pts, k, _ScriptedSeeds(picks))
        assert got.tobytes() == want.tobytes(), picks


def test_kmeans_negative_zero_cluster_like_oracle():
    pts = np.array([[-0.0, 1.0], [-0.0, 1.5], [-0.0, 2.0], [5.0, 9.0], [6.0, 9.5]])
    got = _kmeans(pts, 2, np.random.default_rng(0))
    want = kmeans_masks(pts, 2, np.random.default_rng(0))
    assert got.tobytes() == want.tobytes()
    assert 0.0 in got[:, 0] and not np.signbit(got[:, 0]).any()


def test_kmeans_at_iteration_cap_like_oracle(monkeypatch):
    # a negative tolerance never converges, so both run KMEANS_MAX_ITER steps
    monkeypatch.setattr(tropalg.regression, "KMEANS_TOL", -1.0)
    rng = np.random.default_rng(67)
    for n in (2, 5):
        pts = rng.normal(size=(3000, n))
        got = _kmeans(pts, 16, np.random.default_rng(n))
        assert got.tobytes() == kmeans_masks(pts, 16, np.random.default_rng(n)).tobytes()


@pytest.mark.parametrize("n", [1, 8])
def test_kmeans_close_to_oracle_outside_exact_range(n):
    # at n = 1 the oracle's mean sums pairwise, and from n = 8 its distance
    # sum does too, while _kmeans sums in order: equal up to rounding only
    rng = np.random.default_rng(71 + n)
    for pts in _kmeans_inputs(rng, 2000, n)[:2]:
        got = _kmeans(pts, 16, np.random.default_rng(n))
        want = kmeans_masks(pts, 16, np.random.default_rng(n))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_kmeans_equidistant_lattice_like_oracle():
    # integer lattice points and starts on lattice points: many points lie
    # exactly midway between two centers, before and after the Lloyd steps,
    # so only the lowest-index tie rule decides them
    g = np.arange(8.0)
    pts = np.array([(a, b) for a in g for b in g])
    for picks in ([0, 2, 16, 18], [0, 4, 32, 36], [9, 11, 13, 27, 29, 31], [0, 63]):
        got = _kmeans(pts, len(picks), _ScriptedSeeds(picks))
        assert got.tobytes() == kmeans_masks(pts, len(picks), _ScriptedSeeds(picks)).tobytes(), picks
    for seed in range(6):
        for k in (4, 9):
            got = _kmeans(pts, k, np.random.default_rng(seed))
            assert got.tobytes() == kmeans_masks(pts, k, np.random.default_rng(seed)).tobytes()


def test_kmeans_long_moves_then_tiny_gaps_like_oracle():
    # centers start 1e4 away and travel to two mirrored clusters; probes at
    # (+-e, 0) sit between them, e down to 1e-300 and 0 (an exact tie), so
    # the bounds drift a long way and then have to resolve tiny gaps
    rng = np.random.default_rng(89)
    half = rng.normal(scale=0.1, size=(300, 2)) + [-1.0, 0.0]
    e = np.concatenate([[0.0], np.geomspace(1e-300, 1e-3, 30)])
    probes = np.column_stack([np.concatenate([e, -e]), np.zeros(2 * len(e))])
    far = rng.normal(scale=0.1, size=(100, 2)) + [1e4, 1e4]
    pts = np.vstack([half, -half, probes, far])
    start = len(pts) - len(far)
    for picks in ([start, start + 1, start + 2], [start, start + 1, 600], [start, 0, 300, start + 5]):
        got = _kmeans(pts, len(picks), _ScriptedSeeds(picks))
        assert got.tobytes() == kmeans_masks(pts, len(picks), _ScriptedSeeds(picks)).tobytes(), picks
    for seed in range(4):
        for k in (2, 3, 5):
            got = _kmeans(pts, k, np.random.default_rng(seed))
            assert got.tobytes() == kmeans_masks(pts, k, np.random.default_rng(seed)).tobytes()


def test_kmeans_sixteen_decades_like_oracle():
    # blobs from 1e-8 to 1e8 wide in one set: the bound slack is relative
    rng = np.random.default_rng(97)
    for n in (2, 3):
        blobs = [rng.normal(size=(150, n)) * 10.0**e + 10.0 ** (e + 1) * rng.normal(size=n)
                 for e in range(-8, 9, 2)]
        pts = rng.permutation(np.vstack(blobs))
        for k in (4, 16):
            got = _kmeans(pts, k, np.random.default_rng(k))
            assert got.tobytes() == kmeans_masks(pts, k, np.random.default_rng(k)).tobytes(), (n, k)


def test_kmeans_bounds_skip_most_distance_rows(monkeypatch):
    # the Lloyd steps recompute only the rows their bounds do not settle, so
    # far fewer than one full m x k pass per step (about 8% of them here)
    m, k = 20_000, 16
    rows, steps = [0], [0]
    sq_dist, centroids = tropalg.regression._sq_dist, tropalg.regression._centroids

    def counting_sq_dist(cols, centers, out, tmp):
        if len(centers) == k:
            rows[0] += len(out)
        return sq_dist(cols, centers, out, tmp)

    def counting_centroids(cols, assign, k):
        steps[0] += 1
        return centroids(cols, assign, k)

    monkeypatch.setattr(tropalg.regression, "_sq_dist", counting_sq_dist)
    monkeypatch.setattr(tropalg.regression, "_centroids", counting_centroids)
    pts = np.random.default_rng(59).normal(size=(m, 2)) * [1.0, 3.0]
    got = _kmeans(pts, k, np.random.default_rng(k))
    assert got.tobytes() == kmeans_masks(pts, k, np.random.default_rng(k)).tobytes()
    assert steps[0] > 10
    assert rows[0] < 0.5 * m * steps[0]


def test_kmeans_memory_is_two_m_by_k_buffers():
    m, k = 20_000, 16
    pts = np.random.default_rng(73).normal(size=(m, 2))
    tracemalloc.start()
    try:
        _kmeans(pts, k, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the m*k*n difference tensor and its square alone would be 2*m*k*n values
    assert peak < 3 * m * k * 8


def test_given_slopes_fit_holds_one_design():
    # the design is checked and adopted in place, and the solve's
    # matrix-vector products run in row slabs: a 2e5 x 16 fit peaked at
    # 59.4 MB while the design went through the copying TropicalMatrix
    # constructor, and must now stay at least one design size below that
    m, k = 200_000, 16
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (m, 2))
    f = np.max(x @ rng.normal(size=(k, 2)).T, axis=1)
    problem = FitProblem(x, f, GivenSlopes(rng.normal(size=(k, 2))))
    tracemalloc.start()
    try:
        fit_max_affine(problem, "mmae")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 59.4e6 - m * k * 8
