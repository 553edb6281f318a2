"""Max-affine regression: closed forms, slope estimation, fit invariants."""

import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import tropalg.regression
from oracles import gradients_per_neighbourhood, gradients_rank_pinv, jenks_breaks_dp, kmeans_masks, knn_brute
from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    AutoSlopes,
    CarrierError,
    Clodum,
    DimensionMismatchError,
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
from tropalg.regression import (
    _coordinate_slopes,
    _fit_terms,
    _gradient_pool,
    _gradients,
    _jenks_breaks,
    _kmeans,
    _knn,
    _rms,
    _sweep_fits,
)

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
    message = rf"^samples must be finite: sample 1 \(x = 1\.0\), f = {target!r}$"
    with pytest.raises(TropicalError, match=message) as info:
        fit_line([0.0, 1.0, 2.0], [0.0, target, 1.0], MAX_PLUS)
    assert type(info.value) is TropicalError


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
    # notes it in its result, the fit reports its inert term instead, and
    # neither raises a Python warning
    x = np.zeros(4)
    f = np.array([0.5, 2.0, 0.0, 1.0])
    design = TropicalMatrix(np.column_stack([x, np.ones(4)]), MAX_TIMES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(design, TropicalVector(f, MAX_TIMES))
        rep = fit_line(x, f, MAX_TIMES)
        clean = fit_line(x, f + 1.0, MAX_TIMES)
    assert res.notes == ("columns [0] of A are entirely bottom; solution components set to top",)
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


def test_fit_carrier_error_names_the_first_nan_sample():
    # the samples are checked before the carrier, so the NaN is named, not
    # the earlier value outside the carrier, whether it is in x or a target
    for x, f, text in (([-1.0, np.nan], [0.5, 0.5], r"x = nan\), f = 0\.5"),
                       ([-1.0, 0.5], [0.5, np.nan], r"x = 0\.5\), f = nan")):
        with pytest.raises(TropicalError, match=rf"^samples must be finite: sample 1 \({text}$") as info:
            fit_line(x, f, MAX_MIN)
        assert type(info.value) is TropicalError


@pytest.mark.parametrize("clodum, x, err, match", [
    (MAX_PLUS, [0.0, np.nan], TropicalError, r"^samples must be finite: sample 1 \(x = nan"),
    (MAX_TIMES, [1.0, -0.5], CarrierError, "max-times carrier"),
    (MAX_PLUS, [0.0, INF], TropicalError, r"^samples must be finite: sample 1 \(x = inf"),
], ids=["nan", "negative-max-times", "infinite"])
def test_fit_sample_errors(clodum, x, err, match):
    for fit, xs in ((fit_line, x), (fit_plane, np.column_stack([x, [1.0, 2.0]]))):
        with pytest.raises(TropicalError, match=match) as info:
            fit(xs, [1.0, 2.0], clodum)
        assert type(info.value) is err


def _entrances(x, f):
    """Every public way into a fit or a slope estimate of the samples (x, f),
    x being (m, 1) or (m, 2), as callables."""
    given = GivenSlopes(_coordinate_slopes(x.shape[1]))
    calls = [lambda: fit_max_affine(FitProblem(x, f, given)),
             lambda: fit_max_affine(FitProblem(x, f, given, MAX_MIN), "mmae"),
             lambda: fit_max_affine(FitProblem(x, f, AutoSlopes(2)), "mmae")]
    if x.shape[1] == 1:
        return calls + [lambda: fit_line(x[:, 0], f), lambda: estimate_slopes_1d(x[:, 0], f, 2)]
    return calls + [lambda: fit_plane(x, f), lambda: estimate_slopes_nd(x, f, 2)]


@pytest.mark.parametrize("dims", [1, 2])
@pytest.mark.parametrize("where", ["x", "f"])
@pytest.mark.parametrize("bad", [np.nan, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("i", [0, 7, 19])
def test_every_entrance_names_the_first_non_finite_sample(dims, where, bad, i):
    # one check of the samples, in FitProblem: each fit and each estimator
    # raises the same error naming sample i, whatever clodum or method
    x = np.linspace(-1.0, 1.0, 20 * dims).reshape(20, dims)
    f = np.square(x).sum(axis=1)
    (x[:, 0] if where == "x" else f)[i] = bad
    (x[:, 0] if where == "x" else f)[i + 1:] = bad  # later samples are not named
    coords = " ".join(repr(float(v)) for v in x[i])
    message = f"samples must be finite: sample {i} (x = {coords}), f = {float(f[i])!r}"
    for call in _entrances(x, f):
        with pytest.raises(TropicalError) as info:
            call()
        assert (type(info.value), str(info.value)) == (TropicalError, message)


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
    yield np.array([1.0, -INF, 2.0, INF, 2.0, 0.5, INF])


@pytest.mark.parametrize("pairs", [1, 5, 64, 256, 8192, tropalg.wlattice._SLAB_ELEMS])
def test_jenks_breaks_match_scalar_dp(pairs, monkeypatch):
    # block sizes down to one end index per block, and blocks narrower than
    # k (64 pairs at n = 17, 256 at n = 60), give the same breaks; so do
    # k = n and k = n - 1, where the first blocks end before layer k starts
    monkeypatch.setattr(tropalg.regression, "_SLAB_ELEMS", pairs)
    rng = np.random.default_rng(71)
    for vals in _jenks_inputs(rng):
        n = len(vals)
        ks = {1, 2, min(n, 6), n - 1, n} if n <= 60 else {1, 2, 6}
        for k in sorted(k for k in ks if 1 <= k <= n):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # means of infinite clusters
                got, expected = _jenks_breaks(vals, k), jenks_breaks_dp(vals, k)
            assert np.array_equal(got, expected, equal_nan=True), (n, k)


@pytest.mark.parametrize("k", [531, -531, 1000, -1000])
def test_jenks_breaks_scale_by_powers_of_two(k):
    # the DP squares its values scaled into (-1, 1), so values whose squares
    # overflow (2^531 is about 1e160) or underflow give the scalar DP's
    # breaks of the unscaled values, scaled
    vals = np.random.default_rng(3).normal(size=40)
    for c in (1, 2, 6, 40):
        assert _jenks_breaks(np.ldexp(vals, k), c).tobytes() == np.ldexp(jenks_breaks_dp(vals, c), k).tobytes()


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


@pytest.mark.parametrize("pairs", [500, 8192, tropalg.wlattice._SLAB_ELEMS])
def test_jenks_breaks_compute_each_sse_once(pairs, monkeypatch):
    # every (split, end) cost is computed at most once per DP, whatever the
    # cluster count: the triangle i <= j once, plus the i > j corner of each
    # block, at most (width - 1) / 2 entries per end
    monkeypatch.setattr(tropalg.regression, "_SLAB_ELEMS", pairs)
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


def _knn_points(kind, m, n, rng):
    """m points in n-D of one kind, scaled by a power of two into (-1, 1) as
    the gradient pool scales them."""
    x = rng.uniform(-1, 1, (m, n))
    if kind == "copies":  # as in CI's dup.csv
        x[:12] = x[0]
    elif kind == "lattice":  # every distance ties with others
        side = int(np.ceil(m ** (1 / n)))
        x = np.array(np.unravel_index(np.arange(m), (side,) * n), dtype=float).T
    elif kind == "collinear":
        x = x[:, :1] * rng.uniform(-1, 1, n) + rng.uniform(-1, 1, n)
    elif kind == "constant":  # one coordinate of zero span
        x[:, 0] = 0.3
    elif kind == "one-cell":  # all but the last point in one cell
        x = 0.25 + x * 1e-6
        x[-1] = -0.9
    elif kind == "normal":  # dense middle, sparse tails
        x = rng.normal(size=(m, n))
    elif kind == "disc":  # uniform in the unit ball
        x = rng.normal(size=(m, n))
        x *= rng.uniform(0, 1, (m, 1)) ** (1 / n) / np.linalg.norm(x, axis=1, keepdims=True)
    elif kind == "clusters":  # two tight clusters, each in a few cells
        x = x[:2][rng.integers(2, size=m)] + rng.normal(0, 3e-3, (m, n))
    elif kind in ("2^60", "2^-60"):
        x = np.ldexp(x, int(kind[2:]))
    return np.ldexp(x, -int(np.frexp(np.abs(x).max())[1]))


@pytest.mark.parametrize("kind", ["uniform", "copies", "lattice", "collinear", "constant", "one-cell",
                                  "normal", "disc", "clusters", "2^60", "2^-60"])
@pytest.mark.parametrize("n", [2])
def test_knn_equals_brute_force_and_tree(n, kind):
    # exact neighbours in (squared distance, index) order, at m = k, where no
    # candidate is left over, up to 2000 points, where a block of the
    # clusters holds about half of them; where no two distances from a point
    # tie, they are also cKDTree's
    from scipy.spatial import cKDTree

    k = 8
    rng = np.random.default_rng(100 * n + len(kind))
    for m in (k, k + 1, 3 * k, 2000):
        xs = _knn_points(kind, m, n, rng)
        got = _knn(xs, k)
        assert np.array_equal(got, knn_brute(xs, k)), m
        if kind not in ("copies", "lattice"):
            assert np.array_equal(got, cKDTree(xs).query(xs, k=k)[1]), m


@pytest.mark.parametrize("lift", [0, 1])
def test_knn_leaves_a_tie_on_the_block_face_uncertified(lift):
    # 105 lattice points numbered downward, on either coordinate, the other
    # constant: the grid over the 1st to 99th percentile, [1, 103] in 26
    # cells, has a face on the point 52, so some row's k-th distance equals
    # its margin, and the point on the face, just outside its block, wins
    # that tie on its lower index; certifying at k-th <= margin^2 gets those
    # rows wrong.
    t = np.insert(np.full((105, 1), 3.0), lift, np.arange(105.0)[::-1], axis=1)
    xs = np.ldexp(t, -7)
    assert np.array_equal(_knn(xs, 8), knn_brute(xs, 8))


@pytest.mark.parametrize("slab", [16, 100])
def test_knn_in_slabs_of_one_row(monkeypatch, slab):
    # blocks larger than a slab run one row at a time
    monkeypatch.setattr(tropalg.regression, "_SLAB_ELEMS", slab)
    rng = np.random.default_rng(slab)
    for kind in ("uniform", "normal", "lattice", "one-cell"):
        xs = _knn_points(kind, 300, 2, rng)
        assert np.array_equal(_knn(xs, 8), knn_brute(xs, 8)), kind


def test_the_pool_gives_the_grid_up_past_its_budget(monkeypatch):
    # uniform 2-D samples stay within the grid's candidate budget; two tight
    # clusters overrun it at the first count, before any distance, and the
    # pool then takes cKDTree's neighbours, as it does for n >= 3.  Either
    # way the gradients are those of the exact neighbours (no distance ties)
    from scipy.spatial import cKDTree

    slabs, by_grid = [], []
    knn, nearest = tropalg.regression._knn, tropalg.regression._nearest

    def counted(*args):
        slabs.append(len(args[2]))
        return nearest(*args)

    def served(*args):
        idx = knn(*args)
        by_grid.append(idx is not None)
        return idx

    monkeypatch.setattr(tropalg.regression, "_nearest", counted)
    monkeypatch.setattr(tropalg.regression, "_knn", served)
    rng = np.random.default_rng(31)
    m = 3000
    clusters = rng.uniform(-1, 1, (2, 2))[rng.integers(2, size=m)] + rng.normal(0, 3e-3, (m, 2))
    for x, grid in ((rng.uniform(-1, 1, (m, 2)), True), (clusters, False)):
        slabs.clear()
        by_grid.clear()
        f = np.abs(x).sum(axis=1)
        got, notes = _gradient_pool(x, f)
        assert by_grid == [grid] and bool(slabs) == grid and notes == ()
        e = int(np.frexp(np.abs(x).max())[1])
        xs = np.ldexp(x, -e)
        idx = cKDTree(xs).query(xs, k=8)[1]
        good, beta = gradients_per_neighbourhood(xs[idx] - xs[:, None, :], f[idx])
        assert good.all() and np.array_equal(got, np.ldexp(beta, -e))


def _centred_offsets(rng, count, rows, cols, smallest):
    """Neighbour offsets (count, rows, cols), each a translate of a centred
    set whose singular values are 1, cols - 2 draws in [0.5, 1] and
    ``smallest`` (one per neighbourhood)."""
    basis = rng.normal(size=(count, rows, cols))
    left = np.linalg.qr(basis - basis.mean(axis=1, keepdims=True))[0]
    right = np.linalg.qr(rng.normal(size=(count, cols, cols)))[0]
    s = np.ones((count, cols))
    s[:, 1:-1] = rng.uniform(0.5, 1.0, (count, cols - 2))
    s[:, -1] = smallest
    return (left * s[:, None, :]) @ right + rng.normal(size=(count, 1, cols))


def test_gradients_match_per_neighbourhood_oracle_bytes():
    # smallest singular values from 10^-2 to 10^2 times 2^-20, the square
    # root of the rank rule lambda_min > 2^-40 lambda_max
    rng = np.random.default_rng(79)
    for rows, cols in ((8, 2), (8, 3), (8, 5), (9, 7)):
        for scale in (1e-100, 1.0, 1e100):
            offsets = _centred_offsets(rng, 400, rows, cols, 2.0**-20 * np.geomspace(1e-2, 1e2, 400)) * scale
            values = rng.normal(size=(400, rows))
            good, beta = _gradients(offsets, values)
            want_good, want_beta = gradients_per_neighbourhood(offsets, values)
            assert 0 < want_good.sum() < len(want_good)
            assert np.array_equal(good, want_good), (rows, cols, scale)
            assert beta.tobytes() == want_beta.tobytes(), (rows, cols, scale)


def test_gradients_close_to_rank_pinv_oracle_when_well_conditioned():
    # the slopes of the former pinv fit over the design [offsets, 1], to
    # within 1e-12 of each neighbourhood's largest slope
    rng = np.random.default_rng(80)
    for rows, cols in ((8, 2), (8, 3), (8, 5), (9, 7)):
        offsets = _centred_offsets(rng, 400, rows, cols, rng.uniform(0.5, 1.0, 400))
        values = rng.normal(size=(400, rows))
        good, beta = _gradients(offsets, values)
        want_good, want_beta = gradients_rank_pinv(
            np.concatenate([offsets, np.ones((400, rows, 1))], axis=2), values)
        assert good.all() and want_good.all()
        want = want_beta[:, :cols]
        assert (np.abs(beta - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)).all(), (rows, cols)


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


def _slopes_nd_oracle(x, f, count, seed):
    """The n-D estimator from its oracles: k-NN offsets on x scaled by a power
    of two into (-1, 1), the per-neighbourhood gradients and mask-based
    k-means; returns (kept mask, slopes)."""
    from scipy.spatial import cKDTree

    m, n = x.shape
    k_nn = min(max(n + 2, 8), m)
    e = int(np.frexp(np.abs(x).max())[1])
    xs = np.ldexp(x, -e)
    idx = cKDTree(xs).query(xs, k=k_nn)[1]
    good, beta = gradients_per_neighbourhood(xs[idx] - xs[:, None, :], f[idx])
    return good, kmeans_masks(np.ldexp(beta, -e), count, np.random.default_rng(seed))


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
    # duplicates (rank 1) and collinear points (rank 2) are skipped, the rest
    # kept: the former mask exactly, and slopes within 4 ulp of the former ones
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    former_good, former = _slopes_nd_former(x, f, 4, 5)
    good, want = _slopes_nd_oracle(x, f, 4, 5)
    assert (~former_good).sum() == 22
    assert np.array_equal(good, former_good)
    with pytest.warns(UserWarning, match=r"^skipped 22 samples with rank-deficient neighbourhoods$"):
        got = estimate_slopes_nd(x, f, 4, seed=5)
    assert got.tobytes() == want.tobytes()
    assert np.abs(got - former).max() <= 4 * np.spacing(np.abs(former).max())


def test_fit_reports_carry_the_skipped_neighbourhoods():
    # the estimate's note leads the report's warnings, in a single fit and in
    # every fit of a sweep, and no Python warning is raised
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    problem = FitProblem(x, f, AutoSlopes(4, 5))
    message = "skipped 22 samples with rank-deficient neighbourhoods"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_max_affine(problem)
        sweep = list(_sweep_fits(problem, "gle", range(4, 7)))
    assert report.warnings[0] == message
    assert [rep.warnings[0] for rep in sweep] == [message] * 3
    assert sweep[0].model.slopes.tobytes() == report.model.slopes.tobytes()


def test_estimate_slopes_nd_warns_at_the_callers_line():
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    with pytest.warns(UserWarning, match=r"^skipped 22 samples with rank-deficient neighbourhoods$") as caught:
        estimate_slopes_nd(x, f, 4, seed=5)
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, 2.0, "3", None])
def test_slope_seed_must_be_a_non_negative_integer(seed):
    message = f"^the seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(TropicalError, match=message) as info:
        AutoSlopes(2, seed)
    assert type(info.value) is TropicalError
    x = np.random.default_rng(3).uniform(-1, 1, (20, 2))
    with pytest.raises(TropicalError, match=message) as info:
        estimate_slopes_nd(x, np.abs(x).sum(axis=1), 2, seed=seed)
    assert type(info.value) is TropicalError


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
    # holds its own note and nothing of that thread's warning, the warning
    # reaches that thread, and the fit raises none
    x, f = _partly_degenerate_samples(np.random.default_rng(83), ())
    inside, warned = threading.Event(), threading.Event()
    kmeans = tropalg.regression._kmeans
    raised = []

    def waiting_kmeans(*args):
        inside.set()
        assert warned.wait(30)
        return kmeans(*args)

    def other_thread():
        assert inside.wait(30)
        try:
            warnings.warn("a warning of another thread")
        except UserWarning as exc:
            raised.append(str(exc))
        warned.set()

    monkeypatch.setattr(tropalg.regression, "_kmeans", waiting_kmeans)
    thread = threading.Thread(target=other_thread)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thread.start()
        try:
            report = fit_max_affine(FitProblem(x, f, AutoSlopes(4, 5)))
        finally:
            inside.set()  # the other thread never waits for a fit that failed
            thread.join(30)
    assert not thread.is_alive()
    assert report.warnings == ("skipped 22 samples with rank-deficient neighbourhoods",)
    assert raised == ["a warning of another thread"]


def test_estimate_slopes_nd_near_rank_tolerance_like_svd_oracle():
    # nearly collinear groups whose centred neighbourhoods have
    # (s_min / s_max)^2 from about 2^-55 to 2^-28, around the rank rule
    # lambda_min > 2^-40 lambda_max; the mask is the verdict of the exact
    # singular values, except in groups within 2x of the rule, left out
    from scipy.spatial import cKDTree

    scales = 2.0**-20 * np.geomspace(1e-3, 1e1, 24)
    x, f = _partly_degenerate_samples(np.random.default_rng(89), scales)
    good, want = _slopes_nd_oracle(x, f, 4, 6)
    offsets = x[cKDTree(x).query(x, k=8)[1]]
    s = np.linalg.svd(offsets - offsets.mean(axis=1, keepdims=True), compute_uv=False)
    with np.errstate(invalid="ignore"):  # 0 / 0 at the duplicates
        margin = (s[:, -1] / s[:, 0]) ** 2 / 2.0**-40
    group = np.r_[np.full(172, -1), np.repeat(np.arange(len(scales)), 9)]
    near = np.isin(group, group[(margin > 0.5) & (margin < 2)])
    assert 0 < near.sum() < 9 * len(scales) // 4
    assert np.array_equal(good[~near], margin[~near] > 1)
    skipped = int((~good).sum())
    assert 22 < skipped < 22 + 9 * len(scales)
    with pytest.warns(UserWarning, match=rf"^skipped {skipped} samples with"):
        got = estimate_slopes_nd(x, f, 4, seed=6)
    assert got.tobytes() == want.tobytes()


def test_estimate_slopes_nd_fits_widely_spread_coordinates():
    # x is scaled by a power of two into (-1, 1) before the neighbours are
    # queried, so neighbours more than ~1.3e154 apart, whose squared distances
    # overflow, are found, and x and f scaled by 2^600 give the same slopes
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (300, 2))
    f = np.log(np.exp(x).sum(axis=1) + np.exp(-x[:, 0]))
    want = estimate_slopes_nd(x, f, 5, seed=1)
    got = estimate_slopes_nd(np.ldexp(x, 600), np.ldexp(f, 600), 5, seed=1)
    assert np.array_equal(got, want)
    wide = rng.uniform(-1, 1, (30, 2)) * 1.5e308  # neighbours up to 3e308 apart
    assert np.array_equal(estimate_slopes_nd(wide, wide[:, 0] * 0.0, 3), np.zeros((3, 2)))


@pytest.mark.parametrize("a, b", [(50, 50), (-50, -50), (60, 60), (-60, -60), (600, 600),
                                  (10, 0), (-40, 3), (0, 50), (0, -50), (30, -30),
                                  (0, 990), (0, -1000), (-700, 300)])
def test_nd_slopes_scale_by_powers_of_two(a, b):
    # fitting (2^a x, 2^b f) gives 2^(b - a) times the gradients and slopes,
    # bit for bit
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (300, 2))
    f = np.log(np.exp(x).sum(axis=1) + np.exp(-x[:, 0])) + rng.uniform(-0.02, 0.02, 300)
    xa, fb = np.ldexp(x, a), np.ldexp(f, b)
    pool, notes = _gradient_pool(x, f)
    scaled, scaled_notes = _gradient_pool(xa, fb)
    assert scaled.tobytes() == np.ldexp(pool, b - a).tobytes()
    assert scaled_notes == notes
    want = fit_max_affine(FitProblem(x, f, AutoSlopes(8, 3))).model.slopes
    got = fit_max_affine(FitProblem(xa, fb, AutoSlopes(8, 3))).model.slopes
    assert got.tobytes() == np.ldexp(want, b - a).tobytes()


@pytest.mark.parametrize("a, b", [(0, 600), (0, -600), (600, 0), (-600, 0), (-500, 500), (300, 300), (0, 60)])
def test_1d_fits_scale_by_powers_of_two(a, b):
    # fitting (2^a x, 2^b f) gives 2^(b - a) times the slopes, 2^b times the
    # residual rms, and a least-squares line scaled by (2^(b - a), 2^b), bit
    # for bit: every stage squares values scaled into (-1, 1)
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 400)
    f = np.maximum.reduce([-3 * x, x, 4 * x - 1.5]) + rng.uniform(-0.01, 0.01, 400)
    xa, fb = np.ldexp(x, a), np.ldexp(f, b)
    for method in ("gle", "mmae"):
        want = fit_max_affine(FitProblem(x, f, AutoSlopes(3)), method)
        got = fit_max_affine(FitProblem(xa, fb, AutoSlopes(3)), method)
        assert got.model.slopes.tobytes() == np.ldexp(want.model.slopes, b - a).tobytes()
        assert (got.rms_error, got.linf_error) == (np.ldexp(want.rms_error, b), np.ldexp(want.linf_error, b))
    slope, intercept = least_squares_line(x, f)
    assert least_squares_line(xa, fb) == (np.ldexp(slope, b - a), np.ldexp(intercept, b))


def test_rms_scales_tiny_and_huge_residuals():
    # squares of residuals near 1e-200 underflow, near 1e200 they overflow
    for scale in (1e-200, 1e200):
        assert _rms(np.array([1.0, -1.0, 3.0]) * scale) == pytest.approx(np.sqrt(11 / 3) * scale, rel=1e-15, abs=0)
    assert _rms(np.zeros(3)) == 0.0
    # the finite residuals are scaled beside an infinite one, so none of
    # their squares overflows (a RuntimeWarning here)
    assert _rms(np.array([INF, 1e200])) == INF


def test_estimate_slopes_nd_overflowing_gradients_name_the_sample():
    x = np.random.default_rng(0).uniform(-1, 1, (30, 2))
    f = np.where(np.arange(30) % 2, 1.7e308, -1.7e308)
    with pytest.raises(TropicalError, match=r"gradient at sample \d+ \(x = .*\) overflows"):
        estimate_slopes_nd(x, f, 3)
    # finite gradients whose unscaled squared distances would overflow are
    # clustered from their copies scaled into (-1, 1)
    np.testing.assert_allclose(estimate_slopes_nd(x, 1e300 * x[:, 0], 3), [[1e300, 0.0]] * 3, rtol=1e-12, atol=1e286)
    with pytest.raises(TropicalError, match="overflows"):
        fit_max_affine(FitProblem(x, f, AutoSlopes(3)))
    # gradients that overflow only when scaled back from x * 2^shift
    with pytest.raises(TropicalError, match=r"gradient at sample \d+ \(x = .*\) overflows"):
        estimate_slopes_nd(x * 1e-300, np.abs(x).sum(axis=1) * 1e300, 3)


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
    # beyond about 1e154 the sums of squares overflow unless x is scaled first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = least_squares_line([1e300, -1e300, 0.0], [1.0, 2.0, 3.0])
    assert a == pytest.approx(-5e-301, rel=1e-15) and b == 2.0
    # non-finite samples give NaN, with no RuntimeWarning
    assert np.isnan(least_squares_line([1.0, INF, 2.0], [1.0, 2.0, 3.0])).all()
    # near 1e-170 the squares underflow unless x and f are scaled first
    a, b = least_squares_line(x * 1e-170, f * 1e-170)
    assert a == pytest.approx(2.0, rel=1e-15) and b == pytest.approx(1e-170, rel=1e-15, abs=0)


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
    # the gradient pool of a 2-D fit: 5000 samples of a four-term log-sum-exp
    # with noise of +-0.02, as the fit-2d benchmark clusters it
    rng = np.random.default_rng(77)
    x = rng.uniform(-2.0, 2.0, size=(5000, 2))
    planes = [x[:, 0], x[:, 1], -x[:, 0] - x[:, 1], 0.5 * x[:, 0] - x[:, 1]]
    f = np.logaddexp.reduce(planes, axis=0) + rng.uniform(-0.02, 0.02, size=5000)
    pool = _gradient_pool(x, f)[0]
    for seed in range(4):
        got = _kmeans(pool, 16, np.random.default_rng(seed))
        assert got.tobytes() == kmeans_masks(pool, 16, np.random.default_rng(seed)).tobytes(), seed


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
    # far fewer than one full m x k pass per step (about 14% of them here)
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


# ---------------------------------------------------------------------------
# public refusals: the exception type and the whole message


def _plane_problem(slopes):
    x = np.random.default_rng(0).uniform(-1, 1, (12, 2))
    return FitProblem(x, np.abs(x).sum(axis=1), GivenSlopes(slopes))


@pytest.mark.parametrize("call, error, message", [
    (lambda: GivenSlopes(np.zeros((2, 2, 2))), DimensionMismatchError,
     "slopes must form a (terms, dimension) array"),
    (lambda: GivenSlopes(np.zeros((0, 2))), DimensionMismatchError, "slopes must form a (terms, dimension) array"),
    (lambda: GivenSlopes([[1.0], [INF]]), TropicalError, "slope vectors must be finite"),
    (lambda: FitProblem(np.zeros((3, 2)), np.zeros(4), AutoSlopes(1)), DimensionMismatchError,
     "inputs must be (m, n) with one target per sample"),
    (lambda: FitProblem(np.zeros((0, 2)), np.zeros(0), AutoSlopes(1)), TropicalError, "need at least one sample"),
    (lambda: fit_max_affine(_plane_problem(_coordinate_slopes(2)), "lsq"), ValueError, "unknown method 'lsq'"),
    (lambda: fit_max_affine(_plane_problem(np.ones((2, 3)))), DimensionMismatchError,
     "slope vectors and samples disagree on dimension"),
    (lambda: fit_line([1.0, 2.0], [1.0]), DimensionMismatchError, "x and f must be equal-length non-empty vectors"),
    (lambda: fit_plane(np.zeros((3, 3)), np.zeros(3)), DimensionMismatchError,
     "xy must be (m, 2) with one target per sample"),
    (lambda: estimate_slopes_nd(np.arange(5.0), np.arange(5.0), 2), DimensionMismatchError,
     "x must be (m, n) with one target per sample"),
], ids=["slopes-3d", "slopes-empty", "slopes-inf", "problem-shape", "problem-empty", "method", "slope-width",
        "line-shape", "plane-shape", "nd-of-1d"])
def test_regression_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_vector_slopes_sample_count_and_constant_x_line():
    # a 1-D slope vector is one slope per term; constant x has no slope
    assert GivenSlopes([1.0, -2.0]).values.tolist() == [[1.0], [-2.0]]
    assert _plane_problem(np.ones((1, 2))).num_samples == 12
    assert least_squares_line([2.0, 2.0, 2.0], [1.0, 2.0, 6.0]) == (0.0, 3.0)


def test_constant_x_line_takes_the_mean_of_scaled_f():
    # the mean of f is taken of f scaled into (-1, 1), as the sums are: near
    # the largest float the unscaled sum overflowed to an inf intercept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert least_squares_line([2.0, 2.0, 2.0], [1.5e308] * 3) == (0.0, 1.5e308)
