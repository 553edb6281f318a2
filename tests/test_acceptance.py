"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_hull_2d, maxplus_apply
from tropalg import (
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    AutoSlopes,
    FitProblem,
    GivenSlopes,
    TropicalMatrix,
    TropicalPolynomial,
    TropicalVector,
    estimate_slopes_1d,
    fit_line,
    fit_max_affine,
    matvec_dilate,
    matvec_erode,
    max_softmin,
    mmae_solution,
    newton_polytope,
    polytope_equal,
    polytope_join,
    polytope_minkowski_sum,
    soft_add,
    tropical_max,
    tropical_sum,
)

INF = float("inf")


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. noiseless tropical line recovery


def test_c01_noiseless_line_recovery():
    x = np.linspace(-1, 12, 200)
    f = np.maximum(x - 2, 3)
    fit_line(x, f, MAX_PLUS, "mmae")  # warm up
    worst_param = 0.0
    worst_resid = 0.0
    best_ms = INF
    for method in ("gle", "mmae"):
        elapsed = INF
        for _ in range(5):
            t0 = time.perf_counter()
            rep = fit_line(x, f, MAX_PLUS, method)
            elapsed = min(elapsed, time.perf_counter() - t0)
        best_ms = min(best_ms, elapsed * 1e3)
        worst_param = max(
            worst_param,
            abs(rep.model.intercepts[0] + 2.0),
            abs(rep.model.intercepts[1] - 3.0),
        )
        worst_resid = max(worst_resid, float(np.max(np.abs(rep.residuals))))
        ok = worst_param <= 1e-12 and worst_resid <= 1e-12 and elapsed < 10e-3
        assert ok, f"{method}: params off by {worst_param}, residual {worst_resid}, {elapsed*1e3:.2f} ms"
    report(
        "noiseless line recovery (a=-2, b=3, zero residual, <10 ms)",
        True,
        f"param err {worst_param:.1e}, residual {worst_resid:.1e}, {best_ms:.2f} ms",
    )


# ---------------------------------------------------------------------------
# 2. half-circle reproduction


def test_c02_half_circle():
    x = np.array([-5.5, -2.0, 1.5, 4.0, 6.5])
    y = 10.0 - np.sqrt(49.0 - x**2)
    slopes = np.arange(-3.0, 4.0)[:, None]
    prob = FitProblem(x[:, None], y, GivenSlopes(slopes))
    gle = fit_max_affine(prob, "gle")
    mmae = fit_max_affine(prob, "mmae")
    # the quantity defining the shift: 2*mu, the max-abs error of the
    # from-below fit; the centered fit achieves exactly half of it
    two_mu = gle.linf_error
    ok = 0.10 <= two_mu <= 0.14 and mmae.linf_error == pytest.approx(two_mu / 2, abs=1e-12)
    report(
        "half-circle, integer slopes -3..3: error 0.12 +/- 0.02",
        ok,
        f"2mu={two_mu:.4f}, centered linf={mmae.linf_error:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. hoburg benchmark function


def test_c03_hoburg_k6():
    x = np.linspace(-2.0, 2.0, 100)
    f = np.maximum.reduce([-6 * x - 6, x / 2, x**5 / 5 + x / 2])
    expected_slopes = np.array([-5.92, 0.64, 3.07, 6.43, 10.08, 14.11])
    slopes = estimate_slopes_1d(x, f, 6)
    slope_err = float(np.max(np.abs(np.sort(slopes) - expected_slopes)))
    prob = FitProblem(x[:, None], f, AutoSlopes(6, seed=0))
    gle = fit_max_affine(prob, "gle")
    mmae = fit_max_affine(prob, "mmae")
    targets = {
        "gle rms": (gle.rms_error, 0.0801),
        "gle linf": (gle.linf_error, 0.1932),
        "mmae rms": (mmae.rms_error, 0.0625),
        "mmae linf": (mmae.linf_error, 0.0966),
    }
    rels = {k: abs(got - want) / want for k, (got, want) in targets.items()}
    ok = slope_err <= 0.5 and all(r <= 0.25 for r in rels.values())
    report(
        "hoburg K=6: errors within 25%, slopes within 0.5",
        ok,
        f"max slope err {slope_err:.3f}, max rel err {max(rels.values()):.3f}",
    )


# ---------------------------------------------------------------------------
# 4. half-error identity + grid-search oracle


def _grid_oracle_min_linf(A, b, center, half_width, points_per_axis=201):
    """Smallest l_inf error over a cubic lattice of candidate solutions."""
    n = A.shape[1]
    axes = [center[j] + np.linspace(-half_width, half_width, points_per_axis) for j in range(n)]
    best = INF
    # slice along the first coordinate to bound memory; the max over the
    # other coordinates does not depend on the slice, so it is taken once
    rest = np.meshgrid(*axes[1:], indexing="ij")
    rest = np.column_stack([r.ravel() for r in rest]) if n > 1 else np.zeros((1, 0))
    tail = np.max(A[None, :, 1:] + rest[:, None, :], axis=2, initial=-INF)
    for c0 in axes[0]:
        proj = np.maximum(tail, A[:, 0] + c0)
        errs = np.max(np.abs(proj - b[None, :]), axis=1)
        best = min(best, float(errs.min()))
    return best


def test_c04_half_error_identity_and_grid_oracle():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    grid_checked = 0
    grid_ok = True
    for idx in range(1000):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 9))
        A = TropicalMatrix(rng.uniform(-10, 10, (m, n)), MAX_PLUS)
        b = TropicalVector(rng.uniform(-10, 10, m), MAX_PLUS)
        res = mmae_solution(A, b)
        gle_err = float(np.max(np.abs(res.residual_gle)))
        mmae_err = float(np.max(np.abs(res.residual_mmae)))
        worst_gap = max(worst_gap, abs(mmae_err - 0.5 * gle_err))
        if n == 3 and grid_checked < 3 and m >= 4:
            best = _grid_oracle_min_linf(
                A.values, b.values, res.x_tilde.values, max(1.0, 2.5 * res.mu)
            )
            grid_ok = grid_ok and best >= res.mu - 1e-9
            grid_checked += 1
    ok = worst_gap <= 1e-12 and grid_ok and grid_checked == 3
    report(
        "half-error identity on 1000 systems + 201^3 grid oracle",
        ok,
        f"worst |mmae - gle/2| = {worst_gap:.2e}, grid instances checked: {grid_checked}",
    )


# ---------------------------------------------------------------------------
# 5. adjunction law, scalar and vector


def test_c05_adjunction_scalar_and_vector():
    rng = np.random.default_rng(99)
    scalar_failures = 0
    cloda = [MAX_PLUS, MAX_TIMES, MAX_MIN, max_softmin(0.8)]
    for clodum in cloda:
        if clodum.kind == "max-min":
            a, v, w = rng.uniform(0, 1, (3, 10000))
        elif clodum.kind == "max-times":
            a, v, w = rng.uniform(0, 8, (3, 10000))
        else:
            a, v, w = rng.uniform(-8, 8, (3, 10000))
        lhs = np.asarray(clodum.mul(a, v)) <= w
        rhs = v <= np.asarray(clodum.adjoint_erosion(a, w))
        scalar_failures += int(np.sum(lhs != rhs))

    vector_failures = 0
    for clodum in cloda:
        for _ in range(250):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            if clodum.kind == "max-min":
                Av, xv, yv = rng.uniform(0, 1, (m, n)), rng.uniform(0, 1, n), rng.uniform(0, 1, m)
            elif clodum.kind == "max-times":
                Av, xv, yv = rng.uniform(0, 5, (m, n)), rng.uniform(0, 5, n), rng.uniform(0, 5, m)
            else:
                Av, xv, yv = rng.uniform(-5, 5, (m, n)), rng.uniform(-5, 5, n), rng.uniform(-5, 5, m)
            A = TropicalMatrix(Av, clodum)
            lhs = bool(np.all(matvec_dilate(A, TropicalVector(xv, clodum)).values <= yv))
            rhs = bool(np.all(xv <= matvec_erode(A, TropicalVector(yv, clodum)).values))
            vector_failures += int(lhs != rhs)
    ok = scalar_failures == 0 and vector_failures == 0
    report(
        "adjunction law: 10000 scalar triples x 4 cloda + 1000 matrix instances",
        ok,
        f"scalar failures {scalar_failures}, vector failures {vector_failures}",
    )


# ---------------------------------------------------------------------------
# 6. GLE maximality


def test_c06_gle_maximality():
    rng = np.random.default_rng(314)
    eps = 1e-6
    failures = 0
    for _ in range(1000):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 7))
        A = rng.uniform(-10, 10, (m, n))
        b = rng.uniform(-10, 10, m)
        x_hat = matvec_erode(TropicalMatrix(A, MAX_PLUS), TropicalVector(b, MAX_PLUS)).values
        if not np.all(maxplus_apply(A, x_hat) <= b + 1e-12):
            failures += 1
            continue
        for j in range(n):
            bumped = x_hat.copy()
            bumped[j] += eps
            if not np.any(maxplus_apply(A, bumped) > b):
                failures += 1
                break
    report("GLE maximality: subsolution + every binding column saturated", failures == 0,
           f"failures {failures}")


# ---------------------------------------------------------------------------
# 7. Newton polytope laws


def test_c07_newton_polytope_laws():
    rng = np.random.default_rng(555)
    failures = 0
    for _ in range(500):
        k1, k2 = rng.integers(2, 7, 2)
        p = TropicalPolynomial(rng.integers(-5, 6, (k1, 2)).astype(float),
                               rng.integers(-4, 5, k1).astype(float))
        q = TropicalPolynomial(rng.integers(-5, 6, (k2, 2)).astype(float),
                               rng.integers(-4, 5, k2).astype(float))
        np_p, np_q = newton_polytope(p), newton_polytope(q)
        join = polytope_join(np_p, np_q)
        union_ref = brute_hull_2d(np.vstack([p.slopes, q.slopes]))
        mink = polytope_minkowski_sum(np_p, np_q)
        sums_ref = brute_hull_2d((p.slopes[:, None, :] + q.slopes[None, :, :]).reshape(-1, 2))
        ok = (
            np.array_equal(join.hull_vertices, union_ref)
            and np.array_equal(mink.hull_vertices, sums_ref)
            and polytope_equal(newton_polytope(tropical_max(p, q)), join)
            and polytope_equal(newton_polytope(tropical_sum(p, q)), mink)
        )
        failures += int(not ok)
    report("Newton polytope laws on 500 integer polynomial pairs (exact)", failures == 0,
           f"failures {failures}")


# ---------------------------------------------------------------------------
# 8. dequantization bound


def test_c08_dequantization_bound():
    rng = np.random.default_rng(777)
    theta = rng.uniform(0.01, 5.0, 10000)
    a = rng.uniform(-50, 50, 10000)
    b = rng.uniform(-50, 50, 10000)
    gaps = np.array([soft_add(t, x, y) for t, x, y in zip(theta, a, b)]) - np.maximum(a, b)
    ok = bool(np.all(gaps >= 0.0) and np.all(gaps <= theta * math.log(2)))
    report("dequantization bound 0 <= soft_add - max <= theta*log 2 (10000 draws)", ok,
           f"gap range [{gaps.min():.2e}, {(gaps - theta*math.log(2)).max():.2e}+theta*log2]")


# ---------------------------------------------------------------------------
# 9. noisy experiments, statistical acceptance


def test_c09_noisy_experiments_statistics():
    # 1-D line with uniform noise, 50 seeded replications
    a_est, b_est, linfs = [], [], []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = np.linspace(-1, 12, 200)
        f = np.maximum(x - 2, 3) + rng.uniform(-0.5, 0.5, 200)
        rep = fit_line(x, f, MAX_PLUS, "mmae")
        a_est.append(float(rep.model.intercepts[0]))
        b_est.append(float(rep.model.intercepts[1]))
        linfs.append(rep.linf_error)
    line_ok = (
        abs(np.mean(linfs) - 0.494) <= 0.1
        and abs(np.mean(a_est) - (-2.0)) <= 0.15
        and abs(np.mean(b_est) - 3.0) <= 0.15
    )

    # 2-D paraboloid with Gaussian noise, K=25, 50 seeded replications
    surf_linfs = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(-1, 1, (500, 2))
        f = xy[:, 0] ** 2 + xy[:, 1] ** 2 + rng.normal(0, 0.25, 500)
        rep = fit_max_affine(FitProblem(xy, f, AutoSlopes(25, seed=seed)), "mmae")
        surf_linfs.append(rep.linf_error)
    surf_ok = abs(np.mean(surf_linfs) - 0.639) <= 0.15
    report(
        "noisy replications: line mean linf ~0.494, params ~(-2,3); surface mean linf ~0.639",
        line_ok and surf_ok,
        f"line linf {np.mean(linfs):.3f}, a {np.mean(a_est):.3f}, b {np.mean(b_est):.3f}; "
        f"surface linf {np.mean(surf_linfs):.3f}",
    )


# ---------------------------------------------------------------------------
# 10. complexity scaling


def test_c10_intercept_solve_scales_linearly():
    import gc

    from oracles import pin_allocator_thresholds

    pin_allocator_thresholds()
    rng = np.random.default_rng(4242)
    k, n = 4, 2
    m = 100_000
    slopes = GivenSlopes(rng.normal(0, 1, (k, n)))
    x2 = rng.uniform(-3, 3, (2 * m, n))
    f2 = np.max(x2 @ slopes.values.T, axis=1) + rng.normal(0, 0.1, 2 * m)

    def timed(rows):
        prob = FitProblem(x2[:rows], f2[:rows], slopes)
        times = []
        gc.disable()
        try:
            for _ in range(9):
                t0 = time.perf_counter()
                fit_max_affine(prob, "mmae")
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return float(np.min(times))

    ratios = []
    for _ in range(3):  # wall-clock noise on a shared box: allow retries
        timed(m // 10)
        timed(2 * m)  # warm both sizes' allocation pools
        ratio = timed(2 * m) / timed(m)
        ratios.append(ratio)
        if 1.4 <= ratio <= 2.6:
            break
    ok = any(1.4 <= r <= 2.6 for r in ratios)
    report(
        "intercept solve time scales ~2x when m doubles at 1e5 (within 30%)",
        ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )
