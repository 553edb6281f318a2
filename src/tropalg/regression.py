"""Convex piecewise-linear regression with max-affine models.

Fitting happens in two stages: slope vectors are either supplied or estimated
by clustering numerical derivatives (1-D uses natural-breaks clustering of
finite differences, higher dimensions cluster local least-squares gradients
with seeded k-means), and then the optimal intercepts come in closed form
as the solution of the design system X (*) b = f, where column k of X is
term k before its intercept: X is built by the same routine that evaluates
the fitted polynomial.  Line, plane and max-affine fits all solve it
through the same GLE -> mu -> MMAE routine as ``tropalg.solver.solve``: the
GLE fit touches the data from below and minimizes every l_p residual norm
among from-below fits, while the MMAE fit (max-plus) shifts it up by half
its l_inf error, reaching the unconstrained l_inf optimum.  Tropical line
and plane fits are provided for every supported clodum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clodum import MAX_PLUS, Clodum, TropicalError, UnsupportedClodumError
from .solver import _solve_checked
from .tropgeom import TropicalPolynomial, _term_design
from .wlattice import DimensionMismatchError, TropicalMatrix, TropicalVector

__all__ = [
    "GivenSlopes",
    "AutoSlopes",
    "FitProblem",
    "FitReport",
    "fit_line",
    "fit_plane",
    "fit_max_affine",
    "estimate_slopes_1d",
    "estimate_slopes_nd",
    "least_squares_line",
]

_INF = float("inf")

KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9

# candidate (split, end) pairs per temporary array of the natural-breaks DP
_JENKS_PAIRS = 8192


@dataclass(frozen=True)
class GivenSlopes:
    """Use these slope vectors as supplied."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 1:
            raise DimensionMismatchError("slopes must form a (terms, dimension) array")
        if not np.isfinite(vals).all():
            raise TropicalError("slope vectors must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class AutoSlopes:
    """Estimate ``count`` slope vectors from the data derivatives."""

    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise TropicalError("slope count must be >= 1")


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Samples (x_i, f_i), the clodum to fit over, and the slope policy."""

    inputs: np.ndarray
    targets: np.ndarray
    slopes: GivenSlopes | AutoSlopes
    clodum: Clodum = MAX_PLUS

    def __post_init__(self) -> None:
        x = np.asarray(self.inputs, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        f = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or f.ndim != 1 or x.shape[0] != f.shape[0]:
            raise DimensionMismatchError("inputs must be (m, n) with one target per sample")
        if x.shape[0] < 1:
            raise TropicalError("need at least one sample")
        if not np.isfinite(x).all() or not np.isfinite(f).all():
            raise TropicalError("samples must be finite")
        if isinstance(self.slopes, AutoSlopes) and self.slopes.count > x.shape[0]:
            raise TropicalError("cannot estimate more slopes than samples")
        x = x.copy()
        f = f.copy()
        x.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", f)

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fitted model with its residual statistics.

    GLE reports have all residuals >= 0 (the model touches the data from
    below); max-plus MMAE reports have exactly half the GLE l_inf error.
    """

    model: TropicalPolynomial
    method: str
    rms_error: float
    linf_error: float
    residuals: np.ndarray
    slope_source: str
    warnings: tuple[str, ...] = ()


def _check_method(method: str, clodum: Clodum) -> None:
    if method not in ("gle", "mmae"):
        raise ValueError(f"unknown method {method!r}")
    if method == "mmae" and clodum != MAX_PLUS:
        raise UnsupportedClodumError(
            f"the MMAE fit is only l_inf-optimal over max-plus, not {clodum.spec_string()}"
        )


def _fit_terms(x: np.ndarray, f: np.ndarray, slopes: np.ndarray, clodum: Clodum,
               method: str, source: str) -> FitReport:
    """Optimal intercepts for max-affine terms with these slope rows.

    The design matrix is the model's own term table at the samples, so the
    intercepts are the x_hat/x_tilde of the design system.  Building it is the
    one carrier check of the samples; the finiteness checks follow, so NaN and
    out-of-carrier values raise :class:`CarrierError` first.
    """
    _check_method(method, clodum)
    design = TropicalMatrix(_term_design(x, slopes, clodum.unit), clodum)
    target = TropicalVector(f, clodum)
    if not np.isfinite(f).all():
        raise TropicalError("target values must be finite")
    if not np.isfinite(x).all():
        raise TropicalError("evaluation points must be finite")
    sol = _solve_checked(design, target, method)
    if method == "mmae":
        intercepts, res = sol.x_tilde.values, sol.residual_mmae
    else:
        intercepts, res = sol.x_hat.values, sol.residual_gle
    model = TropicalPolynomial(slopes, intercepts, clodum, "max")
    inert = np.flatnonzero(model.inert_mask).tolist()
    return FitReport(
        model=model,
        method=method,
        rms_error=float(np.sqrt(np.mean(res**2))),
        linf_error=float(np.max(np.abs(res))),
        residuals=res,
        slope_source=source,
        warnings=(f"terms {inert} received a bottom intercept and are inert",) if inert else (),
    )


def fit_line(x, f, clodum: Clodum = MAX_PLUS, method: str = "gle") -> FitReport:
    """Closed-form fit of the tropical line max(mul(a, x), b) to 1-D data.

    The design system has columns x and unit, so the GLE parameters are
    a = inf_i adjoint_erosion(x_i, f_i) and b = inf_i f_i for every clodum;
    MMAE (max-plus only) shifts both up by half the GLE l_inf error.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.shape != f.shape or len(x) < 1:
        raise DimensionMismatchError("x and f must be equal-length non-empty vectors")
    return _fit_terms(x[:, None], f, np.array([[1.0], [0.0]]), clodum, method, "given")


def fit_plane(xy, f, clodum: Clodum = MAX_PLUS, method: str = "gle") -> FitReport:
    """Closed-form fit of max(mul(a, x), mul(b, y), c) to 2-D data."""
    xy = np.asarray(xy, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] != len(f) or len(f) < 1:
        raise DimensionMismatchError("xy must be (m, 2) with one target per sample")
    slopes = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return _fit_terms(xy, f, slopes, clodum, method, "given")


def fit_max_affine(problem: FitProblem, method: str = "gle") -> FitReport:
    """Fit a K-term max-affine model with optimal intercepts.

    With slopes a_k resolved, the design matrix X_ik = a_k . x_i turns the
    fit into the max-plus system X (*) b = f whose GLE solution is
    b_k = inf_i (f_i - X_ik); the whole intercept solve is one pass over the
    data, O(K m n).  MMAE adds half the GLE l_inf error to every intercept.
    """
    if problem.clodum != MAX_PLUS:
        raise UnsupportedClodumError(
            "fit_max_affine composes general slope vectors and needs max-plus; "
            "use fit_line/fit_plane for other cloda"
        )
    _check_method(method, problem.clodum)
    if isinstance(problem.slopes, GivenSlopes):
        slopes = problem.slopes.values
        source = "given"
        if slopes.shape[1] != problem.dimension:
            raise DimensionMismatchError("slope vectors and samples disagree on dimension")
    elif problem.dimension == 1:
        slopes = estimate_slopes_1d(
            problem.inputs[:, 0], problem.targets, problem.slopes.count, problem.slopes.seed
        )[:, None]
        source = "jenks"
    else:
        slopes = estimate_slopes_nd(
            problem.inputs, problem.targets, problem.slopes.count, problem.slopes.seed
        )
        source = "kmeans"
    return _fit_terms(problem.inputs, problem.targets, slopes, MAX_PLUS, method, source)


# ---------------------------------------------------------------------------
# slope estimation


def _numerical_derivatives(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Slopes of consecutive sorted samples (one-sided finite differences)."""
    order = np.argsort(x, kind="stable")
    xs, fs = x[order], f[order]
    if len(xs) < 2:
        raise TropicalError("need at least two samples to estimate derivatives")
    dx = np.diff(xs)
    keep = dx > 0  # duplicated abscissae carry no finite-difference information
    if not keep.any():
        raise TropicalError("all abscissae coincide; derivatives are undefined")
    with np.errstate(over="ignore"):
        derivs = np.diff(fs)[keep] / dx[keep]
    if not np.isfinite(derivs).all():
        i = np.flatnonzero(keep)[np.argmax(~np.isfinite(derivs))]
        a, b = sorted(order[i:i + 2].tolist())
        raise TropicalError(
            f"the finite-difference slope between samples {a} and {b} "
            f"(x = {float(x[a])!r}, {float(x[b])!r}) overflows"
        )
    return derivs


def _jenks_breaks(values: np.ndarray, k: int) -> np.ndarray:
    """Exact natural-breaks clustering of 1-D data (dynamic programming).

    Minimizes the total within-cluster sum of squared deviations over
    contiguous partitions of the sorted values; ties pick the lower break
    index.  Returns the k cluster means in ascending order.

    The DP does O(k n^2) work, vectorised over the split candidate and a block
    of cluster ends; each temporary holds at most ``_JENKS_PAIRS`` candidate
    pairs, so extra memory is O(k n) for the cost and split tables, never
    O(n^2).
    """
    v = np.sort(values)
    n = len(v)
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v**2)])

    def sse(i, j):
        cnt = j - i + 1
        s = s1[j + 1] - s1[i]
        return np.maximum((s2[j + 1] - s2[i]) - s * s / cnt, 0.0)

    cost = np.full((k + 1, n), _INF)
    split = np.zeros((k + 1, n), dtype=int)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cost[1] = sse(0, np.arange(n))
        for c in range(2, k + 1):
            starts = np.arange(c - 1, n)[:, None]
            width = max(1, _JENKS_PAIRS // len(starts))
            for lo in range(c - 1, n, width):
                j = np.arange(lo, min(lo + width, n))
                i = starts[: j[-1] - c + 2]
                val = cost[c - 1, i - 1] + sse(i, j)
                # argmin keeps the first minimum, the lower-index tie rule;
                # NaN (from infinite values) and i > j never win.
                val[(i > j) | np.isnan(val)] = _INF
                arg = np.argmin(val, axis=0)
                cost[c, j] = val[arg, np.arange(len(j))]
                split[c, j] = arg + c - 1
    bounds = [n - 1]
    for c in range(k, 1, -1):
        bounds.append(split[c, bounds[-1]] - 1)
    bounds.append(-1)
    bounds = bounds[::-1]
    return np.array([v[bounds[t] + 1:bounds[t + 1] + 1].mean() for t in range(k)])


def estimate_slopes_1d(x, f, count: int, seed: int = 0) -> np.ndarray:
    """Slope candidates for 1-D data: natural breaks of the derivative estimates.

    The clustering is an exact 1-D k-means, so the result is deterministic;
    ``seed`` is accepted for interface symmetry with the n-D estimator.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.shape != f.shape:
        raise DimensionMismatchError("x and f must have equal length")
    if len(x) < count + 1:
        raise TropicalError(f"need at least {count + 1} samples for {count} slopes")
    derivs = _numerical_derivatives(x, f)
    if count > len(derivs):
        raise TropicalError(f"only {len(derivs)} derivative samples for {count} clusters")
    return _jenks_breaks(derivs, count)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ with Lloyd iterations; empty clusters re-seed from
    the point currently farthest from its assigned center."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    for _ in range(KMEANS_MAX_ITER):
        dist = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(dist, axis=1)
        own = dist[np.arange(n), assign]
        new_centers = centers.copy()
        for c in range(k):
            mask = assign == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(own))
                new_centers[c] = points[far]
                own[far] = 0.0
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= KMEANS_TOL:
            break
    return centers


def estimate_slopes_nd(x, f, count: int, seed: int = 0) -> np.ndarray:
    """Slope candidates for n-D data: k-means centroids of local gradients.

    Each sample's gradient comes from a least-squares affine fit over its
    max(n+2, 8) nearest neighbours; rank-deficient neighbourhoods are skipped
    with a warning.  Clustering uses k-means++ initialization from ``seed``.
    """
    from scipy.spatial import cKDTree  # heavy import, needed only here

    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != len(f):
        raise DimensionMismatchError("x must be (m, n) with one target per sample")
    m, n = x.shape
    if m < count + n:
        raise TropicalError(f"need at least {count + n} samples for {count} slopes in {n}-D")
    k_nn = min(max(n + 2, 8), m)
    _, idx = cKDTree(x).query(x, k=k_nn)
    idx = np.atleast_2d(idx)
    nb_x = x[idx] - x[:, None, :]
    design = np.concatenate([nb_x, np.ones((m, k_nn, 1))], axis=2)
    ranks = np.linalg.matrix_rank(design)
    good = ranks == n + 1
    if not good.any():
        raise TropicalError("every neighbourhood is rank-deficient; cannot estimate gradients")
    if not good.all():
        warnings.warn(f"skipped {int((~good).sum())} samples with rank-deficient neighbourhoods")
    beta = np.linalg.pinv(design[good]) @ f[idx[good]][..., None]
    gradients = beta[:, :n, 0]
    if count > len(gradients):
        raise TropicalError(f"only {len(gradients)} gradient samples for {count} clusters")
    return _kmeans(gradients, count, np.random.default_rng(seed))


def least_squares_line(x, f) -> tuple[float, float]:
    """Ordinary least-squares line fit; the Euclidean baseline for comparisons."""
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    m = len(x)
    denom = m * np.sum(x * x) - np.sum(x) ** 2
    if denom == 0:
        return 0.0, float(np.mean(f))
    a = (m * np.sum(x * f) - np.sum(x) * np.sum(f)) / denom
    b = float(np.mean(f - a * x))
    return float(a), b
