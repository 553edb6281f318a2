"""Convex piecewise-linear regression with max-affine models.

Fitting happens in two stages.  First the slope vectors are supplied or
estimated from the data's derivatives, which itself takes two steps: a pool
of candidates is taken once (finite differences of 1-D data, local
least-squares gradients of n-D data), and a selection reduces the pool to K
slopes (natural-breaks clustering in 1-D, seeded k-means in n-D).  A sweep
over K selects from the same pool for each K, and a single fit is the sweep
over its one K.  The pool returns its notes (skipped neighbourhoods) with
the candidates, after one Python warning where it finds them, and every
report of the pool carries them first among its warnings.  Then the optimal
intercepts come in closed form as the solution of the design system
X (*) b = f, where column k of X is term k before its intercept: X is built
by the same routine that evaluates the fitted polynomial.  Line, plane and
max-affine fits all solve it through the same GLE -> mu -> MMAE routine as
``tropalg.solver.solve``: the GLE fit touches the data from below and
minimizes every l_p residual norm among from-below fits, while the MMAE fit
(max-plus) shifts it up by half its l_inf error, reaching the unconstrained
l_inf optimum.

Supplied slopes fit over every clodum, under the polynomial's own rule: off
max-plus each slope row is one-hot (a term acting on one coordinate) or zero
(a constant term).  The tropical line and plane are such rows,
``_coordinate_slopes(1)`` and ``_coordinate_slopes(2)``, so ``fit_line``,
``fit_plane`` and the CLI's ``--slopes line``/``plane`` are given-slopes fits.
Estimated slopes are general vectors and need max-plus.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clodum import MAX_PLUS, CarrierError, Clodum, TropicalError, UnsupportedClodumError
from .solver import _solve_checked
from .tropgeom import TropicalPolynomial, _check_slopes, _term_design
from .wlattice import DimensionMismatchError, TropicalMatrix, TropicalVector, _adopt

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


def _rms(res: np.ndarray) -> float:
    """Root mean square of the residuals.  When the squares overflow, the
    residuals are scaled by a power of two into (-1, 1) first, exactly."""
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(res**2))
    if np.isinf(rms) and np.isfinite(res).all():
        e = int(np.frexp(np.abs(res).max())[1])
        rms = np.ldexp(np.sqrt(np.mean(np.ldexp(res, -e) ** 2)), e)
    return float(rms)


def _fit_terms(x: np.ndarray, f: np.ndarray, slopes: np.ndarray, clodum: Clodum,
               method: str, source: str, notes: tuple[str, ...] = ()) -> FitReport:
    """Optimal intercepts for max-affine terms with these slope rows.

    The method, the slopes' dimension and the polynomial's rule for slope rows
    over ``clodum`` are checked, in that order, before the design is built.
    The design matrix is the model's own term table at the samples, so the
    intercepts are the x_hat/x_tilde of the design system.  Checking the fresh
    design in place is the one carrier check of the samples; the finiteness
    checks follow, so NaN and out-of-carrier values raise
    :class:`CarrierError` first, naming the first sample outside the carrier.
    The design is fresh and C-ordered, so it is adopted as is, without the
    copy a ``TropicalMatrix`` would make.  ``notes`` lead the report's
    warnings.
    """
    _check_method(method, clodum)
    if slopes.shape[1] != x.shape[1]:
        raise DimensionMismatchError("slope vectors and samples disagree on dimension")
    _check_slopes(slopes, clodum)
    try:
        design = _adopt(TropicalMatrix, clodum.validate(_term_design(x, slopes, clodum.unit)), clodum)
        target = TropicalVector(f, clodum)
    except CarrierError as exc:
        raise CarrierError(f"{exc}: {_outside_text(x, f, slopes, clodum)}") from None
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
        rms_error=_rms(res),
        linf_error=float(np.max(np.abs(res))),
        residuals=res,
        slope_source=source,
        warnings=notes + ((f"terms {inert} received a bottom intercept and are inert",) if inert else ()),
    )


def _outside_text(x: np.ndarray, f: np.ndarray, slopes: np.ndarray, clodum: Clodum) -> str:
    """The first sample whose design row or target lies outside the carrier
    (NaN included), located on the error path of the carrier check."""
    i = clodum._first_outside(np.column_stack([_term_design(x, slopes, clodum.unit), f]))[0]
    return f"{_sample_text(x, i)}, f = {float(f[i])!r}"


def _coordinate_slopes(n: int) -> np.ndarray:
    """The slope rows of the tropical line (n = 1) or plane (n = 2): one
    one-hot row per coordinate, then the zero row of the constant term."""
    return np.vstack([np.eye(n), np.zeros((1, n))])


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
    return _fit_terms(x[:, None], f, _coordinate_slopes(1), clodum, method, "given")


def fit_plane(xy, f, clodum: Clodum = MAX_PLUS, method: str = "gle") -> FitReport:
    """Closed-form fit of max(mul(a, x), mul(b, y), c) to 2-D data."""
    xy = np.asarray(xy, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] != len(f) or len(f) < 1:
        raise DimensionMismatchError("xy must be (m, 2) with one target per sample")
    return _fit_terms(xy, f, _coordinate_slopes(2), clodum, method, "given")


def _check_max_affine(clodum: Clodum, method: str) -> None:
    """The check of an estimated-slopes fit, whose slopes may be any vectors."""
    if clodum != MAX_PLUS:
        raise UnsupportedClodumError(
            f"estimated slopes are general vectors and need max-plus, not {clodum.spec_string()}; "
            "other cloda take given one-hot or zero slope rows, such as --slopes line or plane, "
            "or a slope file of such rows"
        )
    _check_method(method, clodum)


def fit_max_affine(problem: FitProblem, method: str = "gle") -> FitReport:
    """Fit a K-term max-affine model with optimal intercepts.

    With slopes a_k resolved, the design matrix X_ik = a_k . x_i turns the
    fit into the max-plus system X (*) b = f whose GLE solution is
    b_k = inf_i (f_i - X_ik); the whole intercept solve is one pass over the
    data, O(K m n).  MMAE adds half the GLE l_inf error to every intercept.

    Given slopes fit over the problem's clodum; off max-plus each row must be
    one-hot or zero, the rule of :class:`TropicalPolynomial`, which the line
    and plane rows meet.  Estimated slopes are general vectors, so they need
    max-plus; they are the first fit of a sweep over the one count
    ``policy.count`` (:func:`_sweep_fits`), so the notes of the estimate
    (skipped neighbourhoods) lead the report's warnings.
    """
    x, f, policy = problem.inputs, problem.targets, problem.slopes
    if isinstance(policy, GivenSlopes):
        return _fit_terms(x, f, policy.values, problem.clodum, method, "given")
    return next(_sweep_fits(problem, method, [policy.count]))


def _sweep_fits(problem: FitProblem, method: str, counts):
    """The reports of ``problem`` fitted with ``AutoSlopes(k, seed)`` for each
    k of the non-empty ``counts`` in turn, as a generator; ``problem`` holds
    the first k.  ``fit_max_affine`` of an ``AutoSlopes`` problem is the
    first report of its one count.

    The slopes come from ``_slope_sets``, which takes the candidate pool once
    for all k, so each report, and the first error, are those of the separate
    fits; the pool's notes are warned of once, where they are found, and lead
    every report's warnings.  The problem is checked at the first k only: its
    one check that depends on k, k <= m, never fails first at a later k,
    because every k >= m already fails the estimator's own sample count check.
    """
    _check_max_affine(problem.clodum, method)
    x, f = problem.inputs, problem.targets
    one = problem.dimension == 1
    for slopes, notes in _slope_sets(x[:, 0] if one else x, f, counts, problem.slopes.seed):
        yield _fit_terms(x, f, slopes, MAX_PLUS, method, "jenks" if one else "kmeans", notes)


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


def _sse(s1: np.ndarray, s2: np.ndarray, i, j):
    """Within-cluster sum of squared deviations of sorted values i..j, from
    the prefix sums ``s1`` of the values and ``s2`` of their squares."""
    cnt = j - i + 1
    s = s1[j + 1] - s1[i]
    return np.maximum((s2[j + 1] - s2[i]) - s * s / cnt, 0.0)


def _jenks_table(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and the split table of the natural-breaks DP for every c <= k.

    ``split[c, j]`` is the first index of the last cluster in the best
    partition of the sorted values 0..j into c clusters.  The cost sse(i, j)
    of a cluster i..j does not depend on c, so the DP runs over blocks of
    cluster ends j.  Each block computes its sse table once, for every split
    i up to its last end, and sets i > j and NaN (from infinite values) to
    +inf.  The layers c = 2..k then run on that one table: layer c adds
    ``cost[c-1, i-1]`` and takes ``np.argmin`` over the splits i >= c - 1 in
    ascending order, whose first minimum is the lower-index tie rule.  The sse
    expression, the candidates and their order are those of the scalar DP
    (``tests/oracles.py::jenks_breaks_dp``), so the splits, and the means
    backtracked from them, are bit for bit the same.  Row c of the table does
    not depend on k, so the table for k serves every smaller cluster count.

    A block holds ``max(1, _JENKS_PAIRS // n)`` cluster ends, so no temporary
    has more than ``_JENKS_PAIRS`` entries (n when n is larger), and extra
    memory is O(k n) for the cost and split tables, never O(n^2).  Each
    sse(i, j) is computed once per DP, not once per layer.
    """
    v = np.sort(values)
    n = len(v)
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v**2)])
    cost = np.full((k + 1, n), _INF)
    split = np.zeros((k + 1, n), dtype=int)
    width = max(1, _JENKS_PAIRS // n)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cost[1] = _sse(s1, s2, 0, np.arange(n))
        # NaN loses every comparison, as +inf does; as +inf, every later cost
        # is a number or +inf, so the layers need no NaN pass of their own
        cost[1, np.isnan(cost[1])] = _INF
        if k == 1:
            return v, split
        for lo in range(1, n, width):
            hi = min(lo + width, n)
            j = np.arange(lo, hi)[:, None]  # one row per cluster end
            i = np.arange(1, hi)  # one column per split
            table = _sse(s1, s2, i, j)
            table[(i > j) | np.isnan(table)] = _INF
            for c in range(2, min(k, hi) + 1):
                first = max(0, c - 1 - lo)  # the rows of the ends j >= c - 1
                val = cost[c - 1, c - 2:hi - 1] + table[first:, c - 2:]
                arg = np.argmin(val, axis=1)
                cost[c, lo + first:hi] = val[np.arange(len(arg)), arg]
                split[c, lo + first:hi] = arg + c - 1
    return v, split


def _jenks_means(v: np.ndarray, split: np.ndarray, k: int) -> np.ndarray:
    """The k cluster means of the sorted values ``v``, backtracked from ``split``."""
    bounds = [len(v) - 1]
    for c in range(k, 1, -1):
        bounds.append(split[c, bounds[-1]] - 1)
    bounds.append(-1)
    bounds = bounds[::-1]
    return np.array([v[bounds[t] + 1:bounds[t + 1] + 1].mean() for t in range(k)])


def _jenks_breaks(values: np.ndarray, k: int) -> np.ndarray:
    """Exact natural-breaks clustering of 1-D data (dynamic programming).

    Minimizes the total within-cluster sum of squared deviations over
    contiguous partitions of the sorted values; ties pick the lower break
    index.  Returns the k cluster means in ascending order.  The DP shares
    one sse table per block of cluster ends among all cluster counts, so it
    does O(n^2) sse work and O(k n^2) additions and comparisons (see
    ``_jenks_table``).
    """
    return _jenks_means(*_jenks_table(values, k), k)


def estimate_slopes_1d(x, f, count: int, seed: int = 0) -> np.ndarray:
    """Slope candidates for 1-D data: natural breaks of the derivative estimates.

    The clustering is an exact 1-D k-means, so the result is deterministic;
    ``seed`` is accepted for interface symmetry with the n-D estimator.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.shape != f.shape:
        raise DimensionMismatchError("x and f must have equal length")
    return next(_slope_sets(x, f, [count], seed))[0][:, 0]


def _slope_sets(x: np.ndarray, f: np.ndarray, counts, seed: int):
    """Estimated slope rows for each count of ``counts`` in turn, with the
    notes of the pool, as a generator of ``(slopes, notes)``: natural breaks
    of the finite differences of abscissae ``x`` (1-D), or k-means, seeded
    afresh from ``seed``, of the local gradients of samples ``x`` (one per
    row).

    The pool (the differences, or ``_gradient_pool``) is taken once, and the
    natural-breaks DP runs once, for the largest count: row c of its table
    does not depend on the count it was run for.  Each count makes the checks
    of a separate estimate in the same order (sample count, the pool's own at
    the first count that reaches them, pool size), so every result and the
    first error are bit for bit those of ``estimate_slopes_1d`` or
    ``estimate_slopes_nd`` at that count alone.
    """
    one = x.ndim == 1
    m, n = len(x), 1 if one else x.shape[1]
    pool = table = None
    for count in counts:
        if m < count + n:
            where = "" if one else f" in {n}-D"
            raise TropicalError(f"need at least {count + n} samples for {count} slopes{where}")
        if pool is None:
            pool, notes = (_numerical_derivatives(x, f), ()) if one else _gradient_pool(x, f)
        if count > len(pool):
            kind = "derivative" if one else "gradient"
            raise TropicalError(f"only {len(pool)} {kind} samples for {count} clusters")
        if not one:
            yield _kmeans(pool, count, np.random.default_rng(seed)), notes
            continue
        if table is None:
            table = _jenks_table(pool, min(max(counts), len(pool)))
        yield _jenks_means(*table, count)[:, None], notes


def _sq_sum(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_j (a[j] - b[j])^2 in order of j, broadcast into ``out``.

    The coordinates are summed in order, (a_0 - b_0)^2 + (a_1 - b_1)^2 + ...,
    using ``tmp`` (the shape of ``out``) as scratch, so the only memory is the
    two buffers the caller passes.  Each step is one correctly rounded
    elementwise op, so an entry does not depend on the shape it is computed in.
    """
    np.subtract(a[0], b[0], out=out)
    np.square(out, out=out)
    for j in range(1, len(a)):
        np.subtract(a[j], b[j], out=tmp)
        np.square(tmp, out=tmp)
        out += tmp
    return out


def _sq_dist(cols: np.ndarray, centers: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared distances of every point to every center, written into ``out`` (m, k).

    ``cols`` holds the points one coordinate per row; ``tmp`` (m, k) is scratch.
    """
    return _sq_sum(cols[:, :, None], centers.T[:, None, :], out, tmp)


def _centroids(cols: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster means (k, n) as per-coordinate sums in sample order divided by
    the cluster size, and the mask of non-empty clusters; the rows of empty
    clusters are left unset."""
    counts = np.bincount(assign, minlength=k)
    filled = counts > 0
    centers = np.empty((k, len(cols)))
    for j in range(len(cols)):
        sums = np.bincount(assign, weights=cols[j], minlength=k)
        np.divide(sums, counts, out=centers[:, j], where=filled)
    return centers, filled


# Distance bounds of the k-means Lloyd step (see _kmeans): the relative slack,
# per coordinate, of a distance taken from a computed squared distance; the
# absolute slack for underflow, so no upper bound is below it; and the cap on
# lower bounds, which keeps a skipped point's own distance finite.
_BOUND_SLACK = 2.0**-48
_BOUND_TINY = 2.0**-500
_BOUND_HUGE = 2.0**500
# factors that round a sum of bounds outward: (1 -+ u)^2 (1 +- 4u) exceeds 1,
# or falls short of it, for the unit roundoff u = 2^-53
_ROUND_UP = 1.0 + 2.0**-51
_ROUND_DOWN = 1.0 - 2.0**-51


def _upper(sq: np.ndarray, rel: float) -> np.ndarray:
    """An upper bound on the exact distance whose computed square is ``sq``."""
    return np.sqrt(sq) * (1.0 + rel) + _BOUND_TINY


def _lower(sq: np.ndarray, rel: float) -> np.ndarray:
    """A lower bound on the exact distance whose computed square is ``sq``,
    with the skip margin taken off and capped at 2^500."""
    return np.minimum(np.sqrt(sq) * (1.0 - 3.0 * rel) - _BOUND_TINY, _BOUND_HUGE)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ with Lloyd iterations; empty clusters re-seed, in
    ascending cluster order, from the point currently farthest from its
    assigned center.

    Memory is two m*k buffers, filled in place; the m*k*n difference tensor
    is never built.  Distances sum the n coordinates in order and centroids
    are per-coordinate sums in sample order divided by the cluster size.
    That is bit for bit what ``np.sum(diff**2, axis=-1)`` and
    ``points[mask].mean(axis=0)`` give for 2 <= n <= 7.  At n = 1 numpy's
    mean sums pairwise, and from n = 8 its distance sum does too, so there
    the centers can differ from those forms in the last bits.

    Each point keeps Hamerly's two bounds (Hamerly 2010, *Making k-means even
    faster*): U at least its exact Euclidean distance to its own center, and
    L at most (1 - r) times a lower bound B on its exact distance to every
    other center.  Its distance row is recomputed only when U < L fails.
    When the centers move, each by at most an upper bound d_c on its exact
    move, U grows by d_own and L shrinks by the largest d_c of the other
    centers, both rounded outward (``_ROUND_UP``/``_ROUND_DOWN``).  A point
    whose bounds stop separating first gets U back from its computed
    distance to its own center alone, and L may rise to the distance from
    its own center to the nearest other one, minus U.  The skip is exact:

    * A computed squared distance S of exact distance D (finite values) has
      |S - D^2| <= g*D^2 + e, with g = (1 + u)^(n+2) - 1, u = 2^-53 and
      e = n*2^-1074: n correctly rounded differences, squares and sums of
      non-negative terms, and at most 2^-1075 per square that underflows.
    * With r = (n + 4)*2^-48 = 32*(n + 4)*u and t = 2^-500 > sqrt(e),
      U = sqrt(S)*(1 + r) + t >= D, and B = sqrt(S)*(1 - r) - t <= D; the
      stored L = sqrt(S)*(1 - 3r) - t is at most (1 - r)*B after its own
      roundings.  U >= 2^-500 always, and L <= 2^500.
    * A point is skipped only if U < L.  Then U < (1 - r)*B, both lie in
      [2^-500, 2^500], S_own <= (1 + g)*U^2 + e is finite, and every other
      center has S_c >= (1 - g)*B^2 - e, or S_c = +inf.  As e is negligible
      against r*B^2 >= r*2^-1000 and (1 + g)*(1 - r)^2 < 1 - g,
      S_own < S_c strictly.

    Hence a skipped point's computed row would have its unique minimum at
    its current center: ``argmin``, with its lowest-index tie rule, and the
    ``bincount`` centroids are unchanged bit for bit.  NaN bounds never pass
    the test, so non-finite values always take the full computation.  Rows
    are recomputed with ``_sq_dist`` on the gathered points, into prefix
    views of the two m*k buffers.  When a cluster empties, the reseeding
    takes every point's computed distance to its own center, and the next
    step is a full pass.
    """
    m, n = points.shape
    cols = np.ascontiguousarray(points.T)
    centers = np.empty((k, n))
    centers[0] = points[rng.integers(m)]
    near, tmp = np.empty((m, 1)), np.empty((m, 1))
    d2 = _sq_dist(cols, centers[:1], near, tmp)[:, 0].copy()
    for c in range(1, k):
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[c] = points[idx]
        np.minimum(d2, _sq_dist(cols, centers[c:c + 1], near, tmp)[:, 0], out=d2)
    rel = _BOUND_SLACK * (n + 4)
    dist, tmp = np.empty((m, k)), np.empty((m, k))
    assign = np.empty(m, dtype=np.intp)
    upper, lower = np.empty(m), np.empty(m)
    stale, sub = slice(None), cols  # the rows to recompute, and their points
    for _ in range(KMEANS_MAX_ITER):
        r = sub.shape[1]
        rows = _sq_dist(sub, centers, dist[:r], tmp[:r])
        best = np.argmin(rows, axis=1)
        assign[stale] = best
        pick = (np.arange(r), best)
        upper[stale] = _upper(rows[pick], rel)
        rows[pick] = _INF
        lower[stale] = _lower(rows.min(axis=1), rel)
        new_centers, filled = _centroids(cols, assign, k)
        reseed = not filled.all()
        if reseed:
            own = _sq_sum(cols, centers[assign].T, np.empty(m), np.empty(m))
            for c in np.flatnonzero(~filled):
                far = int(np.argmax(own))
                new_centers[c] = points[far]
                own[far] = 0.0
        shift = float(np.max(np.abs(new_centers - centers)))
        drift = _upper(_sq_sum(new_centers.T, centers.T, np.empty(k), np.empty(k)), rel)
        centers = new_centers
        if shift <= KMEANS_TOL:
            break
        if reseed:
            stale, sub = slice(None), cols
            continue
        # the largest move among the centers other than each point's own
        top = int(np.argmax(drift))
        others = np.full(k, drift[top])
        others[top] = np.max(np.delete(drift, top), initial=0.0)
        upper += drift[assign]
        upper *= _ROUND_UP
        lower -= others[assign]
        lower *= _ROUND_DOWN
        stale = np.flatnonzero(~(upper < lower))
        sub = cols[:, stale]
        near = assign[stale]
        own = _sq_sum(sub, centers[near].T, np.empty(len(stale)), np.empty(len(stale)))
        upper[stale] = _upper(own, rel)
        # no other center is nearer than the nearest one to the own center, minus U
        gap = _sq_dist(centers.T, centers, np.empty((k, k)), np.empty((k, k)))
        np.fill_diagonal(gap, _INF)
        apart = (_lower(gap.min(axis=1), rel)[near] - upper[stale]) * _ROUND_DOWN
        lower[stale] = np.maximum(lower[stale], apart)
        loose = ~(upper[stale] < lower[stale])
        stale, sub = stale[loose], sub[:, loose]
    return centers


# A neighbourhood design whose smallest singular value is within this many
# times ``matrix_rank``'s tolerance is re-ranked by ``np.linalg.matrix_rank``
# itself: its values-only SVD may round differently from the SVD with vectors
# used here, by far less than this band.
_RANK_GUARD = 1000.0


def _gradients(design: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares affine fits of ``values`` over every neighbourhood design.

    Returns the mask of full-rank designs and, for those, the fitted
    coefficients ``pinv(design) @ values``.  One SVD with vectors serves both
    the rank test and the pseudo-inverse.  Designs with s_min well above
    ``matrix_rank``'s tolerance max(rows, cols)*eps*s_max are full rank; those
    in the guard band get ``matrix_rank``'s own verdict, so the mask is the one
    ``matrix_rank(design) == cols`` gives.  The pseudo-inverse of the full-rank
    designs repeats numpy's ``pinv`` formula step for step (rcond 1e-15, the
    reciprocal of the large values, zeros elsewhere, then vt^T @ (s * u^T)),
    so the coefficients are bit for bit those of ``np.linalg.pinv``.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    tol = max(design.shape[1:]) * np.finfo(float).eps * s[:, 0]
    good = s[:, -1] > _RANK_GUARD * tol
    band = np.flatnonzero(~good)
    if len(band):
        good[band] = np.linalg.matrix_rank(design[band]) == design.shape[2]
    if not good.all():
        u, s, vt = u[good], s[good], vt[good]
    large = s > 1e-15 * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = np.matmul(np.swapaxes(vt, -1, -2), np.multiply(s[..., None], np.swapaxes(u, -1, -2)))
    with np.errstate(over="ignore", invalid="ignore"):
        beta = pinv @ values[good][..., None]
    return good, beta[..., 0]


def _sample_text(x: np.ndarray, i: int) -> str:
    return f"sample {i} (x = {' '.join(repr(float(v)) for v in x[i])})"


def estimate_slopes_nd(x, f, count: int, seed: int = 0) -> np.ndarray:
    """Slope candidates for n-D data: k-means centroids of local gradients.

    The gradients come from ``_gradient_pool``; clustering uses k-means++
    initialization from ``seed`` and Lloyd steps that skip the distance rows
    their bounds settle (see ``_kmeans``).
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != len(f):
        raise DimensionMismatchError("x must be (m, n) with one target per sample")
    return next(_slope_sets(x, f, [count], seed))[0]


def _gradient_pool(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """The local gradients of n-D samples, one row per full-rank neighbourhood,
    and the notes of the pool.

    Each sample's gradient comes from a least-squares affine fit over its
    max(n+2, 8) nearest neighbours.  One batched SVD per neighbourhood gives
    both the rank test and the pseudo-inverse, bit for bit what
    ``np.linalg.matrix_rank`` and ``np.linalg.pinv`` give (see
    ``_gradients``).  Rank-deficient neighbourhoods are skipped, with a
    warning, and the warning is returned as a note.

    When the squared neighbour distances of x overflow, the neighbours and
    gradients are taken on x scaled by a power of two, exactly, so finite
    coordinates of any spread can be fitted; every other input gives the same
    gradients as without this step, bit for bit.  Gradients that overflow or
    are too large for k-means to sum their squared distances raise
    :class:`TropicalError` naming the sample.
    """
    from scipy.spatial import cKDTree  # heavy import, needed only here

    m, n = x.shape
    k_nn = min(max(n + 2, 8), m)
    xs, shift = x, 0
    reach, idx = cKDTree(xs).query(xs, k=k_nn)
    if not np.isfinite(reach).all():
        # the tree squares distances, and some overflowed: query x scaled by
        # 2^shift into (-1, 1), exactly, so the neighbour order is the same;
        # offsets on the scale of the designs' column of ones keep their rank
        shift = -int(np.frexp(np.abs(x).max())[1])
        xs = np.ldexp(x, shift)
        idx = cKDTree(xs).query(xs, k=k_nn)[1]
    idx = np.atleast_2d(idx)
    nb_x = xs[idx] - xs[:, None, :]
    design = np.concatenate([nb_x, np.ones((m, k_nn, 1))], axis=2)
    good, beta = _gradients(design, f[idx])
    if not good.any():
        raise TropicalError("every neighbourhood is rank-deficient; cannot estimate gradients")
    notes = ()
    if not good.all():
        notes = (f"skipped {int((~good).sum())} samples with rank-deficient neighbourhoods",)
        warnings.warn(notes[0])
    # the gradient in x is the gradient in x * 2^shift, times 2^shift
    gradients = np.ldexp(beta[:, :n], shift)
    rows = np.flatnonzero(good)
    bad = ~np.isfinite(gradients).all(axis=1)
    if bad.any():
        raise TropicalError(f"the gradient at {_sample_text(x, int(rows[np.argmax(bad)]))} overflows")
    # every squared distance k-means forms, and their sum over all samples,
    # stay below n * (2 * largest)^2 * samples
    size = np.abs(gradients).max(axis=1)
    with np.errstate(over="ignore"):
        fits = np.isfinite(n * len(rows) * np.square(2.0 * size.max()))
    if not fits:
        raise TropicalError(
            f"the gradient at {_sample_text(x, int(rows[np.argmax(size)]))} is too large to cluster"
        )
    return gradients, notes


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
