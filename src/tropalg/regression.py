"""Convex piecewise-linear regression with max-affine models.

Fitting happens in two stages.  First the slope vectors are supplied or
estimated from the data's derivatives, which itself takes two steps: a pool
of candidates is taken once (finite differences of 1-D data, local
least-squares gradients of n-D data), and a selection reduces the pool to K
slopes (natural-breaks clustering in 1-D, seeded k-means in n-D).  A sweep
over K selects from the same pool for each K, and a single fit is the sweep
over its one K.  The pool returns its notes (skipped neighbourhoods) with
the candidates, and every report of the pool carries them first among its
warnings; a fit raises no Python warning.  Only ``estimate_slopes_nd``,
whose slope array cannot hold a note, passes it to ``warnings.warn``.  Then
the optimal intercepts come in closed form as the solution of the design
system X (*) b = f, where column k of X is term k before its intercept: X
is built by the same routine that evaluates the fitted polynomial.  Line,
plane and max-affine fits all solve it through the same GLE -> mu -> MMAE
routine as ``tropalg.solver.solve``: the GLE fit touches the data from
below and minimizes every l_p residual norm among from-below fits, while the
MMAE fit (max-plus) shifts it up by half its l_inf error, reaching the
unconstrained l_inf optimum.

Supplied slopes fit over every clodum, under the polynomial's own rule: off
max-plus each slope row is one-hot (a term acting on one coordinate) or zero
(a constant term).  The tropical line and plane are such rows,
``_coordinate_slopes(1)`` and ``_coordinate_slopes(2)``, so ``fit_line``,
``fit_plane`` and the CLI's ``--slopes line``/``plane`` are given-slopes fits.
Estimated slopes are general vectors and need max-plus.

Every fit and every slope estimate enters through :class:`FitProblem`, whose
check of the samples is the only one: the first sample holding a NaN or an
infinity, in x or in f, is refused by name before any slope is estimated or
intercept solved.  The fit itself checks only what depends on the clodum,
the samples' design rows in its carrier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .clodum import MAX_PLUS, CarrierError, Clodum, TropicalError, UnsupportedClodumError
from .solver import _solve_checked
from .tropgeom import TropicalPolynomial, _check_slopes, _term_design
from .wlattice import _SLAB_ELEMS, DimensionMismatchError, TropicalMatrix, TropicalVector, _adopt, _exponent

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
    """Estimate ``count`` slope vectors from the data derivatives; ``seed``,
    a non-negative integer, seeds the k-means of n-D data."""

    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise TropicalError("slope count must be >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise TropicalError(f"the seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class FitProblem:
    """Samples (x_i, f_i), the clodum to fit over, and the slope policy.

    The one sample check of every fit and slope estimate: the first sample
    with a NaN or an infinity in x or f raises :class:`TropicalError`,
    ``samples must be finite: sample i (x = ...), f = ...``.
    """

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
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(f))
        if bad.any():
            i = int(np.argmax(bad))
            raise TropicalError(f"samples must be finite: {_sample_text(x, i)}, f = {float(f[i])!r}")
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
    """Root mean square of the residuals, taken from the residuals scaled by
    2^-e into (-1, 1) (``_exponent``) and scaled back by 2^e, so no square
    overflows or underflows needlessly: residuals times 2^b give 2^b times
    the rms, bit for bit."""
    e = _exponent(res)
    return float(np.ldexp(np.sqrt(np.mean(np.ldexp(res, -e) ** 2)), e))


def _fit_terms(x: np.ndarray, f: np.ndarray, slopes: np.ndarray, clodum: Clodum,
               method: str, source: str, notes: tuple[str, ...] = ()) -> FitReport:
    """Optimal intercepts for max-affine terms with these slope rows.

    ``x`` and ``f`` are the finite samples of a :class:`FitProblem`.  The
    method, the slopes' dimension, the polynomial's rule for slope rows over
    ``clodum`` and the samples' carrier are checked, in that order.  The
    design matrix is the model's own term table at the samples, so the
    intercepts are the x_hat/x_tilde of the design system.  Checking the fresh
    design in place is the one carrier check of the samples: values outside
    the clodum's carrier (max-min [0, 1], max-times >= 0), and a max-plus
    design entry whose ``X @ slopes.T`` overflows to NaN, raise
    :class:`CarrierError` naming the first such sample.  The design is fresh
    and C-ordered, so it is adopted as is, without the copy a
    ``TropicalMatrix`` would make.  ``notes`` lead the report's warnings.
    """
    _check_method(method, clodum)
    if slopes.shape[1] != x.shape[1]:
        raise DimensionMismatchError("slope vectors and samples disagree on dimension")
    _check_slopes(slopes, clodum)
    try:
        design = _adopt(TropicalMatrix, clodum.validate(_term_design(x, slopes, clodum.unit)), clodum)
        target = TropicalVector(f, clodum)
    except CarrierError:
        raise CarrierError(_outside_text(x, f, slopes, clodum)) from None
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
    """The carrier error of the samples, from one check of their design rows
    beside the targets: its message, then the first sample whose design row
    holds a NaN, or without one the first outside the carrier."""
    rows = np.column_stack([_term_design(x, slopes, clodum.unit), f])
    try:
        clodum.validate(rows)
    except CarrierError as exc:
        i = clodum._first_outside(rows)[0]
        return f"{exc}: {_sample_text(x, i)}, f = {float(f[i])!r}"


def _coordinate_slopes(n: int) -> np.ndarray:
    """The slope rows of the tropical line (n = 1) or plane (n = 2): one
    one-hot row per coordinate, then the zero row of the constant term."""
    return np.vstack([np.eye(n), np.zeros((1, n))])


def fit_line(x, f, clodum: Clodum = MAX_PLUS, method: str = "gle") -> FitReport:
    """Closed-form fit of the tropical line max(mul(a, x), b) to 1-D data.

    The design system has columns x and unit, so the GLE parameters are
    a = inf_i adjoint_erosion(x_i, f_i) and b = inf_i f_i for every clodum;
    MMAE (max-plus only) shifts both up by half the GLE l_inf error.  It is
    ``fit_max_affine`` of a :class:`FitProblem` with the line's given slope
    rows, so the samples are checked there.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    if x.shape != f.shape or len(x) < 1:
        raise DimensionMismatchError("x and f must be equal-length non-empty vectors")
    return fit_max_affine(FitProblem(x, f, GivenSlopes(_coordinate_slopes(1)), clodum), method)


def fit_plane(xy, f, clodum: Clodum = MAX_PLUS, method: str = "gle") -> FitReport:
    """Closed-form fit of max(mul(a, x), mul(b, y), c) to 2-D data: the
    ``fit_max_affine`` of a :class:`FitProblem` with the plane's given slope
    rows, once xy is checked to be (m, 2)."""
    xy = np.asarray(xy, dtype=float)
    f = np.asarray(f, dtype=float).reshape(-1)
    if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] != len(f) or len(f) < 1:
        raise DimensionMismatchError("xy must be (m, 2) with one target per sample")
    return fit_max_affine(FitProblem(xy, f, GivenSlopes(_coordinate_slopes(2)), clodum), method)


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
    k of the non-empty sequence ``counts`` in turn, as a generator;
    ``problem`` holds the first k.  ``fit_max_affine`` of an ``AutoSlopes``
    problem is the first report of its one count.

    The slopes come from ``_slope_sets``, which takes the candidate pool once
    for all k, so each report, and the first error, are those of the separate
    fits; the pool's notes lead every report's warnings.  Every k's sample
    and pool checks run before the first fit, so one of them fails ahead of
    an earlier k's own fit error (a max-plus design that overflows to NaN).
    The problem is checked at the first k only: its one check that depends
    on k, k <= m, never fails first at a later k, because every k >= m
    already fails the estimator's own sample count check.
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
    partition of the sorted values 0..j into c clusters.  The prefix sums
    the costs come from are taken of the sorted values scaled by 2^-e into
    (-1, 1) (``_exponent``), so no square overflows or underflows needlessly
    and values times a power of two give the same splits; the means are
    taken of the unscaled values.  The cost sse(i, j)
    of a cluster i..j does not depend on c, so the DP runs over blocks of
    cluster ends j.  Each block computes its sse table once, for every split
    i up to its last end, and sets i > j and NaN (from infinite values) to
    +inf.  The layers c = 2..k then run on that one table: layer c adds
    ``cost[c-1, i-1]`` and takes ``np.argmin`` over the splits i >= c - 1 in
    ascending order, whose first minimum is the lower-index tie rule.  The sse
    expression, the candidates and their order are those of the scalar DP
    (``tests/oracles.py::jenks_breaks_dp``), so the splits, and the means
    backtracked from them, are bit for bit the same wherever the oracle's
    unscaled squares neither overflow nor underflow.  Row c of the table does
    not depend on k, so the table for k serves every smaller cluster count.

    A block holds ``max(1, _SLAB_ELEMS // n)`` cluster ends, the slab budget
    of every other temporary, so no temporary has more than ``_SLAB_ELEMS``
    entries (n when n is larger), and extra memory is O(k n) for the cost
    and split tables, never O(n^2).  Each sse(i, j) is computed once per DP,
    not once per layer.
    """
    v = np.sort(values)
    n = len(v)
    w = np.ldexp(v, -_exponent(v))
    s1 = np.concatenate([[0.0], np.cumsum(w)])
    s2 = np.concatenate([[0.0], np.cumsum(w**2)])
    cost = np.full((k + 1, n), _INF)
    split = np.zeros((k + 1, n), dtype=int)
    width = max(1, _SLAB_ELEMS // n)
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
    ``seed`` is accepted for interface symmetry with the n-D estimator.  The
    finite differences and the DP, which squares scaled values (see
    ``_jenks_table``), commute with scaling by powers of two, so
    (2^a x, 2^b f) gives 2^(b-a) times the slopes, bit for bit, for every a
    and b that keep x, f and the slopes in the normal range.  The samples
    are checked by the :class:`FitProblem` of the estimate.
    """
    problem = FitProblem(np.ravel(x), np.ravel(f), AutoSlopes(count))
    return next(_slope_sets(problem.inputs[:, 0], problem.targets, [count], seed))[0][:, 0]


def _slope_sets(x: np.ndarray, f: np.ndarray, counts, seed: int):
    """Estimated slope rows for each count of ``counts`` in turn, with the
    notes of the pool, as a generator of ``(slopes, notes)``: natural breaks
    of the finite differences of abscissae ``x`` (1-D), or k-means, seeded
    afresh from ``seed``, of the local gradients of samples ``x`` (one per
    row).

    The pool (the differences, or ``_gradient_pool``) is taken once, and the
    natural-breaks DP runs once, for the largest count: row c of its table
    does not depend on the count it was run for.  Every count makes the
    checks of a separate estimate in the same order (sample count, the
    pool's own at the first count that reaches them, pool size) before any
    selection runs, so a range the data cannot serve fails before the first
    clustering, with the first failing count's error, and every result is
    bit for bit that of ``estimate_slopes_1d`` or ``estimate_slopes_nd`` at
    that count alone.
    """
    one = x.ndim == 1
    m, n = len(x), 1 if one else x.shape[1]
    pool = None
    for count in counts:
        if m < count + n:
            where = "" if one else f" in {n}-D"
            raise TropicalError(f"need at least {count + n} samples for {count} slopes{where}")
        if pool is None:
            pool, notes = (_numerical_derivatives(x, f), ()) if one else _gradient_pool(x, f)
        if count > len(pool):
            kind = "derivative" if one else "gradient"
            raise TropicalError(f"only {len(pool)} {kind} samples for {count} clusters")
    table = _jenks_table(pool, max(counts)) if one else None
    for count in counts:
        slopes = _jenks_means(*table, count)[:, None] if one else _kmeans(pool, count, np.random.default_rng(seed))
        yield slopes, notes


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
# absolute slack for underflow, so no upper bound is below it.
_BOUND_SLACK = 2.0**-48
_BOUND_TINY = 2.0**-500
# factors that round a sum of bounds outward: (1 -+ u)^2 (1 +- 4u) exceeds 1,
# or falls short of it, for the unit roundoff u = 2^-53
_ROUND_UP = 1.0 + 2.0**-51
_ROUND_DOWN = 1.0 - 2.0**-51


def _upper(sq: np.ndarray, rel: float) -> np.ndarray:
    """An upper bound on the exact distance whose computed square is ``sq``."""
    return np.sqrt(sq) * (1.0 + rel) + _BOUND_TINY


def _lower(sq: np.ndarray, rel: float) -> np.ndarray:
    """A lower bound on the exact distance whose computed square is ``sq``,
    with the skip margin taken off."""
    return np.sqrt(sq) * (1.0 - 3.0 * rel) - _BOUND_TINY


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ with Lloyd iterations; empty clusters re-seed, in
    ascending cluster order, from the point currently farthest from its
    assigned center.  The Lloyd steps stop once no center coordinate moves by
    more than ``KMEANS_TOL`` times the largest |coordinate| of the points, or
    after ``KMEANS_MAX_ITER`` steps.

    The points are scaled by 2^-e into (-1, 1) (``_exponent``) as they are
    copied into coordinate rows, the seeds, reseeds, tolerance and every
    distance come from those rows, and the centers are scaled back by 2^e.
    The scaling is exact for every value that stays normal, so points times
    a power of two give centers times it, bit for bit, and no squared
    distance overflows or underflows needlessly.

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
    move, U grows by d_own and L shrinks by the largest d_c of any center,
    both rounded outward (``_ROUND_UP``/``_ROUND_DOWN``).  For finite
    points, as every pool's are, the skip is exact:

    * The scaled points lie in (-1, 1) and the centers, their means, within
      a rounding of [-1, 1], so every computed squared distance is finite,
      about 4n at most.
    * A computed squared distance S of exact distance D has
      |S - D^2| <= g*D^2 + h, with g = (1 + u)^(n+2) - 1, u = 2^-53 and
      h = n*2^-1074: n correctly rounded differences, squares and sums of
      non-negative terms, and at most 2^-1075 per square that underflows.
    * With r = (n + 4)*2^-48 = 32*(n + 4)*u and t = 2^-500 > sqrt(h),
      U = sqrt(S)*(1 + r) + t >= D, and B = sqrt(S)*(1 - r) - t <= D; the
      stored L = sqrt(S)*(1 - 3r) - t is at most (1 - r)*B after its own
      roundings.  U >= 2^-500 always.
    * A point is skipped only if U < L.  Then 2^-500 <= U < (1 - r)*B,
      S_own <= (1 + g)*U^2 + h, and every other center has
      S_c >= (1 - g)*B^2 - h.  As h is negligible against
      r*B^2 >= r*2^-1000 and (1 + g)*(1 - r)^2 < 1 - g, S_own < S_c
      strictly.

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
    e = _exponent(points)
    cols = np.ldexp(points.T, -e, order="C")
    centers = np.empty((k, n))
    centers[0] = cols[:, rng.integers(m)]
    near, tmp = np.empty((m, 1)), np.empty((m, 1))
    d2 = _sq_dist(cols, centers[:1], near, tmp)[:, 0].copy()
    for c in range(1, k):
        total = d2.sum()
        if total == 0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[c] = cols[:, idx]
        np.minimum(d2, _sq_dist(cols, centers[c:c + 1], near, tmp)[:, 0], out=d2)
    rel = _BOUND_SLACK * (n + 4)
    tol = KMEANS_TOL * np.abs(cols).max()
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
                new_centers[c] = cols[:, far]
                own[far] = 0.0
        shift = float(np.max(np.abs(new_centers - centers)))
        drift = _upper(_sq_sum(new_centers.T, centers.T, np.empty(k), np.empty(k)), rel)
        centers = new_centers
        if shift <= tol:
            break
        if reseed:
            stale, sub = slice(None), cols
            continue
        upper += drift[assign]
        upper *= _ROUND_UP
        lower -= drift.max()
        lower *= _ROUND_DOWN
        stale = np.flatnonzero(~(upper < lower))
        sub = cols[:, stale]
    return np.ldexp(centers, e)


# A centred neighbourhood is full rank when the smallest eigenvalue of its
# Gram matrix exceeds this fraction of the largest.  Forming the Gram matrix
# and ``eigvalsh`` move an eigenvalue by about (k + n) * eps times the
# largest, hundreds of times less, so the verdict is the exact matrix's
# except within that rounding of the rule.
_RANK_TOL = 2.0**-40


def _gradients(offsets: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares affine fits of ``values`` (m, k) over the neighbour
    ``offsets`` (m, k, n) of every neighbourhood.

    The offsets and values of each neighbourhood are centred, which takes the
    intercept out of the fit, and the slopes solve the normal equations
    gram @ beta = rhs with gram = off^T off and rhs = off^T val.  A
    neighbourhood is kept when its Gram matrix has
    lambda_min > ``_RANK_TOL`` * lambda_max, so every solve has a condition
    number below 2^40.  Returns the mask of kept neighbourhoods and their
    slopes, each bit for bit what the same steps give one neighbourhood at a
    time (``tests/oracles.py::gradients_per_neighbourhood``).  Every step is
    linear in the values, so values scaled by a power of two give slopes
    scaled by it, exactly.
    """
    off = offsets - offsets.mean(axis=1, keepdims=True)
    val = values - values.mean(axis=1, keepdims=True)
    off_t = np.swapaxes(off, 1, 2)
    gram = off_t @ off
    lam = np.linalg.eigvalsh(gram)
    good = lam[:, 0] > _RANK_TOL * lam[:, -1]
    beta = np.linalg.solve(gram[good], off_t[good] @ val[good][..., None])
    return good, beta[..., 0]


def _grid_shape(span: np.ndarray, cells: float) -> np.ndarray:
    """Cells per coordinate of a grid of about ``cells`` cubes over a box of
    sides ``span``.  A side shorter than the cube, zero included, gets one
    cell and the cube is sized again over the other sides, so no coordinate
    has more cells than its side holds cubes and the grid has at most
    ``cells`` of them."""
    shape = np.ones(len(span), dtype=np.intp)
    live = span > 0
    while live.any():
        side = np.exp((np.log(span[live]).sum() - np.log(cells)) / live.sum())
        narrow = live & (span < side)
        if not narrow.any():
            shape[live] = span[live] // side
            break
        live &= ~narrow
    return shape


def _nearest(a: np.ndarray, b: np.ndarray, cand: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k candidates nearest to each query, in (squared distance, index)
    order, and the k-th squared distance of each.

    ``a`` (n, rows, w) holds the candidates' coordinates, ``b`` (n, rows, 1)
    the queries' and ``cand`` (rows, w) the candidates' indices, each
    broadcastable; w > k.  Squared distances sum the coordinates in order
    (``_sq_sum``).  A row whose k + 1 smallest distances are not all distinct
    is ordered by a full sort on (distance, index)."""
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    d2 = _sq_sum(a, b, np.empty(shape), np.empty(shape))
    # flat positions of the k + 1 smallest of each row, the largest last
    first = np.argpartition(d2, k, axis=1)[:, :k + 1]
    first += np.arange(0, d2.size, shape[1])[:, None]
    order = np.argsort(d2.take(first[:, :k]), axis=1)
    first[:, :k] = np.take_along_axis(first, order, axis=1)
    dist = d2.take(first)
    tie = (dist[:, 1:] == dist[:, :-1]).any(axis=1)
    near = first[:, :k] % shape[1]
    if tie.any():
        near[tie] = np.lexsort((np.broadcast_to(cand, shape)[tie], d2[tie]), axis=1)[:, :k]
    return np.take_along_axis(cand, near, axis=1), dist[:, k - 1]


# 2-D samples take their neighbours from the cell grid while its passes
# compare at most 6k candidates per sample in all, or one slab's worth for
# small fits; uniform samples in a box or a disc need 4.5k-5.5k.  Less even
# samples (normal or heavy-tailed spreads, tight clusters, correlated
# coordinates), and samples with n >= 3, take them from scipy's k-d tree,
# which was faster on each such input measured.
_GRID_PAIRS = 6


def _knn(xs: np.ndarray, k: int, budget: float = _INF) -> np.ndarray | None:
    """The k nearest neighbours (m, k) of each of the m points ``xs`` in
    (-1, 1)^2 among all of them, k <= m, in order of (squared distance
    summed over the two coordinates in order, index); None when that takes
    more than ``budget`` candidates.

    Every row is exact.  The points lie in a uniform grid of about 2m/k
    cells (``_grid_shape``, the cell method of Bentley, Weide & Yao 1980)
    over the box of the 1st to 99th percentile of each coordinate.  Cell j
    of a coordinate spans [F_j, F_{j+1}) between computed faces, with
    F_0 = -inf and F_G = +inf, so the outer cells take the points beyond the
    box, and a point's cell is found by comparing it with the faces, so
    membership is exact.  Points are kept in cell order, each cell in index
    order.

    A row's candidates are the points of its cell's block, the cells within
    ``radius`` of it in both coordinates: up to 2 radius + 1 runs along the
    second coordinate, taken from a table of the block of each cell in the
    slab.  A row is certified when its k-th squared distance is below the
    computed square of its margin, the computed distance to the block's
    inner faces: a point outside the block lies beyond a face in some
    coordinate, and rounding is monotone, so that coordinate's computed
    square, and so the point's computed squared distance, is at least the
    margin's.  The rows left are redone from blocks twice as wide, until a
    block covers the grid: it has no inner faces, so all its rows are
    certified.  Rows run in slabs of at most ``_SLAB_ELEMS`` candidates or
    runs, or one row, grouped by the size of their block.

    Each pass reads its rows' block sizes from a summed-area table of the
    cell counts (Crow 1984) and takes them from the budget before it
    compares any candidate; the first does so before the points are sorted
    into cells, so giving up costs only the cells and their counts.
    """
    m = len(xs)
    cols = np.ascontiguousarray(xs.T)
    # a few far points, left to the outer cells, do not stretch the cells
    lo, hi = np.partition(xs, (m // 100, m - 1 - m // 100), axis=0)[[m // 100, m - 1 - m // 100]]
    span = hi - lo
    shape = _grid_shape(span, 2.0 * m / k)
    faces = [np.concatenate([[-_INF], lo[j] + span[j] / g * np.arange(1, g), [_INF]]) for j, g in enumerate(shape)]
    coord = np.array([np.searchsorted(f[1:-1], x, side="right") for f, x in zip(faces, cols)])
    cell = coord[0] * shape[1] + coord[1]
    counts = np.bincount(cell, minlength=shape[0] * shape[1])
    # sat[i, j] counts the points of the cells below i and j in the two coordinates
    sat = np.zeros(shape + 1, dtype=np.intp)
    np.cumsum(np.cumsum(counts.reshape(shape), axis=0), axis=1, out=sat[1:, 1:])
    out = np.empty((m, k), dtype=np.intp)
    rows, radius = np.arange(m), 1
    while len(rows):
        # each row's block is the cells [a, b) in both coordinates
        a = np.maximum(coord[:, rows] - radius, 0)
        b = np.minimum(coord[:, rows] + radius + 1, shape[:, None])
        size = sat[b[0], b[1]] - sat[a[0], b[1]] - sat[b[0], a[1]] + sat[a[0], a[1]]
        budget -= int(size.sum())
        if budget < 0:
            return None
        if radius == 1:
            order = np.argsort(cell, kind="stable")
            starts = np.concatenate([[0], np.cumsum(counts)])
            # the extra column, at index m and +inf, pads candidate rows
            padded = np.concatenate([cols, np.full((2, 1), _INF)], axis=1)
        by_size = np.argsort(size * len(counts) + cell[rows], kind="stable")
        rows, a, b, size = rows[by_size], a[:, by_size], b[:, by_size], size[by_size]
        runs = min(2 * radius + 1, shape[0])
        left = []
        s = 0
        while s < len(rows):
            # rows are in ascending block size: the slab is padded to the
            # size of its last row, which the first row's share bounds
            last = min(s + max(1, _SLAB_ELEMS // max(size[s], k + 1, runs)), len(rows))
            w = max(size[last - 1], k + 1)
            e = min(s + max(1, _SLAB_ELEMS // max(w, runs)), len(rows))
            slab = rows[s:e]
            new = np.r_[True, cell[slab[1:]] != cell[slab[:-1]]]
            own = s + np.flatnonzero(new)
            # run t of a cell's block is its row of cells a[0] + t, if below b[0]
            at_row = a[0, own, None] + np.arange(runs)
            inside = at_row < b[0, own, None]
            base = np.where(inside, at_row * shape[1], 0)
            begin = starts[base + a[1, own, None]]
            lengths = np.where(inside, starts[base + b[1, own, None]] - begin, 0).ravel()
            at = np.repeat(begin.ravel() - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
            table = np.full((len(own), w), m, dtype=np.intp)
            table[np.arange(w) < size[own, None]] = order[at]
            cand = table.take(np.cumsum(new) - 1, axis=0)
            near, kth = _nearest(padded.take(cand, axis=1), cols[:, slab, None], cand, k)
            margin = np.full(len(slab), _INF)
            for j in range(2):
                np.minimum(margin, cols[j, slab] - faces[j][a[j, s:e]], out=margin)
                np.minimum(margin, faces[j][b[j, s:e]] - cols[j, slab], out=margin)
            sure = kth < np.square(margin)
            out[slab[sure]] = near[sure]
            left.append(slab[~sure])
            s = e
        rows = np.concatenate(left)
        radius *= 2
    return out


def _sample_text(x: np.ndarray, i: int) -> str:
    return f"sample {i} (x = {' '.join(repr(float(v)) for v in x[i])})"


def estimate_slopes_nd(x, f, count: int, seed: int = 0) -> np.ndarray:
    """Slope candidates for n-D data: k-means centroids of local gradients.

    The gradients come from ``_gradient_pool``; clustering uses k-means++
    initialization from ``seed``, a non-negative integer, and Lloyd steps
    that skip the distance rows their bounds settle and stop on a move
    relative to the gradients' size (see ``_kmeans``).  Both stages square
    only values scaled into (-1, 1) and commute with scaling by powers of
    two, so (2^a x, 2^b f) gives 2^(b-a) times the slopes, bit for bit, for
    every a and b that keep x, f and the slopes in the normal range; only
    gradients that overflow are refused.  x must
    be 2-D; the samples and the seed are checked by the :class:`FitProblem`
    of the estimate.  The notes of the pool (skipped neighbourhoods) have no
    place in the returned array, so each is passed to ``warnings.warn``,
    pointing at the caller's line.
    """
    if np.ndim(x) != 2:
        raise DimensionMismatchError("x must be (m, n) with one target per sample")
    problem = FitProblem(x, np.ravel(f), AutoSlopes(count, seed))
    slopes, notes = next(_slope_sets(problem.inputs, problem.targets, [count], seed))
    for note in notes:
        warnings.warn(note, stacklevel=2)
    return slopes


def _gradient_pool(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """The local gradients of n-D samples, one row per full-rank neighbourhood,
    and the notes of the pool.

    x is first scaled by 2^-e into (-1, 1) (``_exponent``), which is exact:
    squared distances cannot overflow, and x times any power of two gives
    the same scaled coordinates.  Each sample's gradient comes from a
    least-squares affine fit over its max(n+2, 8) nearest neighbours, solved
    from the centred normal equations of the neighbourhood (see
    ``_gradients``), and is scaled back by 2^-e.  The neighbours of 2-D
    samples come from ``_knn``'s cell grid when it serves them within its
    budget (``_GRID_PAIRS``), exact and in order of (squared distance,
    index); those it gives up on, which cost it only the cell counts, and
    those of samples with n >= 3 come from scipy's ``cKDTree``, whose order
    among equal distances is its own.
    Neighbourhoods whose Gram matrix fails the rank rule lambda_min >
    2^-40 lambda_max are skipped, and a note says how many.  Every step
    commutes with scaling by powers of two, so fitting (2^a x, 2^b f) gives
    2^(b-a) times the gradients, bit for bit, while no value underflows or
    overflows.  Gradients that overflow raise :class:`TropicalError` naming
    the sample; finite ones of any size are clustered, as ``_kmeans`` scales
    them too.
    """
    m, n = x.shape
    k_nn = min(max(n + 2, 8), m)
    e = _exponent(x)
    xs = np.ldexp(x, -e)
    idx = _knn(xs, k_nn, max(_GRID_PAIRS * k_nn * m, _SLAB_ELEMS)) if n == 2 else None
    if idx is None:
        from scipy.spatial import cKDTree  # heavy import, needed only here

        idx = cKDTree(xs).query(xs, k=k_nn)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        good, beta = _gradients(xs[idx] - xs[:, None, :], f[idx])
        # the gradient in x is the gradient in x * 2^-e, times 2^-e
        gradients = np.ldexp(beta, -e)
    if not good.any():
        raise TropicalError("every neighbourhood is rank-deficient; cannot estimate gradients")
    notes = ()
    if not good.all():
        notes = (f"skipped {int((~good).sum())} samples with rank-deficient neighbourhoods",)
    rows = np.flatnonzero(good)
    bad = ~np.isfinite(gradients).all(axis=1)
    if bad.any():
        raise TropicalError(f"the gradient at {_sample_text(x, int(rows[np.argmax(bad)]))} overflows")
    return gradients, notes


def least_squares_line(x, f) -> tuple[float, float]:
    """Ordinary least-squares line fit; the Euclidean baseline for comparisons.

    The line is always fitted to x and f scaled by powers of two into
    (-1, 1) (``_exponent``), as ``_rms`` scales the residuals, and scaled
    back; the scaling is exact for every value it keeps in the normal range,
    so no sum of squares overflows or underflows needlessly, and
    (2^a x, 2^b f) gives the slope times 2^(b-a) and the intercept times 2^b,
    bit for bit.  Constant x gives slope 0 and the mean of f, also taken of
    the scaled f, so f near the largest float keeps a finite mean.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f = np.asarray(f, dtype=float).reshape(-1)
    p, q = _exponent(x), _exponent(f)
    xs, fs = np.ldexp(x, -p), np.ldexp(f, -q)
    m = len(x)
    with np.errstate(invalid="ignore"):  # inf - inf of non-finite samples gives NaN
        denom = m * np.sum(xs * xs) - np.sum(xs) ** 2
        num = m * np.sum(xs * fs) - np.sum(xs) * np.sum(fs)
    if denom == 0:
        return 0.0, float(np.ldexp(np.mean(fs), q))
    a = num / denom
    return float(np.ldexp(a, q - p)), float(np.ldexp(np.mean(fs - a * xs), q))
