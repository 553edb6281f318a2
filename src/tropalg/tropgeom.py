"""Tropical polynomial geometry.

Max (or min) combinations of affine terms, their varieties (the locus where
two or more terms tie for the extremum), Newton polytopes with their two
algebra laws (join under pointwise max, Minkowski sum under pointwise
addition), and tropical halfspaces.  Over non-plus cloda a polynomial is
restricted to generalized lines and planes: constant terms and terms acting
on a single coordinate through the clodum multiplication.  The table of
terms before their intercepts is also the design matrix of the regression
fits; it is NaN-checked only, as intercepts and points are validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clodum import MAX_PLUS, CarrierError, Clodum, TropicalError, UnsupportedClodumError
from .wlattice import DimensionMismatchError

__all__ = [
    "TropicalPolynomial",
    "Polytope",
    "TropicalHalfspace",
    "argmax_terms",
    "on_variety",
    "newton_polytope",
    "polytope_join",
    "polytope_minkowski_sum",
    "polytope_equal",
    "halfspace_contains",
    "tropical_max",
    "tropical_sum",
    "convex_hull_2d",
]

_INF = float("inf")

DEFAULT_VARIETY_TOL = 1e-9


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True, eq=False)
class TropicalPolynomial:
    """A finite max (or min) of affine terms over a clodum.

    Term k pairs a finite real slope vector with an intercept from the
    carrier.  For max-plus the term value at x is ``intercept_k + slopes_k . x``;
    for other cloda the slope row must be all zeros (a constant term) or a
    single 1 selecting one coordinate, and the term value composes the
    intercept with that coordinate through the clodum multiplication (dual
    multiplication for min orientation).  Terms with a bottom intercept are
    inert under max orientation, top intercepts are inert under min.
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    clodum: Clodum = MAX_PLUS
    orientation: str = "max"

    def __post_init__(self) -> None:
        slopes = np.asarray(self.slopes, dtype=float)
        if slopes.ndim == 1:
            slopes = slopes[:, None]
        if slopes.ndim != 2 or slopes.shape[0] < 1:
            raise DimensionMismatchError("slopes must be a (terms, dimension) array with >= 1 term")
        if not np.isfinite(slopes).all():
            raise TropicalError("slope vectors must be finite")
        intercepts = np.array(self.clodum.validate(self.intercepts), dtype=float, copy=True)
        if intercepts.shape != (slopes.shape[0],):
            raise DimensionMismatchError("need exactly one intercept per term")
        if self.orientation not in ("max", "min"):
            raise TropicalError(f"orientation must be 'max' or 'min', got {self.orientation!r}")
        if self.clodum != MAX_PLUS and _selected_coordinates(slopes) is None:
            raise UnsupportedClodumError(
                "general slope vectors need max-plus; over other cloda each term "
                "must be constant or act on a single coordinate with slope 1"
            )
        slopes = slopes.copy()
        slopes.flags.writeable = False
        intercepts.flags.writeable = False
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)

    @classmethod
    def from_terms(cls, terms, clodum: Clodum = MAX_PLUS, orientation: str = "max"):
        """Build from an iterable of (slope vector, intercept) pairs."""
        slopes = [np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in terms]
        intercepts = [b for _, b in terms]
        return cls(np.array(slopes), np.array(intercepts), clodum, orientation)

    @property
    def rank(self) -> int:
        """Number of terms."""
        return self.slopes.shape[0]

    @property
    def dimension(self) -> int:
        return self.slopes.shape[1]

    @property
    def inert_mask(self) -> np.ndarray:
        """Terms that can never attain the extremum."""
        if self.orientation == "max":
            return self.intercepts == self.clodum.bottom
        return self.intercepts == self.clodum.top

    def _term_values(self, X: np.ndarray) -> np.ndarray:
        """Per-term values at each row of X, shape (len(X), rank), after checking X."""
        if not np.isfinite(X).all():
            raise TropicalError("evaluation points must be finite")
        if self.clodum != MAX_PLUS:
            self.clodum.validate(X)
        if self.orientation == "max":
            design = _term_design(X, self.slopes, self.clodum.unit)
            return self.clodum._mul(self.intercepts, design)
        design = _term_design(X, self.slopes, self.clodum.dual_unit)
        return self.clodum._dual_mul(self.intercepts, design)

    def evaluate(self, points):
        """Value at one point (shape (n,)) or a batch (shape (m, n))."""
        x = np.asarray(points, dtype=float)
        single = x.ndim <= 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"polynomial has dimension {self.dimension}, got points of dimension {X.shape[1]}"
            )
        vals = self._term_values(X)
        out = vals.max(axis=1) if self.orientation == "max" else vals.min(axis=1)
        return float(out[0]) if single else out

    __call__ = evaluate


def _selected_coordinates(slopes: np.ndarray) -> np.ndarray | None:
    """Per slope row, its one-hot coordinate or n for a zero row; None if a row is neither."""
    hot = slopes == 1.0
    if not (((slopes == 0.0) | hot).all() and (hot.sum(axis=1) <= 1).all()):
        return None
    return np.where(hot.any(axis=1), hot.argmax(axis=1), slopes.shape[1])


def _term_design(X: np.ndarray, slopes: np.ndarray, fill: float) -> np.ndarray:
    """Column k is term k at each row of X before its intercept: a term table or a fit's design.

    A zero slope row gives ``fill`` and a one-hot row copies its coordinate of X
    as is, so infinite coordinates stay intact.  Other slopes (max-plus only) give
    ``X @ slopes.T``, checked for NaN (overflowed inf - inf) instead of the carrier.
    """
    pick = _selected_coordinates(slopes)
    if pick is not None:
        # take keeps C order, like a stacked [x, unit]: the layout orders the
        # solver's reductions, and so which of two tied signed zeros they keep
        return np.take(np.column_stack([X, np.full(len(X), fill)]), pick, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        design = X @ slopes.T
    if np.isnan(design).any():
        raise CarrierError("NaN is not an element of the max-plus carrier")
    return design


def argmax_terms(p: TropicalPolynomial, x, tol: float = DEFAULT_VARIETY_TOL) -> set[int]:
    """Indices of terms within ``tol`` of the extremal value at ``x``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    if pt.shape[0] != 1:
        raise DimensionMismatchError("argmax_terms takes a single point")
    if pt.shape[1] != p.dimension:
        raise DimensionMismatchError(
            f"polynomial has dimension {p.dimension}, got a point of dimension {pt.shape[1]}"
        )
    vals = p._term_values(pt)[0]
    if p.orientation == "max":
        best = vals.max()
        hits = vals >= best - tol
    else:
        best = vals.min()
        hits = vals <= best + tol
    return {int(i) for i in np.flatnonzero(hits)}


def on_variety(p: TropicalPolynomial, x, tol: float = DEFAULT_VARIETY_TOL) -> bool:
    """True when two or more terms attain the extremum at ``x``."""
    return len(argmax_terms(p, x, tol)) >= 2


def tropical_max(p: TropicalPolynomial, q: TropicalPolynomial) -> TropicalPolynomial:
    """Pointwise max of two polynomials: the union of their terms."""
    if p.clodum != q.clodum or p.orientation != q.orientation:
        raise TropicalError("operands must share clodum and orientation")
    if p.orientation != "max":
        raise TropicalError("tropical_max combines max-orientation polynomials")
    if p.dimension != q.dimension:
        raise DimensionMismatchError("operands must share dimension")
    return TropicalPolynomial(
        np.vstack([p.slopes, q.slopes]),
        np.concatenate([p.intercepts, q.intercepts]),
        p.clodum,
        p.orientation,
    )


def tropical_sum(p: TropicalPolynomial, q: TropicalPolynomial) -> TropicalPolynomial:
    """Pointwise (ordinary) sum of two max-plus polynomials: all cross terms."""
    if p.clodum != MAX_PLUS or q.clodum != MAX_PLUS:
        raise UnsupportedClodumError("tropical_sum is defined over max-plus")
    if p.orientation != "max" or q.orientation != "max":
        raise TropicalError("tropical_sum combines max-orientation polynomials")
    if p.dimension != q.dimension:
        raise DimensionMismatchError("operands must share dimension")
    slopes = (p.slopes[:, None, :] + q.slopes[None, :, :]).reshape(-1, p.dimension)
    inter = MAX_PLUS._mul(p.intercepts[:, None], q.intercepts[None, :]).reshape(-1)
    return TropicalPolynomial(slopes, inter, MAX_PLUS, "max")


# ---------------------------------------------------------------------------
# polytopes


def convex_hull_2d(points, tol: float | None = None):
    """Convex hull of planar points, counterclockwise and minimal.

    Monotone chain starting from the lexicographically smallest vertex;
    collinear-redundant points are dropped.  Integer inputs are processed
    with exact integer cross products, floats with a collinearity tolerance
    of 1e-12 scaled by the squared coordinate magnitude.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError("convex_hull_2d expects an (N, 2) array")
    if not np.isfinite(pts).all():
        raise TropicalError("hull points must be finite")
    pts = np.unique(pts, axis=0)
    if len(pts) == 1:
        return pts
    scale = float(np.abs(pts).max())
    exact = bool(np.all(pts == np.rint(pts)) and scale < 2**40)
    if exact:
        rows = [(int(a), int(b)) for a, b in pts]
        eps = 0
    else:
        rows = [(float(a), float(b)) for a, b in pts]
        eps = (1e-12 if tol is None else tol) * max(1.0, scale) ** 2

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for point in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], point) <= eps:
                out.pop()
            out.append(point)
        return out

    lower = chain(rows)
    upper = chain(reversed(rows))
    hull = lower[:-1] + upper[:-1]
    return np.array(hull, dtype=float)


@dataclass(frozen=True, eq=False)
class Polytope:
    """A polytope given by a finite generating point set in R^n.

    For n <= 2 the ordered vertex list of the convex hull is computed at
    construction (counterclockwise, minimal).  In higher dimensions only the
    generators are stored.
    """

    generators: np.ndarray
    hull_vertices: np.ndarray | None = None

    def __post_init__(self) -> None:
        gens = np.asarray(self.generators, dtype=float)
        if gens.ndim == 1:
            gens = gens[:, None]
        if gens.ndim != 2 or gens.shape[0] < 1 or gens.shape[1] < 1:
            raise DimensionMismatchError("generators must form a non-empty (N, n) array")
        if not np.isfinite(gens).all():
            raise TropicalError("generators must be finite")
        gens = gens.copy()
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)
        hull = self.hull_vertices
        if hull is None and self.dimension == 1:
            lo, hi = float(gens.min()), float(gens.max())
            hull = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        elif hull is None and self.dimension == 2:
            hull = convex_hull_2d(gens)
        if hull is not None:
            hull = np.asarray(hull, dtype=float).copy()
            hull.flags.writeable = False
        object.__setattr__(self, "hull_vertices", hull)

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]


def polytope_join(P: Polytope, Q: Polytope) -> Polytope:
    """Convex hull of the union of the generating sets."""
    if P.dimension != Q.dimension:
        raise DimensionMismatchError("polytopes must share dimension")
    return Polytope(np.vstack([P.generators, Q.generators]))


def polytope_minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """Minkowski sum: hull of all pairwise sums of generators."""
    if P.dimension != Q.dimension:
        raise DimensionMismatchError("polytopes must share dimension")
    sums = (P.generators[:, None, :] + Q.generators[None, :, :]).reshape(-1, P.dimension)
    return Polytope(sums)


def _in_convex_hull(point: np.ndarray, others: np.ndarray, tol: float) -> bool:
    """Feasibility LP: is ``point`` a convex combination of ``others``?"""
    from scipy.optimize import linprog  # heavy import, needed only here

    n_pts = len(others)
    A_eq = np.vstack([others.T, np.ones(n_pts)])
    b_eq = np.append(point, 1.0)
    res = linprog(np.zeros(n_pts), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return False
    recon = others.T @ res.x
    return bool(np.max(np.abs(recon - point)) <= tol)


def _reduced_generators(points: np.ndarray, tol: float) -> np.ndarray:
    pts = np.unique(points, axis=0)
    if len(pts) > 12:
        raise TropicalError(
            "exact generator reduction in dimension >= 3 is limited to 12 points"
        )
    keep = list(range(len(pts)))
    for i in range(len(pts)):
        others = [j for j in keep if j != i]
        if len(others) >= 1 and i in keep and _in_convex_hull(pts[i], pts[others], tol):
            keep.remove(i)
    return pts[keep]


def polytope_equal(P: Polytope, Q: Polytope, tol: float = 1e-9) -> bool:
    """Whether two polytopes describe the same convex body.

    Dimensions 1 and 2 compare canonical hull vertex lists exactly (up to
    ``tol``).  Higher dimensions reduce both generating sets by discarding
    points expressible as convex combinations of the rest (at most 12
    generators each) and match the survivors.
    """
    if P.dimension != Q.dimension:
        return False
    if P.dimension <= 2:
        a, b = P.hull_vertices, Q.hull_vertices
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=0.0, atol=tol))
    a = _reduced_generators(P.generators, tol)
    b = _reduced_generators(Q.generators, tol)
    if a.shape != b.shape:
        return False
    used = np.zeros(len(b), dtype=bool)
    for row in a:
        dist = np.max(np.abs(b - row), axis=1)
        dist[used] = _INF
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        used[j] = True
    return True


def newton_polytope(p: TropicalPolynomial) -> Polytope:
    """Convex hull of the slope vectors of the non-inert terms."""
    if p.orientation != "max":
        raise TropicalError("the Newton polytope is defined for max orientation")
    mask = ~p.inert_mask
    if not mask.any():
        raise TropicalError("polynomial has no active terms")
    return Polytope(p.slopes[mask])


# ---------------------------------------------------------------------------
# halfspaces


@dataclass(frozen=True, eq=False)
class TropicalHalfspace:
    """The region where one tropical affine expression stays below another.

    ``lhs`` and ``rhs`` hold n slope coefficients followed by one constant.
    With max orientation membership of x means
    ``max(lhs[n], max_i lhs[i] + x_i) <= max(rhs[n], max_i rhs[i] + x_i)``
    and absent coefficients are -inf; per coordinate at most one side may
    carry a finite coefficient.  Min orientation is the dual form whose
    boundaries are min-plus hyperplanes: absent coefficients are +inf and
    per coordinate at least one side must be +inf.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    orientation: str = "max"

    def __post_init__(self) -> None:
        lhs = np.asarray(self.lhs, dtype=float).copy()
        rhs = np.asarray(self.rhs, dtype=float).copy()
        if lhs.ndim != 1 or lhs.shape != rhs.shape or len(lhs) < 2:
            raise DimensionMismatchError("lhs and rhs must be equal-length vectors of n+1 entries")
        if np.isnan(lhs).any() or np.isnan(rhs).any():
            raise TropicalError("halfspace coefficients cannot be NaN")
        if self.orientation == "max":
            if np.isposinf(lhs).any() or np.isposinf(rhs).any():
                raise TropicalError("max-form coefficients live in R union {-inf}")
            if not np.all(np.minimum(lhs, rhs) == -_INF):
                raise TropicalError("each slot needs a coefficient on only one side (the other -inf)")
        elif self.orientation == "min":
            if np.isneginf(lhs).any() or np.isneginf(rhs).any():
                raise TropicalError("min-form coefficients live in R union {+inf}")
            if not np.all(np.maximum(lhs, rhs) == _INF):
                raise TropicalError("each slot needs a coefficient on only one side (the other +inf)")
        else:
            raise TropicalError(f"orientation must be 'max' or 'min', got {self.orientation!r}")
        lhs.flags.writeable = False
        rhs.flags.writeable = False
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def dimension(self) -> int:
        return len(self.lhs) - 1


def halfspace_contains(h: TropicalHalfspace, x) -> bool:
    """Nonstrict membership test of point ``x``."""
    pt = np.asarray(x, dtype=float)
    if pt.ndim != 1 or len(pt) != h.dimension:
        raise DimensionMismatchError(f"halfspace has dimension {h.dimension}, got {pt.shape}")
    if not np.isfinite(pt).all():
        raise TropicalError("membership points must be finite")
    left_terms = np.append(h.lhs[:-1] + pt, h.lhs[-1])
    right_terms = np.append(h.rhs[:-1] + pt, h.rhs[-1])
    if h.orientation == "max":
        return bool(np.max(left_terms) <= np.max(right_terms))
    return bool(np.min(left_terms) <= np.min(right_terms))
