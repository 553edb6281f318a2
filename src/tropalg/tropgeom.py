"""Tropical polynomial geometry.

Max (or min) combinations of affine terms, their varieties (the locus where
two or more terms tie for the extremum), Newton polytopes with their two
algebra laws (join under pointwise max, Minkowski sum under pointwise
addition), and tropical halfspaces.  Over non-plus cloda a polynomial is
restricted to generalized lines and planes: constant terms and terms acting
on a single coordinate through the clodum multiplication.  The table of
terms before their intercepts is also the design matrix of the regression
fits; it is NaN-checked only, as intercepts and points are validated.

Evaluation builds and reduces that table one slab of rows at a time, so an
evaluation of m points holds the m outputs and about max(``_SLAB_ELEMS``, 2K)
table entries (``_SLAB_ELEMS`` is 65,536), never the whole m*K table.  A slab has at least two rows: a
one-row slab would reach BLAS as a matrix-vector product, which rounds
differently from the matrix product, so a one-row tail joins the slab before
it.  Results are the whole table's to the bit, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clodum import MAX_PLUS, CarrierError, Clodum, TropicalError, UnsupportedClodumError
from .wlattice import _SLAB_ELEMS, DimensionMismatchError, _exponent

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
        _check_slopes(slopes, self.clodum)
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

    def _check_points(self, X: np.ndarray) -> None:
        if not np.isfinite(X).all():
            raise TropicalError("evaluation points must be finite")
        if self.clodum != MAX_PLUS:
            self.clodum.validate(X)

    def _term_values(self, X: np.ndarray) -> np.ndarray:
        """Per-term values at each row of checked points X, shape (len(X), rank)."""
        if self.orientation == "max":
            design = _term_design(X, self.slopes, self.clodum.unit)
            return self.clodum._mul(self.intercepts, design)
        design = _term_design(X, self.slopes, self.clodum.dual_unit)
        return self.clodum._dual_mul(self.intercepts, design)

    def evaluate(self, points):
        """Value at one point (shape (n,)) or a batch (shape (m, n)).

        The points are checked once; the term table is then built and reduced
        into the output one slab of ``max(2, _SLAB_ELEMS // rank)`` rows at a
        time, a one-row tail joining the slab before it, so the extra memory
        is about ``max(_SLAB_ELEMS, 2 * rank)`` table entries whatever m.  Slabs keep at least
        two rows because numpy hands a one-row ``X @ slopes.T`` to a
        matrix-vector BLAS routine that rounds differently; with two or more
        rows each entry is the whole product's to the bit.
        """
        x = np.asarray(points, dtype=float)
        single = x.ndim <= 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"polynomial has dimension {self.dimension}, got points of dimension {X.shape[1]}"
            )
        self._check_points(X)
        reduce = np.max if self.orientation == "max" else np.min
        m = len(X)
        bounds = [*range(0, m, max(2, _SLAB_ELEMS // self.rank)), m]
        if len(bounds) > 2 and m - bounds[-2] == 1:
            del bounds[-2]  # a one-row tail joins the slab before it
        out = np.empty(m)
        for r, stop in zip(bounds, bounds[1:]):
            reduce(self._term_values(X[r:stop]), axis=1, out=out[r:stop])
        return float(out[0]) if single else out

    __call__ = evaluate


def _selected_coordinates(slopes: np.ndarray) -> np.ndarray | None:
    """Per slope row, its one-hot coordinate or n for a zero row; None if a row is neither."""
    hot = slopes == 1.0
    if not (((slopes == 0.0) | hot).all() and (hot.sum(axis=1) <= 1).all()):
        return None
    # a zero row's first True is the appended column n, also when n = 0
    return np.argmax(np.column_stack([hot, ~hot.any(axis=1)]), axis=1)


def _check_slopes(slopes: np.ndarray, clodum: Clodum) -> None:
    """Raise unless every slope row is one a polynomial over ``clodum`` can hold."""
    if clodum != MAX_PLUS and _selected_coordinates(slopes) is None:
        raise UnsupportedClodumError(
            "general slope vectors need max-plus; over other cloda each term "
            "must be constant or act on a single coordinate with slope 1"
        )


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


def _check_tol(tol, name: str = "tol") -> None:
    """Refuse a tolerance that is given and not a non-negative number."""
    if tol is not None and not tol >= 0:  # NaN fails the comparison too
        raise TropicalError(f"{name} must be a non-negative number, got {tol!r}")


def argmax_terms(p: TropicalPolynomial, x, tol: float = DEFAULT_VARIETY_TOL) -> set[int]:
    """Indices of terms within ``tol``, a non-negative number, of the extremal
    value at ``x``."""
    _check_tol(tol)
    pt = np.atleast_2d(np.asarray(x, dtype=float))
    if pt.shape[0] != 1:
        raise DimensionMismatchError("argmax_terms takes a single point")
    if pt.shape[1] != p.dimension:
        raise DimensionMismatchError(
            f"polynomial has dimension {p.dimension}, got a point of dimension {pt.shape[1]}"
        )
    p._check_points(pt)
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
    collinear-redundant points are dropped.  Integer inputs below 2**40 are
    processed with exact integer cross products.  Float inputs follow the
    power-of-two rule of ``wlattice._exponent``: their cross products are
    taken of the points scaled by 2^-e into (-1, 1), against a collinearity
    tolerance of ``tol`` (default 1e-12), a non-negative number, times
    max(1, max|p|)^2 in the same units, so no cross product overflows.  The
    scaling is exact for every value that stays normal, so the hull is that
    of the unscaled cross products wherever those neither overflow nor
    underflow.  The vertices returned are input points.
    """
    _check_tol(tol)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError("convex_hull_2d expects an (N, 2) array")
    if not np.isfinite(pts).all():
        raise TropicalError("hull points must be finite")
    pts = np.unique(pts, axis=0)
    if len(pts) == 1:
        return pts
    scale = float(np.abs(pts).max())
    if np.all(pts == np.rint(pts)) and scale < 2**40:
        pts = pts + 0.0  # the vertices are the integers: no -0.0
        rows = [(int(a), int(b), i) for i, (a, b) in enumerate(pts)]
        eps = 0
    else:
        e = _exponent(pts)
        rows = [(a, b, i) for i, (a, b) in enumerate(np.ldexp(pts, -e).tolist())]
        tol = 1e-12 if tol is None else tol
        # tol * max(1, scale)**2 in units of 2^2e: below 1 the scale drops out
        eps = tol * float(np.ldexp(scale, -e)) ** 2 if e > 0 else float(np.ldexp(tol, -2 * e))

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
    return pts[[row[2] for row in lower[:-1] + upper[:-1]]]


@dataclass(frozen=True, eq=False)
class Polytope:
    """A polytope given by a finite generating point set in R^n.

    For n <= 2 the ordered vertex list of the convex hull is computed at
    construction (counterclockwise, minimal).  In higher dimensions only the
    generators are stored.
    """

    generators: np.ndarray
    hull_vertices: np.ndarray | None = field(init=False)

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
        hull = None
        if self.dimension == 1:
            lo, hi = float(gens.min()), float(gens.max())
            hull = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        elif self.dimension == 2:
            hull = convex_hull_2d(gens)
        if hull is not None:
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


def polytope_equal(P: Polytope, Q: Polytope, tol: float = 1e-9) -> bool:
    """Whether two polytopes describe the same convex body.

    Dimensions 1 and 2 compare canonical hull vertex lists exactly (up to
    ``tol``).  Higher dimensions test two-way containment: every distinct
    generator of each polytope must be a convex combination of the other's
    generators, reconstructed within ``tol`` (one feasibility LP per
    generator, so any number of generators is compared).
    """
    if P.dimension != Q.dimension:
        return False
    if P.dimension <= 2:
        a, b = P.hull_vertices, Q.hull_vertices
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=0.0, atol=tol))
    a, b = np.unique(P.generators, axis=0), np.unique(Q.generators, axis=0)
    return all(_in_convex_hull(p, b, tol) for p in a) and all(_in_convex_hull(q, a, tol) for q in b)


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
        if self.orientation not in ("max", "min"):
            raise TropicalError(f"orientation must be 'max' or 'min', got {self.orientation!r}")
        absent = -_INF if self.orientation == "max" else _INF
        if (lhs == -absent).any() or (rhs == -absent).any():
            raise TropicalError(f"{self.orientation}-form coefficients live in R union {{{absent:+}}}")
        if not np.all((lhs == absent) | (rhs == absent)):
            raise TropicalError(f"each slot needs a coefficient on only one side (the other {absent:+})")
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
    reduce = np.max if h.orientation == "max" else np.min
    return bool(reduce(left_terms) <= reduce(right_terms))
