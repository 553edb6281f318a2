"""Optimal solutions of max-mul linear systems A (*) x = b.

The greatest subsolution (GLE) is the residual of the matrix dilation: it is
the largest x with A (*) x <= b and it minimizes every l_p residual norm over
subsolutions.  For max-plus systems the unconstrained l_inf optimum (MMAE) is
the GLE shifted up by half its l_inf residual.  The canonical projection maps
b to its best from-below approximation in the span of the columns of A, which
is also a best approximation in the Hilbert projective semimetric.

``solve`` and the line, plane and max-affine fits of ``tropalg.regression``
run through the same GLE -> mu -> MMAE routine: with the slopes fixed, a
fit's intercepts are the solution of its design system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .clodum import MAX_PLUS, UnsupportedClodumError
from .wlattice import (
    DimensionMismatchError,
    TropicalMatrix,
    TropicalVector,
    matvec_dilate,
    matvec_erode,
)

__all__ = [
    "SolveResult",
    "greatest_subsolution",
    "mmae_solution",
    "solve",
    "canonical_projection",
    "hilbert_metric",
]

_INF = float("inf")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solution report for A (*) x = b.

    ``x_hat`` is the greatest subsolution, ``mu`` half its l_inf residual over
    rows with finite b, and ``x_tilde`` (max-plus only) the unconstrained
    l_inf-optimal solution mu + x_hat.  ``exact`` flags A (*) x_hat == b.
    """

    x_hat: TropicalVector
    mu: float
    residual_gle: np.ndarray
    exact: bool
    x_tilde: TropicalVector | None = None
    residual_mmae: np.ndarray | None = None
    notes: tuple[str, ...] = field(default=())


def _check_dims(A: TropicalMatrix, b: TropicalVector) -> None:
    if A.clodum != b.clodum:
        raise DimensionMismatchError(
            f"matrix clodum {A.clodum.spec_string()} differs from vector clodum {b.clodum.spec_string()}"
        )
    if A.shape[0] != len(b):
        raise DimensionMismatchError(f"matrix has {A.shape[0]} rows but b has {len(b)} entries")


def _warn_dead_columns(A: TropicalMatrix) -> None:
    dead = np.all(A.values == A.clodum.bottom, axis=0)
    if dead.any():
        cols = np.flatnonzero(dead).tolist()
        warnings.warn(f"columns {cols} of A are entirely bottom; solution components set to top")


def greatest_subsolution(A: TropicalMatrix, b: TropicalVector) -> TropicalVector:
    """Largest x with A (*) x <= b; the greatest solution when one exists.

    Computed column-wise as x_j = inf_i adjoint_erosion(a_ij, b_i) in O(mn)
    scalar operations.  A column of A that is entirely bottom constrains
    nothing, so the corresponding component is top; a warning is emitted
    because such components are usually a modelling mistake.
    """
    _check_dims(A, b)
    _warn_dead_columns(A)
    return matvec_erode(A, b)


def _residual(b: np.ndarray, proj: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        r = b - proj
    # inf - inf: target and projection agree at infinity
    return np.where(np.isnan(r), 0.0, r)


def _solve_checked(A: TropicalMatrix, b: TropicalVector, method: str) -> SolveResult:
    """GLE -> mu -> MMAE in one pass over a system already checked by the caller.

    One erosion gives x_hat and one dilation both its residual and ``exact``;
    mu is half the largest finite-row GLE residual, clamped at 0.
    """
    x_hat = matvec_erode(A, b)
    proj = matvec_dilate(A, x_hat).values
    r_gle = _residual(b.values, proj)
    finite = np.isfinite(b.values)
    mu = 0.5 * max(float(np.max(r_gle[finite])), 0.0) if finite.any() else 0.0
    x_tilde = None
    r_mmae = None
    if method == "mmae":
        x_tilde = TropicalVector(A.clodum._mul(mu, x_hat.values), A.clodum)
        r_mmae = _residual(b.values, matvec_dilate(A, x_tilde).values)
    return SolveResult(
        x_hat=x_hat,
        mu=mu,
        residual_gle=r_gle,
        exact=bool(np.all(proj == b.values)),
        x_tilde=x_tilde,
        residual_mmae=r_mmae,
    )


def solve(A: TropicalMatrix, b: TropicalVector, method: str = "gle") -> SolveResult:
    """Solve A (*) x = b optimally; ``method`` is ``gle`` or ``mmae``.

    The MMAE method is proven optimal for max-plus only.  Max-times systems
    are accepted and solved through the log isomorphism: mu then measures the
    l_inf error of log-domain residuals (i.e. a relative error), which is
    recorded in ``notes``.  Other cloda reject the MMAE method.
    """
    if method not in ("gle", "mmae"):
        raise ValueError(f"unknown method {method!r}")
    _check_dims(A, b)
    clodum = A.clodum

    if method == "mmae" and clodum.kind == "max-times":
        with np.errstate(divide="ignore"):
            logA = TropicalMatrix(np.log(A.values), MAX_PLUS)
            logb = TropicalVector(np.log(b.values), MAX_PLUS)
        inner = solve(logA, logb, "mmae")
        return replace(
            inner,
            x_hat=TropicalVector(np.exp(inner.x_hat.values), clodum),
            x_tilde=TropicalVector(np.exp(inner.x_tilde.values), clodum),
            notes=("max-times solved via the log isomorphism; mu and residuals are log-domain",),
        )
    if method == "mmae" and clodum != MAX_PLUS:
        raise UnsupportedClodumError(
            f"the MMAE solution is only l_inf-optimal for max-plus, not {clodum.spec_string()}"
        )

    _warn_dead_columns(A)
    return _solve_checked(A, b, method)


def mmae_solution(A: TropicalMatrix, b: TropicalVector) -> SolveResult:
    """Unconstrained minimum-max-absolute-error solution (max-plus).

    Returns the full report: x_tilde = mu + x_hat attains l_inf error mu,
    exactly half the error of the greatest subsolution, and no other x does
    better.  Cost O(mn).
    """
    return solve(A, b, method="mmae")


def canonical_projection(A: TropicalMatrix, b: TropicalVector) -> TropicalVector:
    """Project b onto the dilation span of the columns of A: A (*) x_hat.

    An opening: increasing, idempotent and <= b.  Among elements of the span
    it attains the least Hilbert projective distance from b.
    """
    _check_dims(A, b)
    return matvec_dilate(A, matvec_erode(A, b))


def hilbert_metric(x, y) -> float:
    """Hilbert projective semimetric between max-plus vectors.

    For finite vectors this is range(x - y) = max_i(x_i - y_i) -
    min_i(x_i - y_i): zero exactly on additive shifts, symmetric, and
    triangle-inequality compliant.  Vectors with infinite entries are
    compared through the residuated shifts, giving +inf when no finite
    shift of one fits below the other.
    """
    for v in (x, y):
        if isinstance(v, TropicalVector) and v.clodum != MAX_PLUS:
            raise UnsupportedClodumError("hilbert_metric is defined over max-plus vectors")
    xv = x.values if isinstance(x, TropicalVector) else MAX_PLUS.validate(x)
    yv = y.values if isinstance(y, TropicalVector) else MAX_PLUS.validate(y)
    if xv.shape != yv.shape:
        raise DimensionMismatchError(f"length mismatch: {xv.shape} vs {yv.shape}")
    if np.array_equal(xv, yv):
        return 0.0
    if np.isfinite(xv).all() and np.isfinite(yv).all():
        d = xv - yv
        return float(np.max(d) - np.min(d))
    # x\y = sup{c : x + c <= y}, computed per component by residuation
    s_xy = float(np.min(MAX_PLUS._adjoint_erosion(xv, yv)))
    s_yx = float(np.min(MAX_PLUS._adjoint_erosion(yv, xv)))
    total = MAX_PLUS._mul(s_xy, s_yx)
    return float(-total)
