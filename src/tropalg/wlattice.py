"""Finite-dimensional weighted-lattice linear algebra.

Vectors, matrices and 1-D signals over a clodum, with the sup-mul (dilation)
and inf-dual-mul (erosion) products, the conjugate transpose for clogs, and
translation-invariant signal convolutions.  Storage is dense; reductions over
an empty index set follow lattice completeness conventions (sup of nothing is
bottom, inf of nothing is top).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clodum import Clodum, TropicalError, UnsupportedClodumError

__all__ = [
    "DimensionMismatchError",
    "ClodumMismatchError",
    "TropicalVector",
    "TropicalMatrix",
    "Signal1D",
    "matvec_dilate",
    "matvec_erode",
    "matmul_dilate",
    "matmul_erode",
    "conj_transpose",
    "signal_dilate",
    "signal_erode",
]

_INF = float("inf")


class DimensionMismatchError(TropicalError):
    """Operand shapes are incompatible."""


class ClodumMismatchError(TropicalError):
    """Operands live over different cloda."""


def _freeze(obj, attr: str, values, clodum: Clodum, ndim: int) -> None:
    arr = np.array(clodum.validate(values), dtype=float, copy=True)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{type(obj).__name__} expects {ndim}-d data, got {arr.ndim}-d")
    arr.flags.writeable = False
    object.__setattr__(obj, attr, arr)


@dataclass(frozen=True, eq=False)
class TropicalVector:
    """A dense vector with entries in the carrier of ``clodum``."""

    values: np.ndarray
    clodum: Clodum

    def __post_init__(self) -> None:
        _freeze(self, "values", self.values, self.clodum, 1)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def __repr__(self) -> str:
        body = np.array2string(self.values, threshold=16, separator=", ")
        return f"TropicalVector({body}, {self.clodum.spec_string()})"


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """A dense matrix with entries in the carrier of ``clodum``."""

    values: np.ndarray
    clodum: Clodum

    def __post_init__(self) -> None:
        _freeze(self, "values", self.values, self.clodum, 2)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @classmethod
    def identity(cls, n: int, clodum: Clodum) -> "TropicalMatrix":
        """Unit on the diagonal, bottom elsewhere: neutral for matmul_dilate."""
        vals = np.full((n, n), clodum.bottom)
        np.fill_diagonal(vals, clodum.unit)
        return cls(vals, clodum)

    def __repr__(self) -> str:
        body = np.array2string(self.values, threshold=16, separator=", ")
        return f"TropicalMatrix({body}, {self.clodum.spec_string()})"


def _same_clodum(a, b) -> Clodum:
    if a.clodum != b.clodum:
        raise ClodumMismatchError(
            f"operands use different cloda: {a.clodum.spec_string()} vs {b.clodum.spec_string()}"
        )
    return a.clodum


def matvec_dilate(A: TropicalMatrix, x: TropicalVector) -> TropicalVector:
    """Matrix-vector dilation product: result_i = sup_j mul(a_ij, x_j)."""
    clodum = _same_clodum(A, x)
    m, n = A.shape
    if n != len(x):
        raise DimensionMismatchError(f"matrix has {n} columns but vector has {len(x)} entries")
    if n == 0:
        return TropicalVector(np.full(m, clodum.bottom), clodum)
    prod = clodum._mul(A.values, x.values[None, :])
    return TropicalVector(np.max(prod, axis=1), clodum)


def matvec_erode(A: TropicalMatrix, y: TropicalVector) -> TropicalVector:
    """Adjoint erosion of ``matvec_dilate``: result_j = inf_i adjoint_erosion(a_ij, y_i).

    The unique operator satisfying the vector adjunction
    ``matvec_dilate(A, x) <= y  <=>  x <= matvec_erode(A, y)``; for clogs it
    equals the conjugate-transpose inf-dual-mul product.
    """
    clodum = _same_clodum(A, y)
    m, n = A.shape
    if m != len(y):
        raise DimensionMismatchError(f"matrix has {m} rows but vector has {len(y)} entries")
    if m == 0:
        return TropicalVector(np.full(n, clodum.top), clodum)
    er = clodum._adjoint_erosion(A.values, y.values[:, None])
    return TropicalVector(np.min(er, axis=0), clodum)


def matmul_dilate(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Sup-mul matrix product: c_ij = sup_k mul(a_ik, b_kj).  Associative."""
    clodum = _same_clodum(A, B)
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise DimensionMismatchError(f"inner dimensions differ: {k} vs {k2}")
    if k == 0:
        return TropicalMatrix(np.full((m, n), clodum.bottom), clodum)
    prod = clodum._mul(A.values[:, :, None], B.values[None, :, :])
    return TropicalMatrix(np.max(prod, axis=1), clodum)


def matmul_erode(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Inf-dual-mul matrix product: d_ij = inf_k dual_mul(a_ik, b_kj)."""
    clodum = _same_clodum(A, B)
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise DimensionMismatchError(f"inner dimensions differ: {k} vs {k2}")
    if k == 0:
        return TropicalMatrix(np.full((m, n), clodum.top), clodum)
    prod = clodum._dual_mul(A.values[:, :, None], B.values[None, :, :])
    return TropicalMatrix(np.min(prod, axis=1), clodum)


def conj_transpose(A: TropicalMatrix) -> TropicalMatrix:
    """Conjugate transpose (A*)_ij = conjugate(a_ji).  Clogs only."""
    if not A.clodum.is_clog:
        raise UnsupportedClodumError(
            f"conjugate transpose needs a clog, not {A.clodum.spec_string()}"
        )
    return TropicalMatrix(A.clodum._conjugate(A.values.T), A.clodum)


@dataclass(frozen=True, eq=False)
class Signal1D:
    """A finite-support 1-D signal; ``values[i]`` sits at position ``origin + i``.

    Off-support values are implicitly bottom when the signal feeds a dilation
    and top when it feeds an erosion, which emulates infinite-domain semantics
    with deterministic boundaries.
    """

    values: np.ndarray
    origin: int
    clodum: Clodum

    def __post_init__(self) -> None:
        _freeze(self, "values", self.values, self.clodum, 1)
        if len(self.values) == 0:
            raise DimensionMismatchError("signal support must be non-empty")
        object.__setattr__(self, "origin", int(self.origin))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def end(self) -> int:
        """Position of the last sample."""
        return self.origin + len(self) - 1

    @classmethod
    def impulse(cls, clodum: Clodum) -> "Signal1D":
        """Unit impulse: the multiplication identity at position 0."""
        return cls(np.array([clodum.unit]), 0, clodum)

    def dense(self, start: int, stop: int, fill: float) -> np.ndarray:
        """Samples on positions ``start .. stop-1`` with ``fill`` off-support."""
        out = np.full(stop - start, float(fill))
        lo = max(start, self.origin)
        hi = min(stop, self.end + 1)
        if lo < hi:
            out[lo - start:hi - start] = self.values[lo - self.origin:hi - self.origin]
        return out


def signal_dilate(f: Signal1D, h: Signal1D) -> Signal1D:
    """Sup-mul convolution (f (+) h)(x) = sup_y mul(f(y), h(x - y)).

    Commutative; the output support is the set sum of the input supports.
    """
    clodum = _same_clodum(f, h)
    nf, nh = len(f), len(h)
    out = np.full(nf + nh - 1, clodum.bottom)
    for i in range(nf):
        seg = out[i:i + nh]
        np.maximum(seg, clodum._mul(f.values[i], h.values), out=seg)
    return Signal1D(out, f.origin + h.origin, clodum)


def signal_erode(g: Signal1D, h: Signal1D) -> Signal1D:
    """Adjoint erosion of dilation by ``h``: inf_x adjoint_erosion(h(x - y), g(x)).

    ``(signal_dilate(., h), signal_erode(., h))`` is an adjunction on
    bottom/top-padded signals.
    """
    clodum = _same_clodum(g, h)
    ng, nh = len(g), len(h)
    out = np.full(ng + nh - 1, clodum.top)
    rev = h.values[::-1]
    for j in range(ng):
        seg = out[j:j + nh]
        np.minimum(seg, clodum._adjoint_erosion(rev, g.values[j]), out=seg)
    return Signal1D(out, g.origin - h.origin - (nh - 1), clodum)
