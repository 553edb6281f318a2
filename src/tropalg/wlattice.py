"""Finite-dimensional weighted-lattice linear algebra.

Vectors, matrices and 1-D signals over a clodum, with the sup-mul (dilation)
and inf-dual-mul (erosion) products, the conjugate transpose for clogs, and
translation-invariant signal convolutions.  Storage is dense and C-ordered;
reductions over an empty index set follow lattice completeness conventions
(sup of nothing is bottom, inf of nothing is top).

Memory and loop bounds: a matrix product reduces row slabs of its left operand
against the whole right operand, so no temporary holds more than
``max(_SLAB_ELEMS, k*n)`` elements (k*n is the size of the right operand); it
never builds the m*k*n tensor.  The matrix-vector dilation is that product
with the vector as one column, in the same row slabs.  The matrix-vector
erosion reduces row slabs of the matrix the same way, and so does polynomial
evaluation (``tropgeom.TropicalPolynomial.evaluate``) with its term table, so
neither builds a temporary of the matrix's or table's size.  Both signal
convolutions run one loop, in Python over the shorter of the two supports,
treating the longer one as a single vector op; erosion runs it with the kernel
reversed.  Each output entry meets its operands in the same order
whatever the slab or loop axis, so results are reproducible to the bit, signed
zeros included.
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

# Element budget of one slab: (rows of A) * k * n for a matrix product,
# (rows of A) * n for a matrix-vector product, (points) * terms for evaluation.
_SLAB_ELEMS = 65536


class DimensionMismatchError(TropicalError):
    """Operand shapes are incompatible."""


class ClodumMismatchError(TropicalError):
    """Operands live over different cloda."""


def _freeze(obj, attr: str, values, clodum: Clodum, ndim: int) -> None:
    # C order whatever the caller's layout: the products' reductions then see
    # the same memory order, and keep the same one of two tied signed zeros.
    arr = np.array(clodum.validate(values), dtype=float, copy=True, order="C")
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{type(obj).__name__} expects {ndim}-d data, got {arr.ndim}-d")
    arr.flags.writeable = False
    object.__setattr__(obj, attr, arr)


def _adopt(cls, values: np.ndarray, clodum: Clodum, **fields):
    """A typed object over a fresh C-ordered kernel output: read-only in place, no check, no copy.

    The unchecked kernels map carrier values to carrier values, so a product
    of typed operands needs no carrier check of its own result.
    """
    obj = object.__new__(cls)
    values.flags.writeable = False
    for name, value in {"values": values, "clodum": clodum, **fields}.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class TropicalVector:
    """A dense vector with entries in the carrier of ``clodum``, stored as a read-only copy."""

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
    """A dense matrix with entries in the carrier of ``clodum``, stored as a read-only C-ordered copy."""

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
    """Matrix-vector dilation product: result_i = sup_j mul(a_ij, x_j).

    The matrix product of A with x as one column, in the same row slabs as
    :func:`matmul_dilate`.
    """
    clodum = _same_clodum(A, x)
    m, n = A.shape
    if n != len(x):
        raise DimensionMismatchError(f"matrix has {n} columns but vector has {len(x)} entries")
    out = _product(A.values, x.values[:, None], clodum, dual=False)
    return _adopt(TropicalVector, out.reshape(m), clodum)


def matvec_erode(A: TropicalMatrix, y: TropicalVector) -> TropicalVector:
    """Adjoint erosion of ``matvec_dilate``: result_j = inf_i adjoint_erosion(a_ij, y_i).

    The unique operator satisfying the vector adjunction
    ``matvec_dilate(A, x) <= y  <=>  x <= matvec_erode(A, y)``; for clogs it
    equals the conjugate-transpose inf-dual-mul product.

    Runs in row slabs of A, folding each slab's column minima into a running
    minimum that starts at top.  ``np.minimum`` keeps its second operand on
    ties, in the reduction over the rows as in the fold, so of two tied signed
    zeros the later row's survives either way and the slabs cannot change a
    bit.  A one-column A is
    reduced whole: numpy reduces a contiguous column in SIMD lanes, whose
    order a slab boundary would change.
    """
    clodum = _same_clodum(A, y)
    m, n = A.shape
    if m != len(y):
        raise DimensionMismatchError(f"matrix has {m} rows but vector has {len(y)} entries")
    if m == 0:
        return _adopt(TropicalVector, np.full(n, clodum.top), clodum)
    col = y.values[:, None]
    rows = m if n == 1 else max(1, _SLAB_ELEMS // max(n, 1))
    out = np.full(n, clodum.top)
    for r in range(0, m, rows):
        slab = np.min(clodum._adjoint_erosion(A.values[r:r + rows], col[r:r + rows]), axis=0)
        np.minimum(out, slab, out=out)
    return _adopt(TropicalVector, out, clodum)


def _product(a: np.ndarray, b: np.ndarray, clodum: Clodum, dual: bool) -> np.ndarray:
    """Sup-mul product of two arrays, or with ``dual`` inf-dual-mul, one slab of rows of a at a time.

    A slab holds as many rows as fit ``_SLAB_ELEMS`` elements of the
    (rows, k, n) product, and at least one.  Each output row is reduced from
    the same (k, n) block it would be in the full m*k*n tensor, so the slab
    height cannot change a bit of the result.
    """
    m, k = a.shape
    n = b.shape[1]
    kernel, reduce, empty = ((clodum._dual_mul, np.min, clodum.top) if dual
                             else (clodum._mul, np.max, clodum.bottom))
    if k == 0:
        return np.full((m, n), empty)
    out = np.empty((m, n))
    rows = max(1, _SLAB_ELEMS // max(k * n, 1))
    b = b[None, :, :]
    for r in range(0, m, rows):
        reduce(kernel(a[r:r + rows, :, None], b), axis=1, out=out[r:r + rows])
    return out


def _matmul(A: TropicalMatrix, B: TropicalMatrix, dual: bool) -> TropicalMatrix:
    clodum = _same_clodum(A, B)
    k, k2 = A.shape[1], B.shape[0]
    if k != k2:
        raise DimensionMismatchError(f"inner dimensions differ: {k} vs {k2}")
    return _adopt(TropicalMatrix, _product(A.values, B.values, clodum, dual), clodum)


def matmul_dilate(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Sup-mul matrix product: c_ij = sup_k mul(a_ik, b_kj).  Associative.

    Runs in row slabs: extra memory is bounded by ``max(_SLAB_ELEMS, k*n)``
    elements, never m*k*n.
    """
    return _matmul(A, B, dual=False)


def matmul_erode(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Inf-dual-mul matrix product: d_ij = inf_k dual_mul(a_ik, b_kj).

    Same row-slab memory bound as :func:`matmul_dilate`.
    """
    return _matmul(A, B, dual=True)


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
        try:
            origin = int(self.origin)
        except (TypeError, ValueError, OverflowError):  # NaN, +-inf, no number at all
            origin = None
        # int() truncates 1.5 and parses '3': neither equals the int it gives
        if origin is None or origin != self.origin:
            raise TropicalError(f"signal origin must be an integer, got {self.origin!r}")
        object.__setattr__(self, "origin", origin)

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


def _convolve(v: np.ndarray, k: np.ndarray, clodum: Clodum, dual: bool) -> np.ndarray:
    """Sup-mul convolution of samples ``v`` with kernel ``k``, or with ``dual``
    the inf-adjoint-erosion one with the kernel reversed.

    Loops over the shorter support: min(len(v), len(k)) kernel calls, each a
    vector op over the longer one.  Either way every output sample takes its
    running sup (inf) over the samples of ``v`` in increasing order.
    """
    if dual:
        # adjoint_erosion takes the kernel sample first: max-min and softmin
        # pick one of two tied signed zeros by operand order
        k = k[::-1]
        kernel, combine, fill = (lambda a, b: clodum._adjoint_erosion(b, a)), np.minimum, clodum.top
    else:
        kernel, combine, fill = clodum._mul, np.maximum, clodum.bottom
    nv, nk = len(v), len(k)
    out = np.full(nv + nk - 1, fill)
    if nv <= nk:
        for i in range(nv):
            seg = out[i:i + nk]
            combine(seg, kernel(v[i], k), out=seg)
    else:
        # taps in reverse: output p = i + t then meets v_i in increasing i
        for t in range(nk - 1, -1, -1):
            seg = out[t:t + nv]
            combine(seg, kernel(v, k[t]), out=seg)
    return out


def signal_dilate(f: Signal1D, h: Signal1D) -> Signal1D:
    """Sup-mul convolution (f (+) h)(x) = sup_y mul(f(y), h(x - y)).

    Commutative; the output support is the set sum of the input supports.
    Loops over the shorter support: min(len(f), len(h)) kernel calls, each a
    vector op over the longer one.  Either way every output sample takes its
    running sup over the samples of ``f`` in increasing order.
    """
    clodum = _same_clodum(f, h)
    return _adopt(Signal1D, _convolve(f.values, h.values, clodum, dual=False), clodum,
                  origin=f.origin + h.origin)


def signal_erode(g: Signal1D, h: Signal1D) -> Signal1D:
    """Adjoint erosion of dilation by ``h``: inf_x adjoint_erosion(h(x - y), g(x)).

    ``(signal_dilate(., h), signal_erode(., h))`` is an adjunction on
    bottom/top-padded signals.  The same loop as :func:`signal_dilate`, over
    the reversed kernel; every output sample takes its running inf over the
    samples of ``g`` in increasing order.
    """
    clodum = _same_clodum(g, h)
    return _adopt(Signal1D, _convolve(g.values, h.values, clodum, dual=True), clodum,
                  origin=g.origin - h.origin - (len(h) - 1))
