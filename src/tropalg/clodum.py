"""Scalar arithmetic of complete lattice-ordered double monoids (cloda).

A clodum is a complete lattice of scalars carrying two monoid operations:
a "multiplication" that distributes over suprema (a dilation) and a dual
"multiplication" that distributes over infima (an erosion).  Four concrete
cloda are provided:

* ``max-plus``     -- extended reals with lower/upper addition,
* ``max-times``    -- [0, inf] with lower/upper multiplication,
* ``max-min``      -- [0, 1] with min/max,
* ``max-softmin``  -- extended reals with log-sum-exp soft min/max at
  temperature ``theta``.

Each kind is one record of ``_TABLE``: its bounds, units, whether it is a
clog, and four unchecked kernels (multiplication, dual multiplication,
residual, conjugation).  Every carrier is the interval ``[bottom, top]``.  The
kernels assume their operands already lie in it; the public ``Clodum`` ops
validate first, and library code whose operands come from a validated type
calls the kernels through ``Clodum._mul`` and its siblings.

Every operation accepts scalars or numpy arrays (broadcasting) and is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "TropicalError",
    "CarrierError",
    "UnsupportedClodumError",
    "Clodum",
    "MAX_PLUS",
    "MAX_TIMES",
    "MAX_MIN",
    "max_softmin",
    "soft_add",
]

_INF = float("inf")


class TropicalError(ValueError):
    """Base class for errors raised by this library."""


class CarrierError(TropicalError):
    """A value lies outside the carrier set of the active clodum."""


class UnsupportedClodumError(TropicalError):
    """The requested operation is not defined for this clodum."""


def _ret(out: np.ndarray):
    """Return python floats for 0-d results, arrays otherwise."""
    return float(out) if np.ndim(out) == 0 else out


def _finite(values) -> bool:
    return bool(np.isfinite(values).all())


def _finite_nonzero(values) -> bool:
    return bool((np.isfinite(values) & (values != 0.0)).all())


def _resolved(op, fill: float, tame):
    """Kernel applying ``op`` and sending its NaN results (inf - inf, 0 * inf) to ``fill``.

    The fill is written in place into the fresh result of ``op``, so a kernel
    call allocates one output-sized array, not two.  The NaN pass is skipped
    when ``tame`` holds for every value of the smaller operand: all finite for
    addition and subtraction, all finite and nonzero for multiplication.  The
    operands are carrier values, never NaN, so the only NaN results are
    inf - inf and 0 * inf, and each needs an infinite or zero value in both
    operands; with one operand tame there is no NaN for the pass to replace,
    and skipping it cannot change a bit.  The test reads the smaller operand
    only, so it costs at most the NaN pass it saves.
    """
    def kernel(theta, a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.asarray(op(a, b))
        if not tame(a if np.size(a) <= np.size(b) else b):
            np.copyto(out, fill, where=np.isnan(out))
        return out
    return kernel


def _soft_max(theta: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # theta*log(e^{a/theta} + e^{b/theta}), overflow-safe: factor out the max.
    hi = np.maximum(a, b)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = hi - np.minimum(a, b)
        lift = theta * np.log1p(np.exp(-gap / theta))
    # lift is NaN only when both arguments are the same infinity; where it is
    # 0, hi is kept as is, since hi + 0.0 would turn -0.0 into 0.0
    return np.where(lift > 0, hi + lift, hi)


def _soft_min(theta: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # -theta*log(e^{-a/theta} + e^{-b/theta}), overflow-safe.
    lo = np.minimum(a, b)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.maximum(a, b) - lo
        out = lo - theta * np.log1p(np.exp(-gap / theta))
    return np.where(np.isnan(out), lo, out)


def _max_dual(theta, a, b):
    # max with -0.0 above 0.0, so the dual unit 0.0 returns either operand
    # bit for bit: where the max is 0 both operands are zeros, and -(-a - b)
    # is 0.0 when both are 0.0 and -0.0 otherwise
    out = np.maximum(a, b)
    return np.where(out == 0, -(-a - b), out)


def _times_residual(theta, a, w):
    # w/0 = inf, 0/0 = inf, inf/inf = inf: the solution set of
    # mul(a, v) <= w is unbounded in all three cases.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = w / a
    out = np.where(a == 0, _INF, out)
    return np.where(np.isposinf(w), _INF, out)


def _softmin_residual(theta, a, w):
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        val = w - theta * np.log(-np.expm1((w - a) / theta))
    return np.where(w >= a, _INF, val)


def _reciprocal(theta, a):
    # -0.0 lies in the carrier; like 0.0 its conjugate is +inf, not 1/-0.0 = -inf.
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / np.abs(a)


class _Kind(NamedTuple):
    """Structure and unchecked kernels of one kind of clodum."""

    bottom: float
    top: float
    unit: float
    dual_unit: float
    is_clog: bool
    mul: Callable
    dual_mul: Callable
    residual: Callable
    conjugate: Callable


# The max-plus residual is upper addition of w and -a; its two NaN patterns
# (w = a = +inf and w = a = -inf) both have unbounded solution sets.  The
# max-plus dual unit is -0.0, the conjugate of the unit: x + -0.0 is x bit for
# bit, where -0.0 + 0.0 is 0.0.
_TABLE = {
    "max-plus": _Kind(-_INF, _INF, 0.0, -0.0, True,
                      _resolved(np.add, -_INF, _finite), _resolved(np.add, _INF, _finite),
                      _resolved(lambda a, w: w - a, _INF, _finite), lambda _, a: -a),
    "max-times": _Kind(0.0, _INF, 1.0, 1.0, True,
                       _resolved(np.multiply, 0.0, _finite_nonzero),
                       _resolved(np.multiply, _INF, _finite_nonzero),
                       _times_residual, _reciprocal),
    "max-min": _Kind(0.0, 1.0, 1.0, 0.0, False,
                     lambda _, a, b: np.minimum(a, b), _max_dual,
                     lambda _, a, w: np.where(w >= a, 1.0, w), lambda _, a: 1.0 - a),
    "max-softmin": _Kind(-_INF, _INF, _INF, -_INF, False,
                         _soft_min, _soft_max, _softmin_residual, lambda _, a: -a),
}


def _structure(name: str, doc: str) -> property:
    """Read-only ``Clodum`` property taken from the kind's record."""
    return property(lambda self: getattr(_TABLE[self.kind], name), doc=doc)


@dataclass(frozen=True)
class Clodum:
    """A scalar clodum: carrier set, lattice bounds and the two multiplications.

    ``kind`` is one of ``max-plus``, ``max-times``, ``max-min`` or
    ``max-softmin``; the last requires a positive temperature ``theta``.
    Instances are immutable, hashable and cheap to pass around.
    """

    kind: str
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TABLE:
            raise TropicalError(f"unknown clodum kind {self.kind!r}")
        if self.kind == "max-softmin":
            if self.theta is None or not np.isfinite(self.theta) or self.theta <= 0:
                raise TropicalError("max-softmin requires a finite theta > 0")
            object.__setattr__(self, "theta", float(self.theta))
        elif self.theta is not None:
            raise TropicalError(f"{self.kind} does not take a theta parameter")

    # -- structure ---------------------------------------------------------

    bottom = _structure("bottom", "Least element of the carrier.")
    top = _structure("top", "Greatest element of the carrier.")
    unit = _structure("unit", "Identity of the multiplication.")
    dual_unit = _structure("dual_unit", "Identity of the dual multiplication.")
    is_clog = _structure("is_clog", "True when finite elements form a group (max-plus, max-times).")

    # -- carrier -----------------------------------------------------------

    def validate(self, values) -> np.ndarray:
        """Coerce to a float array, rejecting NaN and out-of-carrier values.

        Every carrier is the closed interval ``[bottom, top]``.  Raises
        :class:`CarrierError` rather than clamping: silently clamped scalars
        would corrupt the optimality guarantees of the solvers.
        """
        arr = np.asarray(values, dtype=float)
        k = _TABLE[self.kind]
        # one min and one max reduction, no boolean temporaries; a NaN makes
        # its reduction NaN, and NaN fails the comparison
        if arr.size and not (arr.min() >= k.bottom and arr.max() <= k.top):
            if np.isnan(arr).any():
                raise CarrierError(f"NaN is not an element of the {self.kind} carrier")
            raise CarrierError(f"{self.kind} carrier is [{k.bottom:g}, {k.top:g}]; got a value outside it")
        return arr

    def contains(self, values) -> bool:
        try:
            self.validate(values)
        except CarrierError:
            return False
        return True

    def _first_outside(self, values) -> tuple[int, ...]:
        """The index, in row-major order, of the first value outside the
        carrier, NaN included: the place a failed :meth:`validate` names."""
        arr = np.asarray(values, dtype=float)
        inside = (arr >= self.bottom) & (arr <= self.top)
        return tuple(map(int, np.unravel_index(np.argmin(inside), arr.shape)))

    # -- operations: the public methods validate, the unchecked kernels trust --

    def _mul(self, a, b):
        return _TABLE[self.kind].mul(self.theta, a, b)

    def _dual_mul(self, a, b):
        return _TABLE[self.kind].dual_mul(self.theta, a, b)

    def _adjoint_erosion(self, a, w):
        return _TABLE[self.kind].residual(self.theta, a, w)

    def _conjugate(self, a):
        return _TABLE[self.kind].conjugate(self.theta, a)

    def mul(self, a, b):
        """Multiplication (a dilation): distributes over suprema.

        max-plus uses lower addition (-inf dominates +inf), max-times uses
        lower multiplication (0 * inf = 0), max-min uses min, max-softmin the
        log-sum-exp soft minimum.
        """
        return _ret(self._mul(self.validate(a), self.validate(b)))

    def dual_mul(self, a, b):
        """Dual multiplication (an erosion): distributes over infima."""
        return _ret(self._dual_mul(self.validate(a), self.validate(b)))

    def adjoint_erosion(self, a, w):
        """Residual of the multiplication: sup{v : mul(a, v) <= w}.

        Together with ``mul`` this forms the scalar adjunction
        ``mul(a, v) <= w  <=>  v <= adjoint_erosion(a, w)``.
        """
        return _ret(self._adjoint_erosion(self.validate(a), self.validate(w)))

    def conjugate(self, a):
        """Lattice negation making the clodum self-conjugate.

        Involutive and order reversing; satisfies the De Morgan laws and,
        for clogs, ``conjugate(mul(a, b)) = dual_mul(conjugate(a), conjugate(b))``.
        """
        return _ret(self._conjugate(self.validate(a)))

    # -- serialization -------------------------------------------------------

    def spec_string(self) -> str:
        """Short string form, e.g. ``max-plus`` or ``max-softmin:θ=0.5``."""
        if self.kind == "max-softmin":
            return f"max-softmin:θ={self.theta!r}"
        return self.kind

    def __str__(self) -> str:
        return self.spec_string()

    @classmethod
    def parse(cls, text: str) -> "Clodum":
        """Inverse of :meth:`spec_string`; accepts ``θ=`` or ``theta=``."""
        s = text.strip()
        if s in ("max-plus", "max-times", "max-min"):
            return cls(s)
        if s.startswith("max-softmin:"):
            arg = s.split(":", 1)[1]
            for prefix in ("θ=", "theta="):
                if arg.startswith(prefix):
                    try:
                        theta = float(arg[len(prefix):])
                    except ValueError:
                        break
                    return cls("max-softmin", theta)
        raise TropicalError(f"cannot parse clodum string {text!r}")


MAX_PLUS = Clodum("max-plus")
MAX_TIMES = Clodum("max-times")
MAX_MIN = Clodum("max-min")


def max_softmin(theta: float) -> Clodum:
    """The soft min/max clodum at temperature ``theta`` > 0."""
    return Clodum("max-softmin", theta)


def soft_add(theta: float, a, b):
    """Log-sum-exp smooth maximum: theta*log(e^{a/theta} + e^{b/theta}).

    The dequantized addition of the Maslov family of semirings.  For finite
    inputs it satisfies ``max(a, b) <= soft_add(theta, a, b) <= max(a, b) +
    theta*log(2)``, with equality on the right at ``a == b``, and converges
    to ``max(a, b)`` as ``theta -> 0``.
    """
    if not (np.isfinite(theta) and theta > 0):
        raise TropicalError("soft_add requires a finite theta > 0")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise TropicalError("soft_add is defined for finite arguments only")
    return _ret(_soft_max(theta, a, b))
