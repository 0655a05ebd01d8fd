"""Third-order jets of scalar fields of (t, x).

A :class:`Jet3` carries the value of a field at a point together with all
partial derivatives up to total order three.  Jets are computed by forward
propagation of truncated bivariate Taylor coefficients, never by finite
differences.

Field expressions are written against the elementary functions of this
module (``exp``, ``log_abs``, ``sin``, ...), which accept plain floats,
numpy arrays, and jets, so the same closed form serves pointwise
evaluation, vectorized sampling, and exact differentiation.

Array jets.  The coefficients of a jet are floats or float arrays that
broadcast against each other, one element per point, so one jet can carry a
whole grid (Taylor-mode forward differentiation with the grid as the batch
dimension): on a column of t and a row of x, an entry of t alone stays a
column.  Entries that do not depend on the point, such as the 1.0 of
``variable_t``, may stay floats.  Arithmetic acts elementwise.  The
elementary functions take their values at each element through :mod:`math`,
and integer powers through Python's ``**``, because numpy's versions can
differ from those in the last bit; so every element of an array jet is
bit-identical to the jet of that point computed alone.  Where a jet of a
single point raises :class:`EvaluationError` (zero divisor, log of zero,
coth at zero, overflow or domain error in :mod:`math`), the element becomes
NaN and the others are unaffected.  ``ScalarField.jet`` takes a
:class:`Point` of arrays and returns such a jet, NaN in all ten entries at
every element whose jet is not finite.  Plain arrays
(``ScalarField.sample``) keep numpy's ufuncs.  :func:`fail_where` is the one
place that knows this policy: every deliberate exclusion of the package (a
zero divisor, a pole of a Riccati branch, a vanishing f or theta_x, a
projective singularity, a failed quadrature) goes through it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partialmethod
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np


class EvaluationError(Exception):
    """A field could not be evaluated at the requested point.

    Raised instead of returning NaN/inf so that sweeps can count and skip
    invalid points deterministically.
    """


class SingularPointError(EvaluationError):
    """Evaluation at a point of a known singular set."""


class Point(NamedTuple):
    """A point (t, x); t and x may also be arrays that broadcast against each other."""

    t: float
    x: float


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite:
    a parameter given as inf or NaN is bad input, not a singular point."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class Region:
    """Closed rectangle [t0, t1] x [x0, x1] with finite bounds and spans."""

    t0: float
    t1: float
    x0: float
    x1: float

    def __post_init__(self) -> None:
        require_finite(t0=self.t0, t1=self.t1, x0=self.x0, x1=self.x1)
        require_finite(**{"t1 - t0": self.t1 - self.t0, "x1 - x0": self.x1 - self.x0})
        if not (self.t0 <= self.t1 and self.x0 <= self.x1):
            raise ValueError(f"degenerate region {self}")

    @classmethod
    def parse(cls, text: str) -> "Region":
        parts = [float(s) for s in text.split(",")]
        if len(parts) != 4:
            raise ValueError("region must be 't0,t1,x0,x1'")
        return cls(*parts)

    def grid(self, n_t: int, n_x: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.t0, self.t1, n_t),
                np.linspace(self.x0, self.x1, n_x))

    def points(self, n_t: int, n_x: int) -> Point:
        """The inclusive uniform n_t x n_x grid as one Point of arrays, in
        row-major (t, x) order."""
        ts, xs = self.grid(n_t, n_x)
        return Point(np.repeat(ts, n_x), np.tile(xs, n_t))

    def shrink(self, margin: float) -> "Region":
        return Region(self.t0 + margin, self.t1 - margin,
                      self.x0 + margin, self.x1 - margin)


def format_float(v: float) -> str:
    """v to 17 significant digits, which read back as the same float; -0.0 as 0."""
    return f"{v + 0.0:.17g}"


def csv_rows(ts, xs, us) -> str:
    """One CSV line t,x,u per point, floats written by :func:`format_float`."""
    return "".join(f"{format_float(t)},{format_float(x)},{format_float(u)}\n"
                   for t, x, u in zip(ts, xs, us))


def csv_text(ts, xs, us) -> str:
    """CSV with the header t,x,u and one row per point."""
    return "t,x,u\n" + csv_rows(ts, xs, us)


def valid_mask(valid: Callable, p: Point) -> np.ndarray:
    """``valid`` asked once at a Point of arrays: one bool per point, a lone
    bool counting for every point.

    A validity predicate takes a Point of floats and gives a bool, or a
    Point of equal-length 1-D arrays and gives a bool array, each element
    the answer at that point alone.  Numpy's overflow and invalid-value
    warnings are silenced while it runs, as the excluded points cause them.
    """
    with np.errstate(all="ignore"):
        return np.broadcast_to(valid(p), np.shape(p.t))


def refine(ok, p: Point, pred: Callable):
    """Elementwise ``ok and pred(p)``, for validity predicates.

    ``pred``, itself a validity predicate, is asked only where ``ok``
    holds: at a Point of floats, or once at a Point of arrays holding just
    those points.  Gives a bool for a Point of floats and a bool array
    otherwise.
    """
    if not isinstance(p.t, np.ndarray):
        with np.errstate(all="ignore"):
            return bool(ok) and bool(pred(p))
    keep = np.array(np.broadcast_to(ok, p.t.shape))
    if keep.any():
        keep[keep] = valid_mask(pred, Point(p.t[keep], p.x[keep]))
    return keep


# Coefficient layout: c[n] is the Taylor coefficient of (t-t0)^i (x-x0)^j,
# i.e. d^{i+j} f / dt^i dx^j / (i! j!), for the multi-index _IDX[n].
_IDX = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_POS = {ij: n for n, ij in enumerate(_IDX)}

_ELEMENT_ERRORS = (ArithmeticError, ValueError, EvaluationError)
_NUMBER = (int, float, np.ndarray)  # numbers to Jet3's +, - and *; an array per element


def _coeff(v):
    """A jet coefficient: a float, or a float array with one element per point,
    which broadcasts against the other coefficients."""
    return np.asarray(v, dtype=float) if isinstance(v, np.ndarray) else float(v)


def _nan_on_error(fn, v: float, *args) -> float:
    try:
        return fn(v, *args)
    except _ELEMENT_ERRORS:
        return math.nan


def _pointwise(fn, u, *args):
    """fn(u, *args) for a float.  For an array, fn at each element as a
    Python float, NaN at the elements where it raises."""
    if not isinstance(u, np.ndarray):
        return fn(u, *args)
    vals = u.ravel().tolist()
    try:
        out = np.fromiter(map(fn, vals, *map(repeat, args)), float, len(vals))
    except _ELEMENT_ERRORS:
        out = np.array([_nan_on_error(fn, v, *args) for v in vals], dtype=float)
    return out.reshape(u.shape)


def _ipow(u, n: int):
    """u ** n, elementwise through Python floats for an array."""
    return _pointwise(pow, u, n)


def fail_where(bad, u, message: str, *args, error=EvaluationError):
    """u, unless ``bad`` holds somewhere: the guard of every deliberate
    exclusion.  At one point (a float, or a jet of floats) ``bad`` is a
    bool, and a true one raises ``error(message.format(*args))``, the only
    time the message is formatted.  For an array or an array jet ``bad`` is
    a bool array, and the bad elements become NaN (``Jet3.masked``)."""
    if not isinstance(bad, np.ndarray):
        if bad:
            raise error(message.format(*args))
        return u
    if not bad.any():
        return u
    return u.masked(bad) if isinstance(u, Jet3) else np.where(bad, math.nan, u)


def where(cond, a, b):
    """``a if cond else b``, elementwise when cond is an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


class Jet3:
    """Truncated bivariate Taylor polynomial of total order 3.

    Closed under arithmetic and composition with smooth univariate
    functions; singular operations (division by zero constant part, log at
    zero, ...) raise :class:`EvaluationError`, or give NaN at the failing
    elements of an array jet, whose coefficients broadcast against each
    other (see the module docstring).

    The truncated product and the composition are written out term by term.
    Each coefficient is the sum a loop over the table of product terms
    forms: the same terms, added in the same order, starting from ``0.0``
    (which turns a leading ``-0.0`` into ``+0.0``, as the loop does).  The
    composition leaves out only terms that are +-0.0 because
    ``self - self.v`` has no constant part, and those cannot change such a
    sum.  So on finite entries the results are bit-identical to the loop,
    which the tests keep as their reference; where an entry is not finite,
    the same entries come out non-finite.
    """

    __slots__ = ("c",)

    # numpy scalars and arrays defer to Jet3's reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs: list[float]):
        self.c = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(v: float) -> "Jet3":
        return Jet3([_coeff(v), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @staticmethod
    def variable_t(t0: float) -> "Jet3":
        return Jet3([_coeff(t0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @staticmethod
    def variable_x(x0: float) -> "Jet3":
        return Jet3([_coeff(x0), 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    @staticmethod
    def from_derivatives(v, d_t, d_x, d_tt, d_tx, d_xx, d_ttt, d_ttx, d_txx, d_xxx) -> "Jet3":
        return Jet3([v, d_t, d_x, d_tt / 2.0, d_tx, d_xx / 2.0,
                     d_ttt / 6.0, d_ttx / 2.0, d_txx / 2.0, d_xxx / 6.0])

    # -- derivative accessors ---------------------------------------------

    @property
    def v(self) -> float:
        return self.c[0]

    @property
    def d_t(self) -> float:
        return self.c[1]

    @property
    def d_x(self) -> float:
        return self.c[2]

    @property
    def d_tt(self) -> float:
        return 2.0 * self.c[3]

    @property
    def d_tx(self) -> float:
        return self.c[4]

    @property
    def d_xx(self) -> float:
        return 2.0 * self.c[5]

    @property
    def d_ttt(self) -> float:
        return 6.0 * self.c[6]

    @property
    def d_ttx(self) -> float:
        return 2.0 * self.c[7]

    @property
    def d_txx(self) -> float:
        return 2.0 * self.c[8]

    @property
    def d_xxx(self) -> float:
        return 6.0 * self.c[9]

    _NAMES = ("v", "d_t", "d_x", "d_tt", "d_tx", "d_xx", "d_ttt", "d_ttx", "d_txx", "d_xxx")

    def entries(self) -> tuple[float, ...]:
        """All ten derivatives, in the order of ``_NAMES``: v, d_t, d_x, ..., d_xxx."""
        return tuple(getattr(self, name) for name in self._NAMES)

    def __repr__(self) -> str:
        def show(e):
            if isinstance(e, np.ndarray):
                return np.array2string(e, precision=6, separator=", ")
            return f"{e:.6g}"
        body = ", ".join(f"{n}={show(e)}" for n, e in zip(self._NAMES, self.entries()))
        return f"Jet3({body})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet3):
            a, b = self.c, other.c
            return Jet3([a[n] + b[n] for n in range(10)])
        if isinstance(other, _NUMBER):
            out = list(self.c)
            out[0] = out[0] + other  # not +=, which would change an array entry of self
            return Jet3(out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet3):
            a, b = self.c, other.c
            return Jet3([a[n] - b[n] for n in range(10)])
        if isinstance(other, _NUMBER):
            out = list(self.c)
            out[0] = out[0] - other
            return Jet3(out)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            out = [-ci for ci in self.c]
            out[0] = out[0] + other
            return Jet3(out)
        return NotImplemented

    def __neg__(self):
        return Jet3([-ci for ci in self.c])

    def __mul__(self, other):
        if isinstance(other, Jet3):
            a0, a1, a2, a3, a4, a5, a6, a7, a8, a9 = self.c
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9 = other.c
            return Jet3([
                0.0 + a0 * b0,
                0.0 + a0 * b1 + a1 * b0,
                0.0 + a0 * b2 + a2 * b0,
                0.0 + a0 * b3 + a1 * b1 + a3 * b0,
                0.0 + a0 * b4 + a1 * b2 + a2 * b1 + a4 * b0,
                0.0 + a0 * b5 + a2 * b2 + a5 * b0,
                0.0 + a0 * b6 + a1 * b3 + a3 * b1 + a6 * b0,
                0.0 + a0 * b7 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a7 * b0,
                0.0 + a0 * b8 + a1 * b5 + a2 * b4 + a4 * b2 + a5 * b1 + a8 * b0,
                0.0 + a0 * b9 + a2 * b5 + a5 * b2 + a9 * b0,
            ])
        if isinstance(other, _NUMBER):
            return Jet3([ci * other for ci in self.c])
        return NotImplemented

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet3":
        u = self.c[0]
        u = fail_where(u == 0.0, u, "division by zero in jet evaluation")
        iu = 1.0 / u
        return self.compose(iu, -iu * iu, 2.0 * _ipow(iu, 3), -6.0 * _ipow(iu, 4))

    def __truediv__(self, other):
        if isinstance(other, Jet3):
            return self * other._reciprocal()
        if isinstance(other, (int, float)):
            other = fail_where(other == 0, other, "division by zero in jet evaluation")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._reciprocal() ** (-n)
        out = Jet3.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    # -- array jets --------------------------------------------------------

    def masked(self, bad) -> "Jet3":
        """This array jet with all ten entries NaN where ``bad`` holds."""
        return Jet3([np.where(bad, math.nan, ci) for ci in self.c])

    # -- composition -------------------------------------------------------

    def compose(self, g0: float, g1: float, g2: float, g3: float) -> "Jet3":
        """Jet of g(self) given derivatives g0..g3 of g at self.v.

        With W = self - self.v, the result is g0 + g1*W + g2/2*W^2 + g3/6*W^3.
        W^2 starts at order 2 (entries s3..s9) and W^3 at order 3.  Their
        lower entries are +0.0; their products with g2/2 and g3/6 (z2, z3)
        are still added, so that signed zeros and non-finite g carry over.
        """
        _, w1, w2, w3, w4, w5, w6, w7, w8, w9 = self.c
        s3 = 0.0 + w1 * w1
        s4 = 0.0 + w1 * w2 + w2 * w1
        s5 = 0.0 + w2 * w2
        s6 = 0.0 + w1 * w3 + w3 * w1
        s7 = 0.0 + w1 * w4 + w2 * w3 + w3 * w2 + w4 * w1
        s8 = 0.0 + w1 * w5 + w2 * w4 + w4 * w2 + w5 * w1
        s9 = 0.0 + w2 * w5 + w5 * w2
        h2 = g2 / 2.0
        h3 = g3 / 6.0
        z2 = h2 * 0.0
        z3 = h3 * 0.0
        return Jet3([
            g0,
            g1 * w1 + z2 + z3,
            g1 * w2 + z2 + z3,
            g1 * w3 + h2 * s3 + z3,
            g1 * w4 + h2 * s4 + z3,
            g1 * w5 + h2 * s5 + z3,
            g1 * w6 + h2 * s6 + h3 * (0.0 + s3 * w1),
            g1 * w7 + h2 * s7 + h3 * (0.0 + s3 * w2 + s4 * w1),
            g1 * w8 + h2 * s8 + h3 * (0.0 + s4 * w2 + s5 * w1),
            g1 * w9 + h2 * s9 + h3 * (0.0 + s5 * w2),
        ])

    def _shift(self, axis: int) -> "Jet3":
        """Jet of the derivative field along ``axis``: ``deriv_t`` (axis 0)
        and ``deriv_x`` (axis 1).

        Exact through total order 2.  The order-3 entries would need fourth
        derivatives of the parent, which a jet does not carry, so they are
        NaN.  An entry of order <= 2 of a sum, product, quotient or
        composition reads only entries of order <= 2, so the NaN stays in
        the order-3 entries of everything computed from the result.
        """
        out = [math.nan] * 10
        for n, (i, j) in enumerate(_IDX):
            if i + j <= 2:
                up = (i + 1, j) if axis == 0 else (i, j + 1)
                out[n] = up[axis] * self.c[_POS[up]]
        return Jet3(out)

    deriv_t = partialmethod(_shift, 0)
    deriv_x = partialmethod(_shift, 1)


# -- elementary functions (float / ndarray / Jet3) --------------------------
#
# Each function is one row of _ELEMENTARY.  Its jet rule maps the value u
# of a jet to the derivatives (g, g', g'', g''') of g at u, and takes every
# value of g through _pointwise, so an array jet gets math's values element
# by element.

def _log_abs_rule(u):
    # the derivatives of ln|g| are g'/g regardless of sign
    u = fail_where(u == 0.0, u, "log of zero in jet evaluation")
    iu = 1.0 / u
    return _pointwise(math.log, abs(u)), iu, -iu * iu, 2.0 * _ipow(iu, 3)


def _sqrt_rule(u):
    u = fail_where(u <= 0.0, u, "sqrt of non-positive value in jet evaluation")
    s = _pointwise(math.sqrt, u)
    return s, 0.5 / s, -0.25 / (u * s), 0.375 / (u * u * s)


def _linear_rule(g, dg, sign: float):
    """(g, g', g'', g''') of a function with g'' = sign*g, from g and g'."""
    return (g, dg, -g, -dg) if sign < 0.0 else (g, dg, g, dg)


def _riccati_rule(v, sign: float):
    """(g, g', g'', g''') at g = v of a function with g' = 1 + sign*g^2:
    tan for sign 1, tanh and coth for sign -1."""
    q = 1.0 + sign * v * v
    return v, q, 2.0 * sign * v * q, q * (6.0 * v * v + 2.0 * sign)


def _coth(u, message: str = "coth at zero"):
    """coth u through math, elementwise for an array; fails where sinh u is zero."""
    s = _pointwise(math.sinh, u)
    return _pointwise(math.cosh, u) / fail_where(s == 0.0, s, message)


def _arctan_rule(u):
    q = 1.0 / (1.0 + u * u)
    return (_pointwise(math.atan, u), q, -2.0 * u * q * q,
            (6.0 * u * u - 2.0) * _ipow(q, 3))


#: name -> (function on a float, function on a plain array, jet rule)
_ELEMENTARY = {
    "exp": (math.exp, np.exp, lambda u: (_pointwise(math.exp, u),) * 4),
    "log_abs": (lambda u: math.log(abs(fail_where(u == 0.0, u, "log of zero"))),
                lambda a: np.log(np.abs(a)), _log_abs_rule),
    "sqrt": (math.sqrt, np.sqrt, _sqrt_rule),
    "sin": (math.sin, np.sin, lambda u: _linear_rule(
        _pointwise(math.sin, u), _pointwise(math.cos, u), -1.0)),
    "cos": (math.cos, np.cos, lambda u: _linear_rule(
        _pointwise(math.cos, u), -_pointwise(math.sin, u), -1.0)),
    "tan": (math.tan, np.tan, lambda u: _riccati_rule(_pointwise(math.tan, u), 1.0)),
    "sinh": (math.sinh, np.sinh, lambda u: _linear_rule(
        _pointwise(math.sinh, u), _pointwise(math.cosh, u), 1.0)),
    "cosh": (math.cosh, np.cosh, lambda u: _linear_rule(
        _pointwise(math.cosh, u), _pointwise(math.sinh, u), 1.0)),
    "tanh": (math.tanh, np.tanh, lambda u: _riccati_rule(_pointwise(math.tanh, u), -1.0)),
    "coth": (_coth, lambda a: np.cosh(a) / np.sinh(a),
             lambda u: _riccati_rule(_coth(u, "coth at zero in jet evaluation"), -1.0)),
    "arctan": (math.atan, np.arctan, _arctan_rule),
}


def _elementary(name: str) -> Callable:
    """The function of a row of _ELEMENTARY, on floats, plain arrays and jets."""
    on_float, on_array, jet_rule = _ELEMENTARY[name]

    def fn(w):
        if isinstance(w, Jet3):
            return w.compose(*jet_rule(w.c[0]))
        if isinstance(w, np.ndarray):
            return on_array(w)
        return on_float(w)

    fn.__name__ = fn.__qualname__ = name
    return fn


exp, log_abs, sqrt, sin, cos, tan, sinh, cosh, tanh, coth, arctan = map(_elementary, _ELEMENTARY)


# -- scalar fields -----------------------------------------------------------

class ScalarField:
    """A scalar field of (t, x) defined by a closed-form expression.

    ``expr(t, x)`` must be written against the elementary functions of this
    module so that it evaluates on floats, numpy arrays, and jets alike.
    Evaluation is pure: no state, no side effects.
    """

    __slots__ = ("expr", "name")

    def __init__(self, expr: Callable, name: str = ""):
        self.expr = expr
        self.name = name

    def _call(self, t, x):
        try:
            return self.expr(t, x)
        except EvaluationError:
            raise
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(f"{exc} (field {self.name or '<anonymous>'})") from exc

    def jet(self, p: Point) -> Jet3:
        """Exact jet at ``p`` by forward Taylor propagation.

        A point of arrays gives an array jet, NaN at every element whose
        point or jet is not finite; a single point raises instead.
        """
        t, x = p
        array = isinstance(t, np.ndarray) or isinstance(x, np.ndarray)
        if not (array or math.isfinite(t) and math.isfinite(x)):
            raise ValueError(f"non-finite evaluation point {p!r}")
        # only arrays reach numpy; its warnings at bad elements become the NaN mask below
        with np.errstate(all="ignore") if array else nullcontext():
            r = self._call(Jet3.variable_t(t), Jet3.variable_x(x))
        j = r if isinstance(r, Jet3) else Jet3.constant(r)
        isfinite = np.isfinite if array else math.isfinite  # faster on floats
        ok = isfinite(t) & isfinite(x)
        for ci in j.c:
            ok &= isfinite(ci)
        return fail_where(np.logical_not(ok), j, "non-finite derivative of field {} at {!r}",
                          self.name or "<anonymous>", p)

    def value(self, t: float, x: float) -> float:
        r = float(self._call(float(t), float(x)))
        return fail_where(not math.isfinite(r), r, "non-finite value of field {} at ({}, {})",
                          self.name or "<anonymous>", t, x)

    def sample(self, t, xs: np.ndarray) -> np.ndarray:
        """Vectorized values over an array of x, at a fixed t or at an array
        of t of the same shape."""
        r = self._call(t, xs)
        if isinstance(r, np.ndarray):
            return r.astype(float)
        return np.full(np.shape(xs), float(r))

    # fields compose by arithmetic into new fields

    def _binary(self, other, op, tag):
        if isinstance(other, ScalarField):
            return ScalarField(lambda t, x: op(self.expr(t, x), other.expr(t, x)),
                               name=f"({self.name}{tag}{other.name})")
        if isinstance(other, (int, float)):
            return ScalarField(lambda t, x: op(self.expr(t, x), other),
                               name=f"({self.name}{tag}{other})")
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b, "-")

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a, "-r")

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b, "/")

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a, "/r")

    def __neg__(self):
        return ScalarField(lambda t, x: -self.expr(t, x), name=f"(-{self.name})")


def constant_field(v: float) -> ScalarField:
    v = float(v)
    return ScalarField(lambda t, x: v, name=f"{v:g}")


# -- quadrature --------------------------------------------------------------
#
# The G7/K15 Gauss-Kronrod pair of QUADPACK's qk15 (Piessens et al.,
# *QUADPACK*, 1983): the K15 abscissae in (0, 1), those of G7 at the odd
# positions; the K15 weights and the G7 weights, each ending with the
# weight of the centre.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.array((0.0, *(-x for x in _XGK), *_XGK))[:, None]  # of K15, per unit half-width
_QUAD_TOL = 1e-12  # absolute and relative tolerance of each subinterval
_QUAD_LIMIT = 200  # subintervals of one interval, as quad's limit
# Antiderivative's breakpoints, as distances from w0: 16 panels of width 1/2,
# then each panel twice as wide as the one before, up to 2**1023
_BREAKS = np.concatenate((np.arange(17) * 0.5, np.ldexp(8.0, np.arange(1, 1021))))


def _sample(g: Callable, c, h) -> np.ndarray:
    """g at the 15 nodes of each subinterval of centre c and half-width h
    (equal-length 1-D arrays, or the floats of one subinterval), in one
    call: row j holds node j of every subinterval."""
    nodes = (c + h * _NODES).ravel()
    with np.errstate(all="ignore"):  # broadcast: an integrand may not depend on w
        f = np.broadcast_to(np.asarray(g(nodes), dtype=float), nodes.shape)
    return f.reshape(15, -1)


def _kronrod(f, h):
    """K15 value and |K15 - G7| of subintervals of half-width h, from the
    rows of :func:`_sample`.  The rows are arrays, one element per
    subinterval, or the floats of one subinterval: the same operations in
    the same order give the same bits."""
    pairs = [f[1 + j] + f[8 + j] for j in range(7)]
    res_k = _WGK[7] * f[0]
    for w, p in zip(_WGK, pairs):  # one term at a time, so each sum has one order
        res_k = res_k + w * p
    res_g = _WG[3] * f[0] + _WG[0] * pairs[1] + _WG[1] * pairs[3] + _WG[2] * pairs[5]
    return res_k * h, abs((res_k - res_g) * h)


def _stalled(k0, err0, k1, err1, k, err):
    """Whether the halves (k0, err0) and (k1, err1) of a subinterval (k, err)
    show that the rounding of g, not the rule, limits the error: their sum
    agrees with k to 1e-5 but their errors add to at least 0.99 of err
    (QUADPACK's roundoff test)."""
    halves = k0 + k1
    return (abs(halves - k) <= 1e-5 * abs(halves)) & (err0 + err1 >= 0.99 * err)


def gauss_kronrod(g: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integral of ``g`` over each oriented interval [a_i, b_i], NaN
    where it fails.

    One adaptive pass integrates all intervals.  Each round evaluates ``g``
    once, on a 1-D array holding the 15 nodes of every open subinterval,
    keeps the K15 value of each subinterval whose |K15 - G7| is at most
    ``_QUAD_TOL * max(1, |K15|)``, and bisects the others.  An interval fails
    where ``g`` is not finite at a node, where it would need more than
    ``_QUAD_LIMIT`` subintervals, or where a bisection stalls
    (:func:`_stalled`): then no subinterval size meets the tolerance.

    The subintervals of an interval keep their order whatever is integrated
    beside them, and the values kept in one round are added in that order,
    then to the sum of the rounds before, so each result depends only on
    (g, a_i, b_i); :func:`_gauss_kronrod_at` gives the same bits for one
    interval.
    """
    n = a.size
    total = np.zeros(n)
    leaves = np.ones(n, dtype=np.int64)
    owner = np.arange(n)
    parent = None  # (K15, |K15 - G7|) of the parent of each pair of halves
    while owner.size:
        c = 0.5 * a + 0.5 * b  # neither overflows for finite a and b
        h = 0.5 * b - 0.5 * a
        with np.errstate(all="ignore"):  # non-finite values are the failures below
            k, err = _kronrod(_sample(g, c, h), h)
            fails = ~np.isfinite(k)  # every node has a weight, so also g at each node
            if parent is not None:
                fails |= np.repeat(_stalled(k[0::2], err[0::2], k[1::2], err[1::2], *parent), 2)
            ok = err <= _QUAD_TOL * np.maximum(1.0, np.abs(k))
        done = ok & ~fails
        total += np.bincount(owner[done], weights=k[done], minlength=n)
        split = ~(ok | fails)
        leaves += np.bincount(owner[split], minlength=n)
        total[owner[fails]] = math.nan
        total[leaves > _QUAD_LIMIT] = math.nan
        split &= ~np.isnan(total[owner])
        parent = k[split], err[split]
        a, c, b = a[split], c[split], b[split]
        a, b = np.stack((a, c), axis=1).ravel(), np.stack((c, b), axis=1).ravel()
        owner = np.repeat(owner[split], 2)
    return total


def _gauss_kronrod_at(g: Callable, a: float, b: float) -> float:
    """:func:`gauss_kronrod` of the one interval [a, b], with the rule's
    arithmetic in floats: the same operations in the same order, so the
    same bits, without numpy's cost per operation on a few subintervals."""
    total, leaves, subs, parents = 0.0, 1, [(a, b)], None
    while subs:
        c = [0.5 * a + 0.5 * b for a, b in subs]
        h = [0.5 * b - 0.5 * a for a, b in subs]
        # floats broadcast against the nodes faster than arrays of one element
        f = _sample(g, c[0], h[0]) if len(subs) == 1 else _sample(g, np.array(c), np.array(h))
        rules = [_kronrod(fi, hi) for fi, hi in zip(f.T.tolist(), h)]
        if not all(math.isfinite(k) for k, _ in rules):
            return math.nan
        if parents and any(_stalled(*rules[i], *rules[i + 1], *parent)
                           for i, parent in zip(range(0, len(rules), 2), parents)):
            return math.nan
        ok = [err <= _QUAD_TOL * max(1.0, abs(k)) for k, err in rules]
        kept = 0.0
        for (k, _), keep in zip(rules, ok):
            if keep:
                kept += k
        total += kept
        parents = [rule for rule, keep in zip(rules, ok) if not keep]
        leaves += len(parents)
        if leaves > _QUAD_LIMIT:
            return math.nan
        subs = [half for (a, b), ci, keep in zip(subs, c, ok) if not keep
                for half in ((a, ci), (ci, b))]
    return total


class Antiderivative:
    """Univariate antiderivative F(w) = integral of g from w0 to w.

    ``integrand`` is written against the elementary functions of this
    module, so it takes a float array and a jet.  All derivatives come from
    it (F' = g, F'' = g', F''' = g''), so jets through an Antiderivative
    stay exact apart from the quadrature tolerance on the value itself.

    The value is one :func:`gauss_kronrod` pass per array, and
    :func:`_gauss_kronrod_at` at one abscissa.  The breakpoints
    w0 +- ``_BREAKS`` cut each side of w0 into panels.  F(w) is the
    sum of the whole panels between w0 and w, added in order outward from
    w0 and kept per instance, plus the partial panel that ends at w.  So
    F(w) depends only on (g, w0, w): each element of an array or an array
    jet is bit-identical to the value of that abscissa alone.  The value is
    NaN at an element, and raises :class:`EvaluationError` at one point,
    where the abscissa is not finite or a panel it needs fails.  Values are
    remembered by abscissa, up to 200,000 of them, so a point asked again
    (a grid's values after its validity, say) costs one lookup.
    """

    def __init__(self, integrand: Callable, w0: float):
        self.integrand = integrand
        self.w0 = float(w0)
        # side of w0 -> prefix sums of its whole panels, from the empty sum
        self._sums: dict[float, list[float]] = {1.0: [0.0], -1.0: [0.0]}
        self._memo: dict[float, float] = {}  # abscissa -> value

    def _values(self, w: np.ndarray) -> np.ndarray:
        """F at each element of a 1-D array, NaN where it fails."""
        out = np.full(w.shape, math.nan)
        finite = np.isfinite(w)
        ws = w[finite]
        side = np.where(ws >= self.w0, 1.0, -1.0)
        k = np.searchsorted(_BREAKS, np.abs(ws - self.w0), side="right") - 1
        # each abscissa's partial panel, then the whole panels not yet summed
        lo, hi, grow = [self.w0 + side * _BREAKS[k]], [ws], []
        for s, sums in self._sums.items():
            j = np.arange(len(sums) - 1, k[side == s].max(initial=0))
            if j.size:
                lo.append(self.w0 + s * _BREAKS[j])
                hi.append(self.w0 + s * _BREAKS[j + 1])
                grow.append((sums, j.size))
        vals = gauss_kronrod(self.integrand, np.concatenate(lo), np.concatenate(hi))
        partial, pos = vals[:ws.size], ws.size
        for sums, count in grow:
            for panel in vals[pos:pos + count].tolist():
                sums.append(sums[-1] + panel)
            pos += count
        prefix = np.empty(ws.shape)
        for s, sums in self._sums.items():
            on = side == s
            prefix[on] = np.asarray(sums)[k[on]]
        out[finite] = vals = prefix + partial
        self._remember(ws.tolist(), vals.tolist())
        return out

    def _remember(self, ws: list, vals: list) -> None:
        if len(self._memo) + len(ws) <= 200_000:
            self._memo.update(zip(ws, vals))

    def _value_at(self, w: float) -> float:
        """F at one abscissa, NaN where it fails: :meth:`_values` in floats."""
        hit = self._memo.get(w)
        if hit is not None:
            return hit
        s = 1.0 if w >= self.w0 else -1.0
        k = bisect_right(_BREAKS, abs(w - self.w0)) - 1
        sums = self._sums[s]
        if not (math.isfinite(w) and k < len(sums)):  # whole panels to sum first, or no value
            return float(self._values(np.array([w]))[0])
        hit = sums[k] + _gauss_kronrod_at(self.integrand, self.w0 + s * float(_BREAKS[k]), w)
        self._remember([w], [hit])
        return hit

    def _value(self, w):
        """F at a float or at each element of an array, through the guard."""
        if isinstance(w, np.ndarray):
            vals = self._values(w.astype(float).ravel()).reshape(w.shape)
            bad = np.isnan(vals)
        else:
            vals = self._value_at(float(w))
            bad = math.isnan(vals)
        return fail_where(bad, vals,
                          "no quadrature value of the antiderivative on [{}, {}]", self.w0, w)

    def __call__(self, w):
        if isinstance(w, Jet3):
            w0v = w.c[0]
            gj = self.integrand(Jet3.variable_t(w0v))
            if not isinstance(gj, Jet3):
                gj = Jet3.constant(float(gj))
            return w.compose(self._value(w0v), gj.v, gj.d_t, gj.d_tt)
        return self._value(w)
