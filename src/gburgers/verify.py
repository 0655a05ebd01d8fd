"""Residual operators and grid sweep reporting.

Every differential relation used in this package is checked here by direct
substitution of exact jets:

* ``gbe_residual``        u_t + u*u_x + f*u_xx
* ``pfde_residual``       theta_t - theta_xx/theta_x
* ``gfde_residual``       theta_t - theta_xx/theta_x - h(theta)*theta_x
* ``potential_residual``  theta_t - xi/f  and  theta_x + 1/f
* ``reduced_system_residual``  f_t + xi*f_x - xi_x*f  and  xi_t + xi*xi_x + f*xi_xx
* ``determining_residuals``    the five-equation system on the coefficients
  of a reduction operator polynomial in u

Each relation is written once, as one tuple of terms per equation, and
both of its forms derive from those tuples.  The raw residual is signed:
the sum of each equation's terms, a float for one equation and a tuple for
two.  The ``*_scaled`` form is the largest over the equations of
|sum of terms| / (1 + sum of |term|), which makes tolerances comparable
across fields spanning orders of magnitude.  The determining system takes
its scales from the same rule.

Every operator also takes a :class:`Point` whose t and x are arrays that
broadcast against each other and then returns arrays, one element per point,
each bit-identical to the residual of that point taken alone (array jets, see
:mod:`gburgers.jets`).  Where a single point raises
:class:`EvaluationError` (a jet that fails, theta_x or f within
``EPS_COEFF`` of zero), the element is NaN: both come from
:func:`gburgers.jets.fail_where`, the one guard that knows this policy.
:func:`evaluate_grid` evaluates a whole grid this way in one call.

:data:`RELATIONS` wires each relation a catalog case must satisfy to the
case's fields, once; ``gburgers verify --which`` sweeps its rows.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .jets import (EvaluationError, Jet3, Point, Region, ScalarField, constant_field,
                   fail_where, valid_mask, where)

#: f must stay this far from zero before 1/f-terms are formed
EPS_COEFF = 1e-13

#: u-samples for the fifth determining equation; the residual is a
#: polynomial of degree <= 4 in u, so vanishing at five distinct samples is
#: equivalent to identical vanishing.
U_SAMPLES = (-2.0, -0.5, 0.0, 0.5, 2.0)

#: jet_fn(field, p); None, the default, stands for ScalarField.jet
JetFn = Callable[[ScalarField, Point], Jet3]


class DegenerateGradientError(EvaluationError):
    """theta_x vanished where 1/theta_x is required."""


class VanishingCoefficientError(EvaluationError):
    """The arbitrary element f vanished where 1/f is required."""


class EmptySweepError(Exception):
    """Every point of a requested sweep was invalid."""

    @classmethod
    def require(cls, checked: int, region: Region, n_t: int, n_x: int) -> None:
        """Raise unless some point of the n_t x n_x grid of ``region`` was
        evaluated: nothing evaluated is not a success."""
        if checked == 0:
            raise cls(f"no valid points in {region} on a {n_t}x{n_x} grid "
                      f"({n_t * n_x} skipped)")


# -- pointwise residuals -----------------------------------------------------

def _jets(jet_fn, p, *fields) -> list[Jet3]:
    return [(jet_fn or ScalarField.jet)(field, p) for field in fields]


def _nonvanishing(v, error, name: str, p):
    """v, kept more than EPS_COEFF away from zero by :func:`fail_where`."""
    return fail_where(abs(v) <= EPS_COEFF, v, "{} = {} at {}", name, v, tuple(p), error=error)


def _nan_where_failed(v, *values):
    """v, NaN wherever one of the array ``values`` is NaN.  At an array
    point, the value of a jet is NaN exactly where the jet failed."""
    for u in values:
        if isinstance(u, np.ndarray):
            v = np.where(np.isnan(u), np.nan, v)
    return v


def _max(*values):
    """The builtin max, elementwise for arrays: a value replaces the
    running maximum only where it is greater."""
    best = values[0]
    for v in values[1:]:
        best = where(v > best, v, best)
    return best


def _scale(terms):
    """The scale of one equation: 1 + the sum of |term|."""
    return 1.0 + sum(abs(s) for s in terms)


def _forms(relation: Callable, name: str):
    """The raw residual ``name`` and the scaled one ``name_scaled`` of a
    relation given as one tuple of terms per equation; both take the
    relation's arguments."""
    def raw(*args, **kwargs):
        sums = tuple(sum(terms) for terms in relation(*args, **kwargs))
        return sums[0] if len(sums) == 1 else sums

    def scaled(*args, **kwargs):
        return _max(*(abs(sum(terms)) / _scale(terms) for terms in relation(*args, **kwargs)))

    for fn, fn_name in ((raw, name), (scaled, name + "_scaled")):
        functools.update_wrapper(fn, relation)
        fn.__name__ = fn.__qualname__ = fn_name
    return raw, scaled


def _gbe_terms(ju: Jet3, jf: Jet3):
    """Terms of u_t + u*u_x + f*u_xx from the jets of u and f."""
    return (ju.d_t, ju.v * ju.d_x, jf.v * ju.d_xx)


def _gbe(u: ScalarField, f: ScalarField, p: Point, jet_fn: Optional[JetFn] = None):
    """The generalized Burgers equation u_t + u*u_x + f*u_xx = 0 at p."""
    return (_gbe_terms(*_jets(jet_fn, p, u, f)),)


def _gfde(theta: ScalarField, h: Callable[[float], float], p: Point,
          jet_fn: Optional[JetFn] = None):
    """theta_t - theta_xx/theta_x - h(theta)*theta_x = 0 at p.

    ``h`` is a univariate function of the field value; only its value
    enters, so any float->float callable works.  Reduces to the PFDE when
    h is identically zero.
    """
    j, = _jets(jet_fn, p, theta)
    d_x = _nonvanishing(j.d_x, DegenerateGradientError, "theta_x", p)
    terms = (j.d_t, -j.d_xx / d_x)
    return (terms if h is None else terms + (-(h(j.v) * j.d_x),),)


def _pfde(theta: ScalarField, p: Point, jet_fn: Optional[JetFn] = None):
    """The potential fast diffusion equation theta_t - theta_xx/theta_x = 0 at p."""
    return _gfde(theta, None, p, jet_fn)  # None leaves the h-term out


def _potential(theta: ScalarField, f: ScalarField, xi: ScalarField, p: Point,
               jet_fn: Optional[JetFn] = None):
    """The potential system theta_t = xi/f, theta_x = -1/f at p."""
    jt, jf, jx = _jets(jet_fn, p, theta, f, xi)
    # NaN also where xi's jet failed, as the second equation does not read xi
    fv = _nan_where_failed(_nonvanishing(jf.v, VanishingCoefficientError, "f", p), jx.v)
    return (jt.d_t, -(jx.v / fv)), (jt.d_x, 1.0 / fv)


def _reduced(f: ScalarField, xi: ScalarField, p: Point, jet_fn: Optional[JetFn] = None):
    """The well-determined pair on (f, xi) at p: f_t + xi*f_x - xi_x*f = 0
    and xi_t + xi*xi_x + f*xi_xx = 0.

    The second equation is the generalized Burgers equation for u = xi, so
    it certifies xi as a solution with arbitrary element f.
    """
    jf, jx = _jets(jet_fn, p, f, xi)
    return (jf.d_t, jx.v * jf.d_x, -jx.d_x * jf.v), _gbe_terms(jx, jf)


gbe_residual, gbe_residual_scaled = _forms(_gbe, "gbe_residual")
pfde_residual, pfde_residual_scaled = _forms(_pfde, "pfde_residual")
gfde_residual, gfde_residual_scaled = _forms(_gfde, "gfde_residual")
potential_residual, potential_residual_scaled = _forms(_potential, "potential_residual")
reduced_system_residual, reduced_system_residual_scaled = _forms(
    _reduced, "reduced_system_residual")


# -- reduction-operator coefficients ----------------------------------------

@dataclass(frozen=True)
class ReductionOperatorCoefficients:
    """Coefficient fields of Q = d_t + xi*d_x + eta*d_u with

        xi  = xi1(t,x)*u + xi0(t,x),
        eta = xi1*(xi1 - 1)/(3f)*u^3 + (xi1_x + xi1*xi0/f)*u^2
              + eta1(t,x)*u + eta0(t,x).
    """

    xi1: ScalarField
    xi0: ScalarField
    eta1: ScalarField
    eta0: ScalarField

    @staticmethod
    def common_operator() -> "ReductionOperatorCoefficients":
        """xi1 = 1, all others zero: admitted by every arbitrary element f."""
        zero = constant_field(0.0)
        return ReductionOperatorCoefficients(constant_field(1.0), zero, zero, zero)

    @staticmethod
    def from_xi(xi: ScalarField) -> "ReductionOperatorCoefficients":
        """xi independent of u, eta = 0 (the potential-system branch)."""
        zero = constant_field(0.0)
        return ReductionOperatorCoefficients(zero, xi, zero, zero)


@dataclass(frozen=True)
class DeterminingResiduals:
    """The five determining residuals with their scales."""

    residuals: tuple[float, float, float, float, float]
    scales: tuple[float, float, float, float, float]

    @property
    def scaled(self) -> tuple[float, float, float, float, float]:
        return tuple(abs(r) / s for r, s in zip(self.residuals, self.scales))

    @property
    def max_scaled(self) -> float:
        return _max(*self.scaled)


def determining_residuals(f: ScalarField, coeffs: ReductionOperatorCoefficients,
                          p: Point, jet_fn: Optional[JetFn] = None) -> DeterminingResiduals:
    """Evaluate all five determining equations at p.

    The first four are split equations on the coefficient fields; the fifth
    couples eta back in and is polynomial of degree <= 4 in u, so it is
    evaluated at :data:`U_SAMPLES` and reported as the max over samples.  At an
    array point, all five residuals are NaN where f vanishes or a jet fails.
    """
    F, = _jets(jet_fn, p, f)
    fv = _nonvanishing(F.v, VanishingCoefficientError, "f", p)
    J1, J0, H1, H0 = _jets(jet_fn, p, coeffs.xi1, coeffs.xi0, coeffs.eta1, coeffs.eta0)

    ft, fx = F.d_t, F.d_x
    x1, x1t, x1x, x1xx = J1.v, J1.d_t, J1.d_x, J1.d_xx
    x0, x0t, x0x, x0xx = J0.v, J0.d_t, J0.d_x, J0.d_xx
    e1, e1x = H1.v, H1.d_x
    e0 = H0.v

    ta = (x1 * (x1 - 1.0) * (2.0 * x1 + 1.0),)
    tb = (-fx * x1 * x1, fx * x1, x1 * x0 * (2.0 * x1 + 1.0), 4.0 * fv * x1 * x1x)
    tc = ((ft / fv) * (x1 - 1.0), -2.0 * (fx / fv) * x1 * x0, -(fx / fv) * x0,
          3.0 * fv * x1xx, 2.0 * (x1x * x0 + x1 * x0x), (2.0 * x1 + 1.0) * e1,
          -x1t, x0x)
    td = (x0t, 2.0 * x0 * x0x, fv * x0xx, -e0 * (2.0 * x1 + 1.0),
          -(ft / fv) * x0, -(fx / fv) * x0 * x0, -2.0 * fv * e1x)

    # Fifth equation: reconstruct eta as a jet for each sample of u.  The
    # u^2 coefficient involves xi1_x, so eta's second derivatives consume
    # third derivatives of xi1; the shifted jet is exact through order 2,
    # which is all the equation reads.
    P3 = (J1 * (J1 - 1.0)) / (F * 3.0)
    P2 = J1.deriv_x() + (J1 * J0) / F
    re_best = -1.0
    se_best = 1.0
    for u in U_SAMPLES:
        ETA = P3 * (u ** 3) + P2 * (u * u) + H1 * u + H0
        xi_v = x1 * u + x0
        xi_x = x1x * u + x0x
        te = (ETA.d_t, u * ETA.d_x, fv * ETA.d_xx, 2.0 * xi_x * ETA.v,
              -(ft / fv) * ETA.v, -(fx / fv) * xi_v * ETA.v)
        re = abs(sum(te))
        better = re > re_best
        re_best = where(better, re, re_best)
        se_best = where(better, _scale(te), se_best)

    residuals = (sum(ta), sum(tb), sum(tc), sum(td), re_best)
    # the first equations read neither f nor every jet, and a failed
    # u-sample never replaces re_best: mark failed elements explicitly
    residuals = tuple(_nan_where_failed(r, fv, J1.v, J0.v, H1.v, H0.v) for r in residuals)
    scales = tuple(map(_scale, (ta, tb, tc, td))) + (se_best,)
    return DeterminingResiduals(residuals, scales)


@dataclass(frozen=True)
class LinearReductionOperator:
    """Reduction operator with coefficients linear in x.

    Q = d_t + ((a*t + b1)*x + d1*t + d0)/D * d_x
            + (-(a*t + b2)*u + a*x + d1)/D * d_u,   D = a*t^2 + (b1+b2)*t + c.

    Operators of this family are equivalent to Lie symmetry operators; no
    compatible f is prescribed here, so callers verify a candidate f via
    :func:`determining_residuals`.
    """

    a: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    c: float = 0.0
    d0: float = 0.0
    d1: float = 0.0

    def __post_init__(self) -> None:
        if self.a == 0.0 and self.b1 + self.b2 == 0.0 and self.c == 0.0:
            raise ValueError("denominator a*t^2 + (b1+b2)*t + c is identically zero")


def linear_operator_fields(q: LinearReductionOperator) -> ReductionOperatorCoefficients:
    a, b1, b2, c, d0, d1 = q.a, q.b1, q.b2, q.c, q.d0, q.d1

    def den(T):
        return a * T * T + (b1 + b2) * T + c

    xi0 = ScalarField(lambda T, X: ((a * T + b1) * X + d1 * T + d0) / den(T), name="lin-xi0")
    eta1 = ScalarField(lambda T, X: -(a * T + b2) / den(T), name="lin-eta1")
    eta0 = ScalarField(lambda T, X: (a * X + d1) / den(T), name="lin-eta0")
    return ReductionOperatorCoefficients(xi1=constant_field(0.0), xi0=xi0, eta1=eta1, eta0=eta0)


# -- the relations of a catalog case -------------------------------------------

def _determining_row(e):
    coeffs = ReductionOperatorCoefficients.from_xi(e.xi)
    return lambda p: determining_residuals(e.f, coeffs, p).max_scaled


#: relation name -> row: row(e), for a catalog entry e (anything with f, xi and
#: theta), is the relation's scaled residual as a function of a Point.  A row looks
#: its residual up in this module when called, so a wrapper set there sees the call.
RELATIONS: dict[str, Callable] = {
    "gbe": lambda e: lambda p: gbe_residual_scaled(e.xi, e.f, p),  # u = xi solves the GBE
    "pfde": lambda e: lambda p: pfde_residual_scaled(e.theta, p),
    "potential": lambda e: lambda p: potential_residual_scaled(e.theta, e.f, e.xi, p),
    "reduced": lambda e: lambda p: reduced_system_residual_scaled(e.f, e.xi, p),
    "determining": _determining_row,
}


# -- grid sweeps ---------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    max_abs_residual: float
    argmax: Point
    points_checked: int
    points_skipped: int

    def to_dict(self) -> dict:
        return {**asdict(self), "argmax": self.argmax._asdict(), "scale_used": "relative"}


def evaluate_grid(fn: Callable[[Point], object], region: Region, n_t: int, n_x: int,
                  valid: Optional[Callable[[Point], bool]] = None) -> tuple[Point, np.ndarray]:
    """The inclusive uniform n_t x n_x grid, as one :class:`Point` of 1-D
    arrays in row-major (t, x) order, and the value of ``fn`` at each of
    its points.

    ``valid`` is a validity predicate (see :func:`gburgers.jets.valid_mask`)
    and is asked once, at the whole grid.  ``fn`` is then called once, and
    only on valid points: on ``Point(ts[:, None], xs[None, :])``, the column
    of n_t times and the row of n_x abscissae, when all are valid, and
    otherwise on a Point of 1-D arrays holding the valid points in row-major
    order.  Its result must broadcast to (n_t, n_x) or to one value per
    point (a float counts for every point).  The residuals of this module,
    fed fields written against :mod:`gburgers.jets`, give such arrays, each
    element bit-identical to a call at that point alone.  The value is NaN
    at an invalid point, and at every point if ``fn`` raises
    :class:`EvaluationError` for the whole batch.  Poles of the Riccati
    branches are NaN on arrays, so a branch evaluated with the catalog
    predicate alone is NaN there too.
    """
    if n_t < 2 or n_x < 2:
        raise ValueError("grid must be at least 2x2")
    grid = region.points(n_t, n_x)
    keep = np.ones(grid.t.size, dtype=bool) if valid is None else valid_mask(valid, grid)
    values = np.full(grid.t.size, np.nan)
    if keep.any():
        p = (Point(grid.t[::n_x, None], grid.x[None, :n_x]) if keep.all()
             else Point(grid.t[keep], grid.x[keep]))
        with suppress(EvaluationError), np.errstate(all="ignore"):
            values[keep] = np.broadcast_to(fn(p), np.broadcast(*p).shape).ravel()
    return grid, values


def sweep(residual_fn: Callable[[Point], float], region: Region,
          n_t: int, n_x: int,
          valid: Optional[Callable[[Point], bool]] = None) -> SweepReport:
    """Max |residual_fn| over the grid of :func:`evaluate_grid`.

    Points whose residual is not finite, the invalid ones among them, are
    skipped and counted.  The reported argmax is the first maximum in
    row-major order, that is the lexicographically smallest (t, x) among
    ties.
    """
    grid, r = evaluate_grid(residual_fn, region, n_t, n_x, valid)
    r = np.abs(r)
    finite = np.flatnonzero(np.isfinite(r))
    checked = int(finite.size)
    skipped = n_t * n_x - checked
    EmptySweepError.require(checked, region, n_t, n_x)
    k = finite[int(np.argmax(r[finite]))]
    return SweepReport(float(r[k]), Point(float(grid.t[k]), float(grid.x[k])), checked, skipped)
