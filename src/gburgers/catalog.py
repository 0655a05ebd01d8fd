"""Built-in catalog of exact (f, xi, theta) triples.

Each entry pairs an arbitrary element f of the generalized Burgers equation
u_t + u*u_x + f(t,x)*u_xx = 0 with the coefficient xi of its reduction
operator Q = d_t + xi*d_x and the potential theta solving the potential
fast diffusion equation theta_t = theta_xx / theta_x.  The three fields are
tied together pointwise by

    f = -1/theta_x,        xi = -theta_t/theta_x,

which every entry satisfies to roundoff on its valid domain.

Domains of validity are not intrinsic to the closed forms; the predicates
here exclude zero sets of denominators (and of theta_x) with a fixed margin
and are a deliberate engineering choice, documented per entry.  The margin
``EPS_DEN = 1e-8`` is absolute, not scale-aware: it is compared with the
raw value of each denominator, whatever the size of the terms it is made
of or of the region, so it excludes a relatively wider band around a
denominator of small magnitude than around a large one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .jets import (Antiderivative, Point, Region, ScalarField,
                   SingularPointError, arctan, cos, cosh, coth, exp, log_abs,
                   refine, require_finite, sin, sinh, tan, tanh, valid_mask)

#: absolute (not scale-aware) margin used by all validity predicates to keep
#: denominators away from zero
EPS_DEN = 1e-8

#: reference abscissa anchoring the quadrature constant of case 5
CASE5_W0 = 2.0

#: default parameter for case 5 when none is supplied
CASE5_DEFAULT_LAMBDA = 1.0

N_CASES = 17


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: closed forms plus validity metadata.

    ``valid`` is a validity predicate: a Point of floats gives a bool, a
    Point of equal-length 1-D arrays a bool array, each element the answer
    at that point alone (:func:`gburgers.jets.valid_mask`).
    """

    id: int
    f: ScalarField
    xi: ScalarField
    theta: ScalarField
    lam: Optional[float]
    valid: Callable[[Point], bool]
    singular_description: str
    sample_region: Region
    f_expr: str
    xi_expr: str
    theta_expr: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "valid", _overflow_safe(self.valid))

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("id", "f_expr", "xi_expr", "theta_expr", "singular_description")}


def _overflow_safe(valid: Callable) -> Callable:
    """``valid``, answering through the array path at a Point of floats
    where it raises ArithmeticError: math overflows far outside a region
    (sinh of a large x), where numpy gives inf."""
    def guarded(p: Point):
        try:
            return valid(p)
        except ArithmeticError:
            return bool(valid_mask(valid, Point(np.array([p.t]), np.array([p.x])))[0])
    return guarded


def _always_valid(p: Point) -> bool:
    return True


def _case5_denominator_roots(lam: float) -> tuple[float, ...]:
    """Real roots of d(w) = w - 1 + lam*exp(-w), the zero set of f/(-t).

    For lam > 0 the minimum of d is log(lam) at w = log(lam), which gives
    zero, one (double), or two roots; for lam <= 0 d is strictly increasing
    with a single root; for lam = 0 the root is w = 1.  Each root is
    bracketed where d is monotone (d is convex for lam > 0) and bisected
    to the last float.
    """
    if lam == 0.0:
        return (1.0,)

    def d(w: float) -> float:
        try:
            return w - 1.0 + lam * math.exp(-w)
        except OverflowError:  # exp(-w) beyond the floats, yet lam*exp(-w) need not be
            return w - 1.0 + math.copysign(math.exp(math.log(abs(lam)) - w), lam)

    if lam > 0.0:
        m = math.log(lam)
        if m > 0.0:
            return ()
        if m == 0.0:
            return (0.0,)
        # two simple roots bracketing the minimum
        lo = m - 1.0
        while d(lo) <= 0.0:
            lo -= 1.0
        hi = m + 1.0
        while d(hi) <= 0.0:
            hi += 1.0
        brackets = ((lo, m), (m, hi))
    else:
        lo, hi = -1.0, 1.0
        while d(lo) >= 0.0:
            lo *= 2.0
        while d(hi) <= 0.0:
            hi *= 2.0
        brackets = ((lo, hi),)
    return tuple(_bisect(d, a, b) for a, b in brackets)


def _bisect(d: Callable[[float], float], a: float, b: float) -> float:
    """The root of d in [a, b], a < b, where d(a) and d(b) have opposite
    signs: bisection down to two adjacent floats, then the one where |d| is
    smaller."""
    positive_at_a = d(a) > 0.0
    while a < (m := 0.5 * (a + b)) < b:
        if (d(m) > 0.0) == positive_at_a:
            a = m
        else:
            b = m
    return a if abs(d(a)) <= abs(d(b)) else b


def _build_case5(lam: float) -> CatalogEntry:
    require_finite(**{"lambda": lam})
    roots = _case5_denominator_roots(lam)

    def den(w):
        return w - 1.0 + lam * exp(-w)

    d_at_w0 = den(CASE5_W0)
    if abs(d_at_w0) <= EPS_DEN:
        raise ValueError(
            f"case 5 with lambda={lam} is singular at the quadrature anchor w={CASE5_W0}")

    theta_int = Antiderivative(lambda w: 1.0 / den(w), CASE5_W0)

    def off_rays(p: Point):
        # off the rays where den(x/t) vanishes, and on the anchor's side of each
        w = p.x / p.t
        ok = abs(den(w)) > EPS_DEN
        for r in roots:
            ok &= ((w >= r) & (CASE5_W0 >= r)) | ((w <= r) & (CASE5_W0 <= r))
        return ok

    def valid(p: Point):
        return refine(abs(p.t) > EPS_DEN, p, off_rays)

    f = ScalarField(lambda T, X: T - X - lam * T * exp(-X / T), name="f[5]")
    xi = ScalarField(lambda T, X: 1.0 - lam * exp(-X / T), name="xi[5]")
    theta = ScalarField(lambda T, X: log_abs(T) + theta_int(X / T), name="theta[5]")

    if roots:
        sing = (f"t = 0 and the rays x/t = w* with w* in "
                f"{tuple(round(r, 12) for r in roots)} (zeros of x/t - 1 + lam*exp(-x/t))")
    else:
        sing = "t = 0"
    return CatalogEntry(
        id=5, f=f, xi=xi, theta=theta, lam=lam, valid=valid,
        singular_description=sing,
        sample_region=Region(0.5, 1.0, 1.5, 3.0),
        f_expr=f"t - x - {lam:g}*t*exp(-x/t)",
        xi_expr=f"1 - {lam:g}*exp(-x/t)",
        theta_expr=(f"ln|t| + integral from w0={CASE5_W0:g} to x/t of "
                    f"dw/(w - 1 + {lam:g}*exp(-w))"),
    )


E = EPS_DEN  # shorthand for the predicates below

#: case id -> expressions of f, xi and theta in (T, X), validity predicate,
#: singular set, sample region, and the printed forms of f, xi and theta
_ROWS = {
    1: (lambda T, X: 1.0 + exp(-T - X),
        lambda T, X: exp(-T - X),
        lambda T, X: -log_abs(exp(X) + exp(-T)),
        _always_valid, "none (smooth on all of R^2)", Region(0.0, 1.0, -1.0, 1.0),
        "1 + exp(-t-x)", "exp(-t-x)", "-ln(exp(x) + exp(-t))"),
    2: (lambda T, X: -1.0,
        lambda T, X: 0.0,
        lambda T, X: X,
        _always_valid, "none (constant-coefficient equation)", Region(0.0, 1.0, -2.0, 2.0),
        "-1", "0", "x"),
    3: (lambda T, X: 1.0 - exp(-T - X),
        lambda T, X: -exp(-T - X),
        lambda T, X: -log_abs(exp(X) - exp(-T)),
        lambda p: abs(exp(p.x) - exp(-p.t)) > E,
        "the curve x = -t (zero of exp(x) - exp(-t))", Region(0.2, 1.2, 0.3, 1.3),
        "1 - exp(-t-x)", "-exp(-t-x)", "-ln|exp(x) - exp(-t)|"),
    4: (lambda T, X: -exp(-X),
        lambda T, X: -exp(-X),
        lambda T, X: exp(X) + T,
        _always_valid, "none (smooth on all of R^2)", Region(0.0, 1.0, -1.0, 1.0),
        "-exp(-x)", "-exp(-x)", "exp(x) + t"),
    6: (lambda T, X: (T * T - X * X) / (2.0 * T),
        lambda T, X: X / T,
        lambda T, X: log_abs((X - T) / (X + T)),
        lambda p: (abs(p.t) > E) & (abs(p.x - p.t) > E) & (abs(p.x + p.t) > E),
        "the lines t = 0, x = t, x = -t", Region(0.5, 1.0, 1.5, 3.0),
        "(t^2 - x^2)/(2t)", "x/t", "ln|(x-t)/(x+t)|"),
    7: (lambda T, X: -X * X / (2.0 * T),
        lambda T, X: X / T,
        lambda T, X: -2.0 * T / X,
        lambda p: (abs(p.t) > E) & (abs(p.x) > E),
        "the lines t = 0, x = 0", Region(1.0, 2.0, 1.0, 3.0),
        "-x^2/(2t)", "x/t", "-2t/x"),
    8: (lambda T, X: -(T * T + X * X) / (2.0 * T),
        lambda T, X: X / T,
        lambda T, X: 2.0 * arctan(X / T),
        lambda p: abs(p.t) > E,
        "the line t = 0", Region(0.5, 1.5, -1.0, 1.0),
        "-(t^2 + x^2)/(2t)", "x/t", "2*arctan(x/t)"),
    9: (lambda T, X: -cos(X) * cos(X) / (2.0 * T),
        lambda T, X: -sin(2.0 * X) / (2.0 * T),
        lambda T, X: 2.0 * T * tan(X),
        lambda p: (abs(p.t) > E) & (abs(cos(p.x)) > E),
        "the line t = 0 and the lines x = pi/2 + k*pi", Region(0.5, 1.5, -0.6, 0.6),
        "-cos(x)^2/(2t)", "-sin(2x)/(2t)", "2t*tan(x)"),
    10: (lambda T, X: cosh(X) * cosh(X) / (2.0 * T),
         lambda T, X: -sinh(2.0 * X) / (2.0 * T),
         lambda T, X: -2.0 * T * tanh(X),
         lambda p: abs(p.t) > E,
         "the line t = 0", Region(0.5, 1.5, -1.0, 1.0),
         "cosh(x)^2/(2t)", "-sinh(2x)/(2t)", "-2t*tanh(x)"),
    11: (lambda T, X: -sinh(X) * sinh(X) / (2.0 * T),
         lambda T, X: sinh(2.0 * X) / (2.0 * T),
         lambda T, X: -2.0 * T * coth(X),
         lambda p: (abs(p.t) > E) & (abs(sinh(p.x)) > E),
         "the lines t = 0, x = 0", Region(0.5, 1.5, 0.5, 1.5),
         "-sinh(x)^2/(2t)", "sinh(2x)/(2t)", "-2t*coth(x)"),
    12: (lambda T, X: (cos(2.0 * X) - cos(2.0 * T)) / (2.0 * sin(2.0 * T)),
         lambda T, X: sin(2.0 * X) / sin(2.0 * T),
         lambda T, X: log_abs(sin(X - T) / sin(X + T)),
         lambda p: ((abs(sin(2.0 * p.t)) > E) & (abs(sin(p.x - p.t)) > E)
                    & (abs(sin(p.x + p.t)) > E)),
         "the lines t = k*pi/2 and x = t + k*pi, x = -t + k*pi", Region(0.3, 0.7, 1.0, 1.4),
         "(cos(2x) - cos(2t))/(2 sin(2t))", "sin(2x)/sin(2t)", "ln|sin(x-t)/sin(x+t)|"),
    13: (lambda T, X: (cosh(2.0 * T) - cosh(2.0 * X)) / (2.0 * sinh(2.0 * T)),
         lambda T, X: sinh(2.0 * X) / sinh(2.0 * T),
         lambda T, X: log_abs(sinh(X - T) / sinh(X + T)),
         lambda p: ((abs(sinh(2.0 * p.t)) > E) & (abs(sinh(p.x - p.t)) > E)
                    & (abs(sinh(p.x + p.t)) > E)),
         "the lines t = 0, x = t, x = -t", Region(0.3, 0.8, 1.2, 2.0),
         "(cosh(2t) - cosh(2x))/(2 sinh(2t))", "sinh(2x)/sinh(2t)",
         "ln|sinh(x-t)/sinh(x+t)|"),
    14: (lambda T, X: (sinh(2.0 * T) - sinh(2.0 * X)) / (2.0 * cosh(2.0 * T)),
         lambda T, X: cosh(2.0 * X) / cosh(2.0 * T),
         lambda T, X: log_abs(sinh(X - T) / cosh(X + T)),
         lambda p: abs(sinh(p.x - p.t)) > E,
         "the line x = t", Region(0.3, 0.8, 1.2, 2.0),
         "(sinh(2t) - sinh(2x))/(2 cosh(2t))", "cosh(2x)/cosh(2t)",
         "ln|sinh(x-t)/cosh(x+t)|"),
    15: (lambda T, X: (cosh(2.0 * T) + cosh(2.0 * X)) / (2.0 * sinh(2.0 * T)),
         lambda T, X: -sinh(2.0 * X) / sinh(2.0 * T),
         lambda T, X: log_abs(cosh(X - T) / cosh(X + T)),
         lambda p: abs(sinh(2.0 * p.t)) > E,
         "the line t = 0", Region(0.3, 0.8, -1.0, 1.0),
         "(cosh(2t) + cosh(2x))/(2 sinh(2t))", "-sinh(2x)/sinh(2t)",
         "ln|cosh(x-t)/cosh(x+t)|"),
    16: (lambda T, X: (cos(2.0 * T) - cosh(2.0 * X)) / (2.0 * sin(2.0 * T)),
         lambda T, X: sinh(2.0 * X) / sin(2.0 * T),
         lambda T, X: 2.0 * arctan(cos(T) / sin(T) * tanh(X)),
         lambda p: abs(sin(2.0 * p.t)) > E,
         "the lines t = k*pi/2", Region(0.3, 0.7, 0.3, 1.0),
         "(cos(2t) - cosh(2x))/(2 sin(2t))", "sinh(2x)/sin(2t)", "2*arctan(cot(t)*tanh(x))"),
    17: (lambda T, X: (cos(2.0 * X) - cosh(2.0 * T)) / (2.0 * sinh(2.0 * T)),
         lambda T, X: sin(2.0 * X) / sinh(2.0 * T),
         lambda T, X: 2.0 * arctan(cosh(T) / sinh(T) * tan(X)),
         lambda p: (abs(sinh(2.0 * p.t)) > E) & (abs(cos(p.x)) > E),
         "the line t = 0 and the lines x = pi/2 + k*pi", Region(0.3, 0.8, -0.6, 0.6),
         "(cos(2x) - cosh(2t))/(2 sinh(2t))", "sin(2x)/sinh(2t)", "2*arctan(coth(t)*tan(x))"),
}


def _build_case(case_id: int) -> CatalogEntry:
    f, xi, theta, valid, singular, region, f_expr, xi_expr, theta_expr = _ROWS[case_id]
    return CatalogEntry(
        id=case_id, f=ScalarField(f, name=f"f[{case_id}]"),
        xi=ScalarField(xi, name=f"xi[{case_id}]"),
        theta=ScalarField(theta, name=f"theta[{case_id}]"), lam=None, valid=valid,
        singular_description=singular, sample_region=region,
        f_expr=f_expr, xi_expr=xi_expr, theta_expr=theta_expr)


def get_case(case_id: int, lam: Optional[float] = None) -> CatalogEntry:
    """Catalog entry by id in 1..17; ``lam`` is accepted only for case 5."""
    if not isinstance(case_id, int) or not 1 <= case_id <= N_CASES:
        raise ValueError(f"case id must be an integer in 1..{N_CASES}, got {case_id!r}")
    if case_id == 5:
        return _build_case5(CASE5_DEFAULT_LAMBDA if lam is None else float(lam))
    if lam is not None:
        raise ValueError(f"parameter lambda applies to case 5 only, not case {case_id}")
    return _build_case(case_id)


def iter_cases(lam: Optional[float] = None) -> list[CatalogEntry]:
    """All 17 entries, with ``lam`` forwarded to case 5."""
    return [get_case(i, lam if i == 5 else None) for i in range(1, N_CASES + 1)]


def eval_case(case_id: int, p: Point, lam: Optional[float] = None) -> tuple[float, float, float]:
    """Pointwise (f, xi, theta) of a case; singular points raise."""
    entry = get_case(case_id, lam)
    if not entry.valid(p):
        raise SingularPointError(
            f"case {case_id} is singular at {tuple(p)}; singular set: "
            f"{entry.singular_description}")
    return (entry.f.value(*p), entry.xi.value(*p), entry.theta.value(*p))


def catalog_json(lam: Optional[float] = None) -> list[dict]:
    """Plain-data form of the whole catalog (for JSON export)."""
    return [e.to_dict() for e in iter_cases(lam)]
