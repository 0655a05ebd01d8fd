"""Closed-form solution families of the generalized Burgers equation.

Substituting u = phi(omega), omega = theta(t,x) with theta a potential
fast diffusion solution reduces u_t + u*u_x + f*u_xx = 0 (f = -1/theta_x)
to phi'' = phi*phi', integrated once to the Riccati equation

    phi' = phi^2/2 + 2*nu.

Its general solution splits into three branches by the sign of the
integration constant nu; only the ratio of the family constants (c1, c2)
is essential.  Two more constructions need no ansatz at all: the rational
family u = (x + c1)/(t + c2), a solution for every f, and u = xi, which
solves the same equation as the phi-families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .catalog import EPS_DEN, CatalogEntry
from .jets import (Jet3, Point, ScalarField, SingularPointError, cos, exp, fail_where,
                   refine, require_finite, sin, where)


@dataclass(frozen=True)
class RiccatiBranch:
    """Branch selector (sign of nu) and family constants of one solution."""

    nu: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        require_finite(nu=self.nu, c1=self.c1, c2=self.c2)
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise ValueError("family constants (c1, c2) must not both vanish")

    @cached_property
    def _scaled(self) -> tuple[float, float, float]:
        """(nu, c1, c2), c1 and c2 scaled by the power of two that puts the larger
        in [1, 2): exact, and only their ratio counts, but tiny ones cannot underflow."""
        e = math.frexp(max(abs(self.c1), abs(self.c2)))[1] - 1
        return self.nu, math.ldexp(self.c1, -e), math.ldexp(self.c2, -e)


@dataclass(frozen=True)
class SolutionField:
    """A scalar field u together with the arbitrary element it solves.

    ``valid`` is a validity predicate: a Point of floats gives a bool, a
    Point of equal-length 1-D arrays a bool array, each element the answer
    at that point alone (:func:`gburgers.jets.valid_mask`).
    """

    u: ScalarField
    f: ScalarField
    provenance: str
    valid: Callable[[Point], bool]


def _value(w):
    return w.c[0] if isinstance(w, Jet3) else w


def _check_pole(den, c1: float, c2: float):
    """den, kept off the poles by :func:`gburgers.jets.fail_where`."""
    margin = EPS_DEN * (abs(c1) + abs(c2))
    return fail_where(abs(_value(den)) <= margin, den, "pole of the solution branch",
                      error=SingularPointError)


def _negative_nu(nu: float, c1: float, c2: float, omega, derivative: bool):
    """The nu < 0 branch (or its derivative) at a float, an array or a jet,
    divided through by the dominant exponential so that large |k*omega|
    cannot overflow: with s = +-1 the sign of omega (+1 at zero) and
    (a, c) = (c1, c2) for s = 1, (c2, c1) for s = -1, r = e^{-2k s omega}
    <= 1 and phi = -2k s (a - c r)/(a + c r)."""
    k = math.sqrt(-nu)
    nonneg = _value(omega) >= 0.0
    s = where(nonneg, 1.0, -1.0)
    a, c = where(nonneg, c1, c2), where(nonneg, c2, c1)
    r = exp(-2.0 * k * s * omega)
    cr = c * r
    den = _check_pole(a + cr, c1, c2)
    if derivative:
        # -8 k^2 c1 c2 / (c1 e^{kw} + c2 e^{-kw})^2 in the rescaled variables
        return 8.0 * nu * c1 * c2 * r / (den * den)
    return -2.0 * k * s * (a - cr) / den


def phi(b: RiccatiBranch, omega) -> float:
    """Branch value at omega; accepts floats, plain arrays and jets.  A
    pole raises SingularPointError at a float or a jet of one point, and is
    NaN at an element of an array or an array jet.

    nu < 0:  -2k*(c1*e^{k w} - c2*e^{-k w})/(c1*e^{k w} + c2*e^{-k w}),  k = sqrt(-nu)
    nu = 0:  -2*c2/(c1 + c2*w)
    nu > 0:   2k*(c1*sin(k w) - c2*cos(k w))/(c1*cos(k w) + c2*sin(k w)), k = sqrt(nu)
    """
    nu, c1, c2 = b._scaled
    if nu < 0.0:
        return _negative_nu(nu, c1, c2, omega, derivative=False)
    if nu == 0.0:
        den = _check_pole(c1 + c2 * omega, c1, c2)
        return -2.0 * c2 / den
    k = math.sqrt(nu)
    kw = k * omega
    cw, sw = cos(kw), sin(kw)
    den = _check_pole(c1 * cw + c2 * sw, c1, c2)
    return 2.0 * k * (c1 * sw - c2 * cw) / den


def phi_prime(b: RiccatiBranch, omega) -> float:
    """Closed-form derivative of the branch, independent of the Riccati
    right-hand side (so that the residual check below means something)."""
    nu, c1, c2 = b._scaled
    if nu < 0.0:
        return _negative_nu(nu, c1, c2, omega, derivative=True)
    if nu == 0.0:
        den = _check_pole(c1 + c2 * omega, c1, c2)
        return 2.0 * c2 * c2 / (den * den)
    k = math.sqrt(nu)
    den = _check_pole(c1 * cos(k * omega) + c2 * sin(k * omega), c1, c2)
    return 2.0 * nu * (c1 * c1 + c2 * c2) / (den * den)


def riccati_residual(b: RiccatiBranch, omega) -> float:
    """phi' - phi^2/2 - 2*nu, which must vanish identically."""
    p = phi(b, omega)
    return phi_prime(b, omega) - 0.5 * p * p - 2.0 * b.nu


def build_solution(entry: CatalogEntry, b: RiccatiBranch) -> SolutionField:
    """u(t,x) = phi(theta(t,x)) on the entry's arbitrary element.

    Validity intersects the catalog predicate with pole-freeness of the
    branch at theta(p); poles are genuine solution blow-ups, not defects.
    theta is evaluated only where the catalog predicate holds.
    """
    theta = entry.theta

    u = ScalarField(lambda T, X: phi(b, theta.expr(T, X)),
                    name=f"phi[nu={b.nu:g},c1={b.c1:g},c2={b.c2:g}](theta[{entry.id}])")

    def off_poles(p: Point):
        # on arrays, where a failed theta and a pole of phi are NaN
        w = theta.sample(np.atleast_1d(p.t), np.atleast_1d(p.x))
        return (np.isfinite(w) & np.isfinite(phi(b, w))).reshape(np.shape(p.t))

    def valid(p: Point):
        return refine(entry.valid(p), p, off_poles)

    return SolutionField(
        u=u, f=entry.f,
        provenance=f"riccati-ansatz(case {entry.id}, nu={b.nu:g}, c1={b.c1:g}, c2={b.c2:g})",
        valid=valid)


def rational_solution(c1: float, c2: float, f: ScalarField) -> SolutionField:
    """u = (x + c1)/(t + c2), a solution for every arbitrary element f.

    u_xx = 0 kills the diffusion term and u_t + u*u_x = 0 identically, so
    the only restriction is the line t = -c2.
    """
    require_finite(c1=c1, c2=c2)
    u = ScalarField(lambda T, X: (X + c1) / (T + c2), name=f"(x+{c1:g})/(t+{c2:g})")

    def valid(p: Point):
        return abs(p.t + c2) > EPS_DEN

    return SolutionField(u=u, f=f, provenance=f"rational-invariant(c1={c1:g}, c2={c2:g})",
                         valid=valid)


def xi_solution(entry: CatalogEntry) -> SolutionField:
    """u = xi of a catalog entry, a solution of the same equation.

    Follows from the second equation of the reduced pair, which is exactly
    the statement that xi solves u_t + u*u_x + f*u_xx = 0.
    """
    return SolutionField(u=entry.xi, f=entry.f,
                         provenance=f"xi-as-solution(case {entry.id})",
                         valid=entry.valid)


def matched_branch(nu: float, c1: float, c2: float) -> RiccatiBranch:
    """Branch whose constants are matched so that nu -> 0 from either side
    converges pointwise to the nu = 0 branch with constants (c1, c2).

    Matching convention (a choice; the parameterization is redundant at the
    branch boundary): for nu < 0 with k = sqrt(-nu) use
    (C1, C2) = ((k*c1 + c2)/2, (k*c1 - c2)/2); for nu > 0 with k = sqrt(nu)
    use (C1, C2) = (k*c1, c2).
    """
    if nu < 0.0:
        k = math.sqrt(-nu)
        return RiccatiBranch(nu, 0.5 * (k * c1 + c2), 0.5 * (k * c1 - c2))
    if nu > 0.0:
        k = math.sqrt(nu)
        return RiccatiBranch(nu, k * c1, c2)
    return RiccatiBranch(0.0, c1, c2)
