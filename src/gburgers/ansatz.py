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
from typing import Callable

import numpy as np

from .catalog import EPS_DEN, CatalogEntry
from .jets import (EvaluationError, Jet3, Point, ScalarField,
                   SingularPointError, cos, exp, sin)


@dataclass(frozen=True)
class RiccatiBranch:
    """Branch selector (sign of nu) and family constants of one solution."""

    nu: float
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise ValueError("family constants (c1, c2) must not both vanish")


@dataclass(frozen=True)
class SolutionField:
    """A scalar field u together with the arbitrary element it solves."""

    u: ScalarField
    f: ScalarField
    provenance: str
    valid: Callable[[Point], bool]


def _scalar(w) -> float:
    return w.c[0] if isinstance(w, Jet3) else float(w)


def _check_pole(den, c1: float, c2: float):
    """den, checked to stay off the poles: a float, a jet or a plain array
    raises SingularPointError; an array jet gets NaN at the pole elements."""
    margin = EPS_DEN * (abs(c1) + abs(c2))
    if isinstance(den, np.ndarray):
        if float(np.min(np.abs(den))) <= margin:
            raise SingularPointError("pole of the solution branch")
        return den
    v = _scalar(den)
    if isinstance(v, np.ndarray):
        pole = np.abs(v) <= margin
        return den.masked(pole) if pole.any() else den
    if abs(v) <= margin:
        raise SingularPointError("pole of the solution branch")
    return den


def _phi_negative_nu_array(k: float, c1: float, c2: float, omega: np.ndarray,
                           derivative: bool) -> np.ndarray:
    """Elementwise sign-rescaled evaluation of the nu < 0 branch."""
    out = np.empty(np.shape(omega), dtype=float)
    pos = omega >= 0.0
    for mask, sign in ((pos, -1.0), (~pos, 1.0)):
        if not np.any(mask):
            continue
        r = np.exp(2.0 * sign * k * omega[mask])
        den = (c1 + c2 * r) if sign < 0 else (c1 * r + c2)
        _check_pole(den, c1, c2)
        if derivative:
            out[mask] = -8.0 * k * k * c1 * c2 * r / (den * den)
        else:
            num = (c1 - c2 * r) if sign < 0 else (c1 * r - c2)
            out[mask] = -2.0 * k * num / den
    return out


def _negative_nu(b: RiccatiBranch, omega, derivative: bool):
    """The nu < 0 branch (or its derivative) at a float or a jet, rescaled
    by the dominant exponential so that large |k*omega| cannot overflow.
    An array jet is split by the sign of its value, and each part is
    evaluated on its own elements only."""
    nu, c1, c2 = b.nu, b.c1, b.c2
    k = math.sqrt(-nu)

    def part(w, nonnegative: bool):
        if nonnegative:
            r = exp(-2.0 * k * w)
            num, den = c1 - c2 * r, c1 + c2 * r
        else:
            r = exp(2.0 * k * w)
            num, den = c1 * r - c2, c1 * r + c2
        den = _check_pole(den, c1, c2)
        if derivative:
            # -8 k^2 c1 c2 / (c1 e^{kw} + c2 e^{-kw})^2 in the rescaled variables
            return 8.0 * nu * c1 * c2 * r / (den * den)
        return -2.0 * k * num / den

    v = _scalar(omega)
    if not isinstance(v, np.ndarray):
        return part(omega, v >= 0.0)
    nonneg = v >= 0.0
    if nonneg.all() or not nonneg.any():
        return part(omega, bool(nonneg.all()))
    return Jet3.merge(nonneg, part(omega.take(nonneg), True), part(omega.take(~nonneg), False))


def phi(b: RiccatiBranch, omega) -> float:
    """Branch value at omega; accepts floats, plain arrays and jets.

    nu < 0:  -2k*(c1*e^{k w} - c2*e^{-k w})/(c1*e^{k w} + c2*e^{-k w}),  k = sqrt(-nu)
    nu = 0:  -2*c2/(c1 + c2*w)
    nu > 0:   2k*(c1*sin(k w) - c2*cos(k w))/(c1*cos(k w) + c2*sin(k w)), k = sqrt(nu)
    """
    nu, c1, c2 = b.nu, b.c1, b.c2
    if nu < 0.0:
        if isinstance(omega, np.ndarray):
            return _phi_negative_nu_array(math.sqrt(-nu), c1, c2, omega, derivative=False)
        return _negative_nu(b, omega, derivative=False)
    if nu == 0.0:
        den = _check_pole(c1 + c2 * omega, c1, c2)
        return -2.0 * c2 / den
    k = math.sqrt(nu)
    den = _check_pole(c1 * cos(k * omega) + c2 * sin(k * omega), c1, c2)
    return 2.0 * k * (c1 * sin(k * omega) - c2 * cos(k * omega)) / den


def phi_prime(b: RiccatiBranch, omega) -> float:
    """Closed-form derivative of the branch, independent of the Riccati
    right-hand side (so that the residual check below means something)."""
    nu, c1, c2 = b.nu, b.c1, b.c2
    if nu < 0.0:
        if isinstance(omega, np.ndarray):
            return _phi_negative_nu_array(math.sqrt(-nu), c1, c2, omega, derivative=True)
        return _negative_nu(b, omega, derivative=True)
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
    """
    theta = entry.theta

    u = ScalarField(lambda T, X: phi(b, theta.expr(T, X)),
                    name=f"phi[nu={b.nu:g},c1={b.c1:g},c2={b.c2:g}](theta[{entry.id}])")

    def valid(p: Point) -> bool:
        if not entry.valid(p):
            return False
        try:
            phi(b, theta.value(*p))
        except EvaluationError:
            return False
        return True

    return SolutionField(
        u=u, f=entry.f,
        provenance=f"riccati-ansatz(case {entry.id}, nu={b.nu:g}, c1={b.c1:g}, c2={b.c2:g})",
        valid=valid)


def rational_solution(c1: float, c2: float, f: ScalarField) -> SolutionField:
    """u = (x + c1)/(t + c2), a solution for every arbitrary element f.

    u_xx = 0 kills the diffusion term and u_t + u*u_x = 0 identically, so
    the only restriction is the line t = -c2.
    """
    u = ScalarField(lambda T, X: (X + c1) / (T + c2), name=f"(x+{c1:g})/(t+{c2:g})")

    def valid(p: Point) -> bool:
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
