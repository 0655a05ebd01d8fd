"""Point-transformation group acting on the generalized Burgers class.

An element is parameterized by (alpha, beta, gamma, delta, mu0, mu1, kappa)
and acts by

    t~ = (alpha*t + beta)/(gamma*t + delta)
    x~ = (kappa*x + mu1*t + mu0)/(gamma*t + delta)
    u~ = (kappa*(gamma*t + delta)*u - kappa*gamma*x + mu1*delta - mu0*gamma)/D
    f~ = kappa^2/D * f,            D = alpha*delta - beta*gamma != 0,

with kappa != 0.  The Moebius quadruple (alpha, beta, gamma, delta) is
defined only up to a nonzero multiplier; construction therefore
canonicalizes it to |D| = 1 with the first nonzero component positive, and
the action formulas always use the canonical values.  (mu0, mu1, kappa) are
absolute parameters relative to the canonical quadruple.

Transformations map every equation of the class to another equation of the
class, acting on solutions and on the arbitrary element f simultaneously;
``transform_solution`` keeps the pair consistent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .ansatz import SolutionField
from .jets import Point, ScalarField, SingularPointError, fail_where, refine, require_finite

_EPS_SINGULAR = 1e-13

#: the fields of an EquivalenceElement, in order
_KEYS = ("alpha", "beta", "gamma", "delta", "mu0", "mu1", "kappa")


@dataclass(frozen=True)
class EquivalenceElement:
    alpha: float
    beta: float
    gamma: float
    delta: float
    mu0: float = 0.0
    mu1: float = 0.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        require_finite(**{name: getattr(self, name) for name in _KEYS})
        a, b, g, d = (float(self.alpha), float(self.beta),
                      float(self.gamma), float(self.delta))
        det = a * d - b * g
        if det == 0.0 or not math.isfinite(det):
            raise ValueError("alpha*delta - beta*gamma must be nonzero and finite")
        if self.kappa == 0.0:
            raise ValueError("kappa must be nonzero")
        s = 1.0 / math.sqrt(abs(det))
        quad = [a * s, b * s, g * s, d * s]
        for q in quad:
            if q != 0.0:
                if q < 0.0:
                    quad = [-v for v in quad]
                break
        for name, v in zip(_KEYS, (*quad, self.mu0, self.mu1, self.kappa)):
            object.__setattr__(self, name, float(v))

    @property
    def det(self) -> float:
        """alpha*delta - beta*gamma of the canonical quadruple (+-1)."""
        return self.alpha * self.delta - self.beta * self.gamma

    @classmethod
    def galilean(cls, mu: float) -> "EquivalenceElement":
        """The boost t~ = t, x~ = x + mu*t, u~ = u + mu, f~ = f."""
        return cls(1.0, 0.0, 0.0, 1.0, mu0=0.0, mu1=mu, kappa=1.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EquivalenceElement":
        missing = [k for k in _KEYS if k not in d]
        if missing:
            raise ValueError(f"element is missing keys {missing}")
        return cls(**{k: float(d[k]) for k in _KEYS})


def identity() -> EquivalenceElement:
    return EquivalenceElement(1.0, 0.0, 0.0, 1.0)


def _from_raw(a, b, g, d, m0, m1, k) -> EquivalenceElement:
    # Flip the sign of all seven parameters (action-neutral) so that the
    # constructor's quadruple-only sign fix becomes a no-op; without this,
    # composed elements could end up acting with the wrong orientation.
    for q in (a, b, g, d):
        if q != 0.0:
            if q < 0.0:
                a, b, g, d, m0, m1, k = -a, -b, -g, -d, -m0, -m1, -k
            break
    return EquivalenceElement(a, b, g, d, m0, m1, k)


def _regular(g: EquivalenceElement, t):
    """True (elementwise for an array) where gamma*t + delta stays off zero."""
    return abs(g.gamma * t + g.delta) > _EPS_SINGULAR


def _den(g: EquivalenceElement, t):
    """gamma*t + delta, kept off zero (and NaN t) by :func:`fail_where`."""
    return fail_where(np.logical_not(_regular(g, t)), g.gamma * t + g.delta,
                      "projective singularity gamma*t + delta = 0 at t = {}", t,
                      error=SingularPointError)


def _point_action(g: EquivalenceElement, t, x, den=None):
    """(t~, x~) of (t, x), which may be floats, arrays or jets; ``den`` is
    gamma*t + delta, formed unchecked when not given."""
    if den is None:
        den = g.gamma * t + g.delta
    return (g.alpha * t + g.beta) / den, (g.kappa * x + g.mu1 * t + g.mu0) / den


def _u_action(g: EquivalenceElement, t, x, u, den=None):
    """u~ of the value u at (t, x); ``den`` as for :func:`_point_action`."""
    if den is None:
        den = g.gamma * t + g.delta
    return (g.kappa * den * u - g.kappa * g.gamma * x
            + g.mu1 * g.delta - g.mu0 * g.gamma) / g.det


def apply_point(g: EquivalenceElement, p: Point) -> Point:
    """Image of p; a Point of arrays maps elementwise, NaN where singular."""
    return Point(*_point_action(g, p.t, p.x, _den(g, p.t)))


def apply_u(g: EquivalenceElement, p: Point, u: float) -> float:
    return _u_action(g, p.t, p.x, u, _den(g, p.t))


def compose(g1: EquivalenceElement, g2: EquivalenceElement) -> EquivalenceElement:
    """Element acting as g1 after g2 (matrix product on the Moebius part).

    Raises :class:`ValueError` when the product's determinant rounds to
    zero, as the constructor does for any singular quadruple.
    """
    a = g1.alpha * g2.alpha + g1.beta * g2.gamma
    b = g1.alpha * g2.beta + g1.beta * g2.delta
    g = g1.gamma * g2.alpha + g1.delta * g2.gamma
    d = g1.gamma * g2.beta + g1.delta * g2.delta
    k = g1.kappa * g2.kappa
    m1 = g1.kappa * g2.mu1 + g1.mu1 * g2.alpha + g1.mu0 * g2.gamma
    m0 = g1.kappa * g2.mu0 + g1.mu1 * g2.beta + g1.mu0 * g2.delta
    return _from_raw(a, b, g, d, m0, m1, k)


def inverse(g: EquivalenceElement) -> EquivalenceElement:
    det = g.det  # +-1 for canonical elements
    ai = g.delta / det
    bi = -g.beta / det
    gi = -g.gamma / det
    di = g.alpha / det
    ki = 1.0 / g.kappa
    m1i = -(g.mu1 * ai + g.mu0 * gi) / g.kappa
    m0i = -(g.mu1 * bi + g.mu0 * di) / g.kappa
    return _from_raw(ai, bi, gi, di, m0i, m1i, ki)


def transform_f(g: EquivalenceElement, f: ScalarField) -> ScalarField:
    """The arbitrary element of the transformed equation,
    f~(t~, x~) = kappa^2/D * f(t, x) with (t, x) the preimage of (t~, x~)."""
    ginv = inverse(g)
    scale = g.kappa * g.kappa / g.det

    def expr(T, X):
        return scale * f.expr(*_point_action(ginv, T, X))

    return ScalarField(expr, name=f"pushforward({f.name})")


def transform_solution(g: EquivalenceElement, sol: SolutionField) -> SolutionField:
    """Push a solution through g; the result solves the equation with the
    pushed-forward arbitrary element, u~(p~) = apply_u(g, p, u(p))."""
    ginv = inverse(g)

    def expr(T, X):
        t, x = _point_action(ginv, T, X)
        return _u_action(g, t, x, sol.u.expr(t, x))

    def valid(p: Point):
        return refine(_regular(ginv, p.t), p, lambda q: sol.valid(apply_point(ginv, q)))

    return SolutionField(
        u=ScalarField(expr, name=f"pushforward({sol.u.name})"),
        f=transform_f(g, sol.f),
        provenance=f"transformed({sol.provenance})",
        valid=valid)
