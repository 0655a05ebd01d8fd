"""Independent oracles that the tests compare the library with.

``fd_jet`` approximates every entry of a jet by central differences of point
values, so it shares nothing with the forward propagation of
:meth:`gburgers.jets.ScalarField.jet` (criterion 8).
``case5_theta_reduction_check`` compares case 5's quadrature with the closed
form it reduces to at lambda = 0 (criterion 10).
``sample_point`` draws the random points at which tests make such comparisons.
"""

import math

from gburgers.catalog import EPS_DEN, get_case
from gburgers.jets import Jet3, Point, Region, ScalarField, SingularPointError


def sample_point(region: Region, rng) -> Point:
    """A point drawn uniformly from ``region`` by the numpy Generator ``rng``."""
    return Point(rng.uniform(region.t0, region.t1), rng.uniform(region.x0, region.x1))


def fd_jet(field: ScalarField, p: Point, h: float = 1e-4) -> Jet3:
    """Second-order central-difference approximation of all Jet3 entries.

    Independent of :meth:`ScalarField.jet`: it uses only pointwise field values.
    """
    if h <= 0:
        raise ValueError("stencil width h must be positive")
    t, x = p

    def F(dt: float, dx: float) -> float:
        return field.value(t + dt, x + dx)

    f00 = F(0, 0)
    fp0, fm0 = F(h, 0), F(-h, 0)
    f0p, f0m = F(0, h), F(0, -h)
    fpp, fpm = F(h, h), F(h, -h)
    fmp, fmm = F(-h, h), F(-h, -h)
    f2p0, f2m0 = F(2 * h, 0), F(-2 * h, 0)
    f02p, f02m = F(0, 2 * h), F(0, -2 * h)

    h2 = h * h
    h3 = h2 * h
    return Jet3.from_derivatives(
        v=f00,
        d_t=(fp0 - fm0) / (2 * h),
        d_x=(f0p - f0m) / (2 * h),
        d_tt=(fp0 - 2 * f00 + fm0) / h2,
        d_tx=(fpp - fpm - fmp + fmm) / (4 * h2),
        d_xx=(f0p - 2 * f00 + f0m) / h2,
        d_ttt=(f2p0 - 2 * fp0 + 2 * fm0 - f2m0) / (2 * h3),
        d_ttx=(fpp - 2 * f0p + fmp - fpm + 2 * f0m - fmm) / (2 * h3),
        d_txx=(fpp - 2 * fp0 + fpm - fmp + 2 * fm0 - fmm) / (2 * h3),
        d_xxx=(f02p - 2 * f0p + 2 * f0m - f02m) / (2 * h3),
    )


def case5_theta_reduction_check(p: Point) -> float:
    """|theta_5(p) - ln|x - t|| for the reducible parameter value lam = 0.

    At lam = 0 the integrand of case 5 is 1/(w-1), whose antiderivative
    anchored at w0 = 2 is ln|w-1|, so theta = ln|t| + ln|x/t - 1| =
    ln|x - t| with no leftover constant.  Returns the absolute mismatch,
    which should vanish to quadrature accuracy.
    """
    entry = get_case(5, 0.0)
    t, x = p
    if not (t > 0.0 and x / t > 1.0):
        raise SingularPointError(
            f"reduction check requires t > 0 and x/t > 1, got {tuple(p)}")
    if abs(x - t) <= EPS_DEN:
        raise SingularPointError(f"x = t is a logarithmic singularity at lam = 0, got {tuple(p)}")
    return abs(entry.theta.value(t, x) - math.log(abs(x - t)))
