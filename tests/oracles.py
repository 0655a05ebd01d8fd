"""Independent oracles that the tests compare the library with.

``fd_jet`` approximates every entry of a jet by central differences of point
values, so it shares nothing with the forward propagation of
:meth:`gburgers.jets.ScalarField.jet` (criterion 8).
``case5_theta_reduction_check`` compares case 5's quadrature with the closed
form it reduces to at lambda = 0 (criterion 10).
``sample_point`` draws the random points at which tests make such comparisons.
``reference_march`` is the RK4 march written one step and one stage time at a
time, against which :func:`gburgers.numsolve.march` is compared.
"""

import math

import numpy as np

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


def reference_march(spec, steps: int) -> list[tuple[float, np.ndarray]]:
    """Every (t, u) level of ``steps`` RK4 steps of u_t = -u*u_x - f*u_xx
    with central differences on ``spec``'s mesh, where f and the Dirichlet
    data are sampled at each stage time t_n + dt/2 and t_{n+1} = t0 + (n+1)*dt
    on its own and every intermediate result is a new array."""
    region = spec.region
    xs = np.linspace(region.x0, region.x1, spec.n_x + 1)
    dx = (region.x1 - region.x0) / spec.n_x
    dt = (region.t1 - region.t0) / steps
    x_int = xs[1:-1]

    def data(t):
        return spec.boundary_values([t])[0], spec.f.sample(np.full(x_int.shape, t), x_int)

    def rhs(row, fv):
        ux = (row[2:] - row[:-2]) * (1.0 / (2.0 * dx))
        uxx = (row[2:] - 2.0 * row[1:-1] + row[:-2]) * (1.0 / (dx * dx))
        return -row[1:-1] * ux - fv * uxx

    def stage(row, h, k, ends):
        out = row.copy()
        out[1:-1] += h * k
        out[0], out[-1] = ends
        return out

    t = float(region.t0)
    levels = [(t, spec.initial_values(xs))]
    ends, f_n = data(t)
    u = levels[0][1].copy()
    u[0], u[-1] = ends
    for n in range(steps):
        k1 = rhs(u, f_n)
        mid, fm = data(t + 0.5 * dt)
        k2 = rhs(stage(u, 0.5 * dt, k1, mid), fm)
        k3 = rhs(stage(u, 0.5 * dt, k2, mid), fm)
        t = region.t0 + (n + 1) * dt
        ends, f_n = data(t)
        k4 = rhs(stage(u, dt, k3, ends), f_n)
        u = stage(u, dt / 6.0, k1 + 2.0 * k2 + 2.0 * k3 + k4, ends)
        levels.append((t, u))
    return levels
