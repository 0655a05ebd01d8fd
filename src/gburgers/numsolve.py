"""Independent numerical integration of generalized Burgers IBVPs.

Method of lines: second-order central differences in space, classic
fourth-order Runge-Kutta in time with a parabolic step restriction, and
Dirichlet boundary rows pinned to data at every stage time.  The stage
times are t_n = t0 + n*dt and t_n + dt/2, and f and the Dirichlet data are
sampled once at each.  With the sign convention u_t = -u*u_x - f*u_xx,
forward integration is diffusive only for f < 0, so specs are rejected
unless f stays strictly negative on the region.

The oracle is manufactured-only: the initial and boundary data are
sampled from the exact solution being checked, so the measured error is
pure discretization error; refining the grid must then show second-order
convergence, which is an end-to-end cross-check of the closed forms that
never touches the jet machinery.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .ansatz import SolutionField
from .jets import EvaluationError, Region, ScalarField, SingularPointError

#: number of times at which f and the exact u are probed on the mesh before stepping
_PROBE_NT = 65

#: refuse runs that would take more steps than this
_MAX_STEPS = 20_000_000


class WellPosednessError(Exception):
    """f fails to be strictly negative somewhere on the region."""


class BlowUpError(Exception):
    def __init__(self, message: str, last_stable_time: float):
        super().__init__(message)
        self.last_stable_time = last_stable_time


@dataclass(frozen=True)
class IbvpSpec:
    """One initial-boundary-value problem on a space-time rectangle, with
    its initial and Dirichlet data taken from the exact solution ``exact``.

    ``f`` is the coefficient the march integrates with; it is normally
    ``exact.f``, and a different one makes a negative control.
    """

    f: ScalarField
    region: Region
    n_x: int
    exact: SolutionField
    dt_safety: float = 0.8

    def __post_init__(self) -> None:
        if self.n_x < 8:
            raise ValueError("n_x must be at least 8")
        if not self.region.x0 < self.region.x1:
            raise ValueError(f"the region's x span must be positive: x0 = x1 = {self.region.x0}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")

    def initial_values(self, xs: np.ndarray) -> np.ndarray:
        return _sample(self.exact.u, self.region.t0, xs)

    def boundary_values(self, t: float) -> tuple[float, float]:
        return (self.exact.u.value(t, self.region.x0), self.exact.u.value(t, self.region.x1))


def _sample(field: ScalarField, t, xs: np.ndarray, error=SingularPointError) -> np.ndarray:
    """field at (t, xs), where t is a float or an array like xs.  A pole of
    phi is NaN on arrays, and max/min would drop it silently, so the first
    non-finite value in row-major order raises, naming its point."""
    vals = field.sample(t, xs)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = bad[0]
        raise error(f"non-finite value of field {field.name or '<anonymous>'} at (t, x) = "
                    f"({np.broadcast_to(t, xs.shape)[i]:.6g}, {xs[i]:.6g})")
    return vals


class NumericSolution(NamedTuple):
    """One time level of a march: u on the mesh xs at time t."""

    t: float
    xs: np.ndarray
    u: np.ndarray
    scheme_metadata: str


def march(spec: IbvpSpec) -> Iterator[NumericSolution]:
    """March the IBVP on a uniform grid, yielding each time level in order
    and holding only the one being advanced.

    dt = dt_safety * min(dx^2/(2*max|f|), dx/(1 + max|u|)), rounded down so
    the final step lands exactly on t1, with f and the exact u sampled once
    each on one probe grid, _PROBE_NT rows of the mesh.  Every check runs
    before level 0, the initial data; later levels carry the Dirichlet data
    at their ends.  Step n samples f and those data at t_n + dt/2, for k2 and
    k3, and at t_{n+1} = t0 + (n+1)*dt, for k4, level n+1's ends and the next
    k1, so each time of the grid is sampled once.
    Deterministic: identical specs produce bit-identical levels.
    """
    region = spec.region
    xs = np.linspace(region.x0, region.x1, spec.n_x + 1)
    dx = (region.x1 - region.x0) / spec.n_x

    probe = region.points(_PROBE_NT, spec.n_x + 1)
    fv = _sample(spec.f, probe.t, probe.x, EvaluationError)
    j = int(np.argmax(fv))  # the first maximum in row-major order
    if fv[j] >= 0.0:
        raise WellPosednessError(
            f"f must be strictly negative for forward integration; "
            f"f = {fv[j]:.6g} at (t, x) = ({probe.t[j]:.6g}, {probe.x[j]:.6g})")
    fabs = float(np.max(np.abs(fv)))
    umax = float(np.max(np.abs(_sample(spec.exact.u, probe.t, probe.x))))
    u0 = spec.initial_values(xs)

    span = region.t1 - region.t0
    dt_bound = spec.dt_safety * min(dx * dx / (2.0 * fabs), dx / (1.0 + umax))
    n_steps = max(1, int(math.ceil(span / dt_bound)))
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"step bound dt = {dt_bound:.3g} needs {n_steps} steps; "
            f"the data or coefficient magnitudes make this problem intractable")
    dt = span / n_steps
    meta = (f"method-of-lines central2 + RK4, n_x={spec.n_x}, dx={dx:.6g}, "
            f"dt={dt:.6g}, steps={n_steps}, dt_safety={spec.dt_safety}")

    inv_2dx = 1.0 / (2.0 * dx)
    inv_dx2 = 1.0 / (dx * dx)
    x_int = xs[1:-1]

    def rhs(row: np.ndarray, fv: np.ndarray) -> np.ndarray:
        """du/dt on the interior of a full row whose ends hold the Dirichlet data."""
        ux = (row[2:] - row[:-2]) * inv_2dx
        uxx = (row[2:] - 2.0 * row[1:-1] + row[:-2]) * inv_dx2
        return -row[1:-1] * ux - fv * uxx

    def stage(row: np.ndarray, h: float, k: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
        """A new row: row + h*k inside, the Dirichlet data at the ends."""
        out = row.copy()
        out[1:-1] += h * k
        out[0], out[-1] = bounds
        return out

    t = float(region.t0)
    yield NumericSolution(t, xs, u0, meta)
    u = u0.copy()
    # t_{n+1}'s data serve k4, level n+1's ends and the next k1; level 0's ends come from u0
    ends, f_n = spec.boundary_values(t), spec.f.sample(t, x_int)
    u[0], u[-1] = ends
    for n in range(n_steps):
        # blow-up is detected below; numpy's error state is never held across a yield
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(u, f_n)
            tm = t + 0.5 * dt
            mid, fm = spec.boundary_values(tm), spec.f.sample(tm, x_int)
            k2 = rhs(stage(u, 0.5 * dt, k1, mid), fm)
            k3 = rhs(stage(u, 0.5 * dt, k2, mid), fm)
            t = region.t0 + (n + 1) * dt
            ends, f_n = spec.boundary_values(t), spec.f.sample(t, x_int)
            k4 = rhs(stage(u, dt, k3, ends), f_n)
            u = stage(u, dt / 6.0, k1 + 2.0 * k2 + 2.0 * k3 + k4, ends)
        if not np.all(np.isfinite(u[1:-1])):
            raise BlowUpError(f"solution blew up between t = {t - dt} and t = {t}",
                              last_stable_time=t - dt)
        yield NumericSolution(t, xs, u, meta)


def solve_ibvp(spec: IbvpSpec) -> NumericSolution:
    """The last time level of :func:`march`."""
    for num in march(spec):
        pass
    return num


def compare(num: NumericSolution, exact: SolutionField) -> tuple[float, float]:
    """(max, RMS) error of a time level against the exact solution."""
    diff = num.u - _sample(exact.u, num.t, num.xs)
    return (float(np.max(np.abs(diff))), float(np.sqrt(np.mean(diff * diff))))


@dataclass(frozen=True)
class ConvergenceReport:
    resolutions: tuple[int, ...]
    dx_values: tuple[float, ...]
    max_errors: tuple[float, ...]
    l2_errors: tuple[float, ...]
    observed_order: float
    degenerate: bool      # errors at the roundoff floor, slope meaningless
    non_monotone: bool    # errors did not decrease under refinement

    def to_dict(self) -> dict:
        """The report as JSON values: a degenerate study's order, NaN here, is None."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        if self.degenerate:
            d["observed_order"] = None
        return d


#: errors below this are considered to sit on the roundoff floor
_DEGENERATE_FLOOR = 1e-12


def convergence_study(spec_template: IbvpSpec,
                      resolutions: Sequence[int]) -> ConvergenceReport:
    """Refinement study in n_x; least-squares slope of log(max_err) vs log(dx).

    Requires at least three resolutions, each at least doubling the
    previous.  A non-monotone error sequence is reported with a warning
    flag rather than raised; errors at roundoff set the degenerate flag.
    """
    res = tuple(int(r) for r in resolutions)
    if len(res) < 3:
        raise ValueError("need at least 3 resolutions")
    for a, b in zip(res, res[1:]):
        if b < 2 * a:
            raise ValueError(f"resolutions must at least double: {a} -> {b}")

    errors = [compare(solve_ibvp(replace(spec_template, n_x=n)), spec_template.exact)
              for n in res]

    span = spec_template.region.x1 - spec_template.region.x0
    dxs = [span / n for n in res]
    max_errs, l2_errs = (list(c) for c in zip(*errors))

    degenerate = any(e <= _DEGENERATE_FLOOR for e in max_errs)
    non_monotone = any(b >= a for a, b in zip(max_errs, max_errs[1:]))
    if degenerate:
        order = math.nan
    else:
        lx = np.log(np.array(dxs))
        ly = np.log(np.array(max_errs))
        order = float(np.polyfit(lx, ly, 1)[0])

    return ConvergenceReport(
        resolutions=res, dx_values=tuple(dxs),
        max_errors=tuple(max_errs), l2_errors=tuple(l2_errs),
        observed_order=order, degenerate=degenerate, non_monotone=non_monotone)
