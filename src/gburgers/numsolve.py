"""Independent numerical integration of generalized Burgers IBVPs.

Method of lines: second-order central differences in space, classic
fourth-order Runge-Kutta in time with a parabolic step restriction, and
Dirichlet boundary rows pinned to data at every stage time.  With the sign
convention u_t = -u*u_x - f*u_xx, forward integration is diffusive only
for f < 0, so specs are rejected unless f stays strictly negative on the
region.

In manufactured-solution mode the initial and boundary data are sampled
from an exact solution, so the measured error is pure discretization
error; refining the grid must then show second-order convergence, which is
an end-to-end cross-check of the closed forms that never touches the jet
machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .ansatz import SolutionField
from .jets import EvaluationError, Point, Region, ScalarField, SingularPointError, csv_text

#: number of time samples used to probe f (and u data) before stepping
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
    """One initial-boundary-value problem on a space-time rectangle.

    Either ``exact`` (manufactured-solution mode) or all three of
    ``initial``/``left``/``right`` must be provided.
    """

    f: ScalarField
    region: Region
    n_x: int
    dt_safety: float = 0.8
    exact: Optional[SolutionField] = None
    initial: Optional[Callable[[np.ndarray], np.ndarray]] = None
    left: Optional[Callable[[float], float]] = None
    right: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.n_x < 8:
            raise ValueError("n_x must be at least 8")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError("dt_safety must lie in (0, 1]")
        manufactured = self.exact is not None
        explicit = (self.initial is not None and self.left is not None
                    and self.right is not None)
        if manufactured == explicit:
            raise ValueError("provide exactly one of: an exact solution, or "
                             "(initial, left, right) data functions")

    # data accessors used by the stepper

    def initial_values(self, xs: np.ndarray) -> np.ndarray:
        if self.exact is not None:
            return _exact_sample(self.exact, self.region.t0, xs)
        return np.asarray(self.initial(xs), dtype=float)

    def boundary_values(self, t: float) -> tuple[float, float]:
        if self.exact is not None:
            return (self.exact.u.value(t, self.region.x0),
                    self.exact.u.value(t, self.region.x1))
        return (float(self.left(t)), float(self.right(t)))


def _exact_sample(exact: SolutionField, t: float, xs: np.ndarray) -> np.ndarray:
    """The exact solution at time t on the mesh.  A pole of phi is NaN on
    arrays, and max/min would drop it silently, so a non-finite value raises."""
    vals = exact.u.sample(t, xs)
    if not np.all(np.isfinite(vals)):
        raise SingularPointError(f"exact solution is singular on the mesh at t = {t}")
    return vals


@dataclass(frozen=True)
class NumericSolution:
    ts: np.ndarray
    xs: np.ndarray
    values: np.ndarray  # shape (len(ts), len(xs))
    scheme_metadata: str

    def to_csv(self) -> str:
        """Every time level, row-major by time then space."""
        n_t, n_x = self.values.shape
        return csv_text(np.repeat(self.ts, n_x).tolist(), np.tile(self.xs, n_t).tolist(),
                        self.values.ravel().tolist())


def _probe_f(spec: IbvpSpec, xs: np.ndarray) -> tuple[float, float, Point]:
    """(max f, max |f|, argmax of f) over a probe grid of the region."""
    fmax = -math.inf
    fabs = 0.0
    arg = Point(spec.region.t0, spec.region.x0)
    for t in np.linspace(spec.region.t0, spec.region.t1, _PROBE_NT):
        vals = spec.f.sample(float(t), xs)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"f is not finite on the region at t = {t}")
        j = int(np.argmax(vals))
        if vals[j] > fmax:
            fmax = float(vals[j])
            arg = Point(float(t), float(xs[j]))
        fabs = max(fabs, float(np.max(np.abs(vals))))
    return fmax, fabs, arg


def solve_ibvp(spec: IbvpSpec) -> NumericSolution:
    """March the IBVP to the final time on a uniform grid.

    dt = dt_safety * min(dx^2/(2*max|f|), dx/(1 + max|u|)), rounded down so
    the final step lands exactly on t1.  Deterministic: identical specs
    produce bit-identical arrays.
    """
    region = spec.region
    xs = np.linspace(region.x0, region.x1, spec.n_x + 1)
    dx = (region.x1 - region.x0) / spec.n_x

    fmax, fabs, arg = _probe_f(spec, xs)
    if fmax >= 0.0:
        raise WellPosednessError(
            f"f must be strictly negative for forward integration; "
            f"f = {fmax:.6g} at (t, x) = ({arg.t:.6g}, {arg.x:.6g})")

    u0 = spec.initial_values(xs)
    umax = float(np.max(np.abs(u0)))
    for t in np.linspace(region.t0, region.t1, _PROBE_NT):
        bl, br = spec.boundary_values(float(t))
        umax = max(umax, abs(bl), abs(br))
    if spec.exact is not None:
        for t in np.linspace(region.t0, region.t1, 9):
            umax = max(umax, float(np.max(np.abs(_exact_sample(spec.exact, float(t), xs)))))

    span = region.t1 - region.t0
    dt_bound = spec.dt_safety * min(dx * dx / (2.0 * fabs), dx / (1.0 + umax))
    n_steps = max(1, int(math.ceil(span / dt_bound)))
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"step bound dt = {dt_bound:.3g} needs {n_steps} steps; "
            f"the data or coefficient magnitudes make this problem intractable")
    dt = span / n_steps

    ts = region.t0 + dt * np.arange(n_steps + 1)
    values = np.empty((n_steps + 1, spec.n_x + 1))
    values[0] = u0

    inv_2dx = 1.0 / (2.0 * dx)
    inv_dx2 = 1.0 / (dx * dx)
    x_int = xs[1:-1]

    def rhs(bounds: tuple[float, float], fv: np.ndarray, interior: np.ndarray) -> np.ndarray:
        full = np.empty(spec.n_x + 1)
        full[0], full[-1] = bounds
        full[1:-1] = interior
        ux = (full[2:] - full[:-2]) * inv_2dx
        uxx = (full[2:] - 2.0 * full[1:-1] + full[:-2]) * inv_dx2
        return -interior * ux - fv * uxx

    # each stage time is evaluated once: k2 and k3 share the midpoint data,
    # and the boundary pair of a level, taken at the t of the next k1, serves it
    u = u0[1:-1].copy()
    t = float(region.t0)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        bounds = spec.boundary_values(t)
        for n in range(n_steps):
            k1 = rhs(bounds, spec.f.sample(t, x_int), u)
            tm = t + 0.5 * dt
            mid = (spec.boundary_values(tm), spec.f.sample(tm, x_int))
            k2 = rhs(*mid, u + 0.5 * dt * k1)
            k3 = rhs(*mid, u + 0.5 * dt * k2)
            k4 = rhs(spec.boundary_values(t + dt), spec.f.sample(t + dt, x_int), u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = region.t0 + (n + 1) * dt
            if not np.all(np.isfinite(u)):
                raise BlowUpError(f"solution blew up between t = {t - dt} and t = {t}",
                                  last_stable_time=t - dt)
            bounds = spec.boundary_values(t)
            values[n + 1, 0], values[n + 1, -1] = bounds
            values[n + 1, 1:-1] = u

    meta = (f"method-of-lines central2 + RK4, n_x={spec.n_x}, dx={dx:.6g}, "
            f"dt={dt:.6g}, steps={n_steps}, dt_safety={spec.dt_safety}")
    return NumericSolution(ts=ts, xs=xs, values=values, scheme_metadata=meta)


def compare(num: NumericSolution, exact: SolutionField) -> tuple[float, float]:
    """(max, RMS) error against the exact solution at the final time."""
    diff = num.values[-1] - _exact_sample(exact, float(num.ts[-1]), num.xs)
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
        return {
            "resolutions": list(self.resolutions),
            "dx_values": list(self.dx_values),
            "max_errors": list(self.max_errors),
            "l2_errors": list(self.l2_errors),
            "observed_order": self.observed_order,
            "degenerate": self.degenerate,
            "non_monotone": self.non_monotone,
        }


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
    if spec_template.exact is None:
        raise ValueError("convergence studies need an exact solution to compare against")

    errors = [compare(solve_ibvp(replace(spec_template, n_x=n)), spec_template.exact)
              for n in res]

    span = spec_template.region.x1 - spec_template.region.x0
    dxs = [span / n for n in res]
    max_errs = [e[0] for e in errors]
    l2_errs = [e[1] for e in errors]

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
